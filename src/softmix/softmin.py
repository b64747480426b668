"""Soft-min weighting and the soft-min mixture loss.

The component weight is p_j = exp(-beta F_j) / sum_l exp(-beta F_l).
``beta = math.inf`` selects the hard-min limit (indicator of the argmin,
lowest index on ties); ``beta = 0`` gives uniform averaging.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import DataSet, ParamSet
from .losses import LossModel, batch_loss


@dataclass(frozen=True)
class SoftMinConfig:
    """Inverse temperature for the soft-min weights (math.inf = hard min)."""

    beta: float = 1.0

    def __post_init__(self):
        if math.isnan(self.beta) or self.beta < 0:
            raise ValueError("beta must be >= 0 (math.inf allowed)")


def soft_min_weights(losses, config: SoftMinConfig) -> np.ndarray:
    """Soft-min probabilities for one loss vector (or a batch of them).

    ``losses`` has shape (..., k); the returned array has the same shape and
    rows summing to 1.  The componentwise minimum is subtracted before
    exponentiation, so losses as large as 1e300 stay finite.
    """
    losses = np.asarray(losses, dtype=np.float64)
    if losses.shape[-1] < 1:
        raise ValueError("loss vector must have at least one component")
    if np.any(np.isnan(losses)):
        raise ValueError("NaN in component losses")
    if math.isinf(config.beta):
        idx = np.argmin(losses, axis=-1)
        out = np.zeros_like(losses)
        np.put_along_axis(out, np.expand_dims(idx, -1), 1.0, axis=-1)
        return out
    shifted = losses - np.min(losses, axis=-1, keepdims=True)
    w = np.exp(-config.beta * shifted)
    return w / np.sum(w, axis=-1, keepdims=True)


def loss_matrix(params: ParamSet, dataset: DataSet, model: LossModel) -> np.ndarray:
    """Per-sample per-component base losses, shape (n, k)."""
    return batch_loss(model, dataset.X, dataset.y, params.thetas)


def weight_matrix(
    params: ParamSet, dataset: DataSet, model: LossModel, config: SoftMinConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Soft-min weight of every component on every sample, and the base
    losses they were formed from; both of shape (n, k)."""
    losses = loss_matrix(params, dataset, model)
    return soft_min_weights(losses, config), losses


def mean_loss(weights: np.ndarray, losses: np.ndarray) -> float:
    """Mean soft-min loss of a :func:`weight_matrix` pair."""
    return float(np.mean(np.sum(weights * losses, axis=1)))


def empirical_loss(
    params: ParamSet, dataset: DataSet, model: LossModel, config: SoftMinConfig
) -> float:
    """Mean soft-min loss over the dataset."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    return mean_loss(*weight_matrix(params, dataset, model, config))
