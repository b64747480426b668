"""Soft-min weighting and the soft-min mixture loss.

The component weight is p_j = exp(-beta F_j) / sum_l exp(-beta F_l).
``beta = math.inf`` selects the hard-min limit (indicator of the argmin,
lowest index on ties); ``beta = 0`` gives uniform averaging.  Every
function takes ``beta`` as a plain float, and :func:`soft_min_weights`,
which they all reach, rejects a NaN or negative one.
"""
from __future__ import annotations

import math

import numpy as np

from .data import DataSet, ParamSet
from .losses import LossModel, batch_loss


def soft_min_weights(losses, beta: float) -> np.ndarray:
    """Soft-min probabilities at inverse temperature ``beta`` for one loss
    vector (or a batch of them).

    ``losses`` has shape (..., k); the returned array has the same shape and
    rows summing to 1.  The componentwise minimum is subtracted before
    exponentiation, so losses as large as 1e300 stay finite.
    """
    if math.isnan(beta) or beta < 0:
        raise ValueError("beta must be >= 0 (math.inf allowed)")
    losses = np.asarray(losses, dtype=np.float64)
    if losses.shape[-1] < 1:
        raise ValueError("loss vector must have at least one component")
    if np.any(np.isnan(losses)):
        raise ValueError("NaN in component losses")
    if math.isinf(beta):
        idx = np.argmin(losses, axis=-1)
        out = np.zeros_like(losses)
        np.put_along_axis(out, np.expand_dims(idx, -1), 1.0, axis=-1)
        return out
    shifted = losses - np.min(losses, axis=-1, keepdims=True)
    w = np.exp(-beta * shifted)
    return w / np.sum(w, axis=-1, keepdims=True)


def loss_matrix(params: ParamSet, dataset: DataSet, model: LossModel) -> np.ndarray:
    """Per-sample per-component base losses, shape (n, k)."""
    return batch_loss(model, dataset.X, dataset.y, params.thetas)


def weight_matrix(
    params: ParamSet, dataset: DataSet, model: LossModel, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Soft-min weight of every component on every sample, and the base
    losses they were formed from; both of shape (n, k)."""
    losses = loss_matrix(params, dataset, model)
    return soft_min_weights(losses, beta), losses


def mean_loss(weights: np.ndarray, losses: np.ndarray) -> float:
    """Mean soft-min loss of a :func:`weight_matrix` pair."""
    return float(np.mean(np.sum(weights * losses, axis=1)))


def empirical_loss(
    params: ParamSet, dataset: DataSet, model: LossModel, beta: float
) -> float:
    """Mean soft-min loss over the dataset."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    return mean_loss(*weight_matrix(params, dataset, model, beta))
