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
from .losses import LossModel, batch_loss, check_inputs, component_losses


def soft_min_weights(losses, beta: float) -> np.ndarray:
    """Soft-min probabilities at inverse temperature ``beta`` for one loss
    vector (or a batch of them).

    ``losses`` has shape (..., k); the returned array has the same shape and
    layout, and rows summing to 1.  The componentwise minimum is subtracted
    before exponentiation, so losses as large as 1e300 stay finite.  The
    work is done on ``losses.T``, whose axis 0 is the component axis at every
    rank: for the column-major (n, k) matrix of :func:`weight_matrix` that is
    the contiguous axis.  A NaN loss makes its row's minimum NaN, so only the
    minima are checked.
    """
    if math.isnan(beta) or beta < 0:
        raise ValueError("beta must be >= 0 (math.inf allowed)")
    losses = np.asarray(losses, dtype=np.float64)
    if losses.shape[-1] < 1:
        raise ValueError("loss vector must have at least one component")
    per_component = losses.T
    low = np.min(per_component, axis=0)
    if np.isnan(low).any():
        raise ValueError("NaN in component losses")
    if math.isinf(beta):
        out = np.zeros_like(per_component)
        idx = np.argmin(per_component, axis=0)
        np.put_along_axis(out, np.expand_dims(idx, 0), 1.0, axis=0)
        return out.T
    w = per_component - low
    w *= -beta
    np.exp(w, out=w)
    w /= np.sum(w, axis=0)
    return w.T


def loss_matrix(params: ParamSet, dataset: DataSet, model: LossModel) -> np.ndarray:
    """Per-sample per-component base losses, shape (n, k)."""
    return batch_loss(model, dataset.X, dataset.y, params.thetas)


def e_step(
    thetas: np.ndarray, dataset: DataSet, model: LossModel, beta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`weight_matrix` at the (k, d) array ``thetas``, without the
    checks of :func:`~softmix.losses.check_inputs`: the E-step kernel, for
    a caller that checks its inputs once and then runs many E-steps."""
    Z, losses = component_losses(model, dataset.X, dataset.y, thetas)
    return soft_min_weights(losses, beta), losses, Z


def weight_matrix(
    params: ParamSet, dataset: DataSet, model: LossModel, beta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(weights, losses, Z)``: the soft-min weight of every component on
    every sample and the base losses they were formed from, both (n, k) and
    column-major, and the (k, n) predictions Z = Theta X^T of both, which
    a full-batch :func:`~softmix.em.gradient_em_step` reuses."""
    check_inputs(model, dataset.X, dataset.y, params.thetas)
    return e_step(params.thetas, dataset, model, beta)


def mean_loss(weights: np.ndarray, losses: np.ndarray) -> float:
    """Mean soft-min loss of :func:`weight_matrix`'s weights and losses."""
    return float(np.mean(np.sum(weights * losses, axis=1)))


def empirical_loss(
    params: ParamSet, dataset: DataSet, model: LossModel, beta: float
) -> float:
    """Mean soft-min loss over the dataset."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    weights, losses, _ = weight_matrix(params, dataset, model, beta)
    return mean_loss(weights, losses)
