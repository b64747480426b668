"""Gradient EM: soft-min weighted gradient steps over disjoint data folds."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

from .data import DataSet, ParamSet
from .losses import FAMILIES, LossModel, batch_gradient
from .softmin import SoftMinConfig, empirical_loss, mean_loss, weight_matrix


@dataclass(frozen=True)
class EMConfig:
    """Run parameters for gradient EM.

    ``resample=True`` splits the data into ``iterations`` disjoint folds and
    consumes fold t at iteration t; ``resample=False`` reuses the full
    dataset every iteration.
    """

    step_size: float
    iterations: int
    softmin: SoftMinConfig = field(default_factory=SoftMinConfig)
    resample: bool = True
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.step_size) and self.step_size >= 0):
            raise ValueError("step_size must be a finite number >= 0")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


@dataclass
class TraceRecord:
    t: int
    distances: np.ndarray  # per reference component, aligned
    loss: float


@dataclass
class ConvergenceTrace:
    """Per-iteration distances/losses plus a fitted geometric rate and floor."""

    records: List[TraceRecord]
    fitted_rate: Optional[float] = None
    fitted_floor: Optional[float] = None
    alignment: Optional[np.ndarray] = None  # params index -> reference index

    def max_distances(self) -> np.ndarray:
        return np.array([np.max(r.distances) for r in self.records])

    def final_distance(self) -> float:
        return float(self.max_distances()[-1])


def partition_dataset(dataset: DataSet, T: int, seed: int) -> List[DataSet]:
    """Split into T disjoint folds of size floor(n/T) via a seeded shuffle.

    Surplus samples (n mod T) are discarded.
    """
    n = len(dataset)
    if T < 1:
        raise ValueError("T must be >= 1")
    if n < T:
        raise ValueError(f"need at least T={T} samples, got n={n}")
    fold_size = n // T
    perm = np.random.default_rng(seed).permutation(n)
    return [
        dataset.subset(perm[t * fold_size : (t + 1) * fold_size]) for t in range(T)
    ]


def gradient_em_step(
    params: ParamSet,
    fold: DataSet,
    model: LossModel,
    config: EMConfig,
    weights: Optional[np.ndarray] = None,
) -> ParamSet:
    """One simultaneous update of all k components on one fold.

    Weights are computed once from the incoming parameters, unless the caller
    passes them: ``weights`` must then be the first matrix of
    ``weight_matrix(params, fold, model, config.softmin)``.  Every family's
    per-sample gradient is phi'(<x_i, theta_j>, y_i) x_i + 2 c lam theta_j, so
    the weighted sums of all k components are one product
    ``(phi'(Theta X^T) * W^T) @ X`` of shape (k, d), plus the regularizer term
    2 c lam (sum_i W_ij) theta_j.  At k = 1 the step is exact gradient
    descent: the sum over samples of :func:`~softmix.losses.batch_gradient`,
    bit for bit.  The input ParamSet is not modified.
    """
    if len(fold) == 0:
        raise ValueError("empty fold")
    if weights is None:
        weights, _ = weight_matrix(params, fold, model, config.softmin)
    elif weights.shape != (len(fold), params.k):
        raise ValueError(
            f"weights have shape {weights.shape}, expected {(len(fold), params.k)}"
        )
    if params.k == 1:
        # weights of exactly 1.0 (NaN where a loss overflowed) keep plain gradient descent bitwise
        grads = batch_gradient(model, fold.X, fold.y, params.theta(0))
        grads *= weights
        step = np.sum(grads, axis=0)[None, :]
    else:
        # weight_matrix validated the inputs
        family = FAMILIES[model.family]
        coefs = family.dphi(params.thetas @ fold.X.T, fold.y, model.link)
        coefs *= weights.T
        step = coefs @ fold.X
        # sum_i W_ij as a product: np.sum down k short columns is ~10x slower
        mass = np.ones(len(fold)) @ weights
        step += (2.0 * family.reg * model.lam * mass)[:, None] * params.thetas
    if not np.all(np.isfinite(step)):
        raise ValueError("non-finite gradient in EM step")
    return ParamSet(params.thetas - (config.step_size / len(fold)) * step)


def align_to_reference(params: ParamSet, reference: ParamSet):
    """Min-cost component matching against a reference ParamSet.

    Returns ``(perm, distances)`` where ``perm[i]`` is the reference index
    matched to component i, and ``distances[j]`` is the distance from
    reference component j to its matched iterate.
    """
    if params.k != reference.k:
        raise ValueError("component counts differ")
    diff = params.thetas[:, None, :] - reference.thetas[None, :, :]
    cost = np.linalg.norm(diff, axis=2)
    rows, cols = linear_sum_assignment(cost)
    distances = np.empty(reference.k)
    distances[cols] = cost[rows, cols]
    return cols, distances


def fit_rate_and_floor(max_distances: np.ndarray):
    """Geometric-rate fit of the pre-floor segment of a distance sequence.

    The floor is the final distance; the fit covers iterations whose distance
    exceeds twice the floor (the plateau is excluded).  Returns
    ``(rate, floor)`` with ``rate=None`` when fewer than two points remain.
    """
    max_distances = np.asarray(max_distances, dtype=np.float64)
    floor = float(max_distances[-1])
    mask = (max_distances > 2.0 * floor) & (max_distances > 0.0)
    ts = np.nonzero(mask)[0]
    if ts.size < 2:
        return None, floor
    slope = np.polyfit(ts, np.log(max_distances[ts]), 1)[0]
    return float(math.exp(slope)), floor


def run_gradient_em(
    init: ParamSet,
    dataset: DataSet,
    model: LossModel,
    config: EMConfig,
    reference: Optional[ParamSet] = None,
) -> tuple[ParamSet, Optional[ConvergenceTrace]]:
    """Run T gradient EM iterations; with a reference, collect a convergence trace.

    The trace records min-cost aligned component distances and the full-data
    loss at every iteration (including t=0) and fits a geometric rate and
    floor to the max-distance sequence.  A full-batch run takes the loss at
    theta_t from the weight matrices of the step out of theta_t.  Without a
    reference nothing is recorded and the trace is ``None``.
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    T = config.iterations
    if config.resample:
        folds = partition_dataset(dataset, T, config.seed)
    else:
        folds = None
    smcfg = config.softmin

    def record(t, params, loss):
        _, dists = align_to_reference(params, reference)
        return TraceRecord(t, dists, loss)

    params = init.copy()
    trace = None if reference is None else ConvergenceTrace(records=[])
    for t in range(T):
        weights = None  # the previous iteration's matrix goes before the next is formed
        if trace is not None:
            if folds is None:
                # full batch: the step's weights at theta_t also give the trace loss
                weights, losses = weight_matrix(params, dataset, model, smcfg)
                loss = mean_loss(weights, losses)
                del losses
            else:
                loss = empirical_loss(params, dataset, model, smcfg)
            trace.records.append(record(t, params, loss))
        fold = folds[t] if folds is not None else dataset
        params = gradient_em_step(params, fold, model, config, weights)

    if trace is not None:
        trace.records.append(record(T, params, empirical_loss(params, dataset, model, smcfg)))
        trace.alignment, _ = align_to_reference(params, reference)
        trace.fitted_rate, trace.fitted_floor = fit_rate_and_floor(trace.max_distances())
    return params, trace
