"""Gradient EM: soft-min weighted gradient steps over disjoint data folds.

:class:`EMConfig`, less its ``seed``, is the ``em:`` section of a config.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .data import DataSet, ParamSet
from .losses import FAMILIES, LossModel, batch_gradient
from .softmin import empirical_loss, mean_loss, weight_matrix


@dataclass(frozen=True)
class EMConfig:
    """Run parameters for gradient EM.

    ``gamma`` is None until the run fixes it (an experiment takes the default
    step size of its data); a step needs it set.  ``beta = math.inf``
    selects the hard min.  ``resample=True`` splits the data into
    ``iterations`` disjoint folds, shuffled with ``seed``, and consumes fold
    t at iteration t; ``resample=False`` reuses the full dataset every
    iteration.
    """

    iterations: int
    gamma: Optional[float] = None
    beta: float = 1.0
    resample: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.gamma is not None and not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError("gamma must be a finite number >= 0 when given")
        if math.isnan(self.beta) or self.beta < 0:
            raise ValueError("beta must be >= 0")


@dataclass
class ConvergenceTrace:
    """Per-iteration aligned distances and losses of one run, t = 0..T, plus
    the final alignment and a fitted geometric rate.

    ``distances[t, j]`` is the distance from reference component j to its
    matched iterate at theta_t, shape (T+1, k); ``losses[t]`` is the
    full-data soft-min loss at theta_t, shape (T+1,).  ``alignment[i]`` is
    the reference index matched to component i of theta_T.  The final
    distance is the run's floor: :func:`fit_rate` excludes the plateau near it.
    """

    distances: np.ndarray
    losses: np.ndarray
    alignment: np.ndarray
    fitted_rate: Optional[float]

    def max_distances(self) -> np.ndarray:
        return np.max(self.distances, axis=1)

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
    ``weight_matrix(params, fold, model, config.beta)``.  Every family's
    per-sample gradient is phi'(<x_i, theta_j>, y_i) x_i + 2 c lam theta_j, so
    the weighted sums of all k components are one product
    ``(phi'(Theta X^T) * W^T) @ X`` of shape (k, d), plus the regularizer term
    2 c lam (sum_i W_ij) theta_j.  At k = 1 the step is exact gradient
    descent: the sum over samples of :func:`~softmix.losses.batch_gradient`,
    bit for bit.  The input ParamSet is not modified.
    """
    if len(fold) == 0:
        raise ValueError("empty fold")
    if config.gamma is None:
        raise ValueError("gamma is None: a step needs a step size")
    if weights is None:
        weights, _ = weight_matrix(params, fold, model, config.beta)
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
    return ParamSet(params.thetas - (config.gamma / len(fold)) * step)


def _min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Columns of a min-cost perfect matching of a square cost matrix:
    row i is matched to column ``cols[i]``.

    Shortest augmenting paths with row and column potentials (the Hungarian
    method, O(k^3)): each row is added in turn along the cheapest path in
    reduced costs to a free column.  Every scan of that search moves one
    column from ``free`` to ``used``, so a row takes at most k + 1 scans.
    Plain Python over a nested list beats numpy at the k of a mixture.
    """
    k = len(cost)
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix has a non-finite entry")
    rows = cost.tolist()
    # columns are 1-based: column 0 roots each search, with p[0] the row being added
    u = [0.0] * (k + 1)  # row potentials, by row + 1
    v = [0.0] * (k + 1)  # column potentials
    p = [0] * (k + 1)  # p[j]: row + 1 matched to column j, 0 while j is unmatched
    way = [0] * (k + 1)  # way[j]: the column before j on the shortest path
    for i in range(1, k + 1):
        p[0] = i
        j0 = 0
        minv = [math.inf] * (k + 1)
        used, free = [0], list(range(1, k + 1))
        for _ in range(k + 1):
            row, ui = rows[p[j0] - 1], u[p[j0]]
            delta, j1 = math.inf, 0
            for j in free:
                reduced = row[j - 1] - ui - v[j]
                if reduced < minv[j]:
                    minv[j], way[j] = reduced, j0
                if minv[j] < delta:
                    delta, j1 = minv[j], j
            if j1 == 0:
                raise ValueError("no augmenting path: the reduced costs overflowed")
            for j in used:
                u[p[j]] += delta
                v[j] -= delta
            for j in free:
                minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
            free.remove(j0)
            used.append(j0)
        while j0:
            p[j0] = p[way[j0]]
            j0 = way[j0]
    cols = [0] * k
    for j in range(1, k + 1):
        cols[p[j] - 1] = j - 1
    return np.array(cols, dtype=np.intp)


def align_to_reference(params: ParamSet, reference: ParamSet):
    """Min-cost component matching against a reference ParamSet.

    Returns ``(perm, distances)`` where ``perm[i]`` is the reference index
    matched to component i, and ``distances[j]`` is the distance from
    reference component j to its matched iterate.  Raises ValueError when a
    distance is not finite.
    """
    if params.k != reference.k:
        raise ValueError("component counts differ")
    diff = params.thetas[:, None, :] - reference.thetas[None, :, :]
    cost = np.linalg.norm(diff, axis=2)
    cols = _min_cost_assignment(cost)
    distances = np.empty(reference.k)
    distances[cols] = cost[np.arange(params.k), cols]
    return cols, distances


def fit_rate(max_distances: np.ndarray) -> Optional[float]:
    """Geometric-rate fit of the pre-floor segment of a distance sequence.

    The floor is the final distance; the fit covers iterations whose distance
    exceeds twice the floor (the plateau is excluded).  ``None`` when fewer
    than two points remain.
    """
    max_distances = np.asarray(max_distances, dtype=np.float64)
    floor = float(max_distances[-1])
    mask = (max_distances > 2.0 * floor) & (max_distances > 0.0)
    ts = np.nonzero(mask)[0]
    if ts.size < 2:
        return None
    slope = np.polyfit(ts, np.log(max_distances[ts]), 1)[0]
    return float(math.exp(slope))


def run_gradient_em(
    init: ParamSet,
    dataset: DataSet,
    model: LossModel,
    config: EMConfig,
    reference: Optional[ParamSet] = None,
) -> tuple[ParamSet, Optional[ConvergenceTrace]]:
    """Run T gradient EM iterations; with a reference, collect a convergence trace.

    The trace fills one row of its distance and loss arrays per iterate
    theta_0..theta_T: the min-cost aligned component distances and the
    full-data soft-min loss.  theta_T is aligned once, for its distances and
    the trace's ``alignment``.  A geometric rate is fitted to the max-distance
    sequence.  A full-batch run takes the loss at theta_t from
    the weight matrices of the step out of theta_t.  Without a reference
    nothing is recorded and the trace is ``None``.
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    T = config.iterations
    if config.resample:
        folds = partition_dataset(dataset, T, config.seed)
    else:
        folds = None

    params = init.copy()
    if reference is not None:
        distances = np.empty((T + 1, reference.k))
        losses = np.empty(T + 1)
    for t in range(T):
        weights = None  # the previous iteration's matrix goes before the next is formed
        if reference is not None:
            if folds is None:
                # full batch: the step's weights at theta_t also give the trace loss
                weights, F = weight_matrix(params, dataset, model, config.beta)
                losses[t] = mean_loss(weights, F)
                del F
            else:
                losses[t] = empirical_loss(params, dataset, model, config.beta)
            _, distances[t] = align_to_reference(params, reference)
        fold = folds[t] if folds is not None else dataset
        params = gradient_em_step(params, fold, model, config, weights)

    if reference is None:
        return params, None
    losses[T] = empirical_loss(params, dataset, model, config.beta)
    alignment, distances[T] = align_to_reference(params, reference)
    rate = fit_rate(np.max(distances, axis=1))
    return params, ConvergenceTrace(distances, losses, alignment, rate)
