"""Gradient EM: soft-min weighted gradient steps over disjoint data folds.

:class:`EMConfig`, less its ``seed``, is the ``em:`` section of a config.
Classical EM's E-step :func:`~softmix.softmin.weight_matrix` and its M-step
:func:`m_step` are what a multistart reference alternates to a fixed point.
A search checks its inputs once and runs the E-step's kernel
:func:`~softmix.softmin.e_step` on a (k, d) array; the M-step takes that
array and returns one, and :func:`m_step_matrix` is formed once per search.
Where a family's curvature is a constant (ridge, and ``glm`` with the
identity link) an M-step is one product of the weights with that matrix and
a k-fold d x d solve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import DataSet, ParamSet
from .datagen import _FOLD_STREAM, _substream
from .losses import FAMILIES, LossModel, batch_gradient, batch_loss
from .softmin import empirical_loss, mean_loss, weight_matrix

# m_step: the most halvings of a Newton step, and the relative rise of a
# weighted loss that counts as rounding rather than ascent
HALVINGS = 30
DESCENT_SLACK = 1e-12


@dataclass(frozen=True)
class EMConfig:
    """Run parameters for gradient EM.

    ``gamma`` is None until the run fixes it (an experiment takes the default
    step size of its data); a step needs it set.  ``beta = math.inf``
    selects the hard min.  ``resample=True`` splits the data into
    ``iterations`` disjoint folds, shuffled by ``seed``'s fold substream,
    and consumes fold t at iteration t; ``resample=False`` reuses the full
    dataset every iteration.
    """

    iterations: int
    gamma: Optional[float] = None
    beta: float = 1.0
    resample: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.gamma is not None and not (math.isfinite(self.gamma) and self.gamma > 0):
            # a zero step leaves every iterate at d0, which is then its own bound
            raise ValueError("gamma must be a finite number > 0 when given")
        if math.isnan(self.beta) or self.beta < 0:
            raise ValueError("beta must be >= 0")


@dataclass
class ConvergenceTrace:
    """Per-iteration aligned distances and losses of one run, t = 0..T, plus
    the final alignment; the fitted geometric rate derives from the distances.

    ``distances[t, j]`` is the distance from reference component j to its
    matched iterate at theta_t, shape (T+1, k); ``losses[t]`` is the
    full-data soft-min loss at theta_t, shape (T+1,).  ``alignment[i]`` is
    the reference index matched to component i of theta_T.  The final
    distance is the run's floor: :func:`fit_rate` excludes the plateau near it.
    """

    distances: np.ndarray
    losses: np.ndarray
    alignment: np.ndarray

    @property
    def fitted_rate(self) -> Optional[float]:
        return fit_rate(self.max_distances())

    def max_distances(self) -> np.ndarray:
        return np.max(self.distances, axis=1)

    def final_distance(self) -> float:
        return float(self.max_distances()[-1])


def partition_dataset(dataset: DataSet, T: int, seed: int) -> np.ndarray:
    """Row indices of T disjoint folds of size floor(n/T), shuffled by ``seed``'s
    fold substream: fold t is row t of the returned (T, floor(n/T)) array.

    Surplus samples (n mod T) are discarded.
    """
    n = len(dataset)
    if T < 1:
        raise ValueError("T must be >= 1")
    if n < T:
        raise ValueError(f"need at least T={T} samples, got n={n}")
    fold_size = n // T
    perm = _substream(seed, _FOLD_STREAM).permutation(n)
    return perm[: T * fold_size].reshape(T, fold_size)


def _weighted_gradients(
    Z: np.ndarray, thetas: np.ndarray, fold: DataSet, model: LossModel, weights: np.ndarray
):
    """``(mass, sums)`` from the (k, n) predictions Z = thetas X^T: each
    component's weight mass sum_i W_ij and its weighted gradient sum
    sum_i W_ij grad F(x_i, y_i; theta_j), shape (k, d)."""
    family = FAMILIES[model.family]
    coefs = family.dphi(Z, fold.y, model.link)
    coefs *= weights.T
    sums = coefs @ fold.X
    # sum_i W_ij as a product: np.sum down k short columns is ~10x slower
    mass = np.ones(len(fold)) @ weights
    sums += (2.0 * family.reg * model.lam * mass)[:, None] * thetas
    return mass, sums


def gradient_em_step(
    params: ParamSet,
    fold: DataSet,
    model: LossModel,
    config: EMConfig,
    weights: Optional[np.ndarray] = None,
    Z: Optional[np.ndarray] = None,
) -> ParamSet:
    """One simultaneous update of all k components on one fold.

    Weights are computed once from the incoming parameters, unless the caller
    passes them: ``weights`` must then be the first matrix of
    ``weight_matrix(params, fold, model, config.beta)``, or the fold's rows of
    the full data's matrix in the same column-major layout.  Every family's
    per-sample gradient is phi'(<x_i, theta_j>, y_i) x_i + 2 c lam theta_j, so
    the weighted sums of all k components are one product
    ``(phi'(Theta X^T) * W^T) @ X`` of shape (k, d), plus the regularizer term
    2 c lam (sum_i W_ij) theta_j.  The (k, n) predictions ``Z = Theta X^T``
    are the ones ``weight_matrix`` formed, or the caller's ``Z``, which must
    be the third value of ``weight_matrix`` on this very fold, passed with
    its ``weights``: a column slice of a larger product rounds differently.
    At k = 1 the step is exact gradient descent: the sum over samples of
    :func:`~softmix.losses.batch_gradient`, bit for bit.  The input ParamSet
    is not modified.
    """
    if len(fold) == 0:
        raise ValueError("empty fold")
    if config.gamma is None:
        raise ValueError("gamma is None: a step needs a step size")
    for name, given, shape in (("weights", weights, (len(fold), params.k)),
                               ("Z", Z, (params.k, len(fold)))):
        if given is not None and given.shape != shape:
            raise ValueError(f"{name}: shape {given.shape}, expected {shape}")
    if weights is None:
        if Z is not None:
            raise ValueError("Z without weights: a step that forms its own weights forms its own Z")
        weights, _, Z = weight_matrix(params, fold, model, config.beta)
    if params.k == 1:
        # weights of exactly 1.0 (NaN where a loss overflowed) keep plain gradient descent bitwise
        grads = batch_gradient(model, fold.X, fold.y, params.theta(0))
        grads *= weights
        step = np.sum(grads, axis=0)[None, :]
    else:
        if Z is None:
            # the caller's weight_matrix validated the inputs
            Z = params.thetas @ fold.X.T
        _, step = _weighted_gradients(Z, params.thetas, fold, model, weights)
    if not np.all(np.isfinite(step)):
        raise ValueError("non-finite gradient in EM step")
    return ParamSet(params.thetas - (config.gamma / len(fold)) * step)


def m_step_matrix(dataset: DataSet, model: LossModel) -> np.ndarray:
    """The matrix [x_i x_i^T | phi'(0, y_i) x_i | 1] of :func:`m_step`, one
    row per sample: shape (n, d * d + d + 1), the outer product flattened.

    For the (n, k) weights W, ``W.T @ m_step_matrix(dataset, model)`` holds
    per component the matrix A_j = sum_i W_ij x_i x_i^T, the vector
    b_j = sum_i W_ij phi'(0, y_i) x_i and the mass m_j = sum_i W_ij.  It
    depends on the data alone, so a multistart search forms it once.
    """
    X, y = dataset.X, dataset.y
    n, d = X.shape
    matrix = np.empty((n, d * d + d + 1))
    matrix[:, : d * d] = (X[:, :, None] * X[:, None, :]).reshape(n, d * d)
    family = FAMILIES[model.family]
    matrix[:, d * d : -1] = family.dphi(np.zeros(n), y, model.link)[:, None] * X
    matrix[:, -1] = 1.0
    return matrix


def m_step(
    thetas: np.ndarray,
    dataset: DataSet,
    model: LossModel,
    weights: np.ndarray,
    losses: np.ndarray,
    Z: np.ndarray,
    matrix: np.ndarray,
) -> np.ndarray:
    """One classical M-step at fixed weights: the (k, d) minimizers, or a
    Newton step, of each component's weighted loss
    L_j(theta) = sum_i W_ij F(x_i, y_i; theta).

    ``weights, losses, Z`` are the E-step's (:func:`weight_matrix`) at the
    (k, d) ``thetas``, and ``matrix`` is :func:`m_step_matrix` of the
    dataset.  Where the family's ``d2phi`` is a constant a (ridge, and
    ``glm`` with the identity link), phi'(z, y) = phi'(0, y) + a z, so L_j is
    quadratic and its minimizer is
    theta_j = (a A_j / m_j + 2 c lam I)^-1 (-b_j / m_j), with A_j, b_j and
    the mass m_j all from the one product ``weights.T @ matrix``.  Elsewhere
    it is one Newton step: the gradient of L_j is the weighted sum that
    :func:`gradient_em_step` forms, its Hessian
    sum_i W_ij phi''_ij x_i x_i^T + 2 c lam m_j I is, for all k components,
    one product with the outer products in ``matrix``, and a component's
    step is halved until L_j does not rise beyond rounding; one that finds
    no descent in :data:`HALVINGS` halvings keeps its theta.  A component of
    zero mass keeps its theta too.  Each Hessian is divided by its mass, so
    it stays >= 2 c lam I when the weights underflow.  Raises ValueError
    when a result is not finite; ``thetas`` is not modified.
    """
    family = FAMILIES[model.family]
    k, d = thetas.shape
    penalty = 2.0 * family.reg * model.lam * np.eye(d)
    d2phi = family.d2phi(Z, dataset.y, model.link)
    if np.ndim(d2phi) == 0:
        fitted = thetas.copy()
        sums = weights.T @ matrix
        held = sums[:, -1] > 0.0
        sums = sums[held] / sums[held, -1:]
        hess = d2phi * sums[:, : d * d].reshape(-1, d, d) + penalty
        fitted[held] = np.linalg.solve(hess, -sums[:, d * d : -1, None])[..., 0]
    else:
        mass, sums = _weighted_gradients(Z, thetas, dataset, model, weights)
        held = mass > 0.0
        hess = ((d2phi * weights.T)[held] @ matrix[:, : d * d]).reshape(-1, d, d)
        hess /= mass[held, None, None]
        hess += penalty
        direction = np.zeros((k, d))
        direction[held] = np.linalg.solve(hess, (sums[held] / mass[held, None])[..., None])[..., 0]
        ones = np.ones(len(dataset))
        before = ones @ (weights * losses)
        scale = np.ones(k)
        for _ in range(HALVINGS):
            fitted = thetas - scale[:, None] * direction
            after = ones @ (weights * batch_loss(model, dataset.X, dataset.y, fitted))
            rose = after > before + DESCENT_SLACK * np.abs(before)
            if not rose.any():
                break
            scale[rose] *= 0.5
        else:
            fitted[rose] = thetas[rose]
    if not np.all(np.isfinite(fitted)):
        raise ValueError("M-step parameters contain non-finite entries")
    return fitted


def fixed_point_residual(
    params: ParamSet, dataset: DataSet, model: LossModel, beta: float
) -> float:
    """max_j ||theta_j - step(theta)_j|| / gamma for one full-data gradient EM
    step: the largest mean weighted gradient (1/n) ||sum_i W_ij grad F_ij||,
    0 exactly at a fixed point of gradient EM, and so of classical EM."""
    weights, _, Z = weight_matrix(params, dataset, model, beta)
    _, sums = _weighted_gradients(Z, params.thetas, dataset, model, weights)
    return float(np.max(np.linalg.norm(sums, axis=1))) / len(dataset)


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
    reference: ParamSet,
) -> tuple[ParamSet, ConvergenceTrace]:
    """Run T gradient EM iterations and trace them against ``reference``.

    Each iterate theta_t, t < T, forms one full-data weight matrix: with its
    base losses it gives the trace's soft-min loss at theta_t, and its fold's
    rows weight the step out of theta_t (all of it at full batch, where the
    step also takes its predictions Z = Theta X^T; a resampled step forms its
    fold's own).  The trace fills one row of its distance and loss arrays per
    iterate theta_0..theta_T: the min-cost aligned component distances and
    the full-data soft-min loss.  theta_T is aligned once, for its distances
    and the trace's ``alignment``.  An untraced fit is
    :func:`gradient_em_step` in a loop.
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    T = config.iterations
    if config.resample:
        partition = partition_dataset(dataset, T, config.seed)
        folds = [(dataset.subset(rows), rows) for rows in partition]
    else:
        folds = [(dataset, slice(None))] * T

    params = init
    distances = np.empty((T + 1, reference.k))
    losses = np.empty(T + 1)
    for t, (fold, rows) in enumerate(folds):
        weights, F, Z = weight_matrix(params, dataset, model, config.beta)
        losses[t] = mean_loss(weights, F)
        del F
        _, distances[t] = align_to_reference(params, reference)
        # the step sums each column in memory order, so the fold's rows keep
        # weight_matrix's column-major layout: a C-ordered copy rounds
        # differently.  At full batch this is the matrix itself, uncopied.
        params = gradient_em_step(
            params, fold, model, config, np.asfortranarray(weights[rows]),
            Z=None if config.resample else Z,
        )
        del weights, Z  # freed before the next iterate's matrices are formed

    losses[T] = empirical_loss(params, dataset, model, config.beta)
    alignment, distances[T] = align_to_reference(params, reference)
    return params, ConvergenceTrace(distances, losses, alignment)
