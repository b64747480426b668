"""Independent oracles: finite differences, brute-force minimization,
pointwise weight-bound sweeps, and the in/out-of-region step decomposition."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .data import DataSet, LabeledSample, ParamSet
from .em import EMConfig, align_to_reference, gradient_em_step
from .losses import LossModel, batch_gradient, loss_gradient, loss_value
from .softmin import SoftMinConfig, empirical_loss, weight_matrix
from .theory import _region_constants, compute_eta, compute_eta_prime, partition_regions

DEFAULT_FD_STEP = 1e-5

# relative error a correct analytic gradient stays within at DEFAULT_FD_STEP
GRADIENT_TOLERANCE = 1e-5

# numerical slack when comparing measured weights against the closed-form
# bounds; the bounds themselves are exact in reals
_LEMMA_SLACK = 1e-10


def finite_diff_gradient(
    model: LossModel, sample: LabeledSample, theta, h: float = DEFAULT_FD_STEP
) -> np.ndarray:
    """Central-difference gradient oracle, one coordinate at a time."""
    if h <= 0:
        raise ValueError("finite-difference step h must be positive")
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.empty_like(theta)
    for i in range(theta.shape[0]):
        hi = np.zeros_like(theta)
        hi[i] = h
        grad[i] = (
            loss_value(model, sample, theta + hi) - loss_value(model, sample, theta - hi)
        ) / (2.0 * h)
    return grad


def worst_gradient_error(model: LossModel, cases) -> float:
    """Largest ||analytic - finite difference|| / max(||analytic||, 1) over an
    iterable of ``(sample, theta)`` cases."""
    worst = 0.0
    for sample, theta in cases:
        analytic = loss_gradient(model, sample, theta)
        numeric = finite_diff_gradient(model, sample, theta)
        denom = max(float(np.linalg.norm(analytic)), 1.0)
        worst = max(worst, float(np.linalg.norm(analytic - numeric) / denom))
    return worst


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned search grid: ``points`` values per coordinate in
    [lo, hi]."""

    lo: float
    hi: float
    points: int

    def axis(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.points)


# the grid of the experiment driver's ``brute_force`` check
CHECK_GRID = GridSpec(-1.5, 1.5, 61)


def check_brute_force_budget(d: int, k: int, grid: GridSpec) -> None:
    """ValueError unless a brute-force search over ``grid`` is at toy scale:
    d <= 2, k <= 2 and at most 1e7 candidate ParamSets."""
    if d > 2 or k > 2:
        raise ValueError("brute force restricted to d <= 2 and k <= 2")
    total = grid.points ** (d * k)
    if total > 10 ** 7:
        raise ValueError(f"grid budget exceeded: {total} candidate ParamSets")


def brute_force_minimize(
    dataset: DataSet,
    model: LossModel,
    config: SoftMinConfig,
    k: int,
    grid: GridSpec,
) -> ParamSet:
    """Exhaustive grid search for the empirical soft-min loss minimizer.

    Only feasible at toy scale (see ``check_brute_force_budget``).
    """
    d = dataset.d
    check_brute_force_budget(d, k, grid)
    axis = grid.axis()
    points = (
        axis[:, None]
        if d == 1
        else np.array(list(itertools.product(axis, axis)))
    )
    best_loss = math.inf
    best = None
    for combo in itertools.product(range(len(points)), repeat=k):
        params = ParamSet(points[list(combo)])
        loss = empirical_loss(params, dataset, model, config)
        if loss < best_loss:
            best_loss = loss
            best = params
    return best


@dataclass
class LemmaReport:
    """Tally of one pointwise weight-bound sweep."""

    checked: int
    violations: int
    worst_margin: float
    bound_vacuous: bool


def check_lemma_bounds(
    dataset: DataSet,
    reference: ParamSet,
    model: LossModel,
    beta: float,
    c_ini: float,
    trials: int,
    seed: int,
) -> tuple[LemmaReport, LemmaReport]:
    """Sweep random ParamSets in the initialization ball and compare measured
    soft-min weights against the closed-form bounds.

    Returns (own-region report, other-region report): own-region weights must
    be >= 1 - eta, cross-region weights <= eta'.  Tie samples are skipped.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if math.isinf(beta):
        raise ValueError("bounds require finite beta")
    regions, unassigned, fmat = partition_regions(dataset, reference, model)
    constants = _region_constants(dataset, reference, model, regions, fmat)
    eta = compute_eta(constants, beta, c_ini, model, reference.k)
    eta_prime = compute_eta_prime(constants, beta, c_ini, model)
    lower = 1.0 - eta
    vac1 = eta >= 1.0
    vac2 = eta_prime > 1.0

    assigned = np.ones(len(dataset), dtype=bool)
    assigned[unassigned] = False
    # assigned samples have a strict argmin, so the row minimum marks their own component
    is_own = fmat[assigned] == np.min(fmat[assigned], axis=1, keepdims=True)

    smcfg = SoftMinConfig(beta=beta)
    norms = np.linalg.norm(reference.thetas, axis=1)
    checked1 = violations1 = 0
    checked2 = violations2 = 0
    worst1 = math.inf
    worst2 = math.inf
    for trial in range(trials):
        rng = np.random.Generator(np.random.Philox(key=seed * 2 ** 64 + trial))
        offsets = rng.standard_normal((reference.k, reference.d))
        offsets /= np.linalg.norm(offsets, axis=1, keepdims=True)
        radii = c_ini * norms * rng.random(reference.k) ** (1.0 / reference.d)
        params = ParamSet(reference.thetas + radii[:, None] * offsets)
        weights = weight_matrix(params, dataset, model, smcfg)[assigned]
        own_w, cross = weights[is_own], weights[~is_own]
        checked1 += own_w.size
        checked2 += cross.size
        if not vac1:
            margins = own_w - lower
            worst1 = min(worst1, float(np.min(margins)))
            violations1 += int(np.sum(margins < -_LEMMA_SLACK))
        if not vac2 and cross.size:
            margins = eta_prime - cross
            worst2 = min(worst2, float(np.min(margins)))
            violations2 += int(np.sum(margins < -_LEMMA_SLACK))

    rep1 = LemmaReport(checked1, violations1, worst1 if checked1 else math.nan, vac1)
    rep2 = LemmaReport(checked2, violations2, worst2 if checked2 else math.nan, vac2)
    return rep1, rep2


@dataclass
class StepDecomposition:
    """In-region / out-of-region split of one EM step for component 1."""

    T1: float
    T2: float
    total: float


def step_decomposition(
    params: ParamSet,
    fold: DataSet,
    model: LossModel,
    config: EMConfig,
    reference: ParamSet,
) -> StepDecomposition:
    """Split the post-step distance of the first reference component into the
    own-region term T1 and the cross-region term T2 (total <= T1 + T2)."""
    perm, _ = align_to_reference(params, reference)
    # component of params matched to reference component 0
    comp = int(np.nonzero(perm == 0)[0][0])
    regions, _, _ = partition_regions(fold, reference, model)
    if len(regions[0]) == 0:
        raise ValueError("region of the first reference component is empty")
    in_mask = np.zeros(len(fold), dtype=bool)
    in_mask[regions[0]] = True

    weights = weight_matrix(params, fold, model, config.softmin)
    grads = batch_gradient(model, fold.X, fold.y, params.theta(comp))
    weighted = weights[:, comp][:, None] * grads
    scale = config.step_size / len(fold)
    theta = params.theta(comp)
    theta_ref = reference.theta(0)
    t1 = float(
        np.linalg.norm(theta - theta_ref - scale * np.sum(weighted[in_mask], axis=0))
    )
    t2 = float(scale * np.linalg.norm(np.sum(weighted[~in_mask], axis=0)))
    stepped = gradient_em_step(params, fold, model, config)
    total = float(np.linalg.norm(stepped.theta(comp) - theta_ref))
    return StepDecomposition(T1=t1, T2=t2, total=total)
