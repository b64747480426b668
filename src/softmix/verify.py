"""Independent oracles for the run's ``checks``: finite differences, pointwise
weight-bound sweeps and the in/out-of-region step decomposition."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import DataSet, ParamSet
from .datagen import _LEMMA_STREAM, _substream, uniform_ball
from .em import EMConfig, align_to_reference, gradient_em_step
from .losses import LossModel, batch_gradient, batch_loss
from .softmin import weight_matrix
from .theory import ProblemConstants, compute_eta, compute_eta_prime

DEFAULT_FD_STEP = 1e-5

# relative error a correct analytic gradient stays within at DEFAULT_FD_STEP
GRADIENT_TOLERANCE = 1e-5

# numerical slack when comparing measured weights against the closed-form
# bounds; the bounds themselves are exact in reals
_LEMMA_SLACK = 1e-10


def finite_diff_gradient(
    model: LossModel, x, y: float, theta, h: float = DEFAULT_FD_STEP
) -> np.ndarray:
    """Central-difference gradient of F(x, y; theta) in theta.  ``x`` is one
    covariate vector of shape (d,) and ``y`` its label; every ``theta +- h e_i``
    is scored by one one-row :func:`~softmix.losses.batch_loss` on their
    (2d, d) stack."""
    if h <= 0:
        raise ValueError("finite-difference step h must be positive")
    theta = np.asarray(theta, dtype=np.float64)
    steps = h * np.eye(theta.shape[0])
    stack = np.concatenate([theta + steps, theta - steps])
    losses = batch_loss(model, np.asarray(x)[None, :], np.array([y]), stack)[0]
    plus, minus = np.split(losses, 2)
    return (plus - minus) / (2.0 * h)


def worst_gradient_error(model: LossModel, cases) -> float:
    """Largest ||analytic - finite difference|| / max(||analytic||, 1) over an
    iterable of ``(x, y, theta)`` cases: a covariate vector, its label and the
    parameter vector at which both gradients are taken."""
    worst = 0.0
    for x, y, theta in cases:
        analytic = batch_gradient(model, np.asarray(x)[None, :], np.array([y]), theta)[0]
        numeric = finite_diff_gradient(model, x, y, theta)
        denom = max(float(np.linalg.norm(analytic)), 1.0)
        worst = max(worst, float(np.linalg.norm(analytic - numeric) / denom))
    return worst


def _check_rows(dataset: DataSet, constants: ProblemConstants) -> None:
    """ValueError unless ``dataset`` has one row per entry of ``constants.region_of``."""
    if len(dataset) != len(constants.region_of):
        raise ValueError(
            f"dataset has {len(dataset)} rows, but the constants were measured on "
            f"{len(constants.region_of)}"
        )


@dataclass
class LemmaReport:
    """Tally of one pointwise weight-bound sweep.  ``worst_margin`` is the
    smallest measured margin to the bound: NaN when the bound is vacuous or
    nothing was checked."""

    checked: int
    violations: int
    worst_margin: float
    bound_vacuous: bool

    def add(self, margins: np.ndarray) -> None:
        """Count one trial's margins to the bound (negative: on the wrong side)."""
        self.checked += margins.size
        if not self.bound_vacuous and margins.size:
            self.worst_margin = float(np.fmin(self.worst_margin, np.min(margins)))
            self.violations += int(np.sum(margins < -_LEMMA_SLACK))


def check_lemma_bounds(
    dataset: DataSet,
    reference: ParamSet,
    model: LossModel,
    constants: ProblemConstants,
    beta: float,
    radii,
    trials: int,
    seed: int,
) -> tuple[LemmaReport, LemmaReport]:
    """Sweep random ParamSets in the start's ball (radius ``radii[j]`` about
    reference component j: the start's aligned distances) and compare
    measured soft-min weights against the closed-form bounds, taken at the
    theorem's start radius ``max(radii)``.  ``constants`` are the instance's,
    from :func:`~softmix.theory.estimate_constants` on ``dataset`` with its
    rows in the same order: row i's region is ``constants.region_of[i]``.

    Returns (own-region report, other-region report): own-region weights must
    be >= 1 - eta, cross-region weights <= eta'.  Tie samples are skipped.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_rows(dataset, constants)
    radii = np.asarray(radii, dtype=np.float64)
    c = float(np.max(radii))
    eta = compute_eta(constants, beta, c)
    eta_prime = compute_eta_prime(constants, beta, c)

    assigned = constants.region_of >= 0
    is_own = constants.region_of[assigned, None] == np.arange(reference.k)

    own = LemmaReport(0, 0, math.nan, bound_vacuous=eta >= 1.0)
    cross = LemmaReport(0, 0, math.nan, bound_vacuous=eta_prime > 1.0)
    for trial in range(trials):
        rng = _substream(seed, _LEMMA_STREAM + trial)
        offsets = uniform_ball(rng, radii, reference.k, reference.d)
        params = ParamSet(reference.thetas + offsets)
        weights = weight_matrix(params, dataset, model, beta)[0][assigned]
        own.add(weights[is_own] - (1.0 - eta))
        cross.add(eta_prime - weights[~is_own])
    return own, cross


@dataclass
class StepDecomposition:
    """In-region / out-of-region split of one EM step for component 1."""

    T1: float
    T2: float
    total: float


def step_decomposition(
    params: ParamSet,
    dataset: DataSet,
    model: LossModel,
    config: EMConfig,
    reference: ParamSet,
    constants: ProblemConstants,
) -> StepDecomposition:
    """Split the post-step distance of the first reference component, after
    one full-batch step on ``dataset``, into the own-region term T1 and the
    cross-region term T2 (total <= T1 + T2).  The regions are
    ``constants.region_of``, measured on ``dataset`` at ``reference``, whose
    rows must be in the order the constants were measured in."""
    _check_rows(dataset, constants)
    perm, _ = align_to_reference(params, reference)
    # component of params matched to reference component 0
    comp = int(np.nonzero(perm == 0)[0][0])
    in_region = constants.region_of == 0

    weights, _, Z = weight_matrix(params, dataset, model, config.beta)
    # the step rejects gamma=None before the split below divides it
    stepped = gradient_em_step(params, dataset, model, config, weights, Z)
    grads = batch_gradient(model, dataset.X, dataset.y, params.theta(comp))
    weighted = weights[:, comp][:, None] * grads
    scale = config.gamma / len(dataset)
    theta = params.theta(comp)
    theta_ref = reference.theta(0)
    t1 = float(
        np.linalg.norm(theta - theta_ref - scale * np.sum(weighted[in_region], axis=0))
    )
    t2 = float(scale * np.linalg.norm(np.sum(weighted[~in_region], axis=0)))
    total = float(np.linalg.norm(stepped.theta(comp) - theta_ref))
    return StepDecomposition(T1=t1, T2=t2, total=total)
