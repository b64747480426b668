"""Problem-geometry constants and the closed-form convergence-bound quantities.

Empirical surrogates of the misspecification (epsilon, epsilon_1),
separation (delta) and region-mass (pi_min) constants are computed from a
dataset and a reference ParamSet; from them the contraction factor, the
weight bounds eta / eta', and the error floor zeta are evaluated exactly as
displayed in the convergence theorem.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import DataSet, ParamSet
from .losses import LossModel, batch_gradient
from .softmin import loss_matrix


@dataclass(frozen=True)
class ProblemConstants:
    """Empirical geometry of an instance at a reference ParamSet.

    epsilon   -- max base loss at the reference over its own region
    epsilon1  -- max gradient norm at the reference over its own region
    delta     -- min cross-region base loss (inf when k = 1)
    pi_min    -- smallest region mass |S_j| / n
    regions   -- the sample indices of each region (see partition_regions)
    """

    epsilon: float
    epsilon1: float
    delta: float
    pi_min: float
    region_sizes: tuple
    regions: tuple = field(compare=False, repr=False)


@dataclass(frozen=True)
class TheoremQuantities:
    """The theorem's quantities at one instance, step size and start: weight
    bounds eta and eta', floor zeta, contraction factor (None when vacuous),
    and the T-iteration distance bound, None unless the theorem applies (see
    :func:`theorem_quantities`)."""

    eta: float
    eta_prime: float
    zeta: float
    contraction: Optional[float]
    c_universal: float = 1.0
    bound: Optional[float] = None

    def within(self, final: float) -> Optional[bool]:
        """Whether ``final`` meets the bound; None when none was evaluated."""
        return None if self.bound is None else final <= self.bound


def partition_regions(dataset: DataSet, reference: ParamSet, model: LossModel):
    """Assign each sample to the component whose reference loss is strictly best.

    Returns ``(regions, unassigned, fmat)``: region j holds indices i with
    F(x_i, y_i; theta*_j) < F(x_i, y_i; theta*_l) for every l != j; exact
    ties go to the unassigned set; ``fmat`` is the (n, k) loss matrix used.
    """
    fmat = loss_matrix(reference, dataset, model)
    best = np.argmin(fmat, axis=1)
    strict = np.count_nonzero(fmat == np.min(fmat, axis=1, keepdims=True), axis=1) == 1
    regions = [np.nonzero((best == j) & strict)[0] for j in range(reference.k)]
    return regions, np.nonzero(~strict)[0], fmat


def estimate_constants(
    dataset: DataSet, reference: ParamSet, model: LossModel
) -> ProblemConstants:
    """Empirical (epsilon, epsilon1, delta, pi_min) at the reference ParamSet,
    with the regions they were measured on.

    Warns, naming the caller, when delta <= epsilon.
    """
    regions, _, fmat = partition_regions(dataset, reference, model)
    sizes = [len(r) for r in regions]
    if min(sizes) == 0:
        raise ValueError("some region is empty: pi_min = 0, constants undefined")
    epsilon = epsilon1 = 0.0
    delta = math.inf
    for j, region in enumerate(regions):
        epsilon = max(epsilon, float(np.max(fmat[region, j])))
        grads = batch_gradient(
            model, dataset.X[region], dataset.y[region], reference.theta(j)
        )
        epsilon1 = max(epsilon1, float(np.max(np.linalg.norm(grads, axis=1))))
        others = np.delete(fmat[region], j, axis=1)
        delta = min(delta, float(np.min(others, initial=math.inf)))
    if delta <= epsilon:
        warnings.warn(
            "separation delta <= misspecification epsilon: "
            "the convergence bounds are vacuous for this instance",
            stacklevel=2,
        )
    return ProblemConstants(
        epsilon=epsilon,
        epsilon1=epsilon1,
        delta=delta,
        pi_min=min(sizes) / len(dataset),
        region_sizes=tuple(sizes),
        regions=tuple(regions),
    )


def _exp(z: float) -> float:
    if z == -math.inf:
        return 0.0
    try:
        return math.exp(z)
    except OverflowError:
        return math.inf


def compute_eta(
    constants: ProblemConstants, beta: float, c_ini: float, model: LossModel, k: int
) -> float:
    """Weight deficit bound: on its own region the correct component's
    soft-min weight is at least 1 - eta."""
    if not model.is_certified:
        raise ValueError("model must carry certified constants")
    if math.isinf(beta):
        raise ValueError("eta formula requires finite beta")
    if beta == 0.0:
        return 1.0 - 1.0 / k
    M = model.M
    num = _exp(-beta * (constants.epsilon + constants.epsilon1 * c_ini + 0.5 * M * c_ini ** 2))
    if k == 1:
        den = 1.0
    else:
        den = 1.0 + (k - 1) * _exp(
            -beta * (constants.delta - (constants.epsilon1 + 2.0 * M) * c_ini)
        )
    return 1.0 - num / den


def compute_eta_prime(
    constants: ProblemConstants, beta: float, c_ini: float, model: LossModel
) -> float:
    """Weight leak bound: outside its region a component's soft-min weight is
    at most eta'.  Values above 1 mark a vacuous regime."""
    if not model.is_certified:
        raise ValueError("model must carry certified constants")
    if math.isinf(beta):
        raise ValueError("eta' formula requires finite beta")
    if beta == 0.0:
        return 1.0
    M = model.M
    exponent = -beta * (
        constants.delta
        - (constants.epsilon1 + 2.0 * M) * c_ini
        - constants.epsilon
        - constants.epsilon1 * c_ini
        - 0.5 * M * c_ini ** 2
    )
    return _exp(exponent)


def compute_error_floor(
    constants: ProblemConstants,
    gamma: float,
    c_ini: float,
    eta_prime: float,
    model: LossModel,
) -> float:
    """Additive error floor zeta of the one-step contraction bound."""
    if gamma < 0 or c_ini < 0 or eta_prime < 0:
        raise ValueError("inputs must be nonnegative")
    if not model.is_certified:
        raise ValueError("model must carry certified constants")
    e1 = constants.epsilon1
    return (
        gamma * e1
        + math.sqrt(gamma * e1 * c_ini)
        + gamma * eta_prime * (2.0 + e1 + model.M * c_ini)
    )


def compute_contraction(
    gamma: float, pi_min: float, m: float, eta: float, c_universal: float = 1.0
) -> Optional[float]:
    """One-step contraction factor (1 - c * gamma * pi_min * m * (1 - eta))^(1/2);
    None (vacuous) when eta >= 1, when the step is too large for the bound,
    c * gamma * pi_min * m * (1 - eta) >= 1, or when the factor rounds to
    1.0 and so contracts nothing (a zero step, or 1 - eta below rounding)."""
    inner = c_universal * gamma * pi_min * m * (1.0 - eta)
    if eta >= 1.0 or inner >= 1.0:
        return None
    r = math.sqrt(1.0 - inner)
    return r if r < 1.0 else None


def predicted_distance_bound(
    initial_distances,
    contraction: float,
    zeta: float,
    T: int,
) -> np.ndarray:
    """T-iteration distance bound per component: the one-step bound applied
    recursively, r^T d0 + zeta (1 - r^T) / (1 - r)."""
    d0 = np.asarray(initial_distances, dtype=np.float64)
    if not (0.0 < contraction < 1.0):
        raise ValueError("contraction must lie in (0, 1)")
    if T < 0:
        raise ValueError("T must be nonnegative")
    if T == 0:
        return d0.copy()
    rT = contraction ** T
    return rT * d0 + zeta * (1.0 - rT) / (1.0 - contraction)


def theorem_quantities(
    constants: ProblemConstants,
    model: LossModel,
    beta: float,
    c_ini: float,
    gamma: float,
    d0,
    T: Optional[int] = None,
    c_universal: float = 1.0,
) -> TheoremQuantities:
    """The quantities for a run of T iterations from aligned distances ``d0``,
    one per component (k = len(d0)), at absolute start radius ``c_ini``.  An
    integer ``d0`` is k, with no bound.

    The one place that decides whether the theorem applies: ``bound`` is the
    max over components of :func:`predicted_distance_bound` when there is a
    contraction, eta' <= 1, zeta is finite and T is given, and None otherwise.
    """
    d0 = np.asarray(d0, dtype=np.float64)
    k = len(d0) if d0.ndim else int(d0)
    eta = compute_eta(constants, beta, c_ini, model, k)
    eta_prime = compute_eta_prime(constants, beta, c_ini, model)
    zeta = compute_error_floor(constants, gamma, c_ini, eta_prime, model)
    contraction = compute_contraction(gamma, constants.pi_min, model.m, eta, c_universal)
    bound = None
    if contraction is not None and eta_prime <= 1.0 and math.isfinite(zeta) and T is not None:
        bound = float(np.max(predicted_distance_bound(d0, contraction, zeta, T)))
    return TheoremQuantities(eta, eta_prime, zeta, contraction, c_universal, bound)
