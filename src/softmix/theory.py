"""Problem-geometry constants and the closed-form convergence-bound quantities.

Empirical surrogates of the misspecification (epsilon, epsilon_1),
separation (delta) and region-mass (pi_min) constants are computed from a
dataset and a reference ParamSet, and held with the certified curvature
(m, M) of the loss in one :class:`ProblemConstants`; from it the
contraction factor, the weight bounds eta / eta', and the error floor zeta
are evaluated exactly as displayed in the convergence theorem.
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
    """The constants of an instance at a reference ParamSet.

    epsilon   -- max base loss at the reference over its own region
    epsilon1  -- max gradient norm at the reference over its own region
    delta     -- min cross-region base loss (inf when k = 1)
    pi_min    -- smallest region mass |S_j| / n
    m, M      -- strong convexity and smoothness of the loss on the data,
                 as :func:`~softmix.losses.certify` returned them
    region_of -- entry i is the region of sample i, or -1 on an exact tie
                 (see partition_regions); every region 0..k-1 occurs
    """

    epsilon: float
    epsilon1: float
    delta: float
    pi_min: float
    m: float
    M: float
    region_of: np.ndarray = field(compare=False, repr=False)

    @property
    def k(self) -> int:
        return int(np.max(self.region_of)) + 1

    @property
    def region_sizes(self) -> tuple:
        return tuple(np.bincount(self.region_of + 1)[1:].tolist())


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
    bound: Optional[float] = None

    def within(self, final: float) -> Optional[bool]:
        """Whether ``final`` meets the bound; None when none was evaluated."""
        return None if self.bound is None else final <= self.bound


def partition_regions(dataset: DataSet, reference: ParamSet, model: LossModel):
    """Assign each sample to the component whose reference loss is strictly best.

    Returns ``(region_of, fmat)``: ``region_of[i]`` is the j with
    F(x_i, y_i; theta*_j) < F(x_i, y_i; theta*_l) for every l != j, and -1
    on an exact tie; ``fmat`` is the (n, k) loss matrix used.
    """
    fmat = loss_matrix(reference, dataset, model)
    is_min = fmat == np.min(fmat, axis=1, keepdims=True)
    strict = np.count_nonzero(is_min, axis=1) == 1
    return np.where(strict, np.argmax(is_min, axis=1), -1), fmat


def estimate_constants(
    dataset: DataSet, reference: ParamSet, model: LossModel, curvature
) -> ProblemConstants:
    """Empirical (epsilon, epsilon1, delta, pi_min) at the reference ParamSet,
    with the ``region_of`` they were measured on and the pair ``curvature`` =
    (m, M) that :func:`~softmix.losses.certify` returned for ``model`` on ``dataset``.

    Warns, naming the caller, when delta <= epsilon.
    """
    region_of, fmat = partition_regions(dataset, reference, model)
    sizes = np.bincount(region_of + 1, minlength=reference.k + 1)[1:]
    if np.min(sizes) == 0:
        raise ValueError("some region is empty: pi_min = 0, constants undefined")
    epsilon = epsilon1 = 0.0
    delta = math.inf
    for j in range(reference.k):
        # in column j, region j's rows are own entries and the other regions' cross
        rows = np.flatnonzero(region_of == j)
        epsilon = max(epsilon, float(np.max(fmat[rows, j])))
        cross = fmat[(region_of >= 0) & (region_of != j), j]
        delta = min(delta, float(np.min(cross, initial=math.inf)))
        grads = batch_gradient(model, dataset.X[rows], dataset.y[rows], reference.theta(j))
        epsilon1 = max(epsilon1, float(np.max(np.linalg.norm(grads, axis=1))))
    if delta <= epsilon:
        warnings.warn(
            "separation delta <= misspecification epsilon: "
            "the convergence bounds are vacuous for this instance",
            stacklevel=2,
        )
    m, M = curvature
    return ProblemConstants(
        epsilon=epsilon,
        epsilon1=epsilon1,
        delta=delta,
        pi_min=int(np.min(sizes)) / len(dataset),
        m=m,
        M=M,
        region_of=region_of,
    )


def _exp(z: float) -> float:
    if z == -math.inf:
        return 0.0
    try:
        return math.exp(z)
    except OverflowError:
        return math.inf


def compute_eta(constants: ProblemConstants, beta: float, radius: float) -> float:
    """Weight deficit bound: within distance ``radius`` of the reference, on its
    own region the correct component's soft-min weight is at least 1 - eta."""
    if math.isinf(beta):
        raise ValueError("eta formula requires finite beta")
    k = constants.k
    if beta == 0.0:
        return 1.0 - 1.0 / k
    M = constants.M
    num = _exp(-beta * (constants.epsilon + constants.epsilon1 * radius + 0.5 * M * radius ** 2))
    if k == 1:
        den = 1.0
    else:
        den = 1.0 + (k - 1) * _exp(
            -beta * (constants.delta - (constants.epsilon1 + 2.0 * M) * radius)
        )
    return 1.0 - num / den


def compute_eta_prime(constants: ProblemConstants, beta: float, radius: float) -> float:
    """Weight leak bound: within distance ``radius`` of the reference, outside its
    region a component's soft-min weight is at most eta'.  Values above 1
    mark a vacuous regime."""
    if math.isinf(beta):
        raise ValueError("eta' formula requires finite beta")
    if beta == 0.0:
        return 1.0
    M = constants.M
    exponent = -beta * (
        constants.delta
        - (constants.epsilon1 + 2.0 * M) * radius
        - constants.epsilon
        - constants.epsilon1 * radius
        - 0.5 * M * radius ** 2
    )
    return _exp(exponent)


def compute_error_floor(
    constants: ProblemConstants, gamma: float, radius: float, eta_prime: float
) -> float:
    """Additive error floor zeta of the one-step contraction bound."""
    if gamma < 0 or radius < 0 or eta_prime < 0:
        raise ValueError("inputs must be nonnegative")
    e1 = constants.epsilon1
    return (
        gamma * e1
        + math.sqrt(gamma * e1 * radius)
        + gamma * eta_prime * (2.0 + e1 + constants.M * radius)
    )


def compute_contraction(gamma: float, pi_min: float, m: float, eta: float) -> Optional[float]:
    """One-step contraction factor (1 - gamma * pi_min * m * (1 - eta))^(1/2);
    None (vacuous) when eta >= 1, when the step is too large for the bound,
    gamma * pi_min * m * (1 - eta) >= 1, or when the factor rounds to
    1.0 and so contracts nothing (a zero step, or 1 - eta below rounding)."""
    inner = gamma * pi_min * m * (1.0 - eta)
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
    constants: ProblemConstants, beta: float, gamma: float, d0, T: int
) -> TheoremQuantities:
    """The quantities for a run of T iterations from aligned distances ``d0``,
    one per component, at the absolute start radius c = max(d0).

    The one place that decides whether the theorem applies: ``bound`` is the
    max over components of :func:`predicted_distance_bound` when there is a
    contraction, eta' <= 1 and zeta is finite, and None otherwise.
    """
    d0 = np.asarray(d0, dtype=np.float64)
    c = float(np.max(d0))
    eta = compute_eta(constants, beta, c)
    eta_prime = compute_eta_prime(constants, beta, c)
    zeta = compute_error_floor(constants, gamma, c, eta_prime)
    contraction = compute_contraction(gamma, constants.pi_min, constants.m, eta)
    bound = None
    if contraction is not None and eta_prime <= 1.0 and math.isfinite(zeta):
        bound = float(np.max(predicted_distance_bound(d0, contraction, zeta, T)))
    return TheoremQuantities(eta, eta_prime, zeta, contraction, bound)
