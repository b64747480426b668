"""Base loss families: value, gradient and certified convexity/smoothness constants.

Each family F(x, y; theta) = phi(<x, theta>, y) + c * lam * ||theta||^2 is one
record of the :data:`FAMILIES` table (phi, phi', the M-step curvature, c,
bounds on phi'', +-1 labels or not), read by the values, gradients, EM and
M-steps and certificates.  A :class:`LossModel` is the ``loss:`` section of
a config and nothing more; :func:`certify` returns the pair (m, M) it has on
a dataset, which the instance's :class:`~softmix.theory.ProblemConstants`
hold.

* ``ridge``          -- (y - <x, theta>)^2 + lam * ||theta||^2
* ``logistic``       -- log(1 + exp(-y <x, theta>)) + lam * ||theta||^2
* ``squared_hinge``  -- max(0, 1 - y <x, theta>)^2 + (lam / 2) * ||theta||^2
* ``glm``            -- (y - g(<x, theta>))^2 + lam * ||theta||^2
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .data import DataSet

RIDGE = "ridge"
LOGISTIC = "logistic"
SQUARED_HINGE = "squared_hinge"
GLM = "glm"


class CertificationError(ValueError):
    """Raised when (m, M) constants cannot be certified for a model."""


@dataclass(frozen=True)
class LinkFunction:
    """Scalar link g with derivatives and the bounds used for certification.

    ``df`` is g' elementwise, or a plain number where g' is constant, so
    that the ``glm`` M-step curvature 2 g'^2 is a constant there too.
    ``value_bound`` bounds |g|, ``d1_bound`` bounds |g'| and ``d2_bound``
    bounds |g''| over the whole real line.  ``value_bound`` may be infinite
    only when ``d2_bound`` is zero (identity-like links).
    """

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    df: Callable
    value_bound: float
    d1_bound: float
    d2_bound: float


def _sigmoid(z):
    """1 / (1 + e^-z) without masks: e^-|z| never overflows, and below 0 the
    value is e^z / (1 + e^z), so tiny outputs keep full relative accuracy."""
    e = np.empty_like(z, dtype=np.float64)
    np.abs(z, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(z >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def _logistic_phi(z, y):
    """log(1 + e^-m) at the margin m = y z, as log1p(e^-|m|) - min(m, 0):
    no term overflows, and every pass after the first writes in place."""
    m = y * z
    out = np.abs(m)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    np.minimum(m, 0.0, out=m)
    out -= m
    return out


def _logistic_dphi(z, y):
    """-y sigma(-m) at the margin m = y z, as -y e^-max(m, 0) / (1 + e^-|m|):
    both exponents are <= 0, and every pass after the first two writes in
    place.  Bit for bit -y * _sigmoid(-y * z), as y = +-1 multiplies exactly."""
    m = y * z
    den = np.abs(m)
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1.0
    np.maximum(m, 0.0, out=m)
    np.negative(m, out=m)
    np.exp(m, out=m)
    m *= -y
    m /= den
    return m


IDENTITY_LINK = LinkFunction(
    name="identity",
    f=lambda z: z,
    df=lambda z: 1.0,
    value_bound=math.inf,
    d1_bound=1.0,
    d2_bound=0.0,
)

TANH_LINK = LinkFunction(
    name="tanh",
    f=np.tanh,
    df=lambda z: 1.0 / np.cosh(z) ** 2,
    value_bound=1.0,
    d1_bound=1.0,
    # max |d^2 tanh / dz^2| = 4 / (3 sqrt(3))
    d2_bound=4.0 / (3.0 * math.sqrt(3.0)),
)

SIGMOID_LINK = LinkFunction(
    name="sigmoid",
    f=lambda z: _sigmoid(np.asarray(z, dtype=np.float64)),
    df=lambda z: (lambda s: s * (1.0 - s))(_sigmoid(np.asarray(z, dtype=np.float64))),
    value_bound=1.0,
    d1_bound=0.25,
    d2_bound=1.0 / (6.0 * math.sqrt(3.0)),
)

LINKS = {lk.name: lk for lk in (IDENTITY_LINK, TANH_LINK, SIGMOID_LINK)}


@dataclass(frozen=True)
class LossFamily:
    """One base loss phi(<x, theta>, y) + reg * lam * ||theta||^2.

    ``phi``, its derivative in the prediction ``dphi`` and the curvature
    ``d2phi`` of a Newton M-step take ``(z, y, link)`` elementwise.
    ``d2phi`` is phi'' itself, a plain number where phi'' is constant, or
    for ``glm`` its Gauss-Newton part 2 g'^2, which drops the -2 (y - g) g''
    term so that it never goes negative.
    ``curvature`` maps ``(link, max |y|)`` to bounds ``(lo, hi)`` on phi''
    over every z.
    """

    phi: Callable
    dphi: Callable
    d2phi: Callable
    reg: float
    curvature: Callable
    signed_labels: bool


def _glm_curvature(link: LinkFunction, max_abs_y: float):
    # phi'' = 2 g'^2 - 2 (y - g) g''; an unbounded g is harmless only when g'' = 0
    resid = 0.0 if link.d2_bound == 0.0 else (max_abs_y + link.value_bound) * link.d2_bound
    if not (math.isfinite(link.d1_bound) and math.isfinite(resid)):
        raise CertificationError(
            f"link {link.name!r}: unbounded g' or curved unbounded g; GLM not certifiable"
        )
    return -2.0 * resid, 2.0 * (link.d1_bound ** 2 + resid)


FAMILIES = {
    RIDGE: LossFamily(
        phi=lambda z, y, link: (y - z) ** 2,
        dphi=lambda z, y, link: -2.0 * (y - z),
        d2phi=lambda z, y, link: 2.0,
        reg=1.0, curvature=lambda link, max_abs_y: (2.0, 2.0), signed_labels=False,
    ),
    LOGISTIC: LossFamily(
        phi=lambda z, y, link: _logistic_phi(z, y),
        dphi=lambda z, y, link: _logistic_dphi(z, y),
        # y^2 = 1, so phi'' = sigma(yz) sigma(-yz)
        d2phi=lambda z, y, link: (lambda s: s * (1.0 - s))(_sigmoid(-y * z)),
        reg=1.0, curvature=lambda link, max_abs_y: (0.0, 0.25), signed_labels=True,
    ),
    SQUARED_HINGE: LossFamily(
        phi=lambda z, y, link: np.maximum(0.0, 1.0 - y * z) ** 2,
        dphi=lambda z, y, link: -2.0 * np.maximum(0.0, 1.0 - y * z) * y,
        d2phi=lambda z, y, link: np.where(1.0 - y * z > 0.0, 2.0, 0.0),
        reg=0.5, curvature=lambda link, max_abs_y: (0.0, 2.0), signed_labels=True,
    ),
    GLM: LossFamily(
        phi=lambda z, y, link: (y - link.f(z)) ** 2,
        dphi=lambda z, y, link: -2.0 * (y - link.f(z)) * link.df(z),
        d2phi=lambda z, y, link: 2.0 * link.df(z) ** 2,
        reg=1.0, curvature=_glm_curvature, signed_labels=False,
    ),
}


@dataclass(frozen=True)
class LossModel:
    """A base loss family with its regularization weight and, for ``glm``
    only, its link (identity when not given)."""

    family: str
    lam: float = 0.0
    link: Optional[LinkFunction] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {tuple(FAMILIES)}, got {self.family!r}")
        if not 0.0 <= self.lam < math.inf:
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam}")
        if self.family != GLM and self.link is not None:
            raise ValueError(f"link is read only by family glm, not {self.family}")
        if self.family == GLM and self.link is None:
            object.__setattr__(self, "link", IDENTITY_LINK)


def check_inputs(model: LossModel, X, y, thetas: np.ndarray):
    """Validate the inputs of a (k, d) stack once; returns X and y as float
    arrays."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.shape[1] != thetas.shape[1]:
        raise ValueError(
            f"dimension mismatch: covariates have d={X.shape[1]}, theta has d={thetas.shape[1]}"
        )
    if not np.all(np.isfinite(thetas)):
        raise ValueError("theta contains non-finite entries")
    if FAMILIES[model.family].signed_labels and not np.all(np.abs(y) == 1.0):
        raise ValueError(f"{model.family} labels must lie in {{-1, +1}}")
    return X, y


def component_losses(model: LossModel, X: np.ndarray, y: np.ndarray, thetas: np.ndarray):
    """``(Z, F)`` for a (k, d) stack whose inputs :func:`check_inputs` has
    passed: the (k, n) predictions Z = thetas X^T, whose rows of length n
    keep the family maps contiguous, and the (n, k) matrix of every
    component's losses formed from them."""
    family = FAMILIES[model.family]
    Z = thetas @ X.T
    F = family.phi(Z, y, model.link)
    F += family.reg * model.lam * np.sum(thetas * thetas, axis=1, keepdims=True)
    return Z, F.T


def batch_loss(model: LossModel, X: np.ndarray, y: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Per-sample loss values F(x_i, y_i; theta).

    ``theta`` is one vector of shape (d,), giving shape (n,), or a (k, d)
    stack, giving the (n, k) matrix of :func:`component_losses`.
    """
    theta = np.asarray(theta, dtype=np.float64)
    thetas = np.atleast_2d(theta)
    X, y = check_inputs(model, X, y, thetas)
    _, F = component_losses(model, X, y, thetas)
    return F if theta.ndim == 2 else F[:, 0]


def batch_gradient(model: LossModel, X: np.ndarray, y: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Per-sample gradients of F with respect to one theta, shape (n, d)."""
    theta = np.asarray(theta, dtype=np.float64)
    family = FAMILIES[model.family]
    X, y = check_inputs(model, X, y, theta[None, :])
    Z = theta[None, :] @ X.T
    grads = family.dphi(Z[0], y, model.link)[:, None] * X
    grads += 2.0 * family.reg * model.lam * theta
    return grads


def _hessian_bounds(model: LossModel, dataset: DataSet, r_sq: float):
    """Eigenvalue bounds (m, M) of phi'' x x^T + 2 c lam I over ||x||^2 <= r_sq.

    With phi'' in [lo, hi]: x x^T is singular for d > 1, so only a negative
    lo lowers m = 2 c lam + min(lo, 0) r_sq, and M = hi r_sq + 2 c lam.
    """
    family = FAMILIES[model.family]
    lo, hi = family.curvature(model.link, float(np.max(np.abs(dataset.y))))
    reg = 2.0 * family.reg * model.lam
    return reg + min(lo, 0.0) * r_sq, hi * r_sq + reg


def certify(model: LossModel, dataset: DataSet) -> Tuple[float, float]:
    """The constants (m, M) of ``model`` over ``dataset``, m <= M.

    They hold over the ball of the dataset's largest covariate norm.
    Raises :class:`CertificationError` when strong convexity fails (for
    instance lam = 0) or when a GLM link admits no smoothness constant.
    """
    if len(dataset) == 0:
        raise ValueError("cannot certify constants against an empty dataset")
    r_sq = dataset.max_sq_norm()
    m, M = _hessian_bounds(model, dataset, r_sq)
    if m <= 0.0:
        raise CertificationError(
            f"{model.family} loss is not strongly convex on this dataset "
            f"(m = {m:.6g} at lam = {model.lam:g})"
        )
    return m, M


def default_step_size(model: LossModel, dataset: DataSet) -> float:
    """Default gradient EM step size 1 / (2 M_bar), where M_bar bounds the
    smoothness of the dataset-averaged base loss.

    M_bar is the M of :func:`certify` with max_i ||x_i||^2 replaced by the
    top eigenvalue of the empirical second-moment matrix (1/n) X^T X.  The
    per-sample worst case of :func:`certify` can be orders of magnitude
    larger on heavy-tailed data and yields uselessly small steps.
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    second_moment = dataset.X.T @ dataset.X / len(dataset)
    top = float(np.linalg.eigvalsh(second_moment)[-1])
    return 1.0 / (2.0 * _hessian_bounds(model, dataset, top)[1])
