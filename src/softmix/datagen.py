"""Seeded synthetic dataset generators and the bit-stable dataset CSV format.

Every sample draws from its own Philox substream (key = seed * 2**64 + i),
so generation order and any future parallel split cannot change the output.
The reserved substream index 2**63 seeds the default truth parameters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .data import DataSet, ParamSet

GENERATIVE_MLR = "generative_mlr"
GENERATIVE_LOGISTIC = "generative_logistic"
AGNOSTIC_PIECEWISE = "agnostic_piecewise"
HEAVY_TAIL_MLR = "heavy_tail_mlr"
KINDS = (GENERATIVE_MLR, GENERATIVE_LOGISTIC, AGNOSTIC_PIECEWISE, HEAVY_TAIL_MLR)

COVARIATES = ("gaussian", "student_t", "uniform_ball")

_TRUTH_STREAM = 2 ** 63

# draws per sample before giving up; 1-in-1000 acceptance fails with p = e^-10
MAX_REJECTIONS = 10_000


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one synthetic dataset.

    ``margin`` > 0 rejection-samples covariates until the squared linear
    predictor gap min_{l != z} <x, theta_z - theta_l>^2 is at least
    ``margin``, which lower-bounds the empirical separation delta.
    ``perturb_amplitude`` scales the deterministic label perturbation of the
    agnostic kind (drives epsilon, epsilon1).
    """

    kind: str
    k: int
    d: int
    n: int
    noise_sigma: float = 0.0
    mix_weights: Optional[Tuple[float, ...]] = None
    covariate: str = "gaussian"
    cov_scale: float = 1.0
    t_dof: int = 5
    seed: int = 0
    truth: Optional[ParamSet] = None
    truth_scale: float = 1.0
    perturb_amplitude: float = 0.0
    margin: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        if self.covariate not in COVARIATES:
            raise ValueError(f"unknown covariate family {self.covariate!r}")
        if self.k < 1 or self.n < self.k or self.d < 1:
            raise ValueError("need k >= 1, d >= 1 and n >= k")
        if self.noise_sigma < 0 or self.margin < 0 or self.perturb_amplitude < 0:
            raise ValueError("noise_sigma, margin and perturb_amplitude must be >= 0")
        if self.t_dof < 3:
            raise ValueError("Student-t dof must be >= 3 for finite variance")
        if self.mix_weights is not None:
            w = np.asarray(self.mix_weights, dtype=np.float64)
            if w.shape != (self.k,) or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
                raise ValueError("mix_weights must be a k-simplex vector")
        if self.truth is not None and (
            self.truth.k != self.k or self.truth.d != self.d
        ):
            raise ValueError("truth ParamSet shape does not match (k, d)")


def _substream(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed * 2 ** 64 + index))


def _default_truth(spec: GenSpec) -> ParamSet:
    rng = _substream(spec.seed, _TRUTH_STREAM)
    thetas = rng.standard_normal((spec.k, spec.d))
    thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
    return ParamSet(spec.truth_scale * thetas)


def _draw_covariate(rng: np.random.Generator, spec: GenSpec) -> np.ndarray:
    cov = "student_t" if spec.kind == HEAVY_TAIL_MLR else spec.covariate
    if cov == "gaussian":
        return spec.cov_scale * rng.standard_normal(spec.d)
    if cov == "student_t":
        return spec.cov_scale * rng.standard_t(spec.t_dof, spec.d)
    # uniform over the ball of radius cov_scale
    direction = rng.standard_normal(spec.d)
    direction /= np.linalg.norm(direction)
    radius = spec.cov_scale * rng.random() ** (1.0 / spec.d)
    return radius * direction


def _gap_rows(truth: np.ndarray, weights: np.ndarray, spec: GenSpec):
    """Per component z, the rows theta_l - theta_z (l != z) of the margin test.

    On the ball of radius R, <x, theta_l - theta_z>^2 <= R^2 ||theta_l - theta_z||^2;
    raises when that bound rules out a component of positive weight.
    """
    bounded = spec.covariate == "uniform_ball" and spec.kind != HEAVY_TAIL_MLR
    radius = spec.cov_scale if bounded else math.inf
    rows = [np.delete(truth - truth[z], z, axis=0) for z in range(spec.k)]
    for z, gaps in enumerate(rows):
        closest = np.min(np.sum(gaps * gaps, axis=1), initial=math.inf)
        reach = radius ** 2 * closest if closest > 0.0 else 0.0
        if weights[z] > 0 and reach < spec.margin:
            raise ValueError(
                f"margin {spec.margin:g} is unreachable for component {z}: "
                f"R^2 * min_l ||theta_l - theta_z||^2 = {reach:.4g}"
            )
    return rows


def generate(spec: GenSpec) -> tuple[DataSet, ParamSet]:
    """Materialize the dataset and truth ParamSet of a GenSpec (ValueError: margin out of reach)."""
    truth = spec.truth if spec.truth is not None else _default_truth(spec)
    thetas = truth.thetas
    weights = (
        np.full(spec.k, 1.0 / spec.k)
        if spec.mix_weights is None
        else np.asarray(spec.mix_weights, dtype=np.float64)
    )
    gap_rows = _gap_rows(thetas, weights, spec)
    cumw = np.cumsum(weights)
    X = np.empty((spec.n, spec.d))
    y = np.empty(spec.n)
    for i in range(spec.n):
        rng = _substream(spec.seed, i)
        z = int(np.searchsorted(cumw, rng.random(), side="right"))
        z = min(z, spec.k - 1)
        for _ in range(MAX_REJECTIONS):
            x = _draw_covariate(rng, spec)
            if spec.margin == 0.0 or np.all((gap_rows[z] @ x) ** 2 >= spec.margin):
                break
        else:
            raise ValueError(
                f"sample {i} (component {z}) missed margin {spec.margin:g} {MAX_REJECTIONS} times"
            )
        pred = float(x @ thetas[z])
        if spec.kind in (GENERATIVE_MLR, HEAVY_TAIL_MLR):
            label = pred + spec.noise_sigma * rng.standard_normal()
        elif spec.kind == GENERATIVE_LOGISTIC:
            p_pos = 1.0 / (1.0 + math.exp(-pred)) if pred > -700 else 0.0
            label = 1.0 if rng.random() < p_pos else -1.0
        else:  # AGNOSTIC_PIECEWISE: deterministic, asymmetric, bounded
            norm_z = float(np.linalg.norm(thetas[z]))
            unit_pred = pred / norm_z if norm_z > 0 else 0.0
            label = pred + spec.perturb_amplitude * (0.6 + 0.4 * math.tanh(unit_pred))
        X[i] = x
        y[i] = label
    return DataSet(X, y), truth


# ---------------------------------------------------------------------------
# file format


def save_csv(dataset: DataSet, path) -> None:
    """CSV with header x_0..x_{d-1},y; 17 significant digits round-trips
    float64 exactly."""
    header = ",".join([f"x_{i}" for i in range(dataset.d)] + ["y"])
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i in range(dataset.n):
            row = list(dataset.X[i]) + [dataset.y[i]]
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def load_csv(path) -> DataSet:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header[-1] != "y" or not header[0].startswith("x_"):
            raise ValueError(f"{path}: not a softmix dataset CSV (bad header)")
        d = len(header) - 1
        rows = [[float(tok) for tok in line.split(",")] for line in fh if line.strip()]
    arr = np.asarray(rows, dtype=np.float64)
    if arr.shape[1] != d + 1:
        raise ValueError(f"{path}: inconsistent column count")
    return DataSet(arr[:, :d], arr[:, d])
