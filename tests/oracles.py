"""Slow reference implementations that the tests check the library against.

``generate_by_block`` is the dataset generator of data layout v2 as first
written: block by block, each block through its own redraw rounds, with one
``(BLOCK, d)`` margin test per block per round, and its own forms of the ball
transform and the margin test.  ``softmix.datagen.generate`` moves all blocks
through the rounds in lockstep and must give the same bits.  The brute-force
grid search, feasible only at toy scale, is the oracle of the multistart
reference and of the weighted-loss minimizer.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from softmix.data import DataSet, ParamSet
from softmix.datagen import (
    BLOCK,
    GENERATIVE_LOGISTIC,
    GENERATIVE_MLR,
    MAX_REJECTIONS,
    GenSpec,
    _check_margin_reachable,
    _default_truth,
    _substream,
)
from softmix.losses import LossModel
from softmix.softmin import empirical_loss


def uniform_ball(rng, radius, rows: int, d: int) -> np.ndarray:
    """``(rows, d)`` points uniform in the ball of ``radius`` (a scalar, or one
    per row) about 0: normalized ``standard_normal((rows, d))`` directions,
    then the radii ``radius * random(rows) ** (1/d)``."""
    directions = rng.standard_normal((rows, d))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return (radius * rng.random(rows) ** (1.0 / d))[:, None] * directions


def _covariates(rng, spec: GenSpec, rows: int) -> np.ndarray:
    if spec.covariate == "gaussian":
        return spec.cov_scale * rng.standard_normal((rows, spec.d))
    if spec.covariate == "student_t":
        return spec.cov_scale * rng.standard_t(spec.t_dof, (rows, spec.d))
    return uniform_ball(rng, spec.cov_scale, rows, spec.d)


def _misses_margin(preds: np.ndarray, z: np.ndarray, margin: float) -> np.ndarray:
    """Rows whose squared gap min_{l != z} (pred_l - pred_z)^2 is below ``margin``."""
    rows = np.arange(len(z))
    gaps = (preds - preds[rows, z][:, None]) ** 2
    gaps[rows, z] = math.inf
    return np.min(gaps, axis=1) < margin


def _block(spec: GenSpec, b: int, thetas: np.ndarray, cumw: np.ndarray):
    """Block ``b``'s ``(BLOCK, d)`` covariates and ``(BLOCK,)`` labels."""
    rng = _substream(spec.seed, b)
    rows = np.arange(BLOCK)
    z = np.minimum(np.searchsorted(cumw, rng.random(BLOCK), side="right"), spec.k - 1)
    X = _covariates(rng, spec, BLOCK)
    # labels come from the product that losses and tests form, X @ thetas^T,
    # not a per-row dot product, which rounds differently: noiseless labels
    # then equal their component's prediction in the tests' shapes bit for bit
    preds = X @ thetas.T
    missing = np.flatnonzero(_misses_margin(preds, z, spec.margin))
    for _ in range(MAX_REJECTIONS - 1):
        if missing.size == 0:
            break
        X[missing] = _covariates(rng, spec, missing.size)
        preds = X @ thetas.T
        missing = missing[_misses_margin(preds[missing], z[missing], spec.margin)]
    if missing.size:
        i = missing[0]
        raise ValueError(
            f"sample {b * BLOCK + i} (component {z[i]}) missed margin {spec.margin:g} "
            f"{MAX_REJECTIONS} times"
        )
    pred = preds[rows, z]
    if spec.kind == GENERATIVE_MLR:
        labels = pred + spec.noise_sigma * rng.standard_normal(BLOCK)
    elif spec.kind == GENERATIVE_LOGISTIC:
        with np.errstate(over="ignore"):
            p_pos = 1.0 / (1.0 + np.exp(-pred))
        labels = np.where(rng.random(BLOCK) < p_pos, 1.0, -1.0)
    else:  # AGNOSTIC_PIECEWISE: deterministic, asymmetric, bounded
        norm_z = np.linalg.norm(thetas, axis=1)[z]
        unit_pred = np.divide(pred, norm_z, out=np.zeros(BLOCK), where=norm_z > 0)
        labels = pred + spec.perturb_amplitude * (0.6 + 0.4 * np.tanh(unit_pred))
    return X, labels


def generate_by_block(spec: GenSpec) -> tuple[DataSet, ParamSet]:
    """The dataset and truth of ``spec``, made one block at a time."""
    truth = spec.truth if spec.truth is not None else _default_truth(spec)
    weights = (
        np.full(spec.k, 1.0 / spec.k)
        if spec.mix_weights is None
        else np.asarray(spec.mix_weights, dtype=np.float64)
    )
    _check_margin_reachable(truth.thetas, weights, spec)
    cumw = np.cumsum(weights)
    X = np.empty((spec.n, spec.d))
    y = np.empty(spec.n)
    for b, start in enumerate(range(0, spec.n, BLOCK)):
        stop = min(start + BLOCK, spec.n)
        X_block, y_block = _block(spec, b, truth.thetas, cumw)
        X[start:stop] = X_block[: stop - start]
        y[start:stop] = y_block[: stop - start]
    return DataSet(X, y), truth


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned search grid: ``points`` values per coordinate in
    [lo, hi]."""

    lo: float
    hi: float
    points: int

    def axis(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.points)


def check_brute_force_budget(d: int, k: int, grid: GridSpec) -> None:
    """ValueError unless a brute-force search over ``grid`` is at toy scale:
    d <= 2, k <= 2 and at most 1e5 candidate ParamSets (about 7 s at n = 400)."""
    if d > 2 or k > 2:
        raise ValueError("brute force restricted to d <= 2 and k <= 2")
    total = grid.points ** (d * k)
    if total > 10 ** 5:
        raise ValueError(f"grid budget exceeded: {total} candidate ParamSets")


def brute_force_minimize(
    dataset: DataSet,
    model: LossModel,
    beta: float,
    k: int,
    grid: GridSpec,
) -> tuple[ParamSet, float]:
    """Exhaustive grid search for the minimizer of the empirical soft-min
    loss at inverse temperature ``beta``; returns ``(best, best_loss)``.

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
        loss = empirical_loss(params, dataset, model, beta)
        if loss < best_loss:
            best_loss = loss
            best = params
    return best, best_loss
