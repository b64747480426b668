"""Seeded synthetic dataset generators and the bit-stable dataset CSV format.

Data layout v2.  Samples are made in blocks of :data:`BLOCK` rows, and block
``b`` (samples ``b*BLOCK`` to ``(b+1)*BLOCK - 1``) draws from its own Philox
substream, key ``seed * 2**64 + b``.  Within a block the draws are, in order:

1. ``random(BLOCK)``: one uniform per row picks its component from the
   cumulative mixture weights;
2. the covariates of every row: ``standard_normal((BLOCK, d))`` (gaussian),
   ``standard_t(t_dof, (BLOCK, d))`` (student_t), or the directions
   ``standard_normal((BLOCK, d))`` followed by the radii ``random(BLOCK)``
   (uniform_ball);
3. when ``margin`` > 0, rounds of redraws: the rows that miss the margin, in
   row order, draw new covariates as in step 2 with BLOCK replaced by their
   count, until every row meets it (at most :data:`MAX_REJECTIONS` draws per
   row);
4. the label draws: ``standard_normal(BLOCK)`` for the regression kinds,
   ``random(BLOCK)`` for generative_logistic, none for agnostic_piecewise.

The last block is made whole and then truncated, so sample i does not depend
on n.  The blocks move through these steps in lockstep: every block's
generator is opened first, in block order, and each redraw round draws the
missing rows of every block from that block's own generator, then tests the
margin once over the missing rows of all blocks.  Each block's draws keep
the order above, so a dataset is bit for bit the one that making the blocks
one after another gives: ``generate_by_block`` in ``tests/oracles.py`` does
that, and the tests hold :func:`generate` equal to it.

Every other draw of a run is from the repetition seed's substream at an index
far above any block's, reserved for one reader: 2**63 the default truth
(:func:`generate`), 2**63 + 1 a random start (``experiment._build_init``),
2**63 + 2 the fold shuffle (:func:`~softmix.em.partition_dataset`), 2**63 + 3
the ``gradient_oracle`` check's cases (``experiment._run_checks``), 2**63 + 4
the multistart starts (``experiment._multistart_reference``), and 2**62 + t
trial t of the lemma check (:func:`~softmix.verify.check_lemma_bounds`).
Layout v1 drew every sample from its own substream (key ``seed * 2**64 + i``);
a dataset generated under it differs from its layout v2 counterpart.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
# an eager import: numpy 2 loads numpy.random lazily, on first attribute
# access, and set-up rather than the first generated block should pay for it
from numpy.random import Generator, Philox

from .data import DataSet, ParamSet

GENERATIVE_MLR = "generative_mlr"
GENERATIVE_LOGISTIC = "generative_logistic"
AGNOSTIC_PIECEWISE = "agnostic_piecewise"
KINDS = (GENERATIVE_MLR, GENERATIVE_LOGISTIC, AGNOSTIC_PIECEWISE)

COVARIATES = ("gaussian", "student_t", "uniform_ball")

_TRUTH_STREAM = 2 ** 63
_INIT_STREAM = 2 ** 63 + 1
_FOLD_STREAM = 2 ** 63 + 2
_ORACLE_STREAM = 2 ** 63 + 3
_MULTISTART_STREAM = 2 ** 63 + 4
_LEMMA_STREAM = 2 ** 62  # + trial

# seeds are the high 64 bits of a 128-bit Philox key
SEED_LIMIT = 2 ** 64

# samples per block, one Philox substream each (layout v2)
BLOCK = 1000

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

    Four fields are read under one setting only: ``noise_sigma`` by kind
    generative_mlr, ``perturb_amplitude`` by kind agnostic_piecewise,
    ``t_dof`` by covariate student_t and ``truth_scale`` by the default
    truth.  There ``None`` takes the default (0.0, 0.0, 5 and 1.0), and
    anywhere else a value is rejected.  The float fields must be finite and
    >= 0, ``cov_scale`` and ``truth_scale`` > 0, never NaN.
    """

    kind: str
    k: int
    d: int
    n: int
    noise_sigma: Optional[float] = None
    mix_weights: Optional[Tuple[float, ...]] = None
    covariate: str = "gaussian"
    cov_scale: float = 1.0
    t_dof: Optional[int] = None
    seed: int = 0
    truth: Optional[ParamSet] = None
    truth_scale: Optional[float] = None
    perturb_amplitude: Optional[float] = None
    margin: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.covariate not in COVARIATES:
            raise ValueError(f"covariate must be one of {COVARIATES}, got {self.covariate!r}")
        for key, default, read, reader, setting in (
            ("noise_sigma", 0.0, self.kind == GENERATIVE_MLR, f"kind {GENERATIVE_MLR}", self.kind),
            ("perturb_amplitude", 0.0, self.kind == AGNOSTIC_PIECEWISE,
             f"kind {AGNOSTIC_PIECEWISE}", self.kind),
            ("t_dof", 5, self.covariate == "student_t", "covariate student_t", self.covariate),
            ("truth_scale", 1.0, self.truth is None, "the default truth", "a given truth"),
        ):
            if read and getattr(self, key) is None:
                object.__setattr__(self, key, default)
            elif not read and getattr(self, key) is not None:
                raise ValueError(f"{key} is read only by {reader}, not {setting}")
        for key, value, least in (("k", self.k, 1), ("d", self.d, 1), ("n", self.n, self.k)):
            if value < least:
                raise ValueError(f"{key} must be >= {least}, got {value}")
        for key in ("noise_sigma", "cov_scale", "truth_scale", "perturb_amplitude", "margin"):
            value = getattr(self, key)
            if value is None:
                continue
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
            if key.endswith("_scale") and value <= 0:
                raise ValueError(f"{key} must be > 0, got {value}")
            if value < 0:
                raise ValueError(f"{key} must be >= 0, got {value}")
        if not 0 <= self.seed < SEED_LIMIT:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.t_dof is not None and self.t_dof < 3:
            raise ValueError(f"t_dof must be >= 3 for finite variance, got {self.t_dof}")
        if self.mix_weights is not None:
            w = np.asarray(self.mix_weights, dtype=np.float64)
            # NaN fails w >= 0
            if w.shape != (self.k,) or not np.all(w >= 0) or abs(w.sum() - 1.0) > 1e-9:
                raise ValueError(f"mix_weights must be a k-simplex vector, got {self.mix_weights}")
        if self.truth is not None and (
            self.truth.k != self.k or self.truth.d != self.d
        ):
            raise ValueError("truth ParamSet shape does not match (k, d)")


def _substream(seed: int, index: int) -> Generator:
    return Generator(Philox(key=seed * 2 ** 64 + index))


def _to_ball(directions: np.ndarray, radius, u: np.ndarray) -> np.ndarray:
    """``directions`` ``(rows, d)``, in place, made points of the ball of
    ``radius`` (a scalar, or one per row) about 0: each row normalized, then
    scaled by ``radius * u ** (1/d)`` with ``u`` its uniform."""
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    directions *= (radius * u ** (1.0 / directions.shape[1]))[:, None]
    return directions


def uniform_ball(rng: Generator, radius, rows: int, d: int) -> np.ndarray:
    """``(rows, d)`` points uniform in the ball of ``radius`` (a scalar, or one
    per row) about 0: normalized ``standard_normal((rows, d))`` directions,
    then the radii ``radius * random(rows) ** (1/d)``."""
    directions = rng.standard_normal((rows, d))
    return _to_ball(directions, radius, rng.random(rows))


def _default_truth(spec: GenSpec) -> ParamSet:
    rng = _substream(spec.seed, _TRUTH_STREAM)
    thetas = rng.standard_normal((spec.k, spec.d))
    thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
    return ParamSet(spec.truth_scale * thetas)


def _draw_covariates(rng: Generator, spec: GenSpec, X: np.ndarray, u: np.ndarray) -> None:
    """Step 2 of the layout for ``len(X)`` rows: their raw draws, written into
    ``X`` (and, for uniform_ball, the radius uniforms into ``u``).
    :func:`_scale_covariates` makes them covariates."""
    if spec.covariate == "student_t":
        X[...] = rng.standard_t(spec.t_dof, X.shape)
    else:
        rng.standard_normal(out=X)
        if spec.covariate == "uniform_ball":
            rng.random(out=u)


def _scale_covariates(spec: GenSpec, X: np.ndarray, u: np.ndarray) -> None:
    """The raw draws in ``X`` (and ``u``), in place, made ``spec``'s covariates."""
    if spec.covariate == "uniform_ball":
        _to_ball(X, spec.cov_scale, u)
    else:
        X *= spec.cov_scale


def _check_margin_reachable(truth: np.ndarray, weights: np.ndarray, spec: GenSpec) -> None:
    """On the ball of radius R, <x, theta_l - theta_z>^2 <= R^2 ||theta_l - theta_z||^2;
    raises when that bound rules out a component of positive weight."""
    radius = spec.cov_scale if spec.covariate == "uniform_ball" else math.inf
    for z in range(spec.k):
        gaps = np.delete(truth - truth[z], z, axis=0)
        closest = np.min(np.sum(gaps * gaps, axis=1), initial=math.inf)
        reach = radius ** 2 * closest if closest > 0.0 else 0.0
        if weights[z] > 0 and reach < spec.margin:
            raise ValueError(
                f"margin {spec.margin:g} is unreachable for component {z}: "
                f"R^2 * min_l ||theta_l - theta_z||^2 = {reach:.4g}"
            )


def _misses_margin(preds: np.ndarray, z: np.ndarray, margin: float) -> np.ndarray:
    """Rows whose squared gap min_{l != z} (pred_l - pred_z)^2 is below ``margin``.
    A row's own gap (l = z) is 0, so at ``margin`` > 0 it misses when more
    than one of its gaps lies below."""
    own = preds[np.arange(len(z)), z]
    # (k, rows) in C order, so each pass runs along the rows, not along k
    gaps = np.subtract(preds.T, own, order="C") ** 2
    return (gaps < margin).sum(axis=0) > 1


def _predictions(X: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """``X @ thetas.T`` for ``X`` of whole BLOCK-row slabs, one product per
    slab, so each row rounds as in its block's own ``(BLOCK, d)`` product.
    Labels come from that product, as losses and tests form it, so that
    noiseless labels equal their component's prediction bit for bit.  A
    product over another row count may round differently: numpy hands one
    row to gemv, and at d >= 32 OpenBLAS 0.3.31 rounded products of a few
    hundred rows differently on an AVX-512 Xeon."""
    slabs = X.reshape(-1, BLOCK, X.shape[1])
    return (slabs @ thetas.T).reshape(-1, thetas.shape[0])


def _fill(streams: list, draw, out: np.ndarray) -> np.ndarray:
    """``out`` block by block, each block's BLOCK entries from ``draw`` of its
    own generator."""
    for rng, start in zip(streams, range(0, len(out), BLOCK)):
        draw(rng, out=out[start:start + BLOCK])
    return out


def _redraw(streams: list, spec: GenSpec, X: np.ndarray, z: np.ndarray,
            thetas: np.ndarray, missing: np.ndarray) -> None:
    """Step 3 for all blocks in lockstep: each round, every block draws new
    covariates for its ``missing`` rows (global indices, ascending) from its
    own generator, and one margin test runs over the missing rows of all
    blocks.  Raises naming the lowest sample still missing after
    :data:`MAX_REJECTIONS` draws."""
    slabs = -(-missing.size // BLOCK)
    # zeros: a slab's rows past the missing ones enter its product and must be finite
    fresh = np.zeros((slabs * BLOCK, spec.d))
    u = np.empty(slabs * BLOCK)
    block_starts = np.arange(len(streams) + 1) * BLOCK
    for _ in range(MAX_REJECTIONS - 1):
        count = missing.size
        if count == 0:
            return
        edges = np.searchsorted(missing, block_starts).tolist()
        for rng, lo, hi in zip(streams, edges, edges[1:]):
            if lo < hi:
                _draw_covariates(rng, spec, fresh[lo:hi], u[lo:hi])
        _scale_covariates(spec, fresh[:count], u[:count])
        X[missing] = fresh[:count]
        preds = _predictions(fresh[: -(-count // BLOCK) * BLOCK], thetas)
        missing = missing[_misses_margin(preds[:count], z[missing], spec.margin)]
    if missing.size:
        i = missing[0]
        raise ValueError(
            f"sample {i} (component {z[i]}) missed margin {spec.margin:g} "
            f"{MAX_REJECTIONS} times"
        )


def generate(spec: GenSpec) -> tuple[DataSet, ParamSet]:
    """Materialize the dataset and truth ParamSet of a GenSpec (ValueError: margin out of reach)."""
    truth = spec.truth if spec.truth is not None else _default_truth(spec)
    thetas = truth.thetas
    weights = (
        np.full(spec.k, 1.0 / spec.k)
        if spec.mix_weights is None
        else np.asarray(spec.mix_weights, dtype=np.float64)
    )
    _check_margin_reachable(thetas, weights, spec)
    # every block's generator, opened in block order; the last block is made whole
    streams = []
    for b in range(-(-spec.n // BLOCK)):
        streams.append(_substream(spec.seed, b))
    rows = len(streams) * BLOCK
    picks = _fill(streams, Generator.random, np.empty(rows))
    z = np.minimum(np.searchsorted(np.cumsum(weights), picks, side="right"), spec.k - 1)
    X = np.empty((rows, spec.d))
    u = np.empty(rows)
    for rng, start in zip(streams, range(0, rows, BLOCK)):
        _draw_covariates(rng, spec, X[start:start + BLOCK], u[start:start + BLOCK])
    _scale_covariates(spec, X, u)
    preds = _predictions(X, thetas)
    if spec.margin > 0:  # no row misses a zero margin
        missing = np.flatnonzero(_misses_margin(preds, z, spec.margin))
        if missing.size:
            _redraw(streams, spec, X, z, thetas, missing)
            preds = _predictions(X, thetas)
    pred = preds[np.arange(rows), z]
    if spec.kind == GENERATIVE_MLR:
        y = _fill(streams, Generator.standard_normal, np.empty(rows))
        y *= spec.noise_sigma
        y += pred
    elif spec.kind == GENERATIVE_LOGISTIC:
        with np.errstate(over="ignore"):
            p_pos = 1.0 / (1.0 + np.exp(-pred))
        y = np.where(_fill(streams, Generator.random, np.empty(rows)) < p_pos, 1.0, -1.0)
    else:  # AGNOSTIC_PIECEWISE: deterministic, asymmetric, bounded
        norm_z = np.linalg.norm(thetas, axis=1)[z]
        unit_pred = np.divide(pred, norm_z, out=np.zeros(rows), where=norm_z > 0)
        y = pred + spec.perturb_amplitude * (0.6 + 0.4 * np.tanh(unit_pred))
    return DataSet(X[: spec.n], y[: spec.n]), truth


# ---------------------------------------------------------------------------
# file format


def save_csv(dataset: DataSet, path) -> None:
    """CSV with header x_0..x_{d-1},y; 17 significant digits round-trips
    float64 exactly."""
    header = ",".join([f"x_{i}" for i in range(dataset.d)] + ["y"])
    rows = np.column_stack([dataset.X, dataset.y])
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=header, comments="")


def load_csv(path) -> DataSet:
    """A dataset CSV as :func:`save_csv` writes it (ValueError, naming the path
    and line: a bad header, a non-numeric, non-finite or ragged row, no data
    rows)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header[-1] != "y" or not header[0].startswith("x_"):
            raise ValueError(f"{path}: not a softmix dataset CSV (bad header)")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                row = [float(tok) for tok in line.split(",")]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: {len(row)} columns, expected {len(header)}")
            if not all(map(math.isfinite, row)):
                raise ValueError(f"{path}:{lineno}: non-finite entry")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=np.float64)
    return DataSet(arr[:, :-1], arr[:, -1])
