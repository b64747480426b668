"""Synthetic data generation and the CSV dataset format."""
import collections
import itertools
import math
import re
import sys
import textwrap
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import softmix.datagen as datagen
from softmix.config import validate_config
from softmix.data import ParamSet
from softmix.datagen import (
    BLOCK,
    COVARIATES,
    KINDS,
    MAX_REJECTIONS,
    SEED_LIMIT,
    GenSpec,
    generate,
    load_csv,
    save_csv,
)
from softmix.experiment import run_experiment
from softmix.losses import LossModel
from softmix.theory import estimate_constants

import oracles


def _spec(**overrides):
    base = dict(kind="generative_mlr", k=2, d=3, n=200, seed=42)
    base.update(overrides)
    return GenSpec(**base)


class TestGenSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            _spec(kind="bogus")
        # heavy-tailed regression data is generative_mlr with student_t covariates
        message = f"kind must be one of {KINDS}, got 'heavy_tail_mlr'"
        with pytest.raises(ValueError, match=re.escape(message)):
            _spec(kind="heavy_tail_mlr")

    def test_unknown_covariate_rejected(self):
        with pytest.raises(ValueError):
            _spec(covariate="cauchy")

    def test_low_dof_rejected(self):
        with pytest.raises(ValueError, match="t_dof must be >= 3"):
            _spec(covariate="student_t", t_dof=2)

    def test_mix_weights_must_be_simplex(self):
        with pytest.raises(ValueError):
            _spec(mix_weights=(0.7, 0.7))

    def test_nan_mix_weights_rejected(self):
        # NaN compares false with everything, so it must fail a test of w >= 0
        with pytest.raises(ValueError, match=r"^mix_weights must be a k-simplex vector"):
            _spec(mix_weights=(math.nan, math.nan))

    def test_truth_shape_must_match(self):
        with pytest.raises(ValueError):
            _spec(truth=ParamSet([[1.0, 0.0]]))

    @pytest.mark.parametrize("seed", [-1, SEED_LIMIT, 2 ** 70])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match=r"^seed must lie in \[0, 2\*\*64\)"):
            _spec(seed=seed)

    def test_largest_seed_generates(self):
        ds, _ = generate(_spec(seed=SEED_LIMIT - 1, n=5))
        assert ds.n == 5


class TestGenerate:
    def test_deterministic_under_seed(self):
        a, ta = generate(_spec())
        b, tb = generate(_spec())
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)
        assert ta == tb

    def test_distinct_seeds_differ(self):
        a, _ = generate(_spec(seed=1))
        b, _ = generate(_spec(seed=2))
        assert not np.array_equal(a.y, b.y)

    def test_noiseless_labels_are_realizable(self):
        ds, truth = generate(_spec(noise_sigma=0.0))
        preds = ds.X @ truth.thetas.T
        # every label must equal the prediction of its generating component
        assert np.all(np.min(np.abs(preds - ds.y[:, None]), axis=1) == 0.0)

    def test_noiseless_truth_has_zero_misspecification(self):
        # zero up to summation-order rounding between generation and
        # evaluation (residuals at the 1e-16 scale, squared in the loss)
        ds, truth = generate(_spec(noise_sigma=0.0, margin=0.5))
        # lam = 0 certifies no m; epsilon and epsilon1 do not read (m, M)
        c = estimate_constants(ds, truth, LossModel("ridge", lam=0.0), (0.0, 0.0))
        assert c.epsilon <= 1e-24
        assert c.epsilon1 <= 1e-12

    def test_uniform_ball_respects_radius(self):
        ds, _ = generate(_spec(covariate="uniform_ball", cov_scale=0.7, n=500))
        assert float(np.max(np.linalg.norm(ds.X, axis=1))) <= 0.7 + 1e-12

    def test_mix_weights_concentration(self):
        n = 10_000
        ds, truth = generate(_spec(n=n, mix_weights=(0.5, 0.5), noise_sigma=0.0))
        preds = ds.X @ truth.thetas.T
        z = np.argmin(np.abs(preds - ds.y[:, None]), axis=1)
        count = int(np.sum(z == 0))
        assert abs(count - n / 2) <= 3.0 * math.sqrt(n)

    def test_margin_enforced(self):
        spec = _spec(margin=1.5, noise_sigma=0.0, n=300)
        ds, truth = generate(spec)
        preds = ds.X @ truth.thetas.T
        z = np.argmin(np.abs(preds - ds.y[:, None]), axis=1)
        gap = preds[np.arange(300), z] - preds[np.arange(300), 1 - z]
        assert float(np.min(gap * gap)) >= 1.5

    def test_logistic_labels_are_signs(self):
        ds, _ = generate(_spec(kind="generative_logistic"))
        assert set(np.unique(ds.y)) <= {-1.0, 1.0}

    def test_heavy_tail_uses_student_t(self):
        # a t(3) cloud at this scale almost surely contains norms no
        # Gaussian sample of the same size would reach
        light, _ = generate(_spec(n=2000, seed=3))
        heavy, _ = generate(_spec(covariate="student_t", t_dof=3, n=2000, seed=3))
        assert np.max(np.abs(heavy.X)) > np.max(np.abs(light.X))

    def test_agnostic_perturbation_drives_misspecification(self):
        model = LossModel("ridge", lam=0.0)
        eps = []
        for amp in (0.0, 0.05, 0.2):
            ds, truth = generate(
                _spec(kind="agnostic_piecewise", perturb_amplitude=amp, margin=0.8)
            )
            eps.append(estimate_constants(ds, truth, model, (0.0, 0.0)).epsilon)
        assert eps[0] <= 1e-24
        assert eps[0] < eps[1] < eps[2]

    def test_unreachable_margin_fails_fast(self):
        # the default truth for seed 0 has R^2 * min_l ||theta_l - theta_z||^2
        # = 0.2026 < 0.25 for components 1 and 2, so no draw can pass
        spec = _spec(k=3, d=4, covariate="uniform_ball", cov_scale=1.5, margin=0.25, seed=0)
        with pytest.raises(ValueError, match="unreachable for component 1"):
            generate(spec)

    def test_margin_ignores_components_without_weight(self):
        spec = _spec(
            k=3, d=4, covariate="uniform_ball", cov_scale=1.5, margin=0.25, seed=0,
            mix_weights=(1.0, 0.0, 0.0), n=20,
        )
        ds, _ = generate(spec)
        assert ds.n == 20

    def test_rejection_cap_raises(self):
        # unbounded covariates pass the closed-form check, but at this scale
        # no draw reaches the margin
        spec = _spec(cov_scale=1e-3, margin=1.0, n=5)
        with pytest.raises(ValueError, match=f"{MAX_REJECTIONS} times"):
            generate(spec)

    def test_prefix_stability_in_n(self):
        # every block draws all BLOCK rows from its own substream, so sample i is independent of n
        small, _ = generate(_spec(n=50))
        large, _ = generate(_spec(n=80))
        np.testing.assert_array_equal(small.X, large.X[:50])
        np.testing.assert_array_equal(small.y, large.y[:50])


def _eye_truth(k, d, scale=1.0):
    """k distinct unit directions (k <= d): every gap ||theta_l - theta_z||^2 is 2 scale^2."""
    return ParamSet(scale * np.eye(k, d))


def _components(ds, truth):
    """Predictions and each row's generating component, for noiseless
    generative_mlr data."""
    preds = ds.X @ truth.thetas.T
    return preds, np.argmin(np.abs(preds - ds.y[:, None]), axis=1)


_seeds = st.integers(0, SEED_LIMIT - 1)


class TestLayoutV2:
    """Properties of the block layout: BLOCK samples per Philox substream."""

    @settings(deadline=None, max_examples=40)
    @given(
        k=st.integers(1, 3), extra=st.integers(0, 2), covariate=st.sampled_from(COVARIATES),
        share=st.floats(0.01, 0.25), n=st.integers(3, 2 * BLOCK + 7), seed=_seeds,
    )
    def test_margin_holds_on_every_row(self, k, extra, covariate, share, n, seed):
        truth = _eye_truth(k, k + extra)
        margin = share * 2 * 1.5 ** 2  # a share of R^2 min_l ||theta_l - theta_z||^2
        spec = GenSpec(
            "generative_mlr", k=k, d=k + extra, n=n, covariate=covariate, cov_scale=1.5,
            margin=margin, truth=truth, seed=seed,
        )
        ds, _ = generate(spec)
        preds, z = _components(ds, truth)
        gaps = (preds - preds[np.arange(n), z][:, None]) ** 2
        gaps[np.arange(n), z] = math.inf
        # the block product and this full product may differ in the last bit
        assert np.all(np.min(gaps, axis=1) >= margin * (1.0 - 1e-9))

    @settings(deadline=None, max_examples=40)
    @given(
        d=st.integers(1, 6), cov_scale=st.floats(0.1, 5.0), n=st.integers(1, 2 * BLOCK + 7),
        kind=st.sampled_from(KINDS[:3]), seed=_seeds,
    )
    def test_uniform_ball_rows_stay_inside_radius(self, d, cov_scale, n, kind, seed):
        spec = GenSpec(kind, k=1, d=d, n=n, covariate="uniform_ball", cov_scale=cov_scale, seed=seed)
        ds, _ = generate(spec)
        assert float(np.max(np.linalg.norm(ds.X, axis=1))) <= cov_scale * (1.0 + 1e-12)

    @settings(deadline=None, max_examples=25, derandomize=True)
    @given(counts=st.lists(st.integers(0, 10), min_size=2, max_size=3).filter(any), seed=_seeds)
    def test_mixture_weight_counts_within_three_sigma(self, counts, seed):
        weights = np.asarray(counts, dtype=np.float64) / sum(counts)
        k, n = len(counts), 4000
        truth = _eye_truth(k, k)
        spec = GenSpec(
            "generative_mlr", k=k, d=k, n=n, mix_weights=tuple(weights), truth=truth, seed=seed,
        )
        ds, _ = generate(spec)
        _, z = _components(ds, truth)
        observed = np.bincount(z, minlength=k)
        sigma = np.sqrt(n * weights * (1.0 - weights))
        assert np.all(np.abs(observed - n * weights) <= 3.0 * sigma)

    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7])
    @settings(deadline=None, max_examples=10)
    @given(kind=st.sampled_from(KINDS), covariate=st.sampled_from(COVARIATES),
           margin=st.sampled_from([0.0, 0.5]), seed=_seeds)
    def test_prefix_stable_across_block_boundaries(self, n, kind, covariate, margin, seed):
        # each kind's own label amount; the other kinds read none
        amount = {"generative_mlr": {"noise_sigma": 0.1},
                  "agnostic_piecewise": {"perturb_amplitude": 0.05}}.get(kind, {})

        def spec(size):
            return GenSpec(
                kind, k=2, d=3, n=size, covariate=covariate, cov_scale=1.5, margin=margin,
                truth=_eye_truth(2, 3), seed=seed, **amount,
            )

        small, _ = generate(spec(n))
        large, _ = generate(spec(3 * BLOCK + 1))
        np.testing.assert_array_equal(small.X, large.X[:n])
        np.testing.assert_array_equal(small.y, large.y[:n])

    def test_rejection_cap_names_global_sample_index(self, monkeypatch):
        # the covariates of every block after the first shrink until no
        # draw reaches the margin, so block 1's first row fails first
        blocks, block_of = [], {}
        substream, draw = datagen._substream, datagen._draw_covariates

        def recording(seed, index):
            blocks.append(index)
            rng = substream(seed, index)
            block_of[rng] = index
            return rng

        def shrunk_after_first_block(rng, spec, X, u):
            draw(rng, spec, X, u)
            if block_of[rng] != 0:
                X *= 1e-3

        monkeypatch.setattr(datagen, "_substream", recording)
        monkeypatch.setattr(datagen, "_draw_covariates", shrunk_after_first_block)
        spec = _spec(margin=0.5, n=BLOCK + 10, truth=_eye_truth(2, 3))
        with pytest.raises(ValueError, match=rf"^sample {BLOCK} \(component \d\) missed margin"):
            generate(spec)
        assert blocks == [0, 1]

    @settings(deadline=None, max_examples=30)
    @given(n=st.integers(1, 4 * BLOCK + 1), seed=_seeds)
    def test_one_substream_per_block(self, n, seed):
        spec = GenSpec("generative_mlr", k=1, d=2, n=n, truth=_eye_truth(1, 2), seed=seed)
        with mock.patch.object(datagen, "_substream", wraps=datagen._substream) as substream:
            generate(spec)
        blocks = [call.args[1] for call in substream.call_args_list]
        assert blocks == list(range(math.ceil(n / BLOCK)))


def _without(k, zero_at):
    """Mixture weights, equal but for component ``zero_at``, which has none."""
    weights = np.full(k, 1.0 / (k - 1))
    weights[zero_at] = 0.0
    return tuple(weights)


class TestLockstep:
    """:func:`generate` moves all blocks through the redraw rounds together;
    the block-by-block generator of ``tests/oracles.py`` is its reference."""

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    @settings(deadline=None, max_examples=12)
    @given(
        kind=st.sampled_from(KINDS), covariate=st.sampled_from(COVARIATES),
        margin=st.sampled_from([0.0, 0.5]), k=st.integers(1, 3),
        extra=st.sampled_from([0, 1, 31]), zero_at=st.none() | st.integers(0, 2),
        default_truth=st.booleans(), seed=_seeds,
    )
    def test_equals_the_block_by_block_oracle(
        self, n, kind, covariate, margin, k, extra, zero_at, default_truth, seed
    ):
        # d = k + 31 reaches the widths at which OpenBLAS rounds a product of
        # a few rows differently from a block's; a default truth may put two
        # components too close for a margin, so it runs at margin 0
        amount = {"generative_mlr": {"noise_sigma": 0.1},
                  "agnostic_piecewise": {"perturb_amplitude": 0.05}}.get(kind, {})
        k = min(k, n)  # a spec has n >= k
        spec = GenSpec(
            kind, k=k, d=k + extra, n=n, covariate=covariate, cov_scale=1.5, margin=margin,
            mix_weights=None if zero_at is None or k == 1 else _without(k, zero_at % k),
            truth=None if default_truth and margin == 0 else _eye_truth(k, k + extra),
            seed=seed, **amount,
        )
        ds, truth = generate(spec)
        want, want_truth = oracles.generate_by_block(spec)
        np.testing.assert_array_equal(ds.X, want.X)
        np.testing.assert_array_equal(ds.y, want.y)
        np.testing.assert_array_equal(truth.thetas, want_truth.thetas)

    def test_two_blocks_at_the_rejection_cap_name_the_lowest_sample(self, monkeypatch):
        # blocks 1 and 2 of 3 draw covariates too small to reach the margin,
        # so both make every draw the cap allows; the oracle stops at block 1.
        # A cap of 100 draws keeps the test fast
        cap = 100
        for module in (datagen, oracles):
            monkeypatch.setattr(module, "MAX_REJECTIONS", cap)
        spec = _spec(margin=0.5, n=3 * BLOCK, truth=_eye_truth(2, 3))
        block_of, draws = {}, collections.Counter()

        def recording(substream):
            def opened(seed, index):
                rng = substream(seed, index)
                block_of[rng] = index
                return rng
            return opened

        def shrunk(rng, X):
            draws[block_of[rng]] += 1
            if block_of[rng] != 0:
                X *= 1e-3
            return X

        draw, covariates = datagen._draw_covariates, oracles._covariates

        def drawn_and_shrunk(rng, spec, X, u):
            draw(rng, spec, X, u)
            shrunk(rng, X)

        monkeypatch.setattr(datagen, "_substream", recording(datagen._substream))
        monkeypatch.setattr(oracles, "_substream", recording(oracles._substream))
        monkeypatch.setattr(datagen, "_draw_covariates", drawn_and_shrunk)
        monkeypatch.setattr(oracles, "_covariates",
                            lambda rng, spec, rows: shrunk(rng, covariates(rng, spec, rows)))
        with pytest.raises(ValueError) as lockstep:
            generate(spec)
        assert draws[1] == draws[2] == cap
        with pytest.raises(ValueError) as by_block:
            oracles.generate_by_block(spec)
        assert str(lockstep.value) == str(by_block.value)
        assert re.fullmatch(
            rf"sample {BLOCK} \(component \d\) missed margin 0.5 {cap} times", str(lockstep.value)
        )

    @settings(deadline=None, max_examples=30)
    @given(rows=st.integers(1, 5), d=st.integers(1, 6), per_row=st.booleans(), seed=_seeds)
    def test_uniform_ball_equals_the_oracle(self, rows, d, per_row, seed):
        # the start and the lemma check draw from uniform_ball, which shares
        # its ball transform with generate
        radius = np.linspace(0.5, 2.0, rows) if per_row else 1.5
        got = datagen.uniform_ball(datagen._substream(seed, 7), radius, rows, d)
        want = oracles.uniform_ball(datagen._substream(seed, 7), radius, rows, d)
        np.testing.assert_array_equal(got, want)


STREAM_CONSUMERS = textwrap.dedent(
    """
    data:
      kind: agnostic_piecewise
      k: 2
      d: 2
      n: 300
      perturb_amplitude: 0.1
    loss:
      family: ridge
      lam: 0.01
    em:
      iterations: 5
      beta: 2.0
      resample: true
    init:
      mode: perturb_reference
    reference: multistart
    checks:
      lemmas: true
      gradient_oracle: true
    repetitions: 2
    seed: {seed}
    """
)


# the constants at a multistart reference are not under test
@pytest.mark.filterwarnings("ignore:separation delta:UserWarning")
@pytest.mark.parametrize("seed", [0, 1])
def test_every_consumer_draws_from_a_substream_of_its_own(monkeypatch, seed):
    """A run that draws the data, a default truth, a start, the folds, a
    multistart reference and the cases of both seeded checks keys every draw
    as ``(seed, index)`` at ``datagen._substream``, with a repetition's seed
    and at indices no other reader uses, and never makes a numpy default
    generator.  The restarts of a multistart reference share one stream."""
    original = datagen._substream
    indices, seeds = {}, set()

    def recording(key_seed, index):
        reader = sys._getframe(1).f_code.co_name
        indices.setdefault(reader, set()).add(index)
        seeds.add(key_seed)
        return original(key_seed, index)

    for name, module in list(sys.modules.items()):
        if name.startswith("softmix") and getattr(module, "_substream", None) is original:
            monkeypatch.setattr(module, "_substream", recording)

    def forbidden(*args, **kwargs):
        raise AssertionError("numpy.random.default_rng called")

    monkeypatch.setattr(np.random, "default_rng", forbidden)
    run_experiment(validate_config(STREAM_CONSUMERS.format(seed=seed)), write=False)
    assert sorted(indices) == sorted([
        "generate", "_default_truth", "_build_init", "partition_dataset",
        "_multistart_reference", "_run_checks", "check_lemma_bounds",
    ])
    for (a, first), (b, second) in itertools.combinations(indices.items(), 2):
        assert not first & second, (a, b)
    assert seeds == {seed, seed + 1}
    assert indices["_multistart_reference"] == {datagen._MULTISTART_STREAM}


class TestFileFormats:
    def test_csv_round_trip_bit_stable(self, tmp_path):
        ds, _ = generate(_spec(n=37))
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.X, ds.X)
        np.testing.assert_array_equal(back.y, ds.y)

    def test_csv_header_names(self, tmp_path):
        ds, _ = generate(_spec(n=5, d=2))
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        assert path.read_text().splitlines()[0] == "x_0,x_1,y"

    def test_csv_bad_header_rejected(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            load_csv(path)
