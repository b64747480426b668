"""Synthetic data generation and the CSV dataset format."""
import math

import numpy as np
import pytest

from softmix.data import ParamSet
from softmix.datagen import (
    MAX_REJECTIONS,
    GenSpec,
    generate,
    load_csv,
    save_csv,
)
from softmix.losses import LossModel
from softmix.theory import estimate_constants


def _spec(**overrides):
    base = dict(kind="generative_mlr", k=2, d=3, n=200, seed=42)
    base.update(overrides)
    return GenSpec(**base)


class TestGenSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            _spec(kind="bogus")

    def test_unknown_covariate_rejected(self):
        with pytest.raises(ValueError):
            _spec(covariate="cauchy")

    def test_low_dof_rejected(self):
        with pytest.raises(ValueError):
            _spec(t_dof=2)

    def test_mix_weights_must_be_simplex(self):
        with pytest.raises(ValueError):
            _spec(mix_weights=(0.7, 0.7))

    def test_truth_shape_must_match(self):
        with pytest.raises(ValueError):
            _spec(truth=ParamSet([[1.0, 0.0]]))


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
        c = estimate_constants(ds, truth, LossModel("ridge", lam=0.0))
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
        heavy, _ = generate(_spec(kind="heavy_tail_mlr", t_dof=3, n=2000, seed=3))
        assert np.max(np.abs(heavy.X)) > np.max(np.abs(light.X))

    def test_agnostic_perturbation_drives_misspecification(self):
        model = LossModel("ridge", lam=0.0)
        eps = []
        for amp in (0.0, 0.05, 0.2):
            ds, truth = generate(
                _spec(kind="agnostic_piecewise", perturb_amplitude=amp, margin=0.8)
            )
            eps.append(estimate_constants(ds, truth, model).epsilon)
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
        # per-sample substreams make sample i independent of n
        small, _ = generate(_spec(n=50))
        large, _ = generate(_spec(n=80))
        np.testing.assert_array_equal(small.X, large.X[:50])
        np.testing.assert_array_equal(small.y, large.y[:50])


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
