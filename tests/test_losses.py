"""Loss families: values, gradients, and certified (m, M) constants."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from softmix.data import DataSet
from softmix.losses import (
    GLM,
    LINKS,
    LOGISTIC,
    RIDGE,
    SIGMOID_LINK,
    SQUARED_HINGE,
    TANH_LINK,
    FAMILIES,
    CertificationError,
    LossModel,
    batch_gradient,
    batch_loss,
    certify,
    default_step_size,
)

ALL_CERTIFIABLE = (RIDGE, LOGISTIC, SQUARED_HINGE, GLM)


def _row(x, y):
    """One sample as the one-row ``(X, y)`` arrays the batch functions take."""
    return np.asarray(x, dtype=np.float64)[None, :], np.array([float(y)])


def _random_instance(family, rng, d=3, link=None):
    x = rng.standard_normal(d)
    if family in (LOGISTIC, SQUARED_HINGE):
        y = float(rng.choice([-1.0, 1.0]))
    else:
        y = float(rng.standard_normal())
    if family == GLM and link is None:
        link = TANH_LINK
    model = LossModel(family, lam=0.05, link=link)
    return model, x, y


class TestLossValues:
    def test_ridge_zero_prediction(self):
        model = LossModel(RIDGE, lam=0.0)
        assert batch_loss(model, *_row([1.0, 0.0], 1.0), [0.0, 0.0])[0] == 1.0

    def test_ridge_regularizer_only(self):
        model = LossModel(RIDGE, lam=0.1)
        got = batch_loss(model, *_row([1.0, 0.0], 1.0), [1.0, 0.0])[0]
        assert got == pytest.approx(0.1, abs=1e-15)

    def test_logistic_at_zero_margin(self):
        model = LossModel(LOGISTIC, lam=0.0)
        got = batch_loss(model, *_row([1.0], 1.0), [0.0])[0]
        assert got == pytest.approx(math.log(2.0), abs=1e-12)

    def test_squared_hinge_inactive(self):
        model = LossModel(SQUARED_HINGE, lam=0.0)
        assert batch_loss(model, *_row([1.0], 1.0), [2.0])[0] == 0.0

    def test_glm_identity_matches_ridge(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(3)
        theta = rng.standard_normal(3)
        ridge = LossModel(RIDGE, lam=0.2)
        glm = LossModel(GLM, lam=0.2, link=LINKS["identity"])
        s = _row(x, 0.7)
        assert batch_loss(glm, *s, theta)[0] == pytest.approx(
            batch_loss(ridge, *s, theta)[0], rel=1e-14
        )

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(3)
        for family in ALL_CERTIFIABLE:
            for _ in range(20):
                model, x, y = _random_instance(family, rng)
                assert batch_loss(model, *_row(x, y), rng.standard_normal(3))[0] >= 0.0

    def test_dimension_mismatch_rejected(self):
        model = LossModel(RIDGE, lam=0.1)
        with pytest.raises(ValueError):
            batch_loss(model, *_row([1.0, 0.0], 1.0), [1.0])

    def test_bad_classification_label_rejected(self):
        model = LossModel(LOGISTIC, lam=0.1)
        with pytest.raises(ValueError):
            batch_loss(model, *_row([1.0], 0.5), [1.0])


class TestLossGradients:
    def test_ridge_gradient_hand_value(self):
        model = LossModel(RIDGE, lam=0.1)
        got = batch_gradient(model, *_row([1.0, 0.0], 1.0), [0.0, 0.0])[0]
        np.testing.assert_allclose(got, [-2.0, 0.0], atol=1e-15)

    def test_logistic_gradient_hand_value(self):
        model = LossModel(LOGISTIC, lam=0.0)
        got = batch_gradient(model, *_row([1.0], 1.0), [0.0])[0]
        np.testing.assert_allclose(got, [-0.5], atol=1e-15)

    def test_gradient_vanishes_at_single_sample_minimizer(self):
        # ridge with lam > 0 has the closed-form minimizer
        # (x x^T + lam I)^{-1} y x for a single sample
        x = np.array([0.6, -1.2, 0.3])
        y = 1.4
        lam = 0.25
        theta_star = np.linalg.solve(np.outer(x, x) + lam * np.eye(3), y * x)
        model = LossModel(RIDGE, lam=lam)
        grad = batch_gradient(model, *_row(x, y), theta_star)[0]
        assert np.linalg.norm(grad) <= 1e-8

    @pytest.mark.parametrize("family, link", [
        *(pytest.param(family, None, id=family) for family in (RIDGE, LOGISTIC, SQUARED_HINGE)),
        *(pytest.param(GLM, link, id=f"{GLM}-{name}") for name, link in sorted(LINKS.items())),
    ])
    def test_matches_finite_differences(self, family, link):
        from softmix.verify import finite_diff_gradient

        rng = np.random.default_rng(17)
        for _ in range(100):
            model, x, y = _random_instance(family, rng, link=link)
            theta = rng.standard_normal(3)
            analytic = batch_gradient(model, *_row(x, y), theta)[0]
            numeric = finite_diff_gradient(model, x, y, theta)
            denom = max(np.linalg.norm(analytic), 1.0)
            assert np.linalg.norm(analytic - numeric) / denom <= 1e-5

    def test_batch_matches_per_sample(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((10, 3))
        y = rng.standard_normal(10)
        theta = rng.standard_normal(3)
        model = LossModel(RIDGE, lam=0.1)
        losses = batch_loss(model, X, y, theta)
        grads = batch_gradient(model, X, y, theta)
        for i in range(10):
            s = _row(X[i], y[i])
            assert losses[i] == pytest.approx(batch_loss(model, *s, theta)[0], rel=1e-14)
            np.testing.assert_allclose(grads[i], batch_gradient(model, *s, theta)[0])


class TestCertification:
    def _dataset(self, max_sq_norm, classification=False, n=5, d=2):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((n, d))
        X *= math.sqrt(max_sq_norm) / np.max(np.linalg.norm(X, axis=1))
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0) if classification else rng.standard_normal(n)
        return DataSet(X, y)

    def test_ridge_constants(self):
        ds = self._dataset(1.0)
        m, M = certify(LossModel(RIDGE, lam=0.5), ds)
        assert (m, M) == pytest.approx((1.0, 3.0), rel=1e-12)

    def test_ridge_lam_zero_rejected(self):
        ds = self._dataset(1.0)
        with pytest.raises(CertificationError, match="strongly convex"):
            certify(LossModel(RIDGE, lam=0.0), ds)

    def test_logistic_constants(self):
        ds = self._dataset(4.0, classification=True)
        m, M = certify(LossModel(LOGISTIC, lam=0.25), ds)
        assert (m, M) == pytest.approx((0.5, 1.5), rel=1e-12)

    def test_squared_hinge_constants(self):
        ds = self._dataset(1.0, classification=True)
        m, M = certify(LossModel(SQUARED_HINGE, lam=0.4), ds)
        assert (m, M) == pytest.approx((0.4, 2.4), rel=1e-12)

    def test_glm_curvature_can_defeat_convexity(self):
        # tanh has nonzero second derivative; with small lam and large
        # covariates the strong-convexity certificate fails
        ds = self._dataset(25.0)
        with pytest.raises(CertificationError):
            certify(LossModel(GLM, lam=1e-4, link=TANH_LINK), ds)

    def test_certify_returns_the_pair_and_leaves_the_model(self):
        ds = self._dataset(1.0)
        model = LossModel(RIDGE, lam=0.5)
        m, M = certify(model, ds)
        assert 0.0 < m <= M
        # the model is the loss: section, and certify adds nothing to it
        assert model == LossModel(RIDGE, lam=0.5)
        assert [f.name for f in dataclasses.fields(LossModel)] == ["family", "lam", "link"]

    def test_bregman_sandwich_all_families(self):
        rng = np.random.default_rng(23)
        for family in ALL_CERTIFIABLE:
            link = TANH_LINK if family == GLM else None
            classification = family in (LOGISTIC, SQUARED_HINGE)
            ds = self._dataset(1.0, classification=classification, n=8, d=3)
            # the GLM certificate needs lam to beat the link-curvature term
            lam = 4.0 if family == GLM else 0.1
            model = LossModel(family, lam=lam, link=link)
            m, M = certify(model, ds)
            for _ in range(100):
                theta_a = rng.standard_normal(3)
                theta_b = rng.standard_normal(3)
                i = int(rng.integers(ds.n))
                s = ds.X[i : i + 1], ds.y[i : i + 1]
                gap = (
                    batch_loss(model, *s, theta_b)[0]
                    - batch_loss(model, *s, theta_a)[0]
                    - float(np.dot(batch_gradient(model, *s, theta_a)[0], theta_b - theta_a))
                )
                sq = float(np.sum((theta_b - theta_a) ** 2))
                assert gap >= 0.5 * m * sq - 1e-9
                assert gap <= 0.5 * M * sq + 1e-9

    def test_mean_smoothness_below_worst_case(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((50, 4))
        ds = DataSet(X, rng.standard_normal(50))
        model = LossModel(RIDGE, lam=0.01)
        _, M = certify(model, ds)
        # the default step is 1 / (2 bar_M), bar_M the mean loss's smoothness
        bar_M = 1.0 / (2.0 * default_step_size(model, ds))
        assert 0.0 < bar_M <= M
        top = float(np.linalg.eigvalsh(X.T @ X / 50)[-1])
        assert bar_M == pytest.approx(2.0 * top + 2.0 * 0.01, rel=1e-12)


def _masked_sigmoid(z):
    """Oracle: 1 / (1 + e^-z) on z >= 0 and e^z / (1 + e^z) below, by boolean masks."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _within_ulps(got, want, ulps):
    return np.all(np.abs(got - want) <= ulps * np.spacing(np.abs(want)))


# every z down to the last nonzero e^-|z|; the examples add the signed zeros
REALS = st.floats(min_value=-745.0, max_value=745.0, allow_nan=False)
VECTORS = arrays(np.float64, st.integers(1, 64), elements=REALS)
RAISE_ALL = dict(over="raise", invalid="raise", divide="raise")


class TestLogisticKernels:
    """The one-pass logistic kernels against the masked and logaddexp forms."""

    @given(VECTORS)
    @example(np.array([0.0, -0.0, 745.0, -745.0, 37.0, -37.0, 1e-300, -1e-300]))
    @settings(deadline=None, max_examples=300)
    def test_sigmoid_within_2_ulp_of_masked_form(self, z):
        with np.errstate(**RAISE_ALL):
            got = SIGMOID_LINK.f(z)
        assert _within_ulps(got, _masked_sigmoid(z), 2)

    @given(VECTORS, st.sampled_from([-1.0, 1.0]))
    @example(np.array([0.0, -0.0, 745.0, -745.0, 37.0, -37.0, 1e-300, -1e-300]), 1.0)
    @settings(deadline=None, max_examples=300)
    def test_logistic_phi_within_4_ulp_of_logaddexp(self, z, y):
        family = FAMILIES[LOGISTIC]
        with np.errstate(**RAISE_ALL):
            phi = family.phi(z, y, None)
            dphi = family.dphi(z, y, None)
        assert _within_ulps(phi, np.logaddexp(0.0, -y * z), 4)
        assert _within_ulps(dphi, -y * _masked_sigmoid(-y * z), 2)
