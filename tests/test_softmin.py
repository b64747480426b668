"""Soft-min weights and the induced soft-min loss, on one sample and on a dataset."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from softmix.data import DataSet, ParamSet
from softmix.losses import LossModel
from softmix.softmin import (
    empirical_loss,
    soft_min_weights,
    weight_matrix,
)

INF = math.inf

finite_losses = st.lists(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    min_size=1,
    max_size=6,
)


class TestSoftMinWeights:
    def test_single_component(self):
        for beta in (0.0, 1.0, INF):
            np.testing.assert_array_equal(
                soft_min_weights([7.3], beta), [1.0]
            )

    def test_two_component_hand_value(self):
        got = soft_min_weights([0.0, math.log(3.0)], 1.0)
        np.testing.assert_allclose(got, [0.75, 0.25], atol=1e-14)

    def test_beta_zero_is_uniform(self):
        got = soft_min_weights([5.0, 1.0, 9.0], 0.0)
        np.testing.assert_allclose(got, [1.0 / 3.0] * 3, atol=1e-15)

    def test_infinite_beta_lowest_index_tie(self):
        got = soft_min_weights([2.0, 1.0, 1.0], INF)
        np.testing.assert_array_equal(got, [0.0, 1.0, 0.0])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            soft_min_weights([1.0, math.nan], 1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            soft_min_weights([], 1.0)

    @pytest.mark.parametrize("beta", [-1.0, math.nan])
    def test_negative_or_nan_beta_rejected_through_every_entry(self, beta):
        ds = DataSet(np.array([[1.0]]), np.array([0.5]))
        params, model = ParamSet([[0.0], [1.0]]), LossModel("ridge", lam=0.1)
        with pytest.raises(ValueError, match="beta must be >= 0"):
            soft_min_weights([1.0, 2.0], beta)
        with pytest.raises(ValueError, match="beta must be >= 0"):
            weight_matrix(params, ds, model, beta)
        with pytest.raises(ValueError, match="beta must be >= 0"):
            empirical_loss(params, ds, model, beta)

    def test_huge_losses_no_overflow(self):
        got = soft_min_weights([1e8, 1e8 + 1.0], 5.0)
        assert np.all(np.isfinite(got))
        assert got[0] > got[1]

    @given(losses=finite_losses, beta=st.floats(min_value=0.0, max_value=100.0))
    @settings(deadline=None, max_examples=200)
    def test_row_stochastic_and_nonnegative(self, losses, beta):
        w = soft_min_weights(losses, beta)
        assert np.all(w >= 0.0)
        assert abs(float(np.sum(w)) - 1.0) <= 1e-12

    @given(
        losses=finite_losses,
        beta=st.floats(min_value=0.0, max_value=100.0),
        shift=st.floats(min_value=-25.0, max_value=25.0),
    )
    @settings(deadline=None, max_examples=200)
    def test_shift_invariance(self, losses, beta, shift):
        cfg = beta
        base = soft_min_weights(losses, cfg)
        shifted = soft_min_weights(np.asarray(losses) + shift, cfg)
        np.testing.assert_allclose(shifted, base, atol=1e-12)

    def test_monotone_sharpening_in_beta(self):
        losses = [0.3, 0.7, 1.1]
        prev = 0.0
        for beta in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0):
            cur = float(soft_min_weights(losses, beta)[0])
            assert cur >= prev - 1e-15
            prev = cur

    def test_large_beta_matches_hard_min(self):
        losses = np.array([0.50, 0.53, 0.51])
        soft = soft_min_weights(losses, 1e6)
        hard = soft_min_weights(losses, INF)
        np.testing.assert_allclose(soft, hard, atol=1e-6)


def _row_by_row(losses, beta):
    """Oracle: the soft-min weights of each (k,) row on its own: shift by
    the row's minimum, exponentiate, divide by the sum."""
    rows = losses.reshape(-1, losses.shape[-1])
    out = np.empty(rows.shape)
    for i, row in enumerate(rows):
        if math.isinf(beta):
            out[i] = 0.0
            out[i, np.argmin(row)] = 1.0
        else:
            out[i] = np.exp(-beta * (row - np.min(row)))
            out[i] /= np.sum(out[i])
    return out.reshape(losses.shape)


# fewer than 8 components: numpy then sums one row in index order whatever
# its layout, as the oracle does, while longer contiguous rows are summed pairwise
@st.composite
def _loss_batches(draw):
    """Losses of shape (k,), (n, k) in C or F order, or (a, b, k), up to 1e300."""
    k = draw(st.integers(1, 7))
    lead = draw(st.sampled_from([(), (draw(st.integers(1, 30)),), (2, 3)]))
    losses = draw(arrays(np.float64, lead + (k,), elements=st.one_of(
        st.floats(0.0, 50.0), st.floats(0.0, 1e300), st.sampled_from([0.0, 1e300]),
    )))
    return np.asfortranarray(losses) if draw(st.booleans()) else losses


class TestSoftMinWeightsLayouts:
    """Every rank and layout goes through one path and gives the weights of
    each row on its own, bit for bit, in the input's layout."""

    @given(_loss_batches(), st.sampled_from([0.0, 0.37, 5.0, INF]))
    @settings(deadline=None, max_examples=400)
    def test_bitwise_equal_to_the_row_by_row_oracle(self, losses, beta):
        got = soft_min_weights(losses, beta)
        want = _row_by_row(losses, beta)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        assert got.flags.c_contiguous == losses.flags.c_contiguous
        assert got.flags.f_contiguous == losses.flags.f_contiguous

    @pytest.mark.parametrize("shape, order", [
        ((3,), "C"), ((5, 3), "C"), ((5, 3), "F"), ((2, 4, 3), "C"),
    ])
    @pytest.mark.parametrize("beta", [0.0, 2.0, INF])
    def test_nan_rejected_in_every_shape(self, shape, order, beta):
        losses = np.array(np.arange(np.prod(shape), dtype=np.float64).reshape(shape), order=order)
        losses.flat[len(losses.flat) // 2] = math.nan
        with pytest.raises(ValueError, match="NaN in component losses"):
            soft_min_weights(losses, beta)


class TestSoftMinLoss:
    def _instance(self, thetas):
        # 1-d ridge with lam=0 so per-component losses are transparent
        model = LossModel("ridge", lam=0.0)
        row = DataSet(np.array([[1.0]]), np.array([0.0]))
        return ParamSet(np.asarray(thetas, dtype=np.float64)[:, None]), row, model

    def test_equal_losses_any_beta(self):
        params, row, model = self._instance([2.0, -2.0])  # both losses 4
        for beta in (0.0, 1.0, 7.0, INF):
            got = empirical_loss(params, row, model, beta)
            assert got == pytest.approx(4.0, rel=1e-14)

    def test_hand_value_beta_one(self):
        # losses [0, ln 3] -> weights [0.75, 0.25] -> 0.25 * ln 3
        params, row, model = self._instance([0.0, math.sqrt(math.log(3.0))])
        got = empirical_loss(params, row, model, 1.0)
        assert got == pytest.approx(0.25 * math.log(3.0), rel=1e-12)

    def test_infinite_beta_is_min(self):
        params, row, model = self._instance([math.sqrt(2.0), 1.0, -1.0])
        got = empirical_loss(params, row, model, INF)
        assert got == pytest.approx(1.0, rel=1e-14)


class TestEmpiricalLoss:
    def _dataset(self, n=10, seed=2):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, 2))
        y = rng.standard_normal(n)
        return DataSet(X, y)

    def test_single_component_is_mean_base_loss(self):
        from softmix.losses import batch_loss

        ds = self._dataset()
        model = LossModel("ridge", lam=0.1)
        theta = np.array([0.4, -0.2])
        got = empirical_loss(ParamSet([theta]), ds, model, 3.0)
        want = float(np.mean(batch_loss(model, ds.X, ds.y, theta)))
        assert got == pytest.approx(want, rel=1e-14)

    def test_duplicated_sample_collapses_to_single(self):
        model = LossModel("ridge", lam=0.05)
        x = np.array([0.3, 1.1])
        ds = DataSet(np.stack([x, x]), np.array([0.7, 0.7]))
        params = ParamSet([[1.0, 0.0], [0.0, 1.0]])
        cfg = 2.0
        got = empirical_loss(params, ds, model, cfg)
        want = empirical_loss(params, DataSet(x[None, :], np.array([0.7])), model, cfg)
        assert got == pytest.approx(want, rel=1e-14)

    def test_infinite_beta_matches_per_sample_min_oracle(self):
        from softmix.losses import batch_loss

        ds = self._dataset(n=10)
        model = LossModel("ridge", lam=0.01)
        params = ParamSet([[1.0, 0.0], [-0.5, 0.5]])
        got = empirical_loss(params, ds, model, INF)
        per = np.stack(
            [batch_loss(model, ds.X, ds.y, params.theta(j)) for j in range(2)], axis=1
        )
        assert got == pytest.approx(float(np.mean(np.min(per, axis=1))), rel=1e-14)

    def test_weight_matrix_rows_sum_to_one(self):
        ds = self._dataset(n=25)
        model = LossModel("ridge", lam=0.01)
        params = ParamSet([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        W, _, _ = weight_matrix(params, ds, model, 4.0)
        assert W.shape == (25, 3)
        np.testing.assert_allclose(np.sum(W, axis=1), 1.0, atol=1e-12)
