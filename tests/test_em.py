"""Gradient EM: fold partitioning, the simultaneous update, and full runs."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
# the oracle for the matching; scipy is a dependency of the tests only
from scipy.optimize import linear_sum_assignment

import softmix.em as em
from softmix.data import DataSet, ParamSet
from softmix.em import (
    EMConfig,
    align_to_reference,
    fit_rate,
    gradient_em_step,
    partition_dataset,
    run_gradient_em,
)
from softmix.losses import (
    FAMILIES,
    GLM,
    LINKS,
    LossModel,
    batch_gradient,
    default_step_size,
)
from softmix.softmin import empirical_loss, weight_matrix


def _config(step_size=0.1, iterations=1, beta=2.0, resample=False, seed=0):
    return EMConfig(
        gamma=step_size,
        iterations=iterations,
        beta=beta,
        resample=resample,
        seed=seed,
    )


@pytest.mark.parametrize("step_size", [math.nan, math.inf, -1.0, 0.0])
def test_config_rejects_step_size_that_is_not_finite_and_positive(step_size):
    with pytest.raises(ValueError, match="^gamma must be a finite number > 0 when given$"):
        _config(step_size=step_size)


def test_step_and_run_without_gamma_raise_naming_gamma():
    ds = DataSet(np.array([[1.0], [2.0]]), np.array([1.0, -1.0]))
    params, model, cfg = ParamSet([[0.0], [1.0]]), LossModel("ridge", lam=0.1), _config(None)
    with pytest.raises(ValueError, match="^gamma is None"):
        gradient_em_step(params, ds, model, cfg)
    with pytest.raises(ValueError, match="^gamma is None"):
        run_gradient_em(params, ds, model, cfg, reference=params)


class TestPartition:
    def _dataset(self, n):
        rng = np.random.default_rng(n)
        return DataSet(rng.standard_normal((n, 2)), rng.standard_normal(n))

    def test_even_split_covers_everything(self):
        ds = self._dataset(10)
        folds = partition_dataset(ds, 2, seed=0)
        assert [len(f) for f in folds] == [5, 5]
        assert sorted(np.concatenate(folds).tolist()) == list(range(10))

    def test_surplus_discarded(self):
        ds = self._dataset(11)
        folds = partition_dataset(ds, 2, seed=3)
        assert [len(f) for f in folds] == [5, 5]

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            partition_dataset(self._dataset(3), 5, seed=0)

    def test_folds_disjoint(self):
        ds = self._dataset(97)
        folds = partition_dataset(ds, 7, seed=5)
        seen = np.concatenate(folds)
        assert len(np.unique(seen)) == len(seen) == 7 * (97 // 7)

    def test_seed_determinism(self):
        ds = self._dataset(30)
        a = partition_dataset(ds, 3, seed=9)
        b = partition_dataset(ds, 3, seed=9)
        np.testing.assert_array_equal(a, b)


class TestStep:
    def test_input_params_unchanged(self):
        rng = np.random.default_rng(1)
        ds = DataSet(rng.standard_normal((6, 2)), rng.standard_normal(6))
        params = ParamSet(rng.standard_normal((2, 2)))
        before = params.thetas.copy()
        gradient_em_step(params, ds, LossModel("ridge", lam=0.1), _config())
        np.testing.assert_array_equal(params.thetas, before)

    def test_single_component_is_plain_gradient_step(self):
        rng = np.random.default_rng(2)
        ds = DataSet(rng.standard_normal((8, 3)), rng.standard_normal(8))
        model = LossModel("ridge", lam=0.05)
        theta = rng.standard_normal(3)
        gamma = 0.07
        out = gradient_em_step(ParamSet([theta]), ds, model, _config(step_size=gamma))
        want = theta - (gamma / len(ds)) * np.sum(
            batch_gradient(model, ds.X, ds.y, theta), axis=0
        )
        # bit-for-bit: the k=1 weights are exactly 1.0
        np.testing.assert_array_equal(out.theta(0), want)

    def test_two_component_hand_update(self):
        # n'=1, ridge lam=0, x=[1], y=1, beta=0: weights are 0.5 each,
        # gradients -2 and +2, so with gamma=1 both components land on [1]
        ds = DataSet(np.array([[1.0]]), np.array([1.0]))
        params = ParamSet([[0.0], [2.0]])
        out = gradient_em_step(
            params, ds, LossModel("ridge", lam=0.0), _config(step_size=1.0, beta=0.0)
        )
        np.testing.assert_allclose(out.thetas, [[1.0], [1.0]], atol=1e-15)

    def test_weights_frozen_at_incoming_params(self):
        # a sequential (Gauss-Seidel) update would give a different second
        # component here; the simultaneous one is equivariant instead
        rng = np.random.default_rng(4)
        ds = DataSet(rng.standard_normal((12, 2)), rng.standard_normal(12))
        model = LossModel("ridge", lam=0.01)
        params = ParamSet(rng.standard_normal((3, 2)))
        cfg = _config(step_size=0.2, beta=3.0)
        out = gradient_em_step(params, ds, model, cfg)
        perm = [2, 0, 1]
        out_perm = gradient_em_step(params.permuted(perm), ds, model, cfg)
        np.testing.assert_array_equal(out.permuted(perm).thetas, out_perm.thetas)

    def test_empty_fold_rejected(self):
        ds = DataSet(np.empty((0, 2)), np.empty(0))
        with pytest.raises(ValueError):
            gradient_em_step(ParamSet([[0.0, 0.0]]), ds, LossModel("ridge", lam=0.1), _config())

    def test_given_weights_give_the_same_step(self):
        rng = np.random.default_rng(5)
        ds = DataSet(rng.standard_normal((12, 2)), rng.standard_normal(12))
        model = LossModel("ridge", lam=0.01)
        params = ParamSet(rng.standard_normal((3, 2)))
        cfg = _config(step_size=0.2, beta=3.0)
        weights, _, _ = weight_matrix(params, ds, model, cfg.beta)
        out = gradient_em_step(params, ds, model, cfg, weights=weights)
        np.testing.assert_array_equal(out.thetas, gradient_em_step(params, ds, model, cfg).thetas)

    @pytest.mark.parametrize("shape", [(12, 2), (3, 12), (11, 3), (12,)])
    def test_weights_of_wrong_shape_rejected(self, shape):
        rng = np.random.default_rng(5)
        ds = DataSet(rng.standard_normal((12, 2)), rng.standard_normal(12))
        params = ParamSet(rng.standard_normal((3, 2)))
        with pytest.raises(ValueError, match="shape"):
            gradient_em_step(
                params, ds, LossModel("ridge", lam=0.01), _config(), weights=np.ones(shape)
            )


class TestAlignment:
    def test_permuted_copy_has_zero_distances(self):
        rng = np.random.default_rng(6)
        ref = ParamSet(rng.standard_normal((4, 3)))
        perm, dists = align_to_reference(ref.permuted([2, 3, 0, 1]), ref)
        np.testing.assert_array_equal(perm, [2, 3, 0, 1])
        np.testing.assert_allclose(dists, 0.0, atol=1e-15)

    def test_distances_indexed_by_reference(self):
        ref = ParamSet([[0.0, 0.0], [10.0, 0.0]])
        params = ParamSet([[10.0, 1.0], [0.5, 0.0]])
        perm, dists = align_to_reference(params, ref)
        np.testing.assert_array_equal(perm, [1, 0])
        np.testing.assert_allclose(dists, [0.5, 1.0], atol=1e-15)


def _assignment_cost(cost, cols):
    return float(np.sum(cost[np.arange(len(cols)), cols]))


class TestMinCostAssignment:
    @settings(deadline=None, max_examples=300)
    @given(
        k=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-12, 1e-3, 1.0, 1e3, 1e12]),
    )
    def test_continuous_costs_match_scipy_exactly(self, k, seed, scale):
        # continuous costs have one optimum (almost surely), so the columns agree
        cost = np.random.default_rng(seed).random((k, k)) * scale
        _, want = linear_sum_assignment(cost)
        np.testing.assert_array_equal(em._min_cost_assignment(cost), want)

    @settings(deadline=None, max_examples=300)
    @given(st.integers(1, 8).flatmap(lambda k: arrays(np.int64, (k, k), elements=st.integers(0, 3))))
    def test_tied_costs_reach_scipy_total(self, cost):
        cost = cost.astype(np.float64)
        cols = em._min_cost_assignment(cost)
        _, want = linear_sum_assignment(cost)
        assert sorted(cols.tolist()) == list(range(len(cost)))
        assert _assignment_cost(cost, cols) == pytest.approx(
            _assignment_cost(cost, want), rel=1e-12
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_cost_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            em._min_cost_assignment(np.array([[1.0, bad], [0.0, 1.0]]))

    def test_overflowing_reduced_costs_raise(self):
        # finite costs whose potentials overflow: the search finds no free
        # column, and an unbounded augmentation loop would never end
        cost = np.array([[-1.7e308, 1e308], [-1.7e308, 1e308]])
        with pytest.raises(ValueError, match="no augmenting path"):
            em._min_cost_assignment(cost)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_distance_rejected(self):
        params = ParamSet([[1e200, 1e200], [1.0, 0.0]])
        with pytest.raises(ValueError, match="non-finite"):
            align_to_reference(params, ParamSet([[0.0, 0.0], [1.0, 0.0]]))


class TestRateFit:
    def test_recovers_pure_geometric_rate(self):
        rate = 0.7
        seq = 1.0 * rate ** np.arange(30)
        assert fit_rate(seq) == pytest.approx(rate, rel=1e-6)

    def test_plateau_excluded_from_fit(self):
        decay = 1.0 * 0.5 ** np.arange(15)
        seq = np.concatenate([decay, np.full(10, decay[-1])])
        assert fit_rate(seq) == pytest.approx(0.5, rel=1e-6)

    def test_flat_sequence_has_no_rate(self):
        assert fit_rate(np.full(10, 0.3)) is None


class TestRun:
    def test_single_iteration_equals_one_step_on_fold_zero(self, tiny_ridge):
        ds, model = tiny_ridge
        init = ParamSet([[0.1]])
        cfg = _config(step_size=0.05, iterations=1, resample=True, seed=4)
        final, _ = run_gradient_em(init, ds, model, cfg, reference=init)
        fold0 = ds.subset(partition_dataset(ds, 1, seed=4)[0])
        want = gradient_em_step(init, fold0, model, cfg)
        np.testing.assert_array_equal(final.thetas, want.thetas)

    def test_k1_matches_plain_gradient_descent_bitwise(self, tiny_ridge):
        ds, model = tiny_ridge
        gamma = default_step_size(model, ds)
        init = ParamSet([[0.0]])
        cfg = _config(step_size=gamma, iterations=50, resample=False)
        final, _ = run_gradient_em(init, ds, model, cfg, reference=init)
        theta = init.theta(0).copy()
        for _ in range(50):
            theta = theta - (gamma / ds.n) * np.sum(
                batch_gradient(model, ds.X, ds.y, theta), axis=0
            )
        np.testing.assert_array_equal(final.theta(0), theta)

    def test_determinism(self, mlr_instance):
        ds, ref, model = mlr_instance
        init = ParamSet(ref.thetas + 0.1)
        cfg = _config(step_size=0.1, iterations=5, beta=5.0, resample=True, seed=13)
        a, _ = run_gradient_em(init, ds, model, cfg, reference=ref)
        b, _ = run_gradient_em(init, ds, model, cfg, reference=ref)
        np.testing.assert_array_equal(a.thetas, b.thetas)

    def test_component_relabeling_equivariance(self, mlr_instance):
        ds, ref, model = mlr_instance
        init = ParamSet(ref.thetas + [[0.1, -0.05], [0.02, 0.08]])
        cfg = _config(step_size=0.1, iterations=4, beta=5.0, resample=False)
        a, _ = run_gradient_em(init, ds, model, cfg, reference=ref)
        b, _ = run_gradient_em(init.permuted([1, 0]), ds, model, cfg, reference=ref)
        np.testing.assert_array_equal(a.permuted([1, 0]).thetas, b.thetas)

    def test_fixed_point_at_reference_on_noiseless_data(self, mlr_instance):
        ds, ref, model = mlr_instance
        gamma = default_step_size(model, ds)
        cfg = _config(step_size=gamma, iterations=10, beta=10.0, resample=False)
        _, trace = run_gradient_em(ref.copy(), ds, model, cfg, reference=ref)
        # the regularizer keeps truth from being an exact stationary point,
        # so distances stay at a gamma * epsilon1 scale, not exactly zero
        assert float(np.max(trace.max_distances())) <= 1e-2

    def test_distance_nonincreasing_until_floor(self, mlr_instance):
        ds, ref, model = mlr_instance
        gamma = default_step_size(model, ds)
        rng = np.random.default_rng(21)
        offsets = rng.standard_normal(ref.thetas.shape)
        offsets /= np.linalg.norm(offsets, axis=1, keepdims=True)
        init = ParamSet(ref.thetas + 0.2 * offsets)
        cfg = _config(step_size=gamma, iterations=25, beta=10.0, resample=False)
        _, trace = run_gradient_em(init, ds, model, cfg, reference=ref)
        md = trace.max_distances()
        floor = trace.final_distance()
        for t in range(1, len(md) - 1):
            if md[t] <= 2.0 * floor:
                break
            assert md[t + 1] <= md[t] + 1e-9
        assert trace.fitted_rate is not None and trace.fitted_rate < 1.0

    def test_trace_shape_and_loss_column(self, mlr_instance, monkeypatch):
        ds, ref, model = mlr_instance
        aligned = []

        def counted(params, reference):
            aligned.append(params)
            return align_to_reference(params, reference)

        monkeypatch.setattr(em, "align_to_reference", counted)
        cfg = _config(step_size=0.05, iterations=6, beta=5.0, resample=True, seed=2)
        init = ParamSet(ref.thetas + 0.1)
        _, trace = run_gradient_em(init, ds, model, cfg, reference=ref)
        assert trace.distances.shape == (7, 2)
        assert trace.losses.shape == (7,)
        assert all(math.isfinite(loss) for loss in trace.losses)
        np.testing.assert_array_equal(trace.distances[0], align_to_reference(init, ref)[1])
        # theta_T is aligned once, for its distances and the alignment
        assert len(aligned) == cfg.iterations + 1

    def test_resample_needs_enough_samples(self):
        rng = np.random.default_rng(0)
        ds = DataSet(rng.standard_normal((4, 1)), rng.standard_normal(4))
        cfg = _config(iterations=10, resample=True)
        init = ParamSet([[0.0]])
        with pytest.raises(ValueError):
            run_gradient_em(init, ds, LossModel("ridge", lam=0.1), cfg, reference=init)


MODELS = [(family, None) for family in FAMILIES if family != GLM] + [
    (GLM, link) for link in LINKS
]


class TestTraceReuse:
    """Each iteration's full-data weight matrix gives the trace loss and the
    step's fold weights."""

    @staticmethod
    def _instance(family, link):
        # folds of 200 rows and a large lam: the step's mass sum_i W_ij weighs
        # enough that fold weights summed in another order change the steps
        rng = np.random.default_rng(17)
        X = rng.standard_normal((2000, 4))
        if FAMILIES[family].signed_labels:
            y = rng.choice([-1.0, 1.0], 2000)
        else:
            y = rng.standard_normal(2000)
        model = LossModel(family, lam=0.5, link=LINKS[link] if link else None)
        return DataSet(X, y), model, ParamSet(rng.standard_normal((3, 4)))

    @pytest.mark.parametrize("family, link, resample", [
        pytest.param(family, link, resample, id=f"{family}-{link}" + "-resample" * resample)
        for family, link in MODELS for resample in (False, True)
    ])
    def test_trace_loss_is_empirical_loss_bitwise(self, family, link, resample):
        ds, model, init = self._instance(family, link)
        cfg = _config(step_size=0.1, iterations=10, beta=2.0, resample=resample, seed=3)
        final, trace = run_gradient_em(init, ds, model, cfg, reference=init)
        if resample:
            folds = partition_dataset(ds, cfg.iterations, cfg.seed)
        else:
            folds = [np.arange(len(ds))] * cfg.iterations
        params = init
        for t, rows in enumerate(folds):
            assert trace.losses[t] == empirical_loss(params, ds, model, cfg.beta)
            # the step forms the fold's own weights
            params = gradient_em_step(params, ds.subset(rows), model, cfg)
        assert trace.losses[-1] == empirical_loss(params, ds, model, cfg.beta)
        np.testing.assert_array_equal(final.thetas, params.thetas)

    @pytest.mark.parametrize("resample, calls", [(False, 1), (True, 1)])
    def test_empirical_loss_calls(self, mlr_instance, monkeypatch, resample, calls):
        ds, ref, model = mlr_instance
        seen = []

        def counted(*args):
            seen.append(args)
            return empirical_loss(*args)

        monkeypatch.setattr(em, "empirical_loss", counted)
        cfg = _config(step_size=0.05, iterations=6, beta=5.0, resample=resample, seed=2)
        _, trace = run_gradient_em(ParamSet(ref.thetas + 0.1), ds, model, cfg, reference=ref)
        assert len(trace.losses) == 7
        assert len(seen) == calls


class TestFullBatchProduct:
    """At full batch each step takes the iterate's product Z = Theta X^T from
    its weight matrix; a resampled step forms its fold's own."""

    @pytest.mark.parametrize("family, link", MODELS, ids=[f"{f}-{lk}" for f, lk in MODELS])
    @pytest.mark.parametrize("resample", [False, True], ids=["full", "resample"])
    def test_step_takes_the_iterates_product(self, family, link, resample, monkeypatch):
        ds, model, init = TestTraceReuse._instance(family, link)
        cfg = _config(step_size=0.1, iterations=6, beta=2.0, resample=resample, seed=3)
        formed, given = [], []

        def weights(*args):
            triple = weight_matrix(*args)
            formed.append(triple[2])
            return triple

        def step(*args, **kwargs):
            given.append(kwargs.get("Z"))
            return gradient_em_step(*args, **kwargs)

        monkeypatch.setattr(em, "weight_matrix", weights)
        monkeypatch.setattr(em, "gradient_em_step", step)
        final, _ = run_gradient_em(init, ds, model, cfg, reference=init)
        assert len(given) == cfg.iterations
        if resample:
            assert all(Z is None for Z in given)
        else:
            # one weight matrix per iterate, whose Z its step takes uncopied
            assert all(Z is mine for Z, mine in zip(given, formed, strict=True))
        monkeypatch.undo()

        params = init
        for rows in (partition_dataset(ds, cfg.iterations, cfg.seed) if resample
                     else [np.arange(len(ds))] * cfg.iterations):
            params = gradient_em_step(params, ds.subset(rows), model, cfg)
        np.testing.assert_array_equal(final.thetas, params.thetas)

    @pytest.mark.parametrize("shape", [(12, 3), (3, 11), (2, 12), (12,)])
    def test_product_of_wrong_shape_rejected(self, shape):
        rng = np.random.default_rng(5)
        ds = DataSet(rng.standard_normal((12, 2)), rng.standard_normal(12))
        params = ParamSet(rng.standard_normal((3, 2)))
        want = re.escape(f"Z: shape {shape}, expected (3, 12)")
        with pytest.raises(ValueError, match=want):
            gradient_em_step(params, ds, LossModel("ridge", lam=0.01), _config(), Z=np.ones(shape))
