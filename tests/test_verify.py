"""Independent oracles: finite differences, brute-force search, weight-bound
sweeps, and the in/out-of-region step decomposition."""
import itertools
import math

import numpy as np
import pytest

import softmix.datagen as datagen
import softmix.verify as verify
from softmix.data import DataSet, ParamSet
from softmix.datagen import BLOCK, GenSpec, generate
from softmix.em import EMConfig
from softmix.losses import FAMILIES, LossModel, batch_gradient, batch_loss, certify
from softmix.softmin import empirical_loss
from softmix.theory import estimate_constants
from softmix.verify import (
    check_lemma_bounds,
    finite_diff_gradient,
    step_decomposition,
)

from oracles import GridSpec, brute_force_minimize, check_brute_force_budget


class TestFiniteDifferences:
    def test_exact_on_quadratics(self):
        model = LossModel("ridge", lam=0.3)
        x, y = np.array([0.7, -1.1]), 0.4
        theta = np.array([0.2, 0.5])
        for h in (1e-3, 1e-5):
            got = finite_diff_gradient(model, x, y, theta, h=h)
            want = batch_gradient(model, x[None, :], np.array([y]), theta)[0]
            np.testing.assert_allclose(got, want, atol=1e-8)

    def test_logistic_hand_value(self):
        model = LossModel("logistic", lam=0.0)
        got = finite_diff_gradient(model, np.array([1.0]), 1.0, np.array([0.0]), h=1e-5)
        np.testing.assert_allclose(got, [-0.5], atol=1e-8)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_stack_matches_one_coordinate_at_a_time(self, family):
        model = LossModel(family, lam=0.2)
        rng = np.random.default_rng(7)
        x, theta = rng.standard_normal(4), rng.standard_normal(4)
        y, h = (1.0 if FAMILIES[family].signed_labels else 0.3), 1e-5
        X, Y = x[None, :], np.array([y])
        want = [
            (batch_loss(model, X, Y, theta + h * e)[0] - batch_loss(model, X, Y, theta - h * e)[0])
            / (2.0 * h)
            for e in np.eye(4)
        ]
        np.testing.assert_allclose(
            finite_diff_gradient(model, x, y, theta, h=h), want, rtol=1e-9, atol=1e-9
        )

    def test_zero_step_rejected(self):
        model = LossModel("ridge", lam=0.1)
        with pytest.raises(ValueError):
            finite_diff_gradient(model, np.array([1.0]), 1.0, np.array([0.0]), h=0.0)


class TestBruteForce:
    def _dataset(self, n=12, seed=3):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, 1))
        y = 0.6 * X[:, 0] + 0.1 * rng.standard_normal(n)
        return DataSet(X, y)

    def test_single_component_finds_least_squares(self):
        ds = self._dataset()
        model = LossModel("ridge", lam=0.0)
        grid = GridSpec(-2.0, 2.0, 401)
        best, _ = brute_force_minimize(ds, model, 1.0, 1, grid)
        closed = float(np.sum(ds.X[:, 0] * ds.y) / np.sum(ds.X[:, 0] ** 2))
        axis = grid.axis()
        nearest = axis[np.argmin(np.abs(axis - closed))]
        assert best.theta(0)[0] == pytest.approx(nearest)

    def test_symmetric_instance_beats_truth_gridpoint(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((16, 1))
        z = rng.integers(2, size=16)
        truth = np.array([[1.0], [-1.0]])
        y = np.take(truth[:, 0], z) * X[:, 0]
        ds = DataSet(X, y)
        model = LossModel("ridge", lam=1e-3)
        cfg = math.inf
        # 41-point grid over [-2, 2] contains +-1 exactly
        best, _ = brute_force_minimize(ds, model, cfg, 2, GridSpec(-2.0, 2.0, 41))
        assert empirical_loss(best, ds, model, cfg) <= empirical_loss(
            ParamSet(truth), ds, model, cfg
        )

    def test_matches_assignment_enumeration_oracle(self):
        # at beta=inf the optimum is the best over all label assignments of
        # the per-cluster ridge closed forms
        rng = np.random.default_rng(11)
        X = rng.standard_normal((5, 1))
        y = np.where(X[:, 0] > 0, 1.2 * X[:, 0], -0.8 * X[:, 0])
        ds = DataSet(X, y)
        lam = 1e-3
        model = LossModel("ridge", lam=lam)
        cfg = math.inf
        grid = GridSpec(-2.0, 2.0, 201)
        best, bf_loss = brute_force_minimize(ds, model, cfg, 2, grid)
        assert bf_loss == empirical_loss(best, ds, model, cfg)

        enum_best = math.inf
        for assign in itertools.product([0, 1], repeat=5):
            assign = np.asarray(assign)
            total = 0.0
            for j in (0, 1):
                mask = assign == j
                if not np.any(mask):
                    continue
                xs, ys = ds.X[mask, 0], ds.y[mask]
                theta = float(np.sum(xs * ys) / (np.sum(xs * xs) + mask.sum() * lam))
                total += float(np.sum((ys - xs * theta) ** 2) + mask.sum() * lam * theta ** 2)
            enum_best = min(enum_best, total / 5.0)
        cell = 4.0 / 200
        # grid resolution slack: the loss is locally quadratic in theta
        assert bf_loss == pytest.approx(enum_best, abs=5.0 * cell ** 2 + 1e-9)
        assert bf_loss >= enum_best - 1e-12

    def test_budget_and_dimension_guards(self):
        ds = self._dataset()
        model = LossModel("ridge", lam=0.1)
        cfg = 1.0
        with pytest.raises(ValueError):
            brute_force_minimize(ds, model, cfg, 2, GridSpec(-1.0, 1.0, 4000))
        wide = DataSet(np.zeros((3, 3)), np.zeros(3))
        with pytest.raises(ValueError):
            brute_force_minimize(wide, model, cfg, 1, GridSpec(-1.0, 1.0, 3))

    def test_budget_caps_candidates_at_1e5(self):
        # at d = 1, k = 2 the grid has points^2 candidates; no search runs
        with pytest.raises(ValueError, match="grid budget exceeded: 100489 candidate"):
            check_brute_force_budget(1, 2, GridSpec(-1.0, 1.0, 317))
        check_brute_force_budget(1, 2, GridSpec(-1.0, 1.0, 316))


class TestLemmaSweeps:
    def test_reference_params_zero_violations(self, mlr_instance):
        ds, ref, model = mlr_instance
        constants = estimate_constants(ds, ref, model, certify(model, ds))
        rep1, rep2 = check_lemma_bounds(
            ds, ref, model, constants, beta=5.0, radii=[1e-12, 1e-12], trials=5, seed=0
        )
        assert not rep1.bound_vacuous and not rep2.bound_vacuous
        assert rep1.violations == 0 and rep2.violations == 0
        assert rep1.checked >= 5 * ds.n * 0.9

    def test_perturbed_params_zero_violations(self, mlr_instance):
        ds, ref, model = mlr_instance
        constants = estimate_constants(ds, ref, model, certify(model, ds))
        rep1, rep2 = check_lemma_bounds(
            ds, ref, model, constants, beta=5.0, radii=[0.01, 0.01], trials=30, seed=1
        )
        assert rep1.violations == 0 and rep2.violations == 0
        assert rep1.checked + rep2.checked >= 10_000

    def test_beta_zero_exact_equality(self, mlr_instance):
        ds, ref, model = mlr_instance
        constants = estimate_constants(ds, ref, model, certify(model, ds))
        rep1, _ = check_lemma_bounds(
            ds, ref, model, constants, beta=0.0, radii=[0.01, 0.01], trials=3, seed=2
        )
        # the own-region bound collapses to p >= 1/k, met with equality by
        # uniform weights
        assert not rep1.bound_vacuous
        assert rep1.violations == 0
        assert abs(rep1.worst_margin) <= 1e-12

    @pytest.mark.parametrize("margin", [0.0, 1.69], ids=["no_margin", "margin"])
    @pytest.mark.parametrize("norm", [0.3, 1.0, 3.0, 10.0])
    def test_bounds_hold_at_every_reference_norm(self, norm, margin):
        # the bounds take the ball's radius 0.1 * ||theta*|| as it is; read
        # relative to ||theta*||, it would understate the ball and break the
        # own-region bound at ||theta*|| = 10 and the cross-region one at 3
        truth = ParamSet([[norm, 0.0], [-norm, 0.0]])
        spec = GenSpec(
            kind="generative_mlr", k=2, d=2, n=300, noise_sigma=0.0,
            covariate="uniform_ball", cov_scale=1.5, margin=margin * norm ** 2,
            seed=11, truth=truth,
        )
        ds, ref = generate(spec)
        model = LossModel("ridge", lam=1e-3)
        constants = estimate_constants(ds, ref, model, certify(model, ds))
        own, cross = check_lemma_bounds(
            ds, ref, model, constants, beta=1.0, radii=[0.1 * norm] * 2, trials=200, seed=11
        )
        assert not own.bound_vacuous and own.checked == cross.checked == 200 * ds.n
        assert own.violations == 0 and cross.violations == 0

    def test_tied_samples_are_skipped(self, mlr_instance):
        # at x = 0 both components predict 0 and their norms are equal, so
        # the rows appended there are exact ties, in no region
        ds, ref, model = mlr_instance
        ties, trials = 7, 3
        X = np.vstack([ds.X, np.zeros((ties, ds.d))])
        tied = DataSet(X, np.concatenate([ds.y, np.full(ties, 0.5)]))
        constants = estimate_constants(tied, ref, model, certify(model, tied))
        tie_rows = np.flatnonzero(constants.region_of < 0)
        np.testing.assert_array_equal(tie_rows, np.arange(ds.n, tied.n))
        own, cross = check_lemma_bounds(
            tied, ref, model, constants, beta=5.0, radii=[0.01, 0.01], trials=trials, seed=1
        )
        assert own.checked == trials * ds.n
        assert own.checked + cross.checked == trials * ref.k * (tied.n - ties)

    def test_trials_draw_from_no_block_stream(self, monkeypatch):
        # the check runs on the data of its own seed, so trial t must not
        # reuse the generator of block t: its offsets would then come from
        # the words that picked that block's components
        spec = GenSpec(
            kind="generative_mlr", k=2, d=2, n=2 * BLOCK + 1, noise_sigma=0.0,
            covariate="uniform_ball", cov_scale=1.5, margin=1.69, seed=3,
            truth=ParamSet([[1.0, 0.0], [-1.0, 0.0]]),
        )
        original = datagen._substream
        keys = {"blocks": [], "trials": []}

        def recording(name, module):
            def substream(seed, index):
                keys[name].append(seed * 2 ** 64 + index)
                return original(seed, index)
            monkeypatch.setattr(module, "_substream", substream)

        recording("blocks", datagen)
        ds, ref = generate(spec)
        model = LossModel("ridge", lam=1e-3)
        constants = estimate_constants(ds, ref, model, certify(model, ds))
        recording("trials", verify)
        check_lemma_bounds(
            ds, ref, model, constants, beta=5.0, radii=[0.01, 0.01], trials=5, seed=spec.seed
        )
        assert len(keys["blocks"]) == 3 and len(keys["trials"]) == 5
        assert not set(keys["trials"]) & set(keys["blocks"])

    def test_rows_other_than_the_constants_rejected(self, mlr_instance):
        ds, ref, model = mlr_instance
        constants = estimate_constants(ds, ref, model, certify(model, ds))
        with pytest.raises(ValueError, match="^dataset has 100 rows, but the constants "
                           "were measured on 400$"):
            check_lemma_bounds(
                ds.subset(np.arange(100)), ref, model, constants, beta=5.0,
                radii=[0.01, 0.01], trials=1, seed=0,
            )

    @pytest.mark.filterwarnings("ignore:separation delta")
    def test_vacuous_regime_flagged_not_counted(self):
        # overlapping noisy components with a huge beta: the eta numerator
        # underflows to zero, so the bound is vacuous
        rng = np.random.default_rng(3)
        X = rng.standard_normal((60, 2))
        y = X[:, 0] + 0.5 * rng.standard_normal(60)
        ds = DataSet(X, y)
        ref = ParamSet([[1.0, 0.1], [0.9, -0.1]])
        model = LossModel("ridge", lam=1e-3)
        constants = estimate_constants(ds, ref, model, certify(model, ds))
        rep1, _ = check_lemma_bounds(
            ds, ref, model, constants, beta=1e5, radii=[0.1, 0.1], trials=2, seed=0
        )
        assert rep1.bound_vacuous
        assert rep1.violations == 0

    @pytest.mark.filterwarnings("ignore:separation delta")
    def test_vacuous_bound_has_no_worst_margin(self):
        # as above: delta < epsilon, so at a huge beta both bounds are vacuous;
        # the weights were checked, but against no bound
        rng = np.random.default_rng(3)
        X = rng.standard_normal((60, 2))
        ds = DataSet(X, X[:, 0] + 0.5 * rng.standard_normal(60))
        ref = ParamSet([[1.0, 0.1], [0.9, -0.1]])
        model = LossModel("ridge", lam=1e-3)
        constants = estimate_constants(ds, ref, model, certify(model, ds))
        reports = check_lemma_bounds(
            ds, ref, model, constants, beta=1e5, radii=[0.1, 0.1], trials=2, seed=0
        )
        for report in reports:
            assert report.bound_vacuous and report.checked > 0
            assert report.violations == 0 and math.isnan(report.worst_margin)


class TestStepDecomposition:
    def _em(self, step_size, beta=5.0):
        return EMConfig(gamma=step_size, iterations=1, beta=beta, resample=False)

    def test_single_component_has_no_cross_term(self, tiny_ridge):
        ds, model = tiny_ridge
        params = ParamSet([[0.3]])
        ref = ParamSet([[0.8]])
        constants = estimate_constants(ds, ref, model, certify(model, ds))
        dec = step_decomposition(params, ds, model, self._em(0.1), ref, constants)
        assert dec.T2 == 0.0
        assert dec.total <= dec.T1 + dec.T2 + 1e-12

    def test_gamma_none_raises_naming_gamma(self, mlr_instance):
        ds, ref, model = mlr_instance
        params = ParamSet(ref.thetas + 0.1)
        constants = estimate_constants(ds, ref, model, certify(model, ds))
        with pytest.raises(ValueError, match="^gamma is None"):
            step_decomposition(params, ds, model, self._em(None), ref, constants)

    def test_triangle_inequality_on_random_instances(self, mlr_instance):
        ds, ref, model = mlr_instance
        rng = np.random.default_rng(7)
        gamma = 0.1
        constants = estimate_constants(ds, ref, model, certify(model, ds))
        for _ in range(25):
            params = ParamSet(ref.thetas + 0.2 * rng.standard_normal(ref.thetas.shape))
            dec = step_decomposition(params, ds, model, self._em(gamma), ref, constants)
            assert dec.total <= dec.T1 + dec.T2 + 1e-12

    def test_rows_other_than_the_constants_rejected(self, mlr_instance):
        ds, ref, model = mlr_instance
        params = ParamSet(ref.thetas + 0.1)
        constants = estimate_constants(ds, ref, model, certify(model, ds))
        with pytest.raises(ValueError, match="^dataset has 100 rows, but the constants "
                           "were measured on 400$"):
            step_decomposition(
                params, ds.subset(np.arange(100)), model, self._em(0.1), ref, constants
            )

    def test_weights_formed_once(self, mlr_instance, monkeypatch):
        import softmix.em as em_module
        import softmix.verify as verify_module
        from softmix.softmin import weight_matrix

        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return weight_matrix(*args, **kwargs)

        for module in (verify_module, em_module):
            monkeypatch.setattr(module, "weight_matrix", counted)
        ds, ref, model = mlr_instance
        params = ParamSet(ref.thetas + [[0.2, 0.0], [0.0, -0.1]])
        constants = estimate_constants(ds, ref, model, certify(model, ds))
        step_decomposition(params, ds, model, self._em(0.1), ref, constants)
        assert len(calls) == 1
