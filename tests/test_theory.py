"""Region partitioning, empirical problem constants, and the convergence
bound quantities (eta, eta', zeta, contraction factor, distance bound)."""
import math

import numpy as np
import pytest

from softmix.data import DataSet, ParamSet
from softmix.losses import LossModel, batch_loss, certify, loss_gradient, loss_value
from softmix.theory import (
    ProblemConstants,
    compute_contraction,
    compute_error_floor,
    compute_eta,
    compute_eta_prime,
    estimate_constants,
    partition_regions,
    predicted_distance_bound,
    theorem_quantities,
)


def _certified(M=3.0, m=1.0):
    return LossModel("ridge", lam=0.1, m=m, M=M, domain_radius=1.0)


def _constants(epsilon=0.0, epsilon1=0.0, delta=math.inf, pi_min=0.5, sizes=(1, 1)):
    return ProblemConstants(
        epsilon=epsilon,
        epsilon1=epsilon1,
        delta=delta,
        pi_min=pi_min,
        region_sizes=sizes,
    )


class TestPartition:
    def test_single_component_takes_everything(self):
        rng = np.random.default_rng(0)
        ds = DataSet(rng.standard_normal((9, 2)), rng.standard_normal(9))
        regions, unassigned, _ = partition_regions(ds, ParamSet([[1.0, 0.0]]), LossModel("ridge"))
        assert len(regions) == 1
        np.testing.assert_array_equal(regions[0], np.arange(9))
        assert unassigned.size == 0

    def test_strict_argmin_assignment(self):
        # x=[1], y=1: theta=[1] fits exactly; x=[1], y=-1: theta=[-1] does
        ds = DataSet(np.array([[1.0], [1.0]]), np.array([1.0, -1.0]))
        ref = ParamSet([[1.0], [-1.0]])
        regions, unassigned, _ = partition_regions(ds, ref, LossModel("ridge", lam=0.0))
        np.testing.assert_array_equal(regions[0], [0])
        np.testing.assert_array_equal(regions[1], [1])
        assert unassigned.size == 0

    def test_exact_tie_goes_unassigned(self):
        # x=[0]: the prediction is 0 for both components and the
        # regularizers coincide, so the sample is an exact tie
        ds = DataSet(np.array([[0.0]]), np.array([0.5]))
        ref = ParamSet([[1.0], [-1.0]])
        regions, unassigned, _ = partition_regions(ds, ref, LossModel("ridge", lam=0.1))
        assert all(r.size == 0 for r in regions)
        np.testing.assert_array_equal(unassigned, [0])

    def test_agrees_with_brute_force_argmin(self):
        rng = np.random.default_rng(8)
        for k, n in ((2, 50), (3, 120), (5, 200)):
            ds = DataSet(rng.standard_normal((n, 3)), rng.standard_normal(n))
            ref = ParamSet(rng.standard_normal((k, 3)))
            model = LossModel("ridge", lam=0.01)
            regions, unassigned, _ = partition_regions(ds, ref, model)
            fmat = np.stack(
                [batch_loss(model, ds.X, ds.y, ref.theta(j)) for j in range(k)], axis=1
            )
            for i in range(n):
                best = int(np.argmin(fmat[i]))
                strict = np.sum(fmat[i] == fmat[i, best]) == 1
                if strict:
                    assert i in regions[best]
                else:
                    assert i in unassigned  # pragma: no cover - measure zero


class TestEstimateConstants:
    def test_noiseless_generative_truth_has_zero_misspecification(self, mlr_instance):
        ds, ref, _ = mlr_instance
        c = estimate_constants(ds, ref, LossModel("ridge", lam=0.0))
        assert c.epsilon <= 1e-24  # zero up to summation-order rounding
        assert c.epsilon1 <= 1e-12
        assert c.delta > 0.0
        assert 0.0 < c.pi_min <= 0.5

    def test_single_component_delta_infinite(self, tiny_ridge):
        ds, model = tiny_ridge
        c = estimate_constants(ds, ParamSet([[0.8]]), model)
        assert c.delta == math.inf
        assert c.pi_min == 1.0

    @pytest.mark.filterwarnings("ignore:separation delta")
    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(12)
        ds = DataSet(rng.standard_normal((60, 2)), rng.standard_normal(60))
        ref = ParamSet(rng.standard_normal((2, 2)))
        model = LossModel("ridge", lam=0.05)
        c = estimate_constants(ds, ref, model)

        regions, _, _ = partition_regions(ds, ref, model)
        eps = eps1 = 0.0
        delta = math.inf
        for j in range(2):
            for i in regions[j]:
                s = ds.sample(int(i))
                eps = max(eps, loss_value(model, s, ref.theta(j)))
                eps1 = max(eps1, float(np.linalg.norm(loss_gradient(model, s, ref.theta(j)))))
                for l in range(2):
                    if l != j:
                        delta = min(delta, loss_value(model, s, ref.theta(l)))
        assert c.epsilon == eps
        assert c.epsilon1 == eps1
        assert c.delta == delta
        assert c.pi_min == min(len(r) for r in regions) / 60

    def test_separation_warning_names_the_caller(self):
        from softmix.verify import check_lemma_bounds

        rng = np.random.default_rng(12)
        ds = DataSet(rng.standard_normal((60, 2)), rng.standard_normal(60))
        ref = ParamSet(rng.standard_normal((2, 2)))
        model = certify(LossModel("ridge", lam=0.05), ds)
        with pytest.warns(UserWarning, match="separation delta") as record:
            estimate_constants(ds, ref, model)
        with pytest.warns(UserWarning, match="separation delta") as lemma_record:
            check_lemma_bounds(ds, ref, model, beta=1.0, c_ini=0.1, trials=1, seed=0)
        assert [w.filename for w in (*record, *lemma_record)] == [__file__, __file__]

    def test_empty_region_rejected(self):
        ds = DataSet(np.array([[1.0]]), np.array([1.0]))
        ref = ParamSet([[1.0], [0.9]])
        with pytest.raises(ValueError, match="region"):
            estimate_constants(ds, ref, LossModel("ridge", lam=0.0))


class TestEta:
    def test_hand_value(self):
        c = _constants(delta=math.log(9.0))
        got = compute_eta(c, beta=1.0, c_ini=0.0, model=_certified(), k=2)
        assert got == pytest.approx(0.1, rel=1e-12)

    def test_beta_zero_gives_uniform_deficit(self):
        c = _constants(delta=2.0)
        for k in (1, 2, 5):
            got = compute_eta(c, beta=0.0, c_ini=0.3, model=_certified(), k=k)
            assert got == pytest.approx(1.0 - 1.0 / k, rel=1e-15)

    def test_single_component_perfect(self):
        c = _constants()
        assert compute_eta(c, beta=3.0, c_ini=0.0, model=_certified(), k=1) == 0.0

    def test_monotone_in_misspecification_and_radius(self):
        rng = np.random.default_rng(4)
        model = _certified()
        for _ in range(50):
            eps, eps1, cini = rng.random(3) * 0.5
            beta = 0.5 + 2.0 * rng.random()
            base = _constants(epsilon=eps, epsilon1=eps1, delta=5.0)
            v = compute_eta(base, beta, cini, model, 2)
            up_eps = _constants(epsilon=eps + 0.1, epsilon1=eps1, delta=5.0)
            up_eps1 = _constants(epsilon=eps, epsilon1=eps1 + 0.1, delta=5.0)
            assert compute_eta(up_eps, beta, cini, model, 2) >= v - 1e-12
            assert compute_eta(up_eps1, beta, cini, model, 2) >= v - 1e-12
            assert compute_eta(base, beta, cini + 0.1, model, 2) >= v - 1e-12
            wider = _constants(epsilon=eps, epsilon1=eps1, delta=6.0)
            assert compute_eta(wider, beta, cini, model, 2) <= v + 1e-12


class TestEtaPrime:
    def test_beta_zero_is_one(self):
        got = compute_eta_prime(_constants(delta=2.0), 0.0, 0.3, _certified())
        assert got == 1.0

    def test_hand_value(self):
        got = compute_eta_prime(_constants(delta=1.0), 2.0, 0.0, _certified())
        assert got == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_insufficient_separation_exceeds_one(self):
        # delta smaller than the radius-inflation terms flips the exponent
        got = compute_eta_prime(_constants(delta=0.1), 2.0, 0.5, _certified(M=3.0))
        assert got > 1.0

    def test_log_linear_in_beta(self):
        c = _constants(epsilon=0.02, epsilon1=0.04, delta=1.5)
        model = _certified(M=2.0)
        c_ini = 0.1
        slope_want = -(
            c.delta
            - (c.epsilon1 + 2.0 * model.M) * c_ini
            - c.epsilon
            - c.epsilon1 * c_ini
            - 0.5 * model.M * c_ini ** 2
        )
        betas = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
        logs = np.array(
            [math.log(compute_eta_prime(c, b, c_ini, model)) for b in betas]
        )
        slopes = np.diff(logs) / np.diff(betas)
        np.testing.assert_allclose(slopes, slope_want, atol=1e-10)


class TestErrorFloor:
    def test_zero_when_no_misspecification_or_leak(self):
        got = compute_error_floor(_constants(), 0.5, 0.2, 0.0, _certified())
        assert got == 0.0

    def test_hand_value(self):
        c = _constants(epsilon1=0.04)
        got = compute_error_floor(c, 0.1, 0.1, 0.05, _certified(M=3.0))
        # 0.1*0.04 + sqrt(0.1*0.04*0.1) + 0.1*0.05*(2 + 0.04 + 3*0.1)
        want = 0.004 + 0.02 + 0.005 * 2.34
        assert got == pytest.approx(want, rel=1e-12)

    def test_linear_in_gamma_without_gradient_misspecification(self):
        c = _constants(epsilon1=0.0)
        model = _certified()
        one = compute_error_floor(c, 0.2, 0.1, 0.05, model)
        two = compute_error_floor(c, 0.4, 0.1, 0.05, model)
        assert two == pytest.approx(2.0 * one, rel=1e-12)


class TestContraction:
    def test_zero_step_no_contraction(self):
        assert compute_contraction(0.0, 0.5, 1.0, 0.0, 1.0) == 1.0

    def test_hand_value(self):
        got = compute_contraction(0.5, 0.5, 1.0, 0.0, 1.0)
        assert got == pytest.approx(math.sqrt(0.75), rel=1e-12)

    def test_approaches_one_as_eta_saturates(self):
        got = compute_contraction(0.5, 0.5, 1.0, 1.0 - 1e-9, 1.0)
        assert got == pytest.approx(1.0, abs=1e-8)

    def test_saturated_eta_rejected(self):
        with pytest.raises(ValueError):
            compute_contraction(0.5, 0.5, 1.0, 1.0, 1.0)

    def test_overlong_step_rejected(self):
        with pytest.raises(ValueError):
            compute_contraction(3.0, 1.0, 1.0, 0.0, 1.0)


class TestDistanceBound:
    def test_no_iterations_returns_initial(self):
        d0 = np.array([0.4, 0.9])
        np.testing.assert_array_equal(predicted_distance_bound(d0, 0.5, 0.1, 0), d0)

    def test_pure_geometric_decay(self):
        got = predicted_distance_bound(np.array([1.0]), 0.5, 0.0, 3)
        np.testing.assert_allclose(got, [0.125], rtol=1e-14)

    def test_hand_unrolled_recursion(self):
        got = predicted_distance_bound(np.array([1.0]), 0.5, 0.1, 3)
        np.testing.assert_allclose(got, [0.125 + 0.1 * 1.75], rtol=1e-12)

    def test_floor_is_limit(self):
        r, zeta = 0.8, 0.05
        got = float(predicted_distance_bound(np.array([0.0]), r, zeta, 10000)[0])
        assert got == pytest.approx(zeta / (1.0 - r), rel=1e-9)


class TestBundle:
    def test_quantities_consistent_with_parts(self, mlr_instance):
        ds, ref, _ = mlr_instance
        model = certify(LossModel("ridge", lam=1e-3), ds)
        c = estimate_constants(ds, ref, model)
        q = theorem_quantities(c, model, beta=5.0, c_ini=0.01, gamma=0.05, k=2, c_universal=1.0)
        assert q.eta == compute_eta(c, 5.0, 0.01, model, 2)
        assert q.eta_prime == compute_eta_prime(c, 5.0, 0.01, model)
        assert q.zeta == compute_error_floor(c, 0.05, 0.01, q.eta_prime, model)
        assert q.contraction is not None and 0.0 < q.contraction < 1.0
        assert not q.vacuous
