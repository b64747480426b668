"""Region partitioning, empirical problem constants, and the convergence
bound quantities (eta, eta', zeta, contraction factor, distance bound)."""
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from softmix.data import DataSet, ParamSet
from softmix.losses import FAMILIES, GLM, LINKS, LossModel, batch_gradient, batch_loss, certify
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


_FAMILY_LINKS = [(family, None) for family in sorted(FAMILIES) if family != GLM] + [
    (GLM, LINKS[name]) for name in sorted(LINKS)
]


def _constants(
    epsilon=0.0, epsilon1=0.0, delta=math.inf, pi_min=0.5, m=1.0, M=3.0, sizes=(1, 1)
):
    """Constants of k = len(sizes) regions, region j holding sizes[j] samples."""
    return ProblemConstants(
        epsilon=epsilon,
        epsilon1=epsilon1,
        delta=delta,
        pi_min=pi_min,
        m=m,
        M=M,
        region_of=np.repeat(np.arange(len(sizes)), sizes),
    )


def _estimated(ds, ref, model):
    """The constants at ``ref``, with the (m, M) of ``model`` certified on ``ds``."""
    return estimate_constants(ds, ref, model, certify(model, ds))


@st.composite
def _integer_instances(draw):
    """Rows (x_1, x_2, y) and 2 or 3 components (theta_1, theta_2), all
    entries integers in [-2, 2]."""
    k = draw(st.integers(2, 3))
    entries = st.integers(-2, 2)
    rows = draw(st.lists(st.tuples(entries, entries, entries), min_size=k, max_size=12))
    thetas = draw(st.lists(st.tuples(entries, entries), min_size=k, max_size=k))
    return np.array(rows, dtype=np.float64), thetas


@st.composite
def _oracle_instances(draw):
    """``(dataset, reference, model)`` with integer entries in [-2, 2], so
    that exact ties are common: 1 to 4 distinct components, every family
    (``glm`` with each link) at lam = 0 or 0.25, and +-1 labels where the
    family needs them."""
    family, link = draw(st.sampled_from(_FAMILY_LINKS))
    model = LossModel(family, draw(st.sampled_from([0.0, 0.25])), link)
    k = draw(st.integers(1, 4))
    entries = st.integers(-2, 2)
    labels = st.sampled_from([-1, 1]) if FAMILIES[family].signed_labels else entries
    rows = draw(st.lists(st.tuples(entries, entries, labels), min_size=4 * k, max_size=24))
    thetas = draw(st.lists(st.tuples(entries, entries), min_size=k, max_size=k, unique=True))
    rows = np.array(rows, dtype=np.float64)
    return DataSet(rows[:, :2], rows[:, 2]), ParamSet(thetas), model


def _seeded_ridge_instance():
    """A 60-sample, 2-component ridge instance with Gaussian entries (seed
    12); its delta is below its epsilon."""
    rng = np.random.default_rng(12)
    ds = DataSet(rng.standard_normal((60, 2)), rng.standard_normal(60))
    ref = ParamSet(rng.standard_normal((2, 2)))
    return ds, ref, LossModel("ridge", lam=0.05)


class TestPartition:
    def test_single_component_takes_everything(self):
        rng = np.random.default_rng(0)
        ds = DataSet(rng.standard_normal((9, 2)), rng.standard_normal(9))
        region_of, _ = partition_regions(ds, ParamSet([[1.0, 0.0]]), LossModel("ridge"))
        # every sample in region 0, none unassigned
        np.testing.assert_array_equal(region_of, np.zeros(9))

    def test_strict_argmin_assignment(self):
        # x=[1], y=1: theta=[1] fits exactly; x=[1], y=-1: theta=[-1] does
        ds = DataSet(np.array([[1.0], [1.0]]), np.array([1.0, -1.0]))
        ref = ParamSet([[1.0], [-1.0]])
        region_of, _ = partition_regions(ds, ref, LossModel("ridge", lam=0.0))
        np.testing.assert_array_equal(region_of, [0, 1])

    def test_exact_tie_goes_unassigned(self):
        # x=[0]: the prediction is 0 for both components and the
        # regularizers coincide, so the sample is an exact tie
        ds = DataSet(np.array([[0.0]]), np.array([0.5]))
        ref = ParamSet([[1.0], [-1.0]])
        region_of, _ = partition_regions(ds, ref, LossModel("ridge", lam=0.1))
        np.testing.assert_array_equal(region_of, [-1])

    def test_agrees_with_brute_force_argmin(self):
        rng = np.random.default_rng(8)
        for k, n in ((2, 50), (3, 120), (5, 200)):
            ds = DataSet(rng.standard_normal((n, 3)), rng.standard_normal(n))
            ref = ParamSet(rng.standard_normal((k, 3)))
            model = LossModel("ridge", lam=0.01)
            region_of, _ = partition_regions(ds, ref, model)
            fmat = np.stack(
                [batch_loss(model, ds.X, ds.y, ref.theta(j)) for j in range(k)], axis=1
            )
            for i in range(n):
                best = int(np.argmin(fmat[i]))
                strict = np.sum(fmat[i] == fmat[i, best]) == 1
                if strict:
                    assert region_of[i] == best
                else:
                    assert region_of[i] == -1  # pragma: no cover - measure zero


class TestEstimateConstants:
    def test_noiseless_generative_truth_has_zero_misspecification(self, mlr_instance):
        ds, ref, _ = mlr_instance
        # lam = 0 certifies no m; these constants do not read (m, M)
        c = estimate_constants(ds, ref, LossModel("ridge", lam=0.0), (0.0, 0.0))
        assert c.epsilon <= 1e-24  # zero up to summation-order rounding
        assert c.epsilon1 <= 1e-12
        assert c.delta > 0.0
        assert 0.0 < c.pi_min <= 0.5

    def test_single_component_delta_infinite(self, tiny_ridge):
        ds, model = tiny_ridge
        c = _estimated(ds, ParamSet([[0.8]]), model)
        assert c.delta == math.inf
        assert c.pi_min == 1.0

    @pytest.mark.filterwarnings("ignore:separation delta")
    @given(_oracle_instances())
    @example(_seeded_ridge_instance())
    @settings(deadline=None, max_examples=300)
    def test_matches_double_loop_oracle(self, instance):
        # sample by sample from one-row losses and gradients: the strict row
        # minimum picks the region, and the extremes are taken over it.  A
        # gradient's norm is the root of its sum of squares, as a norm along
        # the rows is: np.linalg.norm of one vector takes a dot product, which
        # can round the last bit the other way
        ds, ref, model = instance
        region_of = np.full(len(ds), -1)
        eps = eps1 = 0.0
        delta = math.inf
        for i in range(len(ds)):
            s = ds.X[i : i + 1], ds.y[i : i + 1]
            losses = [float(batch_loss(model, *s, ref.theta(l))[0]) for l in range(ref.k)]
            j = losses.index(min(losses))
            if losses.count(losses[j]) > 1:
                continue  # an exact tie is in no region
            region_of[i] = j
            eps = max(eps, losses[j])
            grad = batch_gradient(model, *s, ref.theta(j))[0]
            eps1 = max(eps1, float(np.sqrt(np.sum(grad * grad))))
            delta = min([delta] + losses[:j] + losses[j + 1 :])
        sizes = tuple(int(np.count_nonzero(region_of == j)) for j in range(ref.k))
        assume(min(sizes) > 0)
        c = estimate_constants(ds, ref, model, (0.0, 0.0))
        np.testing.assert_array_equal(c.region_of, region_of)
        assert c.region_sizes == sizes and c.k == ref.k
        assert c.epsilon == eps
        assert c.epsilon1 == eps1
        assert c.delta == delta
        assert c.pi_min == min(sizes) / len(ds)

    def test_separation_warning_names_the_caller(self):
        ds, ref, model = _seeded_ridge_instance()
        curvature = certify(model, ds)
        with pytest.warns(UserWarning, match="separation delta") as record:
            estimate_constants(ds, ref, model, curvature)
        assert [w.filename for w in record] == [__file__]

    @pytest.mark.filterwarnings("ignore:separation delta")
    @given(_integer_instances())
    @settings(deadline=None, max_examples=200)
    def test_regions_are_the_strict_row_minima(self, instance):
        # integer data and parameters at lam = 0 give integer losses, so
        # exact ties are common; the own-component mask of the regions must
        # be the row minimum on the tie-free rows, and a tied row in no region
        rows, thetas = instance
        ds, ref = DataSet(rows[:, :2], rows[:, 2]), ParamSet(thetas)
        model = LossModel("ridge", lam=0.0)
        assume(np.all(np.isin(np.arange(ref.k), partition_regions(ds, ref, model)[0])))
        constants = estimate_constants(ds, ref, model, (0.0, 0.0))
        own = constants.region_of[:, None] == np.arange(ref.k)
        fmat = batch_loss(model, ds.X, ds.y, ref.thetas)
        is_min = fmat == np.min(fmat, axis=1, keepdims=True)
        strict = np.count_nonzero(is_min, axis=1) == 1
        np.testing.assert_array_equal(own[strict], is_min[strict])
        assert not np.any(own[~strict])

    def test_empty_region_rejected(self):
        ds = DataSet(np.array([[1.0]]), np.array([1.0]))
        ref = ParamSet([[1.0], [0.9]])
        with pytest.raises(ValueError, match="region"):
            estimate_constants(ds, ref, LossModel("ridge", lam=0.0), (0.0, 0.0))


class TestEta:
    def test_hand_value(self):
        c = _constants(delta=math.log(9.0))
        got = compute_eta(c, beta=1.0, radius=0.0)
        assert got == pytest.approx(0.1, rel=1e-12)

    def test_beta_zero_gives_uniform_deficit(self):
        for k in (1, 2, 5):
            c = _constants(delta=2.0, sizes=(1,) * k)
            got = compute_eta(c, beta=0.0, radius=0.3)
            assert got == pytest.approx(1.0 - 1.0 / k, rel=1e-15)

    def test_single_component_perfect(self):
        c = _constants(sizes=(1,))
        assert compute_eta(c, beta=3.0, radius=0.0) == 0.0

    def test_monotone_in_misspecification_and_radius(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            eps, eps1, cini = rng.random(3) * 0.5
            beta = 0.5 + 2.0 * rng.random()
            base = _constants(epsilon=eps, epsilon1=eps1, delta=5.0)
            v = compute_eta(base, beta, cini)
            up_eps = _constants(epsilon=eps + 0.1, epsilon1=eps1, delta=5.0)
            up_eps1 = _constants(epsilon=eps, epsilon1=eps1 + 0.1, delta=5.0)
            assert compute_eta(up_eps, beta, cini) >= v - 1e-12
            assert compute_eta(up_eps1, beta, cini) >= v - 1e-12
            assert compute_eta(base, beta, cini + 0.1) >= v - 1e-12
            wider = _constants(epsilon=eps, epsilon1=eps1, delta=6.0)
            assert compute_eta(wider, beta, cini) <= v + 1e-12


class TestEtaPrime:
    def test_beta_zero_is_one(self):
        got = compute_eta_prime(_constants(delta=2.0), 0.0, 0.3)
        assert got == 1.0

    def test_hand_value(self):
        got = compute_eta_prime(_constants(delta=1.0), 2.0, 0.0)
        assert got == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_insufficient_separation_exceeds_one(self):
        # delta smaller than the radius-inflation terms flips the exponent
        got = compute_eta_prime(_constants(delta=0.1, M=3.0), 2.0, 0.5)
        assert got > 1.0

    def test_log_linear_in_beta(self):
        c = _constants(epsilon=0.02, epsilon1=0.04, delta=1.5, M=2.0)
        c_ini = 0.1
        slope_want = -(
            c.delta
            - (c.epsilon1 + 2.0 * c.M) * c_ini
            - c.epsilon
            - c.epsilon1 * c_ini
            - 0.5 * c.M * c_ini ** 2
        )
        betas = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
        logs = np.array(
            [math.log(compute_eta_prime(c, b, c_ini)) for b in betas]
        )
        slopes = np.diff(logs) / np.diff(betas)
        np.testing.assert_allclose(slopes, slope_want, atol=1e-10)


class TestErrorFloor:
    def test_zero_when_no_misspecification_or_leak(self):
        got = compute_error_floor(_constants(), 0.5, 0.2, 0.0)
        assert got == 0.0

    def test_hand_value(self):
        c = _constants(epsilon1=0.04, M=3.0)
        got = compute_error_floor(c, 0.1, 0.1, 0.05)
        # 0.1*0.04 + sqrt(0.1*0.04*0.1) + 0.1*0.05*(2 + 0.04 + 3*0.1)
        want = 0.004 + 0.02 + 0.005 * 2.34
        assert got == pytest.approx(want, rel=1e-12)

    def test_linear_in_gamma_without_gradient_misspecification(self):
        c = _constants(epsilon1=0.0)
        one = compute_error_floor(c, 0.2, 0.1, 0.05)
        two = compute_error_floor(c, 0.4, 0.1, 0.05)
        assert two == pytest.approx(2.0 * one, rel=1e-12)


class TestContraction:
    def test_zero_step_no_contraction(self):
        assert compute_contraction(0.0, 0.5, 1.0, 0.0) is None

    def test_hand_value(self):
        got = compute_contraction(0.5, 0.5, 1.0, 0.0)
        assert got == pytest.approx(math.sqrt(0.75), rel=1e-12)

    def test_approaches_one_as_eta_saturates(self):
        got = compute_contraction(0.5, 0.5, 1.0, 1.0 - 1e-9)
        assert got == pytest.approx(1.0, abs=1e-8)

    def test_factor_rounding_to_one_is_vacuous(self):
        # 1 - eta below rounding: sqrt(1 - inner) is exactly 1.0
        assert compute_contraction(0.5, 0.5, 1.0, 1.0 - 2.0 ** -52) is None

    def test_saturated_eta_rejected(self):
        assert compute_contraction(0.5, 0.5, 1.0, 1.0) is None

    def test_overlong_step_rejected(self):
        assert compute_contraction(3.0, 1.0, 1.0, 0.0) is None


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

    def test_contraction_of_one_rejected(self):
        with pytest.raises(ValueError, match=r"contraction must lie in \(0, 1\)"):
            predicted_distance_bound(np.array([1.0]), 1.0, 0.1, 3)


class TestBundle:
    def test_quantities_consistent_with_parts(self, mlr_instance):
        ds, ref, _ = mlr_instance
        c = _estimated(ds, ref, LossModel("ridge", lam=1e-3))
        d0 = np.array([0.01, 0.005])
        # the start radius is the largest start distance, 0.01
        q = theorem_quantities(c, beta=5.0, gamma=0.05, d0=d0, T=30)
        assert q.eta == compute_eta(c, 5.0, 0.01)
        assert q.eta_prime == compute_eta_prime(c, 5.0, 0.01)
        assert q.zeta == compute_error_floor(c, 0.05, 0.01, q.eta_prime)
        assert q.contraction == compute_contraction(0.05, c.pi_min, c.m, q.eta)
        assert q.contraction is not None and 0.0 < q.contraction < 1.0
        assert q.eta < 1.0 and q.eta_prime <= 1.0 and q.bound is not None

    def test_bound_is_the_worst_component_and_within_reads_it(self, mlr_instance):
        ds, ref, _ = mlr_instance
        c = _estimated(ds, ref, LossModel("ridge", lam=1e-3))
        d0 = np.array([0.01, 0.005])
        q = theorem_quantities(c, 5.0, 0.05, d0, 30)
        assert q.bound == float(np.max(predicted_distance_bound(d0, q.contraction, q.zeta, 30)))
        assert q.within(q.bound) is True and q.within(2.0 * q.bound) is False
        # from a start at distance 0.2 the contraction stands but eta' > 1:
        # the theorem does not apply
        leaky = theorem_quantities(c, 5.0, 0.05, np.array([0.2, 0.005]), 30)
        assert leaky.contraction is not None and leaky.eta_prime > 1.0
        assert leaky.bound is None and leaky.within(0.0) is None

    @settings(deadline=None, max_examples=200)
    @given(
        epsilon=st.floats(0.0, 2.0),
        epsilon1=st.floats(0.0, 2.0),
        delta=st.floats(0.0, 5.0) | st.just(math.inf),
        pi_min=st.floats(0.01, 1.0),
        M=st.floats(0.1, 10.0),
        m_share=st.floats(0.0, 1.0),
        beta=st.floats(0.0, 50.0),
        gamma=st.floats(0.0, 3.0),
        d0=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=3),
        T=st.integers(0, 200),
    )
    def test_bound_is_evaluated_exactly_where_the_theorem_applies(
        self, epsilon, epsilon1, delta, pi_min, M, m_share, beta, gamma, d0, T
    ):
        constants = _constants(
            epsilon, epsilon1, delta, pi_min, m=m_share * M, M=M, sizes=(1,) * len(d0)
        )
        q = theorem_quantities(constants, beta, gamma, np.array(d0), T)
        applies = (
            q.contraction is not None
            and q.eta < 1.0
            and q.eta_prime <= 1.0
            and math.isfinite(q.zeta)
        )
        if applies:
            assert math.isfinite(q.bound) and q.within(q.bound) is True
        else:
            assert q.bound is None and q.within(0.0) is None
