"""Classical EM's Newton M-step and the multistart reference built from it.

``m_step`` takes one Newton step per component on its weighted loss
L_j(theta) = sum_i W_ij F(x_i, y_i; theta), with the curvature ``d2phi`` of
each family.  Here the curvature is compared with finite differences of
``dphi``, the step with the per-component gradient oracle ``batch_gradient``,
and an E/M pair with the free energy
Phi_beta(theta) = (1/n) sum_i -(1/beta) log sum_j exp(-beta F_ij),
which classical EM descends (Neal and Hinton 1998).  A multistart reference
whose later runs stop at a fixed point already found is compared with the
one whose every run goes on to the tolerance, and its Phi_beta with the
least Phi_beta on a grid of every pair of components at d = 1.
"""
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import softmix.experiment as experiment
from softmix.config import validate_config
from softmix.data import DataSet, ParamSet
from softmix.datagen import generate
from softmix.em import align_to_reference, m_step, outer_products
from softmix.losses import (
    FAMILIES,
    GLM,
    LINKS,
    LOGISTIC,
    RIDGE,
    SQUARED_HINGE,
    LossModel,
    batch_gradient,
    batch_loss,
)
from softmix.softmin import weight_matrix

from oracles import GridSpec

MODELS = [(family, None) for family in FAMILIES if family != GLM] + [
    (GLM, link) for link in LINKS
]
ENTRIES = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@st.composite
def instances(draw, models=MODELS):
    """A model with lam > 0, so each weighted loss is strongly convex, a
    dataset and a ParamSet."""
    family, link = draw(st.sampled_from(models))
    n, d, k = draw(st.integers(1, 12)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    X = draw(arrays(np.float64, (n, d), elements=ENTRIES))
    labels = st.sampled_from([-1.0, 1.0]) if FAMILIES[family].signed_labels else ENTRIES
    y = draw(arrays(np.float64, n, elements=labels))
    thetas = draw(arrays(np.float64, (k, d), elements=ENTRIES))
    lam = draw(st.floats(min_value=1e-3, max_value=1.0))
    model = LossModel(family, lam=lam, link=LINKS[link] if link else None)
    return model, DataSet(X, y), ParamSet(thetas)


def _soft_min_mean(F, beta):
    """Phi_beta of the (n, ..., k) losses F_ij: the mean over the rows i of
    -(1/beta) log sum_j exp(-beta F_ij), as a row minimum plus a log-sum-exp."""
    low = np.min(F, axis=-1)
    spread = np.sum(np.exp(-beta * (F - low[..., None])), axis=-1)
    return np.mean(low - np.log(spread) / beta, axis=0)


def _free_energy(params, dataset, model, beta):
    """Phi_beta at ``params``."""
    return float(_soft_min_mean(batch_loss(model, dataset.X, dataset.y, params.thetas), beta))


def _weighted_gradient(params, dataset, model, weights):
    """sum_i W_ij grad F(x_i, y_i; theta_j) per component, from the
    per-sample oracle, with the sum of the terms' norms as its scale."""
    sums, scales = [], []
    for j in range(params.k):
        terms = weights[:, j, None] * batch_gradient(model, dataset.X, dataset.y, params.theta(j))
        sums.append(np.sum(terms, axis=0))
        scales.append(np.sum(np.linalg.norm(terms, axis=1)))
    return np.array(sums), np.array(scales)


@given(
    st.sampled_from(MODELS),
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(min_value=-3.0, max_value=3.0),
)
@settings(deadline=None, max_examples=300)
def test_d2phi_matches_finite_differences_of_dphi(family_link, z, y):
    family, link = family_link
    model = LossModel(family, lam=1e-3, link=LINKS[link] if link else None)
    spec = FAMILIES[family]
    if spec.signed_labels:
        y = 1.0 if y >= 0.0 else -1.0
    if family == SQUARED_HINGE:
        assume(abs(1.0 - y * z) > 1e-3)  # phi'' jumps at the kink
    if family == GLM:
        # the Gauss-Newton term 2 g'^2 is phi'' where the residual y - g(z) is 0
        y = float(model.link.f(np.array(z)))
    h = 1e-5
    zs = np.array([z - h, z + h])
    slope = np.diff(spec.dphi(zs, y, model.link))[0] / (2.0 * h)
    curvature = np.broadcast_to(spec.d2phi(np.array([z]), y, model.link), (1,))[0]
    assert abs(curvature - slope) <= 1e-6 * (1.0 + abs(slope))
    if family == GLM:
        assert curvature == pytest.approx(2.0 * float(model.link.df(np.array(z))) ** 2)


@given(instances(), st.floats(min_value=0.0, max_value=10.0))
@settings(deadline=None, max_examples=100)
def test_weight_matrix_predictions_are_theta_x_transpose(instance, beta):
    model, dataset, params = instance
    _, _, Z = weight_matrix(params, dataset, model, beta)
    np.testing.assert_array_equal(Z, params.thetas @ dataset.X.T)


@given(
    instances(models=[(RIDGE, None), (GLM, "identity")]),
    st.floats(min_value=0.0, max_value=10.0),
)
@settings(deadline=None, max_examples=300)
def test_quadratic_m_step_is_stationary(instance, beta):
    model, dataset, params = instance
    weights, losses, Z = weight_matrix(params, dataset, model, beta)
    fitted = m_step(params, dataset, model, weights, losses, Z, outer_products(dataset.X))
    gradient, scale = _weighted_gradient(fitted, dataset, model, weights)
    norms = np.linalg.norm(gradient, axis=1)
    assert np.all(norms <= 1e-8 * scale + 1e-12), (norms, scale)


@given(instances(), st.floats(min_value=0.05, max_value=10.0))
@settings(deadline=None, max_examples=300)
def test_e_m_pair_does_not_raise_the_free_energy(instance, beta):
    model, dataset, params = instance
    weights, losses, Z = weight_matrix(params, dataset, model, beta)
    fitted = m_step(params, dataset, model, weights, losses, Z, outer_products(dataset.X))
    before = _free_energy(params, dataset, model, beta)
    after = _free_energy(fitted, dataset, model, beta)
    assert after <= before + 1e-9 * (1.0 + abs(before))


@given(instances(), st.data())
@settings(deadline=None, max_examples=200)
def test_zero_mass_component_keeps_its_theta(instance, data):
    model, dataset, params = instance
    weights, losses, Z = weight_matrix(params, dataset, model, 1.0)
    j = data.draw(st.integers(0, params.k - 1))
    weights[:, j] = 0.0
    fitted = m_step(params, dataset, model, weights, losses, Z, outer_products(dataset.X))
    assert fitted.theta(j).tobytes() == params.theta(j).tobytes()


# the constants at these references are not under test, and some are vacuous
vacuous_constants = pytest.mark.filterwarnings("ignore:separation delta:UserWarning")

SMALL_MULTISTART = textwrap.dedent(
    """
    data:
      kind: {kind}
      k: 2
      d: 2
      n: 400
    loss:
      family: {family}
      lam: 0.01
    em:
      iterations: 5
      beta: 2.0
    reference: multistart
    seed: 3
    """
)


@vacuous_constants
@pytest.mark.parametrize("gamma", [0.05, 0.3, 1.0])
def test_given_gamma_never_takes_the_default_step(monkeypatch, gamma):
    calls = []

    def counted(*args):
        calls.append(args)
        raise AssertionError("default_step_size called with em.gamma given")

    monkeypatch.setattr(experiment, "default_step_size", counted)
    text = SMALL_MULTISTART.format(kind="generative_mlr", family="ridge")
    text = text.replace("em:\n", f"em:\n  gamma: {gamma}\n")
    context = experiment.repetition_context(validate_config(text), 0)
    assert context.em.gamma == gamma
    assert calls == []


@vacuous_constants
@pytest.mark.parametrize("family", ["logistic", "squared_hinge"])
def test_reference_of_each_family_is_a_fixed_point(family):
    cfg = validate_config(SMALL_MULTISTART.format(kind="generative_logistic", family=family))
    context = experiment.repetition_context(cfg, 0)
    residual = experiment.em.fixed_point_residual(
        context.reference, context.dataset, cfg.loss, cfg.em.beta
    )
    assert residual <= experiment.REFERENCE_TOLERANCE


@vacuous_constants
def test_step_cap_raises_naming_family_and_residual(monkeypatch):
    monkeypatch.setattr(experiment, "REFERENCE_STEPS", 2)
    cfg = validate_config(SMALL_MULTISTART.format(kind="generative_logistic", family="logistic"))
    with pytest.raises(ValueError, match=r"logistic E/M restart 0 still moved .* residual \d"):
        experiment.repetition_context(cfg, 0)


# the benchmark's workload, read only
AGNOSTIC_MULTISTART = (
    Path(__file__).resolve().parents[1] / "perfbench" / "workloads" / "agnostic_multistart.yaml"
)


def _aligned(params, point):
    return float(np.max(align_to_reference(params, point)[1]))


def _searches(monkeypatch, cfg, seed):
    """The multistart search at ``seed``, and the same search with no
    merging, in which every run goes on to the tolerance."""
    dataset, _ = generate(replace(cfg.data, seed=seed))
    merged = experiment._multistart_reference(dataset, cfg, seed)
    with monkeypatch.context() as patch:
        patch.setattr(experiment, "MERGE_RADIUS", 0.0)
        full = experiment._multistart_reference(dataset, cfg, seed)
    return merged, full


def _assert_parity(merged, full):
    assert full.reached == tuple(range(experiment.RESTARTS))
    assert len(merged.points) < experiment.RESTARTS  # some run merged
    assert _aligned(merged.reference, full.reference) <= 1e-6
    # each run ends, taken on to the tolerance, at the point it merged into
    for run, point in enumerate(merged.reached):
        assert _aligned(full.points[run], merged.points[point]) <= 1e-6, run


@pytest.mark.parametrize("seed", [*range(10), 26])
def test_merged_reference_matches_every_run_to_tolerance(monkeypatch, seed):
    doc = yaml.safe_load(AGNOSTIC_MULTISTART.read_text())
    doc["data"]["n"] = 300
    merged, full = _searches(monkeypatch, validate_config(yaml.safe_dump(doc)), seed)
    _assert_parity(merged, full)


def test_merged_logistic_reference_matches_every_run_to_tolerance(monkeypatch):
    # a logistic E/M run contracts slowly: runs stopped at a 1e-7 move lie up
    # to ~1e-5 apart at one fixed point, so here every run goes on to 1e-10
    monkeypatch.setattr(experiment, "REFERENCE_TOLERANCE", 1e-10)
    cfg = validate_config(SMALL_MULTISTART.format(kind="generative_logistic", family="logistic"))
    merged, full = _searches(monkeypatch, cfg, cfg.seed)
    _assert_parity(merged, full)


# d = 1, k = 2 instances, small enough to score every pair of grid points
PHI_GRID = GridSpec(-1.5, 1.5, 61)
MLR_DATA = {"kind": "generative_mlr", "noise_sigma": 0.1, "truth": [[0.8], [-0.6]]}
LOGISTIC_DATA = {"kind": "generative_logistic", "truth": [[1.2], [-0.9]]}
GRID_INSTANCES = {
    "ridge": (MLR_DATA, {"family": RIDGE, "lam": 0.001}),
    "glm_identity": (MLR_DATA, {"family": GLM, "link": "identity", "lam": 0.001}),
    "logistic": (LOGISTIC_DATA, {"family": LOGISTIC, "lam": 0.05}),
    "squared_hinge": (LOGISTIC_DATA, {"family": SQUARED_HINGE, "lam": 0.05}),
    # certify rejects the tanh loss at lam = 0.001 on Gaussian covariates;
    # at lam = 2 the reference's two components meet at one theta
    "glm_tanh": (
        {**MLR_DATA, "covariate": "uniform_ball"}, {"family": GLM, "link": "tanh", "lam": 2.0}
    ),
}


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("beta", [2.0, 5.0])
@pytest.mark.parametrize("name", list(GRID_INSTANCES))
def test_reference_free_energy_is_at_most_the_grid_minimum(name, beta, seed):
    data, loss = GRID_INSTANCES[name]
    doc = {
        "data": {**data, "k": 2, "d": 1, "n": 400},
        "loss": loss,
        "em": {"iterations": 1, "beta": beta},
        "reference": "multistart",
        "seed": seed,
    }
    cfg = validate_config(yaml.safe_dump(doc))
    dataset, _ = generate(replace(cfg.data, seed=seed))
    reference = experiment._multistart_reference(dataset, cfg, seed).reference
    # F of every grid point, paired as (theta_1, theta_2) on the last axis
    F = batch_loss(cfg.loss, dataset.X, dataset.y, PHI_GRID.axis()[:, None])
    pairs = np.stack(np.broadcast_arrays(F[:, :, None], F[:, None, :]), axis=-1)
    grid_min = float(np.min(_soft_min_mean(pairs, beta)))
    # Phi_beta's minimizer lies at or below every grid point, so no grid slack
    assert _free_energy(reference, dataset, cfg.loss, beta) <= grid_min + 1e-9
