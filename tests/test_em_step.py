"""The gradient EM step as one (k, n) @ (n, d) product, against its oracles.

``gradient_em_step`` sums the weighted per-sample gradients of all k
components in one product plus a regularizer term.  At k = 1 it must stay
plain gradient descent bit for bit; at k >= 2 it must agree with the
per-component sum of ``batch_gradient`` rows to within the rounding that a
change of summation order can cause; and passing the weights must change
nothing.  Instances are drawn from seeded NumPy generators, so folds of
thousands of rows cost no more to draw than small ones.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softmix.data import DataSet, ParamSet
from softmix.em import EMConfig, gradient_em_step
from softmix.losses import FAMILIES, GLM, LINKS, LossModel, batch_gradient
from softmix.softmin import weight_matrix

MODELS = [(family, None) for family in FAMILIES if family != GLM] + [
    (GLM, link) for link in LINKS
]
UNIT_ROUNDOFF = 2.0 ** -53
SEEDS = st.integers(0, 2 ** 32 - 1)
BETAS = st.sampled_from([0.0, 1.0, 10.0, math.inf])


def _instance(family, link, seed, n, d, k):
    """A seeded fold of n rows, k components and a model with lam in [0, 1)."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    if FAMILIES[family].signed_labels:
        y = rng.choice([-1.0, 1.0], size=n)
    else:
        y = rng.standard_normal(n)
    model = LossModel(family, lam=float(rng.random()), link=LINKS[link] if link else None)
    return model, DataSet(X, y), ParamSet(rng.standard_normal((k, d)))


def _config(gamma, beta):
    return EMConfig(
        gamma=gamma, iterations=1, beta=beta, resample=False
    )


@pytest.mark.parametrize("family, link", MODELS)
@given(seed=SEEDS, n=st.integers(1, 2000), d=st.integers(1, 8), beta=BETAS)
@settings(deadline=None, max_examples=30)
def test_k1_step_is_plain_gradient_descent_bitwise(family, link, seed, n, d, beta):
    model, ds, params = _instance(family, link, seed, n, d, 1)
    gamma = 0.1
    want = params.theta(0) - (gamma / n) * np.sum(
        batch_gradient(model, ds.X, ds.y, params.theta(0)), axis=0
    )
    got = gradient_em_step(params, ds, model, _config(gamma, beta))
    np.testing.assert_array_equal(got.theta(0), want)


@given(
    model_index=st.integers(0, len(MODELS) - 1),
    seed=SEEDS,
    n=st.integers(2, 3000),
    d=st.integers(1, 8),
    k=st.integers(2, 5),
    beta=BETAS,
    gamma=st.floats(min_value=1e-3, max_value=0.5),
)
@settings(deadline=None, max_examples=200)
def test_step_matches_per_component_oracle(model_index, seed, n, d, k, beta, gamma):
    """Within the worst-case rounding of a change of summation order.

    The oracle sums rows w_ij (phi'(z_ij) x_i + r theta_j) of
    ``batch_gradient`` one component at a time; the step forms
    (phi'(Z) * W^T) @ X plus r (sum_i w_ij) theta_j, with r = 2 c lam.  Both
    use the same weights, so at beta = inf the same hard assignment.  A sum
    of m floating-point terms, taken in any order, is within (m - 1) u of
    the exact sum relative to the sum of the terms' magnitudes (u = 2^-53;
    Higham, Accuracy and Stability of Numerical Algorithms, section 4.2),
    and each term carries a few more roundings of its own.  z_ij = <x_i,
    theta_j> is itself a d-term sum, formed by a product of another shape,
    and phi' moves it by at most L |dz|, with L the family's bound on
    |phi''|.  So entry (j, l) of the two sums differs by at most
    2 (n + d + 8) u S_jl with
    S_jl = sum_i w_ij (|phi'_ij x_il| + |r theta_jl| + L sum_m |x_im theta_jm| |x_il|),
    and after the update theta - (gamma / n) sum the entries differ by at
    most (gamma / n) times that plus the rounding 4 u |theta_jl| of the
    subtraction.
    """
    family, link = MODELS[model_index]
    model, ds, params = _instance(family, link, seed, n, d, k)
    config = _config(gamma, beta)
    weights, _, _ = weight_matrix(params, ds, model, config.beta)
    spec = FAMILIES[family]
    reg = 2.0 * spec.reg * model.lam
    magnitude = np.zeros((k, d))
    want = np.empty((k, d))
    curvature = max(map(abs, spec.curvature(model.link, float(np.max(np.abs(ds.y))))))
    for j, theta in enumerate(params.thetas):
        grads = batch_gradient(model, ds.X, ds.y, theta)
        want[j] = theta - (gamma / n) * np.sum(weights[:, j, None] * grads, axis=0)
        terms = np.abs(grads - reg * theta) + np.abs(reg * theta)
        terms += curvature * np.abs(ds.X) * (np.abs(ds.X) @ np.abs(theta))[:, None]
        magnitude[j] = weights[:, j] @ terms
    got = gradient_em_step(params, ds, model, config).thetas
    tol = (gamma / n) * 2.0 * (n + d + 8) * UNIT_ROUNDOFF * magnitude
    tol += 4.0 * UNIT_ROUNDOFF * np.abs(params.thetas)
    assert np.all(np.abs(got - want) <= tol), np.max(np.abs(got - want) / tol)


@pytest.mark.parametrize("family, link", MODELS)
@given(seed=SEEDS, n=st.integers(1, 500), d=st.integers(1, 6), k=st.integers(1, 4), beta=BETAS)
@settings(deadline=None, max_examples=20)
def test_given_weights_give_the_same_step_bitwise(family, link, seed, n, d, k, beta):
    model, ds, params = _instance(family, link, seed, n, d, k)
    config = _config(0.2, beta)
    weights, _, _ = weight_matrix(params, ds, model, config.beta)
    given_weights = gradient_em_step(params, ds, model, config, weights=weights)
    np.testing.assert_array_equal(
        given_weights.thetas, gradient_em_step(params, ds, model, config).thetas
    )
