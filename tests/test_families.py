"""Every loss family and GLM link through the (n, k) kernels.

``loss_matrix`` and ``gradient_em_step`` evaluate all components from one
product X Theta^T, and the step sums over samples with one product
(phi'(Theta X^T) * W^T) @ X; here they are compared with per-component
oracles built from ``batch_loss``, ``batch_gradient`` and
``soft_min_weights``.  The two differ only in the summation order of
<x, theta> and, for the step, of the sum over samples, so agreement is
checked to a tolerance far below the scale of the inputs (entries of
magnitude <= 3).
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from softmix.data import DataSet, ParamSet
from softmix.em import EMConfig, gradient_em_step
from softmix.losses import FAMILIES, GLM, LINKS, LossModel, batch_gradient, batch_loss
from softmix.softmin import loss_matrix, soft_min_weights

MODELS = [(family, None) for family in FAMILIES if family != GLM] + [
    (GLM, link) for link in LINKS
]
ENTRIES = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@st.composite
def instances(draw):
    family, link = draw(st.sampled_from(MODELS))
    n, d, k = draw(st.integers(1, 12)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    X = draw(arrays(np.float64, (n, d), elements=ENTRIES))
    labels = st.sampled_from([-1.0, 1.0]) if FAMILIES[family].signed_labels else ENTRIES
    y = draw(arrays(np.float64, n, elements=labels))
    thetas = draw(arrays(np.float64, (k, d), elements=ENTRIES))
    lam = draw(st.floats(min_value=0.0, max_value=1.0))
    model = LossModel(family, lam=lam, link=LINKS[link] if link else None)
    return model, DataSet(X, y), ParamSet(thetas)


def _columns(model, ds, params):
    return np.stack(
        [batch_loss(model, ds.X, ds.y, params.theta(j)) for j in range(params.k)], axis=1
    )


@given(instances())
@settings(deadline=None, max_examples=300)
def test_loss_matrix_columns_match_batch_loss(instance):
    model, ds, params = instance
    np.testing.assert_allclose(
        loss_matrix(params, ds, model), _columns(model, ds, params), rtol=1e-12, atol=1e-10
    )


@given(
    instances(),
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=0.5, exclude_min=True),
)
@settings(deadline=None, max_examples=300)
def test_em_step_matches_per_component_oracle(instance, beta, gamma):
    model, ds, params = instance
    config = EMConfig(
        gamma=gamma, iterations=1, beta=beta, resample=False
    )
    weights = soft_min_weights(_columns(model, ds, params), config.beta)
    want = np.stack(
        [
            params.theta(j)
            - (gamma / ds.n)
            * np.sum(
                weights[:, j, None] * batch_gradient(model, ds.X, ds.y, params.theta(j)),
                axis=0,
            )
            for j in range(params.k)
        ]
    )
    got = gradient_em_step(params, ds, model, config).thetas
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)
