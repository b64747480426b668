"""Shared fixtures: small seeded instances used across the test modules."""
import numpy as np
import pytest

from softmix import GenSpec, LossModel, ParamSet, generate


@pytest.fixture(scope="session")
def mlr_instance():
    """Noiseless 2-component mixed linear regression, d=2, well separated."""
    truth = ParamSet([[1.0, 0.0], [-1.0, 0.0]])
    spec = GenSpec(
        kind="generative_mlr",
        k=2,
        d=2,
        n=400,
        noise_sigma=0.0,
        covariate="uniform_ball",
        cov_scale=1.5,
        margin=1.69,
        seed=11,
        truth=truth,
    )
    dataset, ref = generate(spec)
    return dataset, ref, LossModel("ridge", lam=1e-3)


@pytest.fixture(scope="session")
def tiny_ridge():
    """20-sample 1-d ridge dataset with a single generating component."""
    rng = np.random.default_rng(7)
    X = rng.standard_normal((20, 1))
    y = 0.8 * X[:, 0] + 0.05 * rng.standard_normal(20)
    from softmix.data import DataSet

    return DataSet(X, y), LossModel("ridge", lam=1e-3)
