"""End-to-end acceptance suite.

Each test exercises one headline property of the library at desk scale and
prints a single PASS/FAIL line.  Instances are pinned (seeds, sizes, loss
parameters) so results are reproducible; see the module-level constants.
"""
import itertools
import math
import time
from typing import Optional

import numpy as np
import pytest

from softmix.data import DataSet, ParamSet
from softmix.datagen import GenSpec, generate
from softmix.em import EMConfig, run_gradient_em
from softmix.losses import (
    GLM,
    LOGISTIC,
    RIDGE,
    SQUARED_HINGE,
    TANH_LINK,
    LossModel,
    batch_gradient,
    batch_loss,
    certify,
    default_step_size,
)
from softmix.softmin import empirical_loss
from softmix.theory import estimate_constants, theorem_quantities
from softmix.verify import check_lemma_bounds, finite_diff_gradient

from oracles import GridSpec, brute_force_minimize

# pinned 2-component noiseless instance: well-conditioned covariates with a
# rejection-sampled predictor margin so the empirical separation is >= 1
CONVERGENCE_SPEC = dict(
    kind="generative_mlr",
    k=2,
    d=4,
    n=4000,
    noise_sigma=0.0,
    cov_scale=10.0,
    margin=2.0,
    truth=ParamSet([[0.3, 0.0, 0.0, 0.0], [-0.3, 0.0, 0.0, 0.0]]),
)
CONVERGENCE_LAM = 1e-4
CONVERGENCE_BETA = 10.0
CONVERGENCE_T = 20
CONVERGENCE_C_INI = 0.2
CONVERGENCE_SEEDS = range(100, 120)


def _report(criterion: str, ok: bool):
    print(f"{criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def _perturbed_init(truth: ParamSet, c_ini: float, rng: np.random.Generator) -> ParamSet:
    offsets = rng.standard_normal(truth.thetas.shape)
    offsets /= np.linalg.norm(offsets, axis=1, keepdims=True)
    radii = c_ini * np.linalg.norm(truth.thetas, axis=1)
    return ParamSet(truth.thetas + radii[:, None] * offsets)


def _convergence_run(seed: int, covariate: str = "gaussian", t_dof: Optional[int] = None):
    spec = GenSpec(**{**CONVERGENCE_SPEC, "covariate": covariate, "t_dof": t_dof, "seed": seed})
    dataset, truth = generate(spec)
    model = LossModel(RIDGE, lam=CONVERGENCE_LAM)
    gamma = default_step_size(model, dataset)
    init = _perturbed_init(truth, CONVERGENCE_C_INI, np.random.default_rng(seed))
    em = EMConfig(
        gamma=gamma,
        iterations=CONVERGENCE_T,
        beta=CONVERGENCE_BETA,
        resample=True,
        seed=seed,
    )
    _, trace = run_gradient_em(init, dataset, model, em, reference=truth)
    return dataset, truth, model, trace


def test_criterion_01_exponential_convergence():
    start = time.perf_counter()
    successes = 0
    for seed in CONVERGENCE_SEEDS:
        dataset, truth, model, trace = _convergence_run(seed)
        constants = estimate_constants(dataset, truth, model, certify(model, dataset))
        assert constants.delta >= 1.0
        rate, final = trace.fitted_rate, trace.final_distance()
        if rate is not None and rate < 0.95 and final <= 1e-3:
            successes += 1
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1 (exponential convergence)",
        successes >= 19 and elapsed <= 10.0,
    )


def test_criterion_02_error_floor_scaling():
    # bounded covariates keep the certified smoothness small enough for the
    # predicted bound to be nonvacuous at this initialization radius
    start = time.perf_counter()
    amplitudes = (0.0, 0.02, 0.05, 0.1)
    floors = {amp: [] for amp in amplitudes}
    within_counts = []
    for amp in amplitudes:
        within = 0
        for rep in range(20):
            seed = 200 + rep
            spec = GenSpec(
                kind="agnostic_piecewise",
                k=2,
                d=4,
                n=6000,
                covariate="uniform_ball",
                cov_scale=1.5,
                margin=1.44,
                perturb_amplitude=amp,
                truth=ParamSet([[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]]),
                seed=seed,
            )
            dataset, truth = generate(spec)
            model = LossModel(RIDGE, lam=1e-3)
            curvature = certify(model, dataset)
            gamma = default_step_size(model, dataset)
            init = _perturbed_init(truth, 0.05, np.random.default_rng(seed))
            em = EMConfig(
                gamma=gamma,
                iterations=30,
                beta=10.0,
                resample=True,
                seed=seed,
            )
            _, trace = run_gradient_em(init, dataset, model, em, reference=truth)
            floors[amp].append(trace.final_distance())

            constants = estimate_constants(dataset, truth, model, curvature)
            d0 = trace.distances[0]
            q = theorem_quantities(constants, 10.0, gamma, d0, 30)
            # a repetition without an evaluated bound does not count as within
            if q.within(trace.final_distance()):
                within += 1
        within_counts.append(within)
    elapsed = time.perf_counter() - start
    # plateau monotone in amplitude, rep by rep (same seed at every level)
    monotone_counts = [
        sum(
            floors[hi][r] >= floors[lo][r] - 1e-12
            for r in range(20)
        )
        for lo, hi in zip(amplitudes, amplitudes[1:])
    ]
    _report(
        "criterion 2 (error-floor scaling)",
        all(c >= 18 for c in monotone_counts)
        and all(w >= 18 for w in within_counts)
        and elapsed <= 60.0,
    )


def test_criterion_03_lemma_validation():
    start = time.perf_counter()
    spec = GenSpec(
        kind="generative_mlr",
        k=2,
        d=2,
        n=300,
        covariate="uniform_ball",
        cov_scale=1.5,
        margin=1.69,
        truth=ParamSet([[1.0, 0.0], [-1.0, 0.0]]),
        seed=11,
    )
    dataset, truth = generate(spec)
    model = LossModel(RIDGE, lam=1e-3)
    constants = estimate_constants(dataset, truth, model, certify(model, dataset))
    rep1, rep2 = check_lemma_bounds(
        dataset, truth, model, constants, beta=5.0, radii=[0.01, 0.01], trials=100, seed=0
    )
    nonvacuous = not rep1.bound_vacuous and not rep2.bound_vacuous
    clean = rep1.violations == 0 and rep2.violations == 0

    # beta = 0: the own-region bound collapses to p >= 1/k with equality
    edge1, _ = check_lemma_bounds(
        dataset, truth, model, constants, beta=0.0, radii=[0.01, 0.01], trials=5, seed=1
    )
    exact = edge1.violations == 0 and abs(edge1.worst_margin) <= 1e-12
    elapsed = time.perf_counter() - start
    _report(
        "criterion 3 (lemma validation)",
        nonvacuous and clean and exact and elapsed <= 30.0,
    )


def test_criterion_04_gradient_oracle():
    rng = np.random.default_rng(404)
    ok = True
    for family in (RIDGE, LOGISTIC, SQUARED_HINGE, GLM):
        link = TANH_LINK if family == GLM else None
        model = LossModel(family, lam=0.05, link=link)
        classification = family in (LOGISTIC, SQUARED_HINGE)
        for _ in range(100):
            x = rng.standard_normal(3)
            y = float(rng.choice([-1.0, 1.0])) if classification else float(rng.standard_normal())
            theta = rng.standard_normal(3)
            analytic = batch_gradient(model, x[None, :], np.array([y]), theta)[0]
            numeric = finite_diff_gradient(model, x, y, theta)
            denom = max(float(np.linalg.norm(analytic)), 1.0)
            if float(np.linalg.norm(analytic - numeric)) / denom > 1e-5:
                ok = False
    _report("criterion 4 (gradient oracle)", ok)


def test_criterion_05_bregman_sandwich():
    rng = np.random.default_rng(505)
    violations = 0
    for family in (RIDGE, LOGISTIC, SQUARED_HINGE, GLM):
        link = TANH_LINK if family == GLM else None
        classification = family in (LOGISTIC, SQUARED_HINGE)
        X = rng.standard_normal((10, 3))
        X /= np.max(np.linalg.norm(X, axis=1))
        y = (
            np.where(rng.random(10) < 0.5, -1.0, 1.0)
            if classification
            else rng.standard_normal(10)
        )
        dataset = DataSet(X, y)
        lam = 4.0 if family == GLM else 0.1
        model = LossModel(family, lam=lam, link=link)
        m, M = certify(model, dataset)
        for _ in range(100):
            theta_a = rng.standard_normal(3)
            theta_b = rng.standard_normal(3)
            i = int(rng.integers(10))
            s = dataset.X[i : i + 1], dataset.y[i : i + 1]
            gap = (
                batch_loss(model, *s, theta_b)[0]
                - batch_loss(model, *s, theta_a)[0]
                - float(np.dot(batch_gradient(model, *s, theta_a)[0], theta_b - theta_a))
            )
            sq = float(np.sum((theta_b - theta_a) ** 2))
            if gap < 0.5 * m * sq - 1e-9 or gap > 0.5 * M * sq + 1e-9:
                violations += 1
    _report("criterion 5 (convexity/smoothness certification)", violations == 0)


def test_criterion_06_single_component_degeneracy():
    rng = np.random.default_rng(606)
    X = rng.standard_normal((120, 3))
    y = X @ np.array([0.5, -0.3, 0.9]) + 0.1 * rng.standard_normal(120)
    dataset = DataSet(X, y)
    model = LossModel(RIDGE, lam=1e-3)
    gamma = default_step_size(model, dataset)
    init = ParamSet([np.zeros(3)])
    em = EMConfig(
        gamma=gamma, iterations=50, beta=3.0, resample=False
    )
    final, _ = run_gradient_em(init, dataset, model, em, reference=init)

    theta = np.zeros(3)
    for _ in range(50):
        theta = theta - (gamma / dataset.n) * np.sum(
            batch_gradient(model, dataset.X, dataset.y, theta), axis=0
        )
    _report(
        "criterion 6 (k=1 degeneracy)",
        bool(np.array_equal(final.theta(0), theta)),
    )


def test_criterion_07_hard_min_consistency():
    dataset, truth = generate(
        GenSpec(**{**CONVERGENCE_SPEC, "seed": 77})
    )
    model = LossModel(RIDGE, lam=CONVERGENCE_LAM)
    params = ParamSet(truth.thetas * 1.02)
    from softmix.losses import batch_loss

    per = np.stack(
        [batch_loss(model, dataset.X, dataset.y, params.theta(j)) for j in range(2)],
        axis=1,
    )
    gaps = np.abs(per[:, 0] - per[:, 1])
    assert float(np.min(gaps)) >= 0.01  # instance precondition
    soft = empirical_loss(params, dataset, model, 1e6)
    hard = empirical_loss(params, dataset, model, math.inf)
    _report("criterion 7 (hard-min consistency)", abs(soft - hard) <= 1e-6)


def test_criterion_08_brute_force_oracle():
    truth = ParamSet([[0.8], [-0.6]])
    spec = GenSpec(
        kind="generative_mlr", k=2, d=1, n=20, noise_sigma=0.05, truth=truth, seed=5
    )
    dataset, _ = generate(spec)
    model = LossModel(RIDGE, lam=1e-3)
    cfg = math.inf
    grid = GridSpec(-1.5, 1.5, 121)
    best, bf_loss = brute_force_minimize(dataset, model, cfg, 2, grid)

    gamma = default_step_size(model, dataset)
    init = ParamSet(truth.thetas + 0.1 * np.random.default_rng(0).standard_normal((2, 1)))
    em = EMConfig(gamma=gamma, iterations=200, beta=cfg, resample=False)
    final, _ = run_gradient_em(init, dataset, model, em, reference=truth)
    em_loss = empirical_loss(final, dataset, model, cfg)

    cell = 3.0 / 120
    shifted = ParamSet(best.thetas + cell)
    slack = 2.0 * abs(empirical_loss(shifted, dataset, model, cfg) - bf_loss)
    _report("criterion 8 (brute-force oracle)", em_loss <= bf_loss + slack)


def test_criterion_09_determinism(tmp_path):
    import textwrap

    from softmix.config import validate_config
    from softmix.experiment import run_experiment
    import dataclasses

    doc = textwrap.dedent(
        """
        data:
          kind: generative_mlr
          k: 2
          d: 2
          n: 400
          covariate: uniform_ball
          cov_scale: 1.5
          margin: 1.69
          truth: [[1.0, 0.0], [-1.0, 0.0]]
        loss:
          family: ridge
          lam: 0.001
        em:
          iterations: 12
          beta: 10.0
          resample: false
        init:
          mode: perturb_reference
          c_ini: 0.1
        repetitions: 3
        seed: 9
        """
    )
    payloads = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        cfg = dataclasses.replace(validate_config(doc), output_dir=str(out))
        run_experiment(cfg)
        payloads.append(
            (out / "trace.csv").read_bytes() + (out / "logdist.csv").read_bytes()
        )
    _report("criterion 9 (determinism)", payloads[0] == payloads[1])


def test_criterion_10_heavy_tail_robustness():
    successes = 0
    for seed in CONVERGENCE_SEEDS:
        _, _, _, trace = _convergence_run(seed, covariate="student_t", t_dof=5)
        rate, final = trace.fitted_rate, trace.final_distance()
        if rate is not None and rate < 1.0 and final <= 1e-2:
            successes += 1
    _report("criterion 10 (heavy-tail robustness)", successes >= 18)
