"""The experiment scripts under ``scripts/``: they load, run through the
experiment driver, and reproduce the library computations they stand for."""
import dataclasses
import importlib.util
from pathlib import Path

import numpy as np

from softmix.data import ParamSet
from softmix.datagen import GenSpec, generate
from softmix.em import EMConfig, run_gradient_em
from softmix.losses import LossModel, certify, default_step_size
from softmix.softmin import SoftMinConfig
from softmix.theory import estimate_constants, predicted_distance_bound, theorem_quantities

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sweep_level_by_hand(amp, n, reps):
    """One sweep level from the library parts: generate -> certify ->
    gradient EM -> constants -> theorem quantities -> distance bound."""
    floors, bounds, limits = [], [], []
    for rep in range(reps):
        seed = 200 + rep
        spec = GenSpec(
            kind="agnostic_piecewise",
            k=2,
            d=4,
            n=n,
            covariate="uniform_ball",
            cov_scale=1.5,
            margin=1.44,
            perturb_amplitude=amp,
            truth=ParamSet([[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]]),
            seed=seed,
        )
        dataset, truth = generate(spec)
        model = certify(LossModel("ridge", lam=1e-3), dataset)
        gamma = default_step_size(model, dataset)
        rng = np.random.default_rng(seed)
        offsets = rng.standard_normal(truth.thetas.shape)
        offsets /= np.linalg.norm(offsets, axis=1, keepdims=True)
        radii = 0.05 * np.linalg.norm(truth.thetas, axis=1)
        init = ParamSet(truth.thetas + radii[:, None] * offsets)
        em = EMConfig(
            step_size=gamma,
            iterations=30,
            softmin=SoftMinConfig(beta=10.0),
            resample=True,
            seed=seed,
        )
        _, trace = run_gradient_em(init, dataset, model, em, reference=truth)
        floors.append(trace.final_distance())
        constants = estimate_constants(dataset, truth, model)
        d0 = trace.distances[0]
        c_eff = float(np.max(d0 / np.linalg.norm(truth.thetas, axis=1)))
        q = theorem_quantities(constants, model, 10.0, c_eff, gamma, 2, 1.0)
        if q.contraction is not None:
            bounds.append(float(np.max(predicted_distance_bound(d0, q.contraction, q.zeta, 30))))
            limits.append(q.zeta / (1.0 - q.contraction))
    return floors, bounds, limits


def test_error_floor_sweep_matches_library_computation():
    sweep = _load("error_floor_sweep")
    n, reps = 600, 2
    config = dataclasses.replace(
        sweep.CONFIG,
        data=dataclasses.replace(sweep.CONFIG.data, n=n),
        repetitions=reps,
    )
    for amp in (0.0, 0.05):
        floors, bounds, limits = sweep.run_level(config, amp)
        assert len(floors) == reps and bounds and limits
        assert (floors, bounds, limits) == _sweep_level_by_hand(amp, n, reps)


def test_convergence_demo_runs_and_prints_checks(tmp_path, monkeypatch, capsys):
    demo = _load("convergence_demo")
    shrunk = demo.CONFIG.replace("n: 4000", "n: 400").replace("repetitions: 10", "repetitions: 2")
    assert shrunk != demo.CONFIG
    monkeypatch.setattr(demo, "CONFIG", shrunk)
    monkeypatch.setattr("sys.argv", ["convergence_demo.py", str(tmp_path)])
    assert demo.main() == 0
    out = capsys.readouterr().out
    assert "check gradient_oracle: PASS (" in out
    assert "check decomposition: PASS (" in out
    assert (tmp_path / "logdist.csv").exists()

