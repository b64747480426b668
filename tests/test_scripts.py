"""The experiment scripts under ``scripts/``: they load, run through the
experiment driver, and reproduce the library computations they stand for.
A single run there is a config for ``softmix run``."""
import dataclasses
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from softmix import datagen, theory
from softmix.cli import main
from softmix.config import serialize, validate_config
from softmix.data import ParamSet
from softmix.datagen import GenSpec, generate
from softmix.em import EMConfig, run_gradient_em
from softmix.losses import LossModel, certify, default_step_size
from softmix.theory import estimate_constants, theorem_quantities

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["error_floor_sweep"])
def test_inline_config_parses_and_reparses_equal(name):
    # the sweep holds the config that validate_config parsed at import
    cfg = _load(name).CONFIG
    assert validate_config(serialize(cfg)) == cfg


def _sweep_level_by_hand(amp, n, reps):
    """One sweep level from the library parts: generate -> certify ->
    gradient EM -> constants -> theorem quantities, whose bound is kept
    where the library evaluated one."""
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
        model = LossModel("ridge", lam=1e-3)
        curvature = certify(model, dataset)
        gamma = default_step_size(model, dataset)
        rng = datagen._substream(seed, datagen._INIT_STREAM)
        offsets = rng.standard_normal(truth.thetas.shape)
        offsets /= np.linalg.norm(offsets, axis=1, keepdims=True)
        radii = 0.05 * np.linalg.norm(truth.thetas, axis=1)
        init = ParamSet(truth.thetas + radii[:, None] * offsets)
        em = EMConfig(
            gamma=gamma,
            iterations=30,
            beta=10.0,
            resample=True,
            seed=seed,
        )
        _, trace = run_gradient_em(init, dataset, model, em, reference=truth)
        floors.append(trace.final_distance())
        constants = estimate_constants(dataset, truth, model, curvature)
        d0 = trace.distances[0]
        q = theorem_quantities(constants, 10.0, gamma, d0, 30)
        if q.bound is not None:
            bounds.append(q.bound)
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


def test_error_floor_sweep_skips_bounds_not_evaluated(monkeypatch):
    # an infinite floor zeta makes every bound vacuous: report.txt counts none
    monkeypatch.setattr(theory, "compute_error_floor", lambda *args: math.inf)
    sweep = _load("error_floor_sweep")
    config = dataclasses.replace(
        sweep.CONFIG,
        data=dataclasses.replace(sweep.CONFIG.data, n=600),
        repetitions=2,
    )
    floors, bounds, limits = sweep.run_level(config, 0.0)
    assert len(floors) == 2
    assert bounds == [] and limits == []
    # the hand oracle reads the same verdict
    assert (floors, bounds, limits) == _sweep_level_by_hand(0.0, 600, 2)


def test_convergence_demo_runs_and_prints_checks(tmp_path, capsys):
    text = (SCRIPTS / "convergence_demo.yaml").read_text()
    shrunk = text.replace("n: 4000", "n: 400").replace("repetitions: 10", "repetitions: 2")
    assert shrunk.count("n: 400\n") == 1 and "repetitions: 2\n" in shrunk
    config = tmp_path / "demo.yaml"
    config.write_text(shrunk)
    out_dir = tmp_path / "out"
    assert main(["run", str(config), "-o", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "(within=2 violated=0 not_evaluated=0)" in out
    assert "check gradient_oracle: PASS (" in out
    assert "check decomposition: PASS (" in out
    assert (out_dir / "logdist.csv").exists()

