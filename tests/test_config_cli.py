"""Config parsing/serialization, the experiment driver, and the CLI."""
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import softmix
import softmix.experiment as experiment
import softmix.theory as theory
import softmix.verify as verify
from softmix.cli import main
from softmix.config import (
    INIT_MODES,
    NOT_KEYS,
    PERTURB_REFERENCE,
    REFERENCE_MODES,
    Checks,
    ConfigError,
    ExperimentConfig,
    InitSpec,
    serialize,
    validate_config,
)
from softmix.data import ParamSet
from softmix.datagen import COVARIATES, KINDS, GenSpec, save_csv
from softmix.em import EMConfig, gradient_em_step
from softmix.experiment import (
    RepetitionResult,
    _format_bound,
    _format_constants,
    _format_quantities,
    repetition_context,
    run_experiment,
    run_repetition,
)
from softmix.losses import FAMILIES, LINKS, LossModel, certify

MINIMAL = textwrap.dedent(
    """
    data:
      kind: generative_mlr
      k: 1
      d: 2
      n: 100
    loss:
      family: ridge
      lam: 0.001
    em:
      iterations: 10
      beta: 2.0
    """
)

TWO_COMPONENT = textwrap.dedent(
    """
    data:
      kind: generative_mlr
      k: 2
      d: 2
      n: 400
      noise_sigma: 0.0
      covariate: uniform_ball
      cov_scale: 1.5
      margin: 1.69
      truth: [[1.0, 0.0], [-1.0, 0.0]]
    loss:
      family: ridge
      lam: 0.001
    em:
      iterations: 15
      beta: 10.0
      resample: false
    init:
      mode: perturb_reference
      c_ini: 0.1
    repetitions: 2
    seed: 5
    """
)

AGNOSTIC = textwrap.dedent(
    """
    data:
      kind: agnostic_piecewise
      k: 2
      d: 2
      n: 300
      covariate: uniform_ball
      cov_scale: 1.5
      margin: 1.44
      perturb_amplitude: 0.05
      truth: [[1.0, 0.0], [-1.0, 0.0]]
    loss:
      family: ridge
      lam: 0.001
    em:
      iterations: 6
      beta: 5.0
    init:
      mode: perturb_reference
      c_ini: 0.05
    reference: multistart
    checks:
      lemmas: true
      decomposition: true
    repetitions: 2
    seed: 9
    """
)

# the error-floor instance from a start in the ball of radius 0.02, where
# eta' <= 1; at the default init.c_ini = 0.2 (a radius of 0.2) eta' exceeds 1
RANDOM_BALL_LEMMAS = textwrap.dedent(
    """
    data:
      kind: agnostic_piecewise
      k: 2
      d: 4
      n: 6000
      covariate: uniform_ball
      cov_scale: 1.5
      margin: 1.44
      perturb_amplitude: 0.05
      truth: [[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]]
    loss:
      family: ridge
      lam: 0.001
    em:
      iterations: 30
      beta: 10.0
      resample: true
    init:
      mode: random_ball
      radius: 0.02
    checks:
      lemmas: true
    repetitions: 1
    seed: 100
    """
)

# d = 1, k = 2: small enough for the brute-force grid of the check
BRUTE_FORCE = textwrap.dedent(
    """
    data:
      kind: generative_mlr
      k: 2
      d: 1
      n: 400
      noise_sigma: 0.01
      covariate: uniform_ball
      cov_scale: 1.5
      margin: 1.69
      truth: [[1.0], [-1.0]]
    loss:
      family: ridge
      lam: 0.001
    em:
      iterations: 15
      beta: 10.0
    init:
      mode: perturb_reference
      c_ini: 0.1
    checks:
      brute_force: true
    repetitions: 2
    seed: 11
    """
)

# d = 2, k = 2: 61^4 candidate ParamSets, over the grid budget
BRUTE_FORCE_2D = BRUTE_FORCE.replace("d: 1", "d: 2").replace(
    "[[1.0], [-1.0]]", "[[1.0, 0.0], [-1.0, 0.0]]"
)

ROOT = Path(__file__).resolve().parents[1]


def _edited(old, new):
    """MINIMAL with ``old`` replaced by ``new``, or ``new`` appended when
    ``old`` is empty."""
    return MINIMAL.replace(old, new) if old else MINIMAL + new + "\n"


# (text of MINIMAL, its replacement, the key the ConfigError names)
MISTYPED = [
    ("d: 2", 'd: "4"', "data.d"),
    ("n: 100", "n: 100.5", "data.n"),
    ("", "seed: null", "seed"),
    ("lam: 0.001", "lam: [1]", "loss.lam"),
    ("beta: 2.0", 'beta: 2.0\n  resample: "false"', "em.resample"),
    ("iterations: 10", "iterations: 2.7", "em.iterations"),
    ("", "repetitions: 1.9", "repetitions"),
    ("lam: 0.001", "lam: .nan", "loss.lam"),
    ("beta: 2.0", 'beta: "nan"', "em.beta"),
    ("beta: 2.0", "beta: -1", "em.beta"),
    ("iterations: 10", "iterations: 0", "em.iterations"),
    ("beta: 2.0", "beta: 2.0\n  gamma: 0", "em.gamma"),
    ("beta: 2.0", "beta: 2.0\n  gamma: -1", "em.gamma"),
    ("", "init:\n  c_ini: [0.1]", "init.c_ini"),
    ("", "checks:\n  lemmas: 1", "checks.lemmas"),
]

# (text of MINIMAL, its replacement, the key the ConfigError names): one
# out-of-range value for each key of data:, loss:, em: and init:, whose
# section class rejects it
INVALID = [
    ("kind: generative_mlr", "kind: heavy_tail_mlr", "data.kind"),
    ("k: 1", "k: 0", "data.k"),
    ("d: 2", "d: 0", "data.d"),
    ("n: 100", "n: 0", "data.n"),
    ("n: 100", "n: 100\n  noise_sigma: -1.0", "data.noise_sigma"),
    ("n: 100", "n: 100\n  mix_weights: [.nan]", "data.mix_weights"),
    ("n: 100", "n: 100\n  covariate: cauchy", "data.covariate"),
    ("n: 100", "n: 100\n  cov_scale: .nan", "data.cov_scale"),
    ("n: 100", "n: 100\n  covariate: student_t\n  t_dof: 2", "data.t_dof"),
    ("n: 100", "n: 100\n  truth: [[1.0]]", "data.truth"),
    ("n: 100", "n: 100\n  truth_scale: .nan", "data.truth_scale"),
    (
        "kind: generative_mlr",
        "kind: agnostic_piecewise\n  perturb_amplitude: -0.5",
        "data.perturb_amplitude",
    ),
    ("n: 100", "n: 100\n  margin: -1.0", "data.margin"),
    ("kind: generative_mlr\n  k: 1\n  d: 2\n  n: 100", "file: 3", "data.file"),
    ("family: ridge", "family: plain_hinge", "loss.family"),
    ("lam: 0.001", "lam: -1.0", "loss.lam"),
    ("lam: 0.001", "lam: 0.001\n  link: tanh", "loss.link"),
    ("iterations: 10", "iterations: -3", "em.iterations"),
    ("beta: 2.0", "beta: 2.0\n  gamma: .nan", "em.gamma"),
    ("beta: 2.0", "beta: .nan", "em.beta"),
    ("beta: 2.0", "beta: 2.0\n  resample: 1", "em.resample"),
    ("", "init:\n  mode: warmstart", "init.mode"),
    ("", "init:\n  c_ini: 1.5", "init.c_ini"),
    ("", "init:\n  mode: explicit", "init.thetas"),
    ("", "init:\n  mode: random_ball", "init.radius"),
]

# (text of MINIMAL, its replacement, the key the ConfigError names): every
# seed a repetition runs with must fit the 64 high bits of a Philox key
SEED_OUT_OF_RANGE = [
    ("", "seed: -1", "seed"),
    ("", f"seed: {2 ** 64}", "seed"),
    ("", f"repetitions: 2\nseed: {2 ** 64 - 1}", "seed"),
]

# (text of MINIMAL, its replacement, attribute path, the value it parses to)
WELL_TYPED = [
    ("n: 100", "n: 100\n  noise_sigma: 1e-2", "data.noise_sigma", 0.01),
    ("", 'init:\n  c_ini: "0.1"', "init.c_ini", 0.1),
    ("lam: 0.001", "lam: 1e-3", "loss.lam", 0.001),
    ("n: 100", "n: 100.0", "data.n", 100),
]


def _minimal_config_block(readme):
    """The YAML block that follows "A minimal config:" in the README."""
    match = re.search(r"A minimal config:\s*```yaml\n(.*?)```", readme, re.S)
    assert match, "README has no minimal config block"
    return match.group(1)


_floats = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)
_text = st.text(st.characters(min_codepoint=32, max_codepoint=126), min_size=1, max_size=12)


@st.composite
def _param_sets(draw, k, d):
    rows = st.lists(st.floats(-10, 10, allow_nan=False), min_size=d, max_size=d)
    return ParamSet(draw(st.lists(rows, min_size=k, max_size=k)))


@st.composite
def _configs(draw):
    """A valid ExperimentConfig: generated or file data, every init mode,
    beta finite or inf, and the optional keys present or absent.  It draws
    no data seed (each repetition sets its own), a link only for glm,
    init.c_ini only for mode perturb_reference, init.radius only for mode
    random_ball, init.thetas outside mode explicit only for file data, where
    it sets k, and noise_sigma, perturb_amplitude, t_dof and truth_scale
    only where generate() reads them: the config rejects each of them
    elsewhere.  Where a key with a filled-in default is read, it is also
    drawn absent."""
    k, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    weights = draw(st.lists(_floats, min_size=k, max_size=k))
    kind, covariate = draw(st.sampled_from(KINDS)), draw(st.sampled_from(COVARIATES))
    truth = draw(st.none() | _param_sets(k, d))
    read = {
        "noise_sigma": (kind == "generative_mlr", st.just(0.0) | _floats),
        "perturb_amplitude": (kind == "agnostic_piecewise", st.just(0.0) | _floats),
        "t_dof": (covariate == "student_t", st.integers(3, 30)),
        "truth_scale": (truth is None, _floats),
    }
    data = draw(st.one_of(_text, st.builds(
        GenSpec,
        kind=st.just(kind),
        k=st.just(k),
        d=st.just(d),
        n=st.integers(k, 10 ** 6),
        mix_weights=st.none() | st.just(tuple(w / sum(weights) for w in weights)),
        covariate=st.just(covariate),
        cov_scale=_floats,
        truth=st.just(truth),
        margin=st.just(0.0) | _floats,
        **{key: st.none() | values for key, (reads, values) in read.items() if reads},
    )))
    mode = draw(st.sampled_from(INIT_MODES))
    thetas = _param_sets(k, d)
    if mode != "explicit":
        thetas = st.none() | thetas if isinstance(data, str) else st.none()
    init = InitSpec(
        mode=mode,
        c_ini=draw(st.none() | st.floats(0.01, 0.99)) if mode == PERTURB_REFERENCE else None,
        thetas=draw(thetas),
        radius=draw(_floats) if mode == "random_ball" else None,
    )
    family = draw(st.sampled_from(sorted(FAMILIES)))
    links = st.none() | st.sampled_from(list(LINKS.values()))
    loss = LossModel(
        family,
        lam=draw(st.just(0.0) | _floats),
        link=draw(links) if family == "glm" else None,
    )
    checks = draw(st.sets(st.sampled_from([f.name for f in dataclasses.fields(Checks)])))
    if isinstance(data, GenSpec) and d * k > 2:  # over the grid budget
        checks.discard("brute_force")
    beta = draw(st.just(math.inf) | st.floats(0.0, 1e3))
    if math.isinf(beta):  # the lemma sweep needs a finite beta
        checks.discard("lemmas")
    resample = draw(st.booleans())
    # resampling takes one fold of generated data per iteration
    folds = data.n if resample and isinstance(data, GenSpec) else 500
    # a data file has no truth to serve as the reference
    references = REFERENCE_MODES if isinstance(data, GenSpec) else ("multistart",)
    return ExperimentConfig(
        data=data,
        loss=loss,
        em=EMConfig(
            iterations=draw(st.integers(1, min(folds, 500))),
            gamma=draw(st.none() | _floats),
            beta=beta,
            resample=resample,
        ),
        init=init,
        reference=draw(st.sampled_from(references)),
        checks=Checks(**{name: True for name in checks}),
        repetitions=draw(st.integers(1, 50)),
        seed=draw(st.integers(0, 2 ** 40)),
        output_dir=draw(_text),
    )


def _generated(text, seed):
    """The dataset that the ``data:`` section of config ``text`` generates
    with ``seed``."""
    dataset, _ = experiment.generate(dataclasses.replace(validate_config(text).data, seed=seed))
    return dataset


def _counted(monkeypatch, name):
    """Replace ``softmix.experiment.<name>`` by a wrapper that counts its calls."""
    calls = []
    original = getattr(experiment, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiment, name, wrapper)
    return calls


def _returned(monkeypatch, module, name):
    """Replace ``module.<name>`` by a wrapper that records what it returns."""
    values = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        values.append(original(*args, **kwargs))
        return values[-1]

    monkeypatch.setattr(module, name, wrapper)
    return values


def _counted_everywhere(monkeypatch, module, name):
    """Replace ``module.<name>`` at every softmix module attribute bound to it
    by a wrapper that counts its calls."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for loaded in [m for n, m in sys.modules.items() if n.startswith("softmix")]:
        for key, value in list(vars(loaded).items()):
            if value is original:
                monkeypatch.setattr(loaded, key, wrapper)
    return calls


class TestValidateConfig:
    def test_minimal_parses(self):
        cfg = validate_config(MINIMAL)
        assert cfg.em.gamma is None
        assert cfg.em.beta == 2.0
        assert cfg.em.iterations == 10
        assert cfg.repetitions == 1

    def test_empty_document_lists_required_sections(self):
        with pytest.raises(ConfigError, match="data.*loss.*em"):
            validate_config("")

    def test_missing_section_reported(self):
        with pytest.raises(ConfigError, match="missing required sections: em"):
            validate_config("data: {kind: generative_mlr, k: 1, d: 1, n: 10}\nloss: {family: ridge}\n")

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys.*stepsize"):
            validate_config(MINIMAL + "stepsize: 0.1\n")

    def test_unknown_em_key_rejected(self):
        bad = MINIMAL.replace("beta: 2.0", "beta: 2.0\n  momentum: 0.9")
        with pytest.raises(ConfigError, match="momentum"):
            validate_config(bad)

    def test_beta_inf_sentinel(self):
        cfg = validate_config(MINIMAL.replace("beta: 2.0", 'beta: "inf"'))
        assert math.isinf(cfg.em.beta)

    def test_bad_beta_string_rejected(self):
        with pytest.raises(ConfigError, match="beta"):
            validate_config(MINIMAL.replace("beta: 2.0", 'beta: "big"'))

    def test_bad_init_mode_rejected(self):
        with pytest.raises(ConfigError, match="init.mode"):
            validate_config(MINIMAL + "init:\n  mode: warmstart\n")

    def test_file_data_exclusive(self):
        bad = MINIMAL.replace("kind: generative_mlr", "file: data.csv\n  kind: generative_mlr")
        with pytest.raises(ConfigError, match="file"):
            validate_config(bad)

    def test_unknown_check_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys in checks: spellcheck"):
            validate_config(MINIMAL + "checks:\n  spellcheck: true\n")

    def test_brute_force_grid_budget_checked_at_validation(self):
        with pytest.raises(ConfigError, match="grid budget exceeded: 13845841"):
            validate_config(BRUTE_FORCE_2D)
        assert validate_config(BRUTE_FORCE).checks == Checks(brute_force=True)

    def test_round_trip(self):
        for doc in (MINIMAL, TWO_COMPONENT):
            cfg = validate_config(doc)
            again = validate_config(serialize(cfg))
            assert again == cfg

    @pytest.mark.parametrize("old, new, key", SEED_OUT_OF_RANGE)
    def test_seed_out_of_range_names_its_key(self, old, new, key):
        with pytest.raises(ConfigError, match="^" + re.escape(key) + " must lie in"):
            validate_config(_edited(old, new))

    def test_largest_seeds_parse(self):
        cfg = validate_config(_edited("", f"repetitions: 2\nseed: {2 ** 64 - 2}"))
        assert cfg.seed + cfg.repetitions - 1 == 2 ** 64 - 1

    @pytest.mark.parametrize("old, new, key", MISTYPED + INVALID)
    def test_mistyped_value_names_its_key(self, old, new, key):
        with pytest.raises(ConfigError, match="^" + re.escape(key) + "[: ]"):
            validate_config(_edited(old, new))

    def test_invalid_table_covers_every_section_key(self):
        sections = {"data": GenSpec, "loss": LossModel, "em": EMConfig, "init": InitSpec}
        keys = {
            f"{where}.{f.name}"
            for where, cls in sections.items()
            for f in dataclasses.fields(cls)
            if f.name not in NOT_KEYS.get(cls, ())
        }
        assert {key for _, _, key in INVALID} == keys | {"data.file"}

    @pytest.mark.parametrize("old, new, path, value", WELL_TYPED)
    def test_numbers_and_float_strings_parse(self, old, new, path, value):
        parsed = validate_config(_edited(old, new))
        for name in path.split("."):
            parsed = getattr(parsed, name)
        assert parsed == value and type(parsed) is type(value)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_configs())
    def test_serialize_round_trips_every_valid_config(self, cfg):
        assert validate_config(serialize(cfg)) == cfg

    @pytest.mark.parametrize("path", sorted((ROOT / "perfbench" / "workloads").glob("*.yaml")))
    def test_benchmark_workloads_parse_and_reparse_equal(self, path):
        cfg = validate_config(path.read_text())
        assert validate_config(serialize(cfg)) == cfg

    @pytest.mark.parametrize(
        "path", sorted((ROOT / "scripts").glob("*.yaml")), ids=lambda path: path.name
    )
    def test_script_configs_parse_and_reparse_equal(self, path):
        cfg = validate_config(path.read_text())
        assert validate_config(serialize(cfg)) == cfg

    def test_readme_minimal_config_is_valid(self):
        cfg = validate_config(_minimal_config_block((ROOT / "README.md").read_text()))
        assert validate_config(serialize(cfg)) == cfg


class TestExperimentDriver:
    def test_default_gamma_recorded(self):
        cfg = validate_config(MINIMAL)
        result, _ = run_repetition(cfg, 0)
        assert result.gamma > 0.0  # 1/(2 * mean smoothness) of the instance

    def test_convex_single_component_converges(self):
        cfg = validate_config(MINIMAL)
        report = run_experiment(cfg, write=False)
        assert report.success_frequency == 1.0
        rep = report.repetitions[0]
        assert rep.trace.fitted_rate is not None and rep.trace.fitted_rate < 1.0
        assert not report.failed_checks

    def test_two_component_within_bound(self):
        cfg = validate_config(TWO_COMPONENT)
        report = run_experiment(cfg, write=False)
        assert len(report.repetitions) == 2
        assert [r.rep for r in report.repetitions] == [0, 1]
        assert report.success_frequency == 1.0
        assert all(
            r.trace.final_distance() < r.trace.max_distances()[0] for r in report.repetitions
        )

    def test_hard_min_has_no_evaluated_bound(self, tmp_path):
        import dataclasses

        cfg = dataclasses.replace(
            validate_config(TWO_COMPONENT.replace("beta: 10.0", 'beta: "inf"')),
            output_dir=str(tmp_path),
        )
        report = run_experiment(cfg)
        assert [r.within_bound for r in report.repetitions] == [None, None]
        assert report.success_frequency is None
        text = (tmp_path / "report.txt").read_text()
        assert "within_bound=None" in text
        assert "success_frequency: n/a (within=0 violated=0 not_evaluated=2)" in text

    def test_outputs_written_and_deterministic(self, tmp_path):
        import dataclasses

        names = ("trace.csv", "logdist.csv", "report.txt")
        payloads = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            cfg = dataclasses.replace(
                validate_config(TWO_COMPONENT), output_dir=str(out)
            )
            run_experiment(cfg)
            payloads.append({name: (out / name).read_bytes() for name in names})
        assert payloads[0]["trace.csv"] == payloads[1]["trace.csv"]
        assert payloads[0]["logdist.csv"] == payloads[1]["logdist.csv"]
        first = payloads[0]["trace.csv"].decode().splitlines()
        assert first[0] == "rep,t,j,distance,loss"
        # 2 repetitions x (15 iterations + init) x 2 components
        assert len(first) == 1 + 2 * 16 * 2

    def test_checks_run_and_pass(self):
        cfg = validate_config(
            TWO_COMPONENT
            + "checks:\n  gradient_oracle: true\n  lemmas: true\n  decomposition: true\n"
        )
        report = run_experiment(cfg, write=False)
        assert {c.name for c in report.checks} == {
            "gradient_oracle",
            "lemmas",
            "decomposition",
        }
        assert not report.failed_checks

    def test_infinite_bound_counts_as_not_evaluated(self, tmp_path, monkeypatch):
        import dataclasses

        monkeypatch.setattr(theory, "compute_error_floor", lambda *args: math.inf)
        cfg = dataclasses.replace(validate_config(TWO_COMPONENT), output_dir=str(tmp_path))
        report = run_experiment(cfg)
        assert [r.quantities.bound for r in report.repetitions] == [None, None]
        assert [r.within_bound for r in report.repetitions] == [None, None]
        assert report.success_frequency is None
        text = (tmp_path / "report.txt").read_text()
        assert "bound=n/a within_bound=None" in text
        assert "success_frequency: n/a (within=0 violated=0 not_evaluated=2)" in text


    def test_eta_prime_above_one_counts_as_not_evaluated(self, tmp_path):
        import dataclasses

        # at c_ini = 0.15 repetition 1's cross-region weight bound eta' exceeds 1
        text = AGNOSTIC.replace("c_ini: 0.05", "c_ini: 0.15").replace(
            "  lemmas: true\n  decomposition: true\n", "  lemmas: false\n"
        )
        cfg = dataclasses.replace(validate_config(text), output_dir=str(tmp_path))
        report = run_experiment(cfg)
        first, second = report.repetitions
        assert first.quantities.eta_prime < 1.0 < second.quantities.eta_prime
        assert second.quantities.bound is None
        assert [r.within_bound for r in report.repetitions] == [True, None]
        assert report.success_frequency == 1.0
        text = (tmp_path / "report.txt").read_text()
        assert "bound=n/a within_bound=None" in text
        assert "success_frequency: 1.0000 (within=1 violated=0 not_evaluated=1)" in text

    def test_brute_force_check_reuses_repetition_zero_fit(self, monkeypatch):
        runs = _counted(monkeypatch, "run_gradient_em")
        cfg = validate_config(BRUTE_FORCE)
        report = run_experiment(cfg, write=False)
        assert len(runs) == cfg.repetitions
        (check,) = report.checks
        assert check.passed
        # the reused fit must give what a fresh fit of repetition 0 gives
        result, context = run_repetition(cfg, 0)
        losses = _counted(monkeypatch, "empirical_loss")
        (fresh,) = experiment._run_checks(cfg, context, result)
        assert check.detail == fresh.detail
        # the fit's loss is the trace's last, not evaluated again
        assert losses and not any(params == result.fitted for params, *_ in losses)


class TestRepetitionContext:
    """Each repetition's data and reference are built once; the checks reuse
    repetition 0's."""

    def test_each_piece_of_work_once_per_repetition(self, monkeypatch):
        generated = _counted(monkeypatch, "generate")
        certified = _counted(monkeypatch, "certify")
        steps = _counted(monkeypatch, "default_step_size")
        references = _counted(monkeypatch, "_multistart_reference")
        partitions = _counted_everywhere(monkeypatch, theory, "partition_regions")
        constants = _counted_everywhere(monkeypatch, theory, "estimate_constants")
        cfg = validate_config(AGNOSTIC)
        report = run_experiment(cfg, write=False)
        assert len(generated) == cfg.repetitions
        # the default step serves em.gamma, which the config leaves out
        assert len(certified) == len(steps) == cfg.repetitions
        assert len(references) == cfg.repetitions
        # the checks read repetition 0's regions and constants from its context
        assert len(partitions) == len(constants) == cfg.repetitions
        assert [spec.seed for (spec,) in generated] == [9, 10]
        assert {c.name for c in report.checks} == {"lemmas", "decomposition"}
        assert "context" not in {f.name for f in dataclasses.fields(RepetitionResult)}
        assert RepetitionResult.__dataclass_params__.frozen

    def test_multistart_reference_is_a_fixed_point(self):
        cfg = validate_config(AGNOSTIC)
        context = repetition_context(cfg, 1)
        stepped = gradient_em_step(context.reference, context.dataset, cfg.loss, context.em)
        moves = np.linalg.norm(stepped.thetas - context.reference.thetas, axis=1)
        assert np.max(moves) <= context.em.gamma * experiment.REFERENCE_TOLERANCE

    def test_constants_hold_the_certified_pair(self):
        cfg = validate_config(AGNOSTIC)
        context = repetition_context(cfg, 1)
        m, M = certify(cfg.loss, context.dataset)
        assert (context.constants.m, context.constants.M) == (m, M)
        assert "model" not in {f.name for f in dataclasses.fields(experiment.RepetitionContext)}

    def test_file_data_takes_k_from_explicit_init_in_checks(self, tmp_path):
        import dataclasses

        dataset = _generated(TWO_COMPONENT, 11)
        path = tmp_path / "data.csv"
        save_csv(dataset, str(path))
        text = textwrap.dedent(
            f"""
            data:
              file: {path}
            loss:
              family: ridge
              lam: 0.001
            em:
              iterations: 5
              beta: 2.0
            reference: multistart
            init:
              mode: explicit
              thetas: [[0.9, 0.1], [-0.9, -0.1]]
            checks:
              decomposition: true
            """
        )
        cfg = dataclasses.replace(validate_config(text), output_dir=str(tmp_path / "out"))
        report = run_experiment(cfg)
        assert [c.name for c in report.checks] == ["decomposition"]
        assert not report.failed_checks
        assert report.repetitions[0].trace.distances.shape[1] == 2

    @pytest.mark.parametrize("mode", ["perturb_reference", "random_ball"])
    def test_file_data_takes_k_from_init_thetas_in_every_mode(self, tmp_path, mode):
        dataset = _generated(TWO_COMPONENT, 11)
        path = tmp_path / "data.csv"
        save_csv(dataset, str(path))
        radius = "\n  radius: 0.1" if mode == "random_ball" else ""
        cfg = validate_config(
            f"data:\n  file: {path}\nloss:\n  family: ridge\n  lam: 0.001\n"
            "em:\n  iterations: 5\n  beta: 2.0\nreference: multistart\n"
            f"init:\n  mode: {mode}{radius}\n  thetas: [[0.0, 0.0], [0.0, 0.0]]\n"
        )
        report = run_experiment(cfg, write=False)
        (result,) = report.repetitions
        assert result.trace.distances.shape == (6, 2)
        assert result.fitted.k == 2

    def test_truth_reference_on_file_data_raises_once(self, tmp_path, monkeypatch):
        dataset = _generated(MINIMAL, 3)
        path = tmp_path / "data.csv"
        save_csv(dataset, str(path))
        contexts = _counted(monkeypatch, "repetition_context")
        references = _counted(monkeypatch, "_multistart_reference")
        with pytest.raises(ConfigError, match="reference=truth .*data.file"):
            cfg = validate_config(
                f"data:\n  file: {path}\nloss:\n  family: ridge\n  lam: 0.001\n"
                "em:\n  iterations: 5\nreference: truth\nchecks:\n  lemmas: true\n"
            )
            run_experiment(cfg, write=False)
        assert contexts == []
        assert references == []

    def test_file_data_explicit_init_of_other_d_raises_before_reference(
        self, tmp_path, monkeypatch
    ):
        dataset = _generated(TWO_COMPONENT, 11)
        path = tmp_path / "data.csv"
        save_csv(dataset, str(path))
        references = _counted(monkeypatch, "_multistart_reference")
        cfg = validate_config(
            f"data:\n  file: {path}\nloss:\n  family: ridge\n  lam: 0.001\n"
            "em:\n  iterations: 5\nreference: multistart\n"
            "init:\n  mode: explicit\n  thetas: [[0.9, 0.1, 0.0], [-0.9, -0.1, 0.0]]\n"
        )
        message = f"init.thetas has shape (2, 3), the (k, d) of {path} is (2, 2)"
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_experiment(cfg, write=False)
        assert references == []

    def test_file_data_read_and_certified_once_per_run(self, tmp_path, monkeypatch):
        dataset = _generated(TWO_COMPONENT, 11)
        assert len(dataset) == 400
        path = tmp_path / "data.csv"
        save_csv(dataset, str(path))
        cfg = validate_config(
            f"data:\n  file: {path}\nloss:\n  family: ridge\n  lam: 0.001\n"
            "em:\n  iterations: 5\n  beta: 2.0\nreference: multistart\n"
            "init:\n  mode: explicit\n  thetas: [[0.9, 0.1], [-0.9, -0.1]]\n"
            "repetitions: 4\nseed: 7\n"
        )
        loads = _counted(monkeypatch, "load_csv")
        certified = _counted(monkeypatch, "certify")
        steps = _counted(monkeypatch, "default_step_size")
        references = _counted(monkeypatch, "_multistart_reference")
        report = run_experiment(cfg, write=False)
        assert len(loads) == 1
        assert len(certified) == 1
        # em.gamma is left out, so each repetition takes the default step
        assert len(steps) == cfg.repetitions
        assert [args[-1] for args in references] == [7, 8, 9, 10]
        # each repetition built alone reads and certifies the file itself
        for result in report.repetitions:
            alone, _ = run_repetition(cfg, result.rep)
            assert alone.gamma == result.gamma
            assert alone.trace.alignment.tolist() == result.trace.alignment.tolist()
            assert alone.trace.distances.tobytes() == result.trace.distances.tobytes()
            assert alone.trace.losses.tobytes() == result.trace.losses.tobytes()


class TestCLI:
    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_gen_then_run_on_file(self, tmp_path):
        genspec = self._write(
            tmp_path,
            "gen.yaml",
            "kind: generative_mlr\nk: 1\nd: 2\nn: 60\nseed: 4\n",
        )
        out_csv = str(tmp_path / "data.csv")
        assert main(["gen", genspec, "-o", out_csv]) == 0

        config = self._write(
            tmp_path,
            "run.yaml",
            textwrap.dedent(
                f"""
                data:
                  file: {out_csv}
                loss:
                  family: ridge
                  lam: 0.001
                em:
                  iterations: 8
                  beta: 2.0
                reference: multistart
                init:
                  mode: random_ball
                  radius: 0.5
                output_dir: {tmp_path / "out"}
                """
            ),
        )
        assert main(["run", config]) == 0
        assert (tmp_path / "out" / "report.txt").exists()

    def test_fresh_run_loads_numpy_random_at_import_and_no_scipy(self, tmp_path):
        config = self._write(
            tmp_path, "cfg.yaml", TWO_COMPONENT + f"output_dir: {tmp_path / 'out'}\n"
        )
        probe = textwrap.dedent(
            """
            import json, sys
            import softmix.cli
            imported = "numpy.random" in sys.modules
            rc = softmix.cli.main(["run", sys.argv[1]])
            scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
            print(json.dumps({"imported": imported, "rc": rc, "scipy": scipy}))
            """
        )
        src = str(Path(softmix.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", probe, config],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert done.returncode == 0, done.stderr
        got = json.loads(done.stdout.strip().splitlines()[-1])
        # numpy 2 loads numpy.random lazily; datagen imports it eagerly so
        # that set-up, not the first generated block of the run, pays for it
        assert got["imported"]
        assert got["rc"] == 0
        assert got["scipy"] == []

    def test_gen_unknown_key_exits_2(self, tmp_path, capsys):
        genspec = self._write(
            tmp_path, "gen.yaml", "kind: generative_mlr\nk: 1\nd: 2\nn: 30\nnoise: 0.1\n"
        )
        assert main(["gen", genspec, "-o", str(tmp_path / "data.csv")]) == 2
        assert "noise" in capsys.readouterr().err

    def test_run_prints_na_without_evaluated_bound(self, tmp_path, capsys):
        config = self._write(
            tmp_path,
            "cfg.yaml",
            TWO_COMPONENT.replace("beta: 10.0", 'beta: "inf"')
            + f"output_dir: {tmp_path / 'out'}\n",
        )
        assert main(["run", config]) == 0
        assert "success_frequency: n/a" in capsys.readouterr().out

    def test_lemma_check_tests_the_weight_bounds_of_the_theorem(
        self, tmp_path, capsys, monkeypatch
    ):
        quantities = _returned(monkeypatch, experiment, "theory_at")
        etas = _returned(monkeypatch, verify, "compute_eta")
        eta_primes = _returned(monkeypatch, verify, "compute_eta_prime")
        config = self._write(tmp_path, "cfg.yaml", RANDOM_BALL_LEMMAS)
        assert main(["run", config, "-o", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "check lemmas: PASS (" in out
        assert "cross-region: 0/120000 (vacuous=False)" in out
        (q,) = quantities
        assert q.bound is not None
        assert etas == [q.eta] and eta_primes == [q.eta_prime]

    def test_lemma_check_runs_from_an_explicit_start_without_c_ini(self, tmp_path, capsys):
        text = TWO_COMPONENT.replace(
            "mode: perturb_reference\n  c_ini: 0.1",
            "mode: explicit\n  c_ini: null\n  thetas: [[0.95, 0.05], [-1.0, -0.05]]",
        )
        config = self._write(tmp_path, "cfg.yaml", text + "checks:\n  lemmas: true\n")
        assert main(["run", config, "-o", str(tmp_path / "out")]) == 0
        assert "check lemmas: PASS (" in capsys.readouterr().out

    def test_removed_subcommand_exits_2(self, tmp_path):
        # the loss families are fixed code; tests/test_losses.py checks their
        # gradients against finite differences
        spec = self._write(tmp_path, "loss.yaml", "family: ridge\n")
        with pytest.raises(SystemExit) as exc:
            main(["check-gradients", spec])
        assert exc.value.code == 2

    def test_bounds_subcommand(self, tmp_path, capsys):
        config = self._write(tmp_path, "cfg.yaml", TWO_COMPONENT)
        assert main(["bounds", config]) == 0
        out = capsys.readouterr().out
        assert "predicted_bound" in out and "constants" in out

    @pytest.mark.parametrize("reference", ["truth", "multistart"])
    def test_bounds_match_repetition_zero_without_em(
        self, tmp_path, capsys, monkeypatch, reference
    ):
        cfg_text = TWO_COMPONENT + f"reference: {reference}\n"
        result, _ = run_repetition(validate_config(cfg_text), 0)
        expected = (
            "constants:  " + _format_constants(result.constants) + "\n"
            "quantities: " + _format_quantities(result.quantities) + "\n"
            f"gamma={result.gamma:.6g} d0={result.trace.max_distances()[0]:.6g} "
            f"predicted_bound={_format_bound(result.quantities)}\n"
        )
        capsys.readouterr()

        def no_em(*args, **kwargs):
            raise AssertionError("softmix bounds ran gradient EM")

        monkeypatch.setattr(experiment, "run_gradient_em", no_em)
        config = self._write(tmp_path, "cfg.yaml", cfg_text)
        assert main(["bounds", config]) == 0
        assert capsys.readouterr().out == expected

    def test_oversized_brute_force_exits_2_before_any_repetition(
        self, tmp_path, capsys, monkeypatch
    ):
        repetitions = _counted(monkeypatch, "run_repetition")
        config = self._write(
            tmp_path, "cfg.yaml", BRUTE_FORCE_2D + f"output_dir: {tmp_path / 'out'}\n"
        )
        assert main(["run", config]) == 2
        assert "grid budget exceeded" in capsys.readouterr().err
        assert repetitions == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, text, key", [
        ("run", MINIMAL.replace("iterations: 10", "iterations: 2.7"), "em.iterations"),
        ("gen", "kind: generative_mlr\nk: 1\nd: \"2\"\nn: 30\n", "genspec.d"),
        ("gen", "kind: generative_mlr\nk: 1\nd: 2\nn: 30\nseed: 2.5\n", "seed"),
    ])
    def test_mistyped_value_exits_2_naming_its_key(self, tmp_path, capsys, command, text, key):
        path = self._write(tmp_path, "in.yaml", text)
        extra = ["-o", str(tmp_path / "data.csv")] if command == "gen" else []
        assert main([command, path, *extra]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key}: expected an integer")

    @pytest.mark.parametrize("command, text, key", [
        ("run", MINIMAL + "seed: -1\n", "seed"),
        # softmix gen reads its seed as a key of its own, not a data: key
        ("gen", "kind: generative_mlr\nk: 1\nd: 2\nn: 30\nseed: -1\n", "seed"),
        ("gen", f"kind: generative_mlr\nk: 1\nd: 2\nn: 30\nseed: {2 ** 64}\n", "seed"),
    ])
    def test_seed_out_of_range_exits_2_naming_its_key(
        self, tmp_path, capsys, monkeypatch, command, text, key
    ):
        repetitions = _counted(monkeypatch, "run_repetition")
        path = self._write(tmp_path, "in.yaml", text)
        extra = ["-o", str(tmp_path / "data.csv")] if command == "gen" else []
        assert main([command, path, *extra]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key} must lie in [0, 2**64")
        assert repetitions == []
        assert not (tmp_path / "data.csv").exists()

    @pytest.mark.parametrize("line, message", [
        # the contraction's universal constant is 1; it is not a config key
        ("c_universal: 1", "unknown keys in config: c_universal"),
        # the lemma check's trial count is a constant, not a config key
        ("lemma_trials: 2", "unknown keys in config: lemma_trials"),
    ])
    def test_bad_bound_settings_exit_2_before_any_repetition(
        self, tmp_path, capsys, monkeypatch, line, message
    ):
        repetitions = _counted(monkeypatch, "run_repetition")
        config = self._write(
            tmp_path, "cfg.yaml", TWO_COMPONENT + f"{line}\noutput_dir: {tmp_path / 'out'}\n"
        )
        assert main(["run", config]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert repetitions == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("gamma", [".inf", '"inf"', "-.inf"])
    def test_non_finite_gamma_exits_2_before_any_repetition(
        self, tmp_path, capsys, monkeypatch, gamma
    ):
        repetitions = _counted(monkeypatch, "run_repetition")
        text = TWO_COMPONENT.replace("beta: 10.0", f"beta: 10.0\n  gamma: {gamma}")
        config = self._write(tmp_path, "cfg.yaml", text + f"output_dir: {tmp_path / 'out'}\n")
        assert main(["run", config]) == 2
        assert capsys.readouterr().err == (
            "error: em.gamma must be a finite number >= 0 when given\n"
        )
        assert repetitions == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("thetas, shape", [
        ("[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]", "(3, 2)"),
        ("[[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]", "(2, 3)"),
    ])
    def test_explicit_init_of_wrong_shape_exits_2_before_any_repetition(
        self, tmp_path, capsys, monkeypatch, thetas, shape
    ):
        repetitions = _counted(monkeypatch, "run_repetition")
        text = TWO_COMPONENT.replace(
            "  mode: perturb_reference\n  c_ini: 0.1\n",
            f"  mode: explicit\n  thetas: {thetas}\n",
        )
        config = self._write(tmp_path, "cfg.yaml", text + f"output_dir: {tmp_path / 'out'}\n")
        assert main(["run", config]) == 2
        assert capsys.readouterr().err == (
            f"error: init.thetas has shape {shape}, the (k, d) of data is (2, 2)\n"
        )
        assert repetitions == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("rows, message", [
        ("", ": no data rows"),
        ("\n", ": no data rows"),
        ("1.0,2.0,3.0\n1.0,2.0\n", ":3: 2 columns, expected 3"),
        ("1.0,2.0,3.0\n\n1.0,abc,3.0\n", ":4: could not convert string to float: 'abc'"),
        ("1.0,nan,3.0\n", ":2: non-finite entry"),
        # 1e999 parses as inf
        ("1.0,2.0,3.0\n1e999,2.0,3.0\n", ":3: non-finite entry"),
    ])
    def test_bad_data_file_exits_2_naming_path_and_line(self, tmp_path, capsys, rows, message):
        data = self._write(tmp_path, "data.csv", "x_0,x_1,y\n" + rows)
        config = self._write(
            tmp_path,
            "cfg.yaml",
            f"data:\n  file: {data}\nloss:\n  family: ridge\n  lam: 0.001\n"
            f"em:\n  iterations: 5\nreference: multistart\noutput_dir: {tmp_path / 'out'}\n",
        )
        assert main(["run", config]) == 2
        assert capsys.readouterr().err == f"error: {data}{message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("genspec, lines, message", [
        (
            "d: 2\nn: 10\n", "em:\n  iterations: 15\n  resample: true\n",
            "em.resample takes one fold per iteration: em.iterations=15 exceeds "
            "the 10 rows of {source}",
        ),
        (
            "d: 2\nn: 60\n", "em:\n  iterations: 5\ninit:\n  mode: explicit\n"
            "  thetas: [[1.0, 0.0, 0.0]]\n",
            "init.thetas has shape (1, 3), the (k, d) of {source} is (1, 2)",
        ),
        (
            "d: 3\nn: 60\n",
            "em:\n  iterations: 5\nchecks:\n  brute_force: true\nrepetitions: 3\n",
            "checks.brute_force on {source}: brute force restricted to d <= 2 and k <= 2",
        ),
    ], ids=["fewer_rows_than_folds", "thetas_of_other_d", "brute_force_at_d3"])
    def test_file_data_checked_before_certify_and_reference(
        self, tmp_path, capsys, monkeypatch, genspec, lines, message
    ):
        """Generated data, and the same data read from a file, fail with one
        message apart from the source, before certify or any reference."""
        genspec = "kind: generative_mlr\nk: 1\n" + genspec
        path = tmp_path / "data.csv"
        gen = self._write(tmp_path, "gen.yaml", "seed: 4\n" + genspec)
        assert main(["gen", gen, "-o", str(path)]) == 0
        capsys.readouterr()
        certified = _counted(monkeypatch, "certify")
        references = _counted(monkeypatch, "_multistart_reference")
        repetitions = _counted(monkeypatch, "run_repetition")
        for source, data in (("data", textwrap.indent(genspec, "  ")), (path, f"  file: {path}\n")):
            config = self._write(
                tmp_path,
                "cfg.yaml",
                f"data:\n{data}loss:\n  family: ridge\n  lam: 0.001\n{lines}"
                f"reference: multistart\noutput_dir: {tmp_path / 'out'}\n",
            )
            assert main(["run", config]) == 2
            assert capsys.readouterr().err == f"error: {message.format(source=source)}\n"
            # generated data fails validation; a file fails as repetition 0 reads it
            assert len(repetitions) == (source != "data")
        assert certified == [] and references == []
        assert not (tmp_path / "out").exists()

    def test_bad_config_exits_2(self, tmp_path):
        config = self._write(tmp_path, "bad.yaml", "data: 3\n")
        assert main(["run", config]) == 2

    def test_missing_file_exits_2(self):
        assert main(["run", "/nonexistent/config.yaml"]) == 2

    @pytest.mark.parametrize("command", ["run", "gen", "bounds"])
    @pytest.mark.parametrize("unreadable", ["malformed_yaml", "directory"])
    def test_unreadable_input_exits_2_with_one_error_line(
        self, tmp_path, capsys, command, unreadable
    ):
        if unreadable == "directory":
            path = str(tmp_path)
        else:
            path = self._write(tmp_path, "bad.yaml", "data: [1, 2\nloss: {family: ridge\n")
        output = ["-o", str(tmp_path / "data.csv")] if command == "gen" else []
        assert main([command, path, *output]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("edits, message", [
        ([("beta: 10.0", 'beta: "inf"')], "checks.lemmas requires a finite em.beta"),
        (
            [("n: 400", "n: 10"), ("resample: false", "resample: true")],
            "em.resample takes one fold per iteration: em.iterations=15 exceeds the 10 rows of data",
        ),
        # each repetition sets the fold seed; it is not a config key
        ([("resample: false", "resample: false\n  seed: 1")], "unknown keys in em: seed"),
        # certify() takes the radius from the data; it is not a config key
        ([("lam: 0.001", "lam: 0.001\n  domain_radius: 2")], "unknown keys in loss: domain_radius"),
        # certify() returns m and M; they are not config keys
        ([("lam: 0.001", "lam: 0.001\n  m: 1")], "unknown keys in loss: m"),
        # repetition r generates its data with seed + r
        ([("n: 400", "n: 400\n  seed: 5")], "unknown keys in data: seed"),
        # a key that the rest of its section makes the run ignore
        (
            [("lam: 0.001", "lam: 0.001\n  link: tanh")],
            "loss.link is read only by family glm, not ridge",
        ),
        (
            [("c_ini: 0.1", "c_ini: 0.1\n  radius: 0.5")],
            "init.radius is read only by mode random_ball, not perturb_reference",
        ),
        (
            [("c_ini: 0.1", "c_ini: 0.1\n  thetas: [[1.0, 0.0], [-1.0, 0.0]]")],
            "init.thetas on generated data is read only by mode explicit, not perturb_reference",
        ),
        ([("family: ridge", "family: glm\n  link: softplus")],
         "loss.link must be one of ['identity', 'sigmoid', 'tanh']"),
        (
            [("family: ridge", "family: plain_hinge")],
            "loss.family must be one of ('ridge', 'logistic', 'squared_hinge', 'glm'), "
            "got 'plain_hinge'",
        ),
        (
            [("mode: perturb_reference\n  c_ini: 0.1", "mode: random_ball\n  c_ini: 0.1\n"
              "  radius: 0.5")],
            "init.c_ini is read only by mode perturb_reference, not random_ball",
        ),
        (
            [("kind: generative_mlr", "kind: agnostic_piecewise")],
            "data.noise_sigma is read only by kind generative_mlr, not agnostic_piecewise",
        ),
        (
            [("n: 400", "n: 400\n  perturb_amplitude: 0.3")],
            "data.perturb_amplitude is read only by kind agnostic_piecewise, not generative_mlr",
        ),
        (
            [("n: 400", "n: 400\n  t_dof: 9")],
            "data.t_dof is read only by covariate student_t, not uniform_ball",
        ),
        (
            [("n: 400", "n: 400\n  truth_scale: 7.0")],
            "data.truth_scale is read only by the default truth, not a given truth",
        ),
        # floats that would fail only once a repetition runs, or never
        ([("cov_scale: 1.5", "cov_scale: 0.0")], "data.cov_scale must be > 0, got 0.0"),
        ([("cov_scale: 1.5", "cov_scale: -1.5")], "data.cov_scale must be > 0, got -1.5"),
        ([("cov_scale: 1.5", "cov_scale: inf")], "data.cov_scale must be finite, got inf"),
        ([("noise_sigma: 0.0", "noise_sigma: inf")], "data.noise_sigma must be finite, got inf"),
        ([("margin: 1.69", "margin: inf")], "data.margin must be finite, got inf"),
        (
            [("truth: [[1.0, 0.0], [-1.0, 0.0]]", "truth_scale: inf")],
            "data.truth_scale must be finite, got inf",
        ),
        (
            [("truth: [[1.0, 0.0], [-1.0, 0.0]]", "truth_scale: 0.0")],
            "data.truth_scale must be > 0, got 0.0",
        ),
        (
            [("kind: generative_mlr", "kind: agnostic_piecewise"),
             ("noise_sigma: 0.0", "perturb_amplitude: inf")],
            "data.perturb_amplitude must be finite, got inf",
        ),
        ([("lam: 0.001", "lam: inf")], "loss.lam must be finite and nonnegative, got inf"),
        (
            [("mode: perturb_reference\n  c_ini: 0.1", "mode: random_ball\n  radius: inf")],
            "init.radius must be finite, got inf",
        ),
        ([("noise_sigma: 0.0", "noise_sigma: -1.0")], "data.noise_sigma must be >= 0, got -1.0"),
        (
            [("n: 400", "n: 400\n  mix_weights: [.nan, .nan]")],
            "data.mix_weights must be a k-simplex vector, got (nan, nan)",
        ),
    ])
    def test_late_failing_configs_exit_2_before_any_repetition(
        self, tmp_path, capsys, monkeypatch, edits, message
    ):
        text = TWO_COMPONENT + "checks:\n  lemmas: true\n"
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        with pytest.raises(ConfigError, match=re.escape(message)):
            validate_config(text)
        repetitions = _counted(monkeypatch, "run_repetition")
        config = self._write(tmp_path, "cfg.yaml", text + f"output_dir: {tmp_path / 'out'}\n")
        assert main(["run", config]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert repetitions == []
        assert not (tmp_path / "out").exists()
