"""Config parsing/serialization, the experiment driver, and the CLI."""
import math
import textwrap

import numpy as np
import pytest

from softmix.cli import main
from softmix.config import ConfigError, serialize, validate_config
from softmix.experiment import run_experiment, run_repetition

MINIMAL = textwrap.dedent(
    """
    data:
      kind: generative_mlr
      k: 1
      d: 2
      n: 100
      seed: 3
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
      seed: 11
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


class TestValidateConfig:
    def test_minimal_parses(self):
        cfg = validate_config(MINIMAL)
        assert cfg.gamma is None
        assert cfg.beta == 2.0
        assert cfg.iterations == 10
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
        assert math.isinf(cfg.beta)

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
        with pytest.raises(ConfigError, match="unknown check"):
            validate_config(MINIMAL + "checks:\n  spellcheck: true\n")

    def test_round_trip(self):
        for doc in (MINIMAL, TWO_COMPONENT):
            cfg = validate_config(doc)
            again = validate_config(serialize(cfg))
            assert again == cfg


class TestExperimentDriver:
    def test_default_gamma_recorded(self):
        cfg = validate_config(MINIMAL)
        result = run_repetition(cfg, 0)
        assert result.gamma > 0.0  # 1/(2 * mean smoothness) of the instance

    def test_convex_single_component_converges(self):
        cfg = validate_config(MINIMAL)
        report = run_experiment(cfg, write=False)
        assert report.success_frequency == 1.0
        rep = report.repetitions[0]
        assert rep.fitted_rate is not None and rep.fitted_rate < 1.0
        assert not report.failed_checks

    def test_two_component_within_bound(self):
        cfg = validate_config(TWO_COMPONENT)
        report = run_experiment(cfg, write=False)
        assert len(report.repetitions) == 2
        assert [r.rep for r in report.repetitions] == [0, 1]
        assert report.success_frequency == 1.0
        assert all(r.final_distance < r.initial_distance for r in report.repetitions)

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

    def test_gen_records_format(self, tmp_path):
        genspec = self._write(
            tmp_path, "gen.yaml", "kind: generative_mlr\nk: 2\nd: 2\nn: 30\nseed: 1\n"
        )
        out = tmp_path / "data.rec"
        assert main(["gen", genspec, "-o", str(out), "--format", "records"]) == 0
        assert out.read_text().startswith("# softmix-dataset d=2 n=30")

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

    def test_check_gradients_subcommand(self, tmp_path):
        spec = self._write(tmp_path, "loss.yaml", "family: logistic\nlam: 0.01\nd: 3\n")
        assert main(["check-gradients", spec, "--trials", "50"]) == 0

    def test_check_gradients_unknown_link_exits_2(self, tmp_path):
        spec = self._write(tmp_path, "loss.yaml", "family: glm\nlink: softplus\nlam: 0.1\n")
        assert main(["check-gradients", spec, "--trials", "2"]) == 2

    def test_bounds_subcommand(self, tmp_path, capsys):
        config = self._write(tmp_path, "cfg.yaml", TWO_COMPONENT)
        assert main(["bounds", config]) == 0
        out = capsys.readouterr().out
        assert "predicted_bound" in out and "constants" in out

    def test_bad_config_exits_2(self, tmp_path):
        config = self._write(tmp_path, "bad.yaml", "data: 3\n")
        assert main(["run", config]) == 2

    def test_missing_file_exits_2(self):
        assert main(["run", "/nonexistent/config.yaml"]) == 2
