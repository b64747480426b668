"""Each benchmark workload's outputs pass the benchmark's own output checks.

``perfbench/run.py`` builds every workload config and ``perfbench/outputs.py``
verifies a run's outputs; both are loaded read-only from their files, as
``test_trace_targets.py`` loads ``spans.py``.  A change whose outputs the
benchmark would count as failed fails here first.
"""
import importlib.util
import re
import sys
from pathlib import Path

import pytest
import yaml

from softmix.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# run.py imports its sibling modules by their bare names
sys.path.insert(0, str(PERFBENCH))
try:
    run = _load("run")
finally:
    sys.path.remove(str(PERFBENCH))
outputs = _load("outputs")

_REP = re.compile(r"^rep \d+ .* bound=(\S+) within_bound=(\S+) ")


# some workloads have delta <= epsilon by design; the run says so with a UserWarning
@pytest.mark.filterwarnings("ignore:separation delta:UserWarning")
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_outputs_pass_the_benchmark_checks(name, seed, tmp_path, capsys):
    doc = run.load_config(name, seed, False)
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(doc, sort_keys=False))
    out = tmp_path / "out"
    rc = main(["run", str(config), "-o", str(out)])
    capsys.readouterr()
    verdict = outputs.verify_outputs(out, run.shape_of(doc), run.WORKLOADS[name]["accuracy"], rc)
    assert verdict.failed == 0, verdict.problems
    reps = [_REP.match(line) for line in (out / "report.txt").read_text().splitlines()]
    verdicts = [m.groups() for m in reps if m]
    assert len(verdicts) == run.shape_of(doc)["repetitions"]
    # a bound that was not evaluated is not printed as a number
    unevaluated = [bound for bound, within in verdicts if within == "None"]
    assert unevaluated == ["n/a"] * len(unevaluated)
