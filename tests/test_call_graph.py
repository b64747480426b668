"""Every layer the benchmark requires still fires on every workload.

``perfbench/spans.py`` times a run by replacing softmix functions at every
module binding that refers to them, and ``perfbench/run.py`` fails a traced
run in which a span of ``run.must_fire`` never fired.  A refactor that stops
calling one of them through such a binding would fail the benchmark, so this
test wraps the same bindings with counters and runs each workload's smoke
config as the benchmark's child does.  Both files are loaded read-only from
``perfbench/``, as ``test_bench_outputs.py`` loads them.
"""
import functools
import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest
import yaml

import softmix.cli

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
spans = _load("spans")


def _count_calls(monkeypatch, counts):
    """Wrap every span target at each ``softmix`` module attribute bound to it."""
    modules = [m for n, m in sys.modules.items() if n == "softmix" or n.startswith("softmix.")]
    for name, module_name, attr, _, _ in spans.TARGETS:
        original = getattr(importlib.import_module(module_name), attr)

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        wrapper = functools.wraps(original)(counted)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, wrapper)


# some workloads have delta <= epsilon by design; the run says so with a UserWarning
@pytest.mark.filterwarnings("ignore:separation delta:UserWarning")
def test_every_benchmarked_layer_fires(tmp_path, monkeypatch, capsys):
    counts = Counter()
    _count_calls(monkeypatch, counts)
    for name in sorted(run.WORKLOADS):
        doc = run.load_config(name, 0, True)
        config = tmp_path / f"{name}.yaml"
        config.write_text(yaml.safe_dump(doc, sort_keys=False))
        counts.clear()
        assert softmix.cli.main(["run", str(config), "-o", str(tmp_path / name)]) == 0
        capsys.readouterr()
        fired = {span for span, calls in counts.items() if calls}
        assert sorted(run.must_fire(doc) - fired) == [], name
        shape = run.shape_of(doc)
        if doc["reference"] == "truth":
            # a step per iteration of each repetition, and one for the decomposition check
            steps = shape["repetitions"] * shape["iterations"]
            steps += "decomposition" in shape["checks"]
            assert counts["em.gradient_em_step"] == steps, name
            # one full-data weight matrix per iterate, which also weights the
            # step out of it, and the decomposition check's own
            matrices = shape["repetitions"] * (shape["iterations"] + 1)
            matrices += "decomposition" in shape["checks"]
            assert counts["softmin.weight_matrix"] == matrices, name
