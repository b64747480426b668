"""Two guards on what runs call.

Every layer the benchmark requires still fires on every workload.
``perfbench/spans.py`` times a run by replacing softmix functions at every
module binding that refers to them, and ``perfbench/run.py`` fails a traced
run in which a span of ``run.must_fire`` never fired.  A refactor that stops
calling one of them through such a binding would fail the benchmark, so
``test_every_benchmarked_layer_fires`` wraps the same bindings with counters
and runs each workload's smoke config as the benchmark's child does.  Both
files are loaded read-only from ``perfbench/``, as ``test_bench_outputs.py``
loads them.

Every function written in ``src/softmix`` is called by a run.
``test_every_package_function_is_called_by_a_run`` records calls with
``sys.setprofile`` over a fixed set of small ``softmix`` runs: the smoke
configs, the convergence demo, ``softmix gen`` and a run on its file, a
``glm`` run per link, a squared-hinge run, a logistic multistart run and a
hard-min run.  The functions are those written with ``def`` and the lambdas
of the ``losses.FAMILIES`` and ``losses.LINKS`` tables.  A function that
none of them reaches fails it, unless ``NOT_CALLED_BY_A_RUN`` gives the
reason it stays.
"""
import functools
import importlib
import importlib.util
import inspect
import pkgutil
import re
import sys
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import pytest
import yaml

import softmix.cli
import softmix.em
import softmix.experiment
import softmix.losses

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
            # step out of it, one per repetition for the E-step of the
            # reference's fixed-point residual, and the decomposition check's own
            matrices = shape["repetitions"] * (shape["iterations"] + 2)
            matrices += "decomposition" in shape["checks"]
            assert counts["softmin.weight_matrix"] == matrices, name


@pytest.mark.filterwarnings("ignore:separation delta:UserWarning")
def test_merging_cuts_the_reference_e_m_steps(tmp_path, monkeypatch, capsys):
    """On the agnostic_multistart smoke config, the runs that stop at a fixed
    point already found take at most 0.8 of the E/M steps that taking every
    run to the tolerance takes; the report's ``em_steps`` are the M-steps
    counted."""
    config = tmp_path / "agnostic_multistart.yaml"
    config.write_text(yaml.safe_dump(run.load_config("agnostic_multistart", 0, True)))

    def reference_steps(radius, out):
        calls = []
        m_step = softmix.em.m_step

        def counted(*args):
            calls.append(None)
            return m_step(*args)

        with monkeypatch.context() as patch:
            patch.setattr(softmix.experiment, "MERGE_RADIUS", radius)
            patch.setattr(softmix.em, "m_step", counted)
            assert softmix.cli.main(["run", str(config), "-o", str(out)]) == 0
        capsys.readouterr()
        report = (out / "report.txt").read_text()
        reported = re.findall(r"^  reference: .* em_steps=(\d+)$", report, flags=re.M)
        assert sum(map(int, reported)) == len(calls)
        return len(calls)

    merged = reference_steps(softmix.experiment.MERGE_RADIUS, tmp_path / "merged")
    assert merged <= 0.8 * reference_steps(0.0, tmp_path / "full")


@pytest.mark.filterwarnings("ignore:separation delta:UserWarning")
def test_search_forms_only_the_e_steps_it_reads(tmp_path, monkeypatch, capsys):
    """On the agnostic_multistart smoke config, each multistart search forms
    an E-step at each start and after each M-step, except the last M-step of
    a run that merged: RESTARTS + em_steps - merged per reference, read from
    the report.  Each E-step evaluates the ridge family's phi once, and
    nothing else in the search evaluates it."""
    config = tmp_path / "agnostic_multistart.yaml"
    config.write_text(yaml.safe_dump(run.load_config("agnostic_multistart", 0, True)))
    ridge = softmix.losses.FAMILIES["ridge"]
    search = softmix.experiment._multistart_reference
    e_steps, searching = [], [False]  # phi's calls per search

    def phi(*args):
        if searching[0]:
            e_steps[-1] += 1
        return ridge.phi(*args)

    def counted(*args):
        e_steps.append(0)
        searching[0] = True
        try:
            return search(*args)
        finally:
            searching[0] = False

    monkeypatch.setitem(softmix.losses.FAMILIES, "ridge", replace(ridge, phi=phi))
    monkeypatch.setattr(softmix.experiment, "_multistart_reference", counted)
    assert softmix.cli.main(["run", str(config), "-o", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    report = (tmp_path / "out" / "report.txt").read_text()
    lines = re.findall(r"^  reference: .* merged=(\d+) em_steps=(\d+)$", report, flags=re.M)
    expected = [softmix.experiment.RESTARTS + int(steps) - int(merged) for merged, steps in lines]
    assert e_steps == expected
    assert any(int(merged) for merged, _ in lines)


SRC = Path(softmix.cli.__file__).resolve().parent

# functions written in src/softmix that no run calls, each kept for its reason
NOT_CALLED_BY_A_RUN = {
    "softmix.data.ParamSet.__eq__": "frozen configs compare GenSpec.truth and InitSpec.thetas "
    "through it, and serialize's round trip relies on that",
    "softmix.data.ParamSet.__repr__": "failure messages print it, such as hypothesis's "
    "ParamSet(k=1, d=1)",
}

SMALL = {"kind": "generative_mlr", "k": 2, "d": 2, "n": 300, "covariate": "uniform_ball",
         "cov_scale": 1.5, "truth": [[1.0, 0.0], [-1.0, 0.0]]}


def _table_functions():
    """``(name, function)`` for each field of the ``losses.FAMILIES`` and
    ``losses.LINKS`` records, such as ``softmix.losses.FAMILIES['ridge'].phi``:
    the lambdas written there have no name of their own."""
    for table in ("FAMILIES", "LINKS"):
        for key, record in getattr(softmix.losses, table).items():
            for field in fields(record):
                yield f"softmix.losses.{table}[{key!r}].{field.name}", getattr(record, field.name)


def _written_functions():
    """The qualified name of every function, method and property defined in
    ``src/softmix``, and of every function in the loss tables, by code
    object.  The methods that ``dataclass`` writes are compiled from a
    string, so their ``co_filename`` leaves them out."""
    tables = {fn.__code__: name for name, fn in _table_functions() if inspect.isfunction(fn)}
    found = []
    for info in pkgutil.iter_modules([str(SRC)]):
        module = importlib.import_module(f"softmix.{info.name}")
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                for member in vars(obj).values():
                    if isinstance(member, (staticmethod, classmethod)):
                        found.append(member.__func__)
                    elif isinstance(member, property):
                        found += [member.fget, member.fset, member.fdel]
                    else:
                        found.append(member)
            else:
                found.append(obj)
    written = {
        fn.__code__: f"{fn.__module__}.{fn.__qualname__}" for fn in found
        if inspect.isfunction(fn) and Path(fn.__code__.co_filename).resolve().parent == SRC
    }
    return {**tables, **written}


def _runs(tmp_path):
    """The runs whose calls the guard records, as ``(name, config document)``;
    the file-data run reads a dataset that ``softmix gen`` writes."""
    for name in sorted(run.WORKLOADS):
        yield name, run.load_config(name, 0, True)
    yield "convergence_demo", yaml.safe_load(
        (PERFBENCH.parent / "scripts" / "convergence_demo.yaml").read_text())
    genspec = tmp_path / "genspec.yaml"
    genspec.write_text(yaml.safe_dump({**SMALL, "seed": 3}))
    data = tmp_path / "data.csv"
    assert softmix.cli.main(["gen", str(genspec), "-o", str(data)]) == 0
    yield "file_data", {
        "data": {"file": str(data)},
        "loss": {"family": "ridge", "lam": 1e-3},
        "em": {"iterations": 5, "beta": 5.0},
        "init": {"mode": "explicit", "thetas": [[0.5, 0.0], [-0.5, 0.0]]},
        "reference": "multistart",
    }
    # lam = 6 lets the tanh and sigmoid links certify on this data, and keeps
    # the multistart searches short; the logistic and squared-hinge searches
    # take the M-step's Newton branch
    losses = [{"family": "glm", "link": link} for link in ("identity", "tanh", "sigmoid")]
    losses += [{"family": "squared_hinge"}, {"family": "logistic"}]
    for loss in losses:
        signed = loss["family"] in ("squared_hinge", "logistic")
        yield "_".join(loss.values()), {
            "data": {**SMALL, "kind": "generative_logistic"} if signed else SMALL,
            "loss": {**loss, "lam": 6.0},
            "em": {"iterations": 5, "beta": 2.0},
            "reference": "multistart",
        }
    yield "hard_min", {
        "data": SMALL,
        "loss": {"family": "ridge", "lam": 1e-3},
        "em": {"iterations": 5, "beta": "inf"},
        "init": {"mode": "random_ball", "radius": 0.5},
    }


@pytest.mark.filterwarnings("ignore:separation delta:UserWarning")
def test_every_package_function_is_called_by_a_run(tmp_path, capsys):
    """Every function written in ``src/softmix`` is called by one of a fixed
    set of small runs, or is on ``NOT_CALLED_BY_A_RUN`` with its reason: a
    helper that only tests call belongs under ``tests/``."""
    written = _written_functions()
    assert set(NOT_CALLED_BY_A_RUN) <= set(written.values())
    reached = set()

    def record(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        for name, doc in _runs(tmp_path):
            config = tmp_path / f"{name}.yaml"
            config.write_text(yaml.safe_dump(doc, sort_keys=False))
            assert softmix.cli.main(["run", str(config), "-o", str(tmp_path / name)]) == 0, name
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    missed = sorted(name for code, name in written.items()
                    if code not in reached and name not in NOT_CALLED_BY_A_RUN)
    assert not missed, f"no run calls {', '.join(missed)}"
