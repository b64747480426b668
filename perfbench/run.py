"""softmix benchmark: pinned ``softmix run`` configs, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Each ``softmix run`` happens in a fresh child interpreter (perfbench/child.py),
started one at a time under a timeout, with the program's defaults:
SOFTMIX_WORKERS is removed from the child's environment and the BLAS thread
count is left alone.  Children are started until the next one would end after
``--seconds``.  Each child's outputs are verified by properties any correct
build meets (perfbench/outputs.py).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians over
the children.  ``--trace 1`` alternates untraced and traced children; the
traced ones wrap softmix's public functions from outside the program
(perfbench/spans.py) and give the per-layer metrics.  Either mode prints
every metric it measured, the machine block and the trace.csv digest (for
information only), then the result as the last line of JSON.

``--smoke`` runs every workload, shrunk to seconds, once in each mode and
checks that every metric named in BENCHMARK.json is emitted with its unit.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

from outputs import failed_run, verify_outputs
from spans import SPAN_NAMES, self_times

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench-work"

# accuracy: upper limit on every repetition's final aligned distance, set
# with a margin of 1.4x or more over the largest final measured on seeds
# 0-59 (errfloor_resample: 0.018), 0-15 (agnostic_multistart: 0.61) and 0-11
# (logistic_fullbatch: 0.71).  smoke: overrides that shrink the workload to
# seconds while keeping its shape.
WORKLOADS = {
    "errfloor_resample": {
        "accuracy": 0.05,
        "smoke": {"data": {"n": 600}, "repetitions": 2},
    },
    "agnostic_multistart": {
        "accuracy": 1.5,
        "smoke": {"data": {"n": 300}},
    },
    "logistic_fullbatch": {
        "accuracy": 1.0,
        "smoke": {"data": {"n": 2000}, "em": {"iterations": 10}},
    },
}

SETUP_PROBES = 2  # set-up-only children per run, besides the warm-up one
CHILD_TIMEOUT_S = 60.0
HARD_LIMIT_S = 170.0  # whole invocation, under the 180 s allowed
MIN_COVERAGE = 0.95  # top-level spans must cover this share of traced run_s

# Times of layers that some workload never runs.  There they read exactly 0.0
# on every run, which is no measurement, so they are printed but BENCHMARK.json
# declares only their call counts.
UNDECLARED = (
    "em.partition_dataset.self_s",
    "verify.check_lemma_bounds.self_s",
    "verify.step_decomposition.self_s",
    "verify.finite_diff_gradient.self_s",
    "experiment.multistart_reference.total_s",
)

# spans that run on every workload; the rest depend on the config
_CONDITIONAL = {
    "em.partition_dataset": lambda doc: doc["em"].get("resample", True),
    "losses.default_step_size": lambda doc: doc["em"].get("gamma") is None,
    "theory.theorem_quantities": lambda doc: not math.isinf(float(doc["em"].get("beta", 1.0))),
    "experiment.multistart_reference": lambda doc: doc.get("reference") == "multistart",
    "verify.check_lemma_bounds": lambda doc: "lemmas" in _checks(doc),
    "verify.step_decomposition": lambda doc: "decomposition" in _checks(doc),
    "verify.finite_diff_gradient": lambda doc: "gradient_oracle" in _checks(doc),
}


class HarnessError(RuntimeError):
    """The benchmark itself cannot produce a trustworthy result."""


def _checks(doc):
    return [name for name, on in (doc.get("checks") or {}).items() if on]


def _merge(doc, overrides):
    for key, value in overrides.items():
        if isinstance(value, dict):
            _merge(doc.setdefault(key, {}), value)
        else:
            doc[key] = value


def load_config(workload, seed, smoke):
    with open(HERE / "workloads" / f"{workload}.yaml") as fh:
        doc = yaml.safe_load(fh)
    if "seed" in doc:
        raise HarnessError(f"{workload}.yaml must not pin a seed")
    doc["seed"] = seed
    if smoke:
        _merge(doc, WORKLOADS[workload]["smoke"])
    return doc


def shape_of(doc):
    return {
        "repetitions": doc.get("repetitions", 1),
        "iterations": doc["em"]["iterations"],
        "k": doc["data"]["k"],
        "checks": _checks(doc),
    }


def must_fire(doc):
    return {n for n in SPAN_NAMES if _CONDITIONAL.get(n, lambda _: True)(doc)}


def _kill_session(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Child:
    """Starts perfbench/child.py and waits for it under a timeout."""

    def __init__(self, config, work):
        self.config, self.work = config, work
        self.env = {k: v for k, v in os.environ.items() if k != "SOFTMIX_WORKERS"}
        self.count = 0

    def run(self, timeout, *flags):
        """Returns ``(result or None, out_dir, why it failed, wall time)``."""
        self.count += 1
        result = self.work / f"result{self.count}.json"
        out = self.work / f"out{self.count}"
        cmd = [sys.executable, str(HERE / "child.py"), str(self.config), str(out), str(result)]
        started = time.monotonic()
        proc = subprocess.Popen(cmd + list(flags), env=self.env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            _kill_session(proc.pid)
            proc.communicate()
            return None, out, f"timeout after {timeout:.0f} s", time.monotonic() - started
        wall = time.monotonic() - started
        _kill_session(proc.pid)  # anything the child left behind
        if not result.exists():
            tail = err.decode(errors="replace").strip().splitlines()[-3:]
            return None, out, f"child exited {proc.returncode}: {' | '.join(tail)}", wall
        data = json.loads(result.read_text())
        data["setup_s"] = data["ready"] - started
        return data, out, None, wall


def _median(values):
    return statistics.median(values) if values else math.nan


def _tail(samples):
    """Highest of the p50/p75/p90/p95/p99 with ten samples beyond it
    (p50 when there are fewer than twenty), as ``(value, percentile)``."""
    n = len(samples)
    pct = max([q for q in (50, 75, 90, 95, 99) if n * (100 - q) >= 1000] or [50])
    if n == 1:
        return samples[0], pct
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1], pct


def layer_metrics(traced, doc, untraced_run_s):
    """Per-layer metrics from the span files of the traced children."""
    per_child, rep_spans, coverage = [], [], []
    counts = None
    for data in traced:
        with open(data["spans"]) as fh:
            dump = json.load(fh)
        totals, top = self_times(dump["spans"])
        coverage.append(top / data["run_s"])
        if coverage[-1] < MIN_COVERAGE:
            raise HarnessError(f"top-level spans cover {top:.3f} s of run_s {data['run_s']:.3f} s")
        calls = {n: totals.get(n, (0,))[0] for n in SPAN_NAMES}
        exact = (calls, dump["counts"])
        if counts is not None and exact != counts:
            raise HarnessError("call or work counts differ between traced runs of one config")
        counts = exact
        missing = sorted(n for n in must_fire(doc) if calls[n] == 0)
        if missing:
            raise HarnessError(f"wrappers never fired: {', '.join(missing)}")
        per_child.append(totals)
        rep_spans += [e - s for n, s, e, _ in dump["spans"] if n == "experiment.run_repetition"]

    calls, work = counts
    reps = doc.get("repetitions", 1)
    m = {}
    for name in SPAN_NAMES:
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.total_s"] = (_median([c.get(name, (0, 0.0, 0.0))[1] for c in per_child]), "s")
        m[f"{name}.self_s"] = (_median([c.get(name, (0, 0.0, 0.0))[2] for c in per_child]), "s")
        m[f"{name}.calls_per_rep"] = (calls[name] / reps, "count/rep")
    for counter in ("datagen.samples", "softmin.loss_rows", "em.step_rows"):
        m[counter] = (work.get(counter, 0), "count")
    gen_s, step_s = m["datagen.generate.total_s"][0], m["em.gradient_em_step.total_s"][0]
    m["datagen.samples_per_s"] = (m["datagen.samples"][0] / gen_s if gen_s else 0.0, "1/s")
    m["em.step_rows_per_s"] = (m["em.step_rows"][0] / step_s if step_s else 0.0, "1/s")
    # per repetition, over every traced child, rather than per child
    tail, pct = _tail(rep_spans)
    m["experiment.run_repetition.total_s"] = (_median(rep_spans), "s")
    m["experiment.run_repetition.total_s.tail"] = (tail, "s")
    m["experiment.run_repetition.tail_pct"] = (pct, "%")
    m["experiment.run_repetition.samples"] = (len(rep_spans), "count")
    m["trace.overhead_s"] = (_median([d["run_s"] for d in traced]) - untraced_run_s, "s")
    m["trace.coverage"] = (min(coverage), "frac")
    for module in dict.fromkeys(n.split(".")[0] for n in SPAN_NAMES):
        m[f"layer.{module}.self_s"] = (
            sum(m[f"{n}.self_s"][0] for n in SPAN_NAMES if n.startswith(module + ".")), "s")
    return m


def measure(workload, seed, seconds, trace, smoke=False, probes=SETUP_PROBES):
    """Run one workload for ``seconds``; returns (result, metrics, info)."""
    begin = time.monotonic()
    deadline = begin + seconds
    doc = load_config(workload, seed, smoke)
    shape = shape_of(doc)
    accuracy = math.inf if smoke else WORKLOADS[workload]["accuracy"]
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config = work / "config.yaml"
        config.write_text(yaml.safe_dump(doc, sort_keys=False))
        child = Child(config, work)

        def budget():
            return min(CHILD_TIMEOUT_S, begin + HARD_LIMIT_S - time.monotonic())

        # the warm-up child also compiles bytecode, which users pay once
        setup = []
        for i in range(probes + 1):
            data, _, why, _ = child.run(budget(), "--setup-only", *(["--machine"] if i == 0 else []))
            if data is None:
                raise HarnessError(f"set-up probe failed: {why}")
            if i == 0:
                machine = data["machine"]
            else:
                setup.append(data["setup_s"])

        runs = {False: [], True: []}
        walls = {False: [], True: []}
        attempted = failed = 0
        problems, digests = [], set()
        while True:
            traced = trace and len(walls[True]) < len(walls[False])
            started = walls[False] and (walls[True] or not trace)
            if started and time.monotonic() + _median(walls[traced]) > deadline:
                break
            if budget() <= 1.0:
                break
            flags = ["--trace", str(work / f"spans{child.count + 1}.json")] if traced else []
            data, out, why, wall = child.run(budget(), *flags)
            walls[traced].append(wall)
            if data is None:
                verdict = failed_run(shape, why)
            else:
                verdict = verify_outputs(out, shape, accuracy, data["rc"])
                setup.append(data["setup_s"])
                if traced:
                    data["spans"] = flags[1]
                runs[traced].append(data)
                digests.add(verdict.digest)
            shutil.rmtree(out, ignore_errors=True)
            attempted += verdict.attempted
            failed += verdict.failed
            problems += verdict.problems
        if not runs[False] or (trace and not runs[True]):
            raise HarnessError(f"no run finished: {problems[:3]}")

        plain = runs[False]
        metrics = {
            "setup_s": (_median(setup), "s"),
            "run_s": (_median([d["run_s"] for d in plain]), "s"),
            "cpu_s": (_median([d["cpu_s"] for d in plain]), "s"),
            "peak_rss_mb": (_median([d["peak_rss_mb"] for d in plain]), "MiB"),
            "failed_frac": (failed / attempted, "frac"),
        }
        if trace:
            metrics.update(layer_metrics(runs[True], doc, metrics["run_s"][0]))
            machine["trace_overhead_s"] = metrics["trace.overhead_s"][0]
        info = {
            "workload": workload,
            "seed": seed,
            "children": {"setup_only": probes + 1, "untraced": len(plain),
                         "traced": len(runs[True])},
            "setup_samples": len(setup),
            "run_s_samples": [round(d["run_s"], 4) for d in plain],
            "machine": machine,
            "trace_csv_sha256": sorted(d for d in digests if d),
            "problems": problems[:10],
        }
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
        return result, metrics, info
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return bench["per_layer" if trace else "end_to_end"]


def select(metrics, trace):
    """The BENCHMARK.json metrics of this mode, checked against the units
    the harness measures them in."""
    out = {}
    for spec in declared_metrics(trace):
        if spec["name"] not in metrics:
            raise HarnessError(f"metric {spec['name']} was not measured")
        value, unit = metrics[spec["name"]]
        if unit != spec["unit"]:
            raise HarnessError(f"metric {spec['name']} is in {unit}, BENCHMARK.json says {spec['unit']}")
        out[spec["name"]] = {"value": value, "unit": unit}
    return out


def report(result, metrics, info, trace):
    names = [m["name"] for m in declared_metrics(False)] + ["failed_frac"]
    if trace:
        names += [m["name"] for m in declared_metrics(True)] + list(UNDECLARED)
        names += ["experiment.run_repetition.samples", "trace.coverage"]
        names += [n for n in metrics if n.startswith("layer.")]
    for name in names:
        value, unit = metrics[name]
        print(f"{name:48s} {value:.6g} {unit}")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({**result, "metrics": select(metrics, trace)}))


def smoke():
    for workload in WORKLOADS:
        for trace in (False, True):
            result, metrics, info = measure(workload, 0, 0.0, trace, smoke=True, probes=1)
            emitted = select(metrics, trace)
            if not result["correct"]:
                raise HarnessError(f"smoke {workload}: {info['problems']}")
            print(f"smoke {workload} trace={int(trace)}: {len(emitted)} metrics, "
                  f"{result['attempted']} attempts, 0 failed")
    print("smoke OK")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "softmix" / "__init__.py").is_file():
            raise HarnessError(f"no softmix source under {ROOT / 'src'}")
        if args.smoke:
            smoke()
        elif args.workload is None:
            parser.error("--workload is required")
        else:
            trace = bool(args.trace)
            report(*measure(args.workload, args.seed, args.seconds, trace), trace)
    except HarnessError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
