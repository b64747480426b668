"""Property checks on the outputs of one ``softmix run``.

Any correct build must meet them; none compares bit patterns.  The digest of
``trace.csv`` is returned for information only.
"""
from __future__ import annotations

import csv
import hashlib
import math
import re
from pathlib import Path

_REP = re.compile(r"^rep (\d+) \(seed -?\d+\): .* bound=(\S+) within_bound=")
_CHECK = re.compile(r"^check (\w+): (PASS|FAIL) ")


class Verdict:
    """Attempts and failures of one run: one per repetition, enabled check
    and output file."""

    def __init__(self):
        self.attempted = 0
        self.problems = []
        self.digest = None

    def check(self, ok, problem):
        self.attempted += 1
        if not ok:
            self.problems.append(problem)

    @property
    def failed(self):
        return len(self.problems)


def _read_csv(path, header):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ValueError(f"{path.name}: header {rows[:1]} is not {header}")
    return rows[1:]


def verify_outputs(out_dir, shape, accuracy, rc):
    """Verdict for the outputs in ``out_dir`` of a run that exited with ``rc``.

    ``shape`` holds ``repetitions``, ``iterations``, ``k`` and ``checks`` (the
    enabled check names) of the config that ran.  Every repetition's final
    distance must be finite, at most ``accuracy`` and at most its predicted
    bound where one was evaluated; every enabled check must PASS; the three
    output files must exist and parse.  A nonzero exit that no FAIL check
    explains fails every attempt.
    """
    out = Path(out_dir)
    v = Verdict()
    reps, T, k = shape["repetitions"], shape["iterations"], shape["k"]
    finals, bounds, checks = {}, {}, {}

    try:
        for line in (out / "report.txt").read_text().splitlines():
            if m := _REP.match(line):
                bounds[int(m.group(1))] = None if m.group(2) == "n/a" else float(m.group(2))
            elif m := _CHECK.match(line):
                checks[m.group(1)] = m.group(2)
        ok, why = len(bounds) == reps, f"report.txt lists {len(bounds)} of {reps} repetitions"
    except (OSError, ValueError) as exc:
        ok, why = False, f"report.txt: {exc}"
    v.check(ok, why)

    try:
        rows = _read_csv(out / "trace.csv", ["rep", "t", "j", "distance", "loss"])
        for rep, t, _, dist, loss in rows:
            float(loss)
            if int(t) == T:
                finals[int(rep)] = max(finals.get(int(rep), -math.inf), float(dist))
        ok = len(rows) == reps * (T + 1) * k
        why = f"trace.csv has {len(rows)} rows, expected {reps * (T + 1) * k}"
        v.digest = hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest()
    except (OSError, ValueError) as exc:
        ok, why = False, f"trace.csv: {exc}"
    v.check(ok, why)

    try:
        rows = _read_csv(out / "logdist.csv", ["rep", "t", "log10_max_distance"])
        for rep, t, logd in rows:
            int(rep), int(t), float(logd)
        ok, why = len(rows) == reps * (T + 1), f"logdist.csv has {len(rows)} rows"
    except (OSError, ValueError) as exc:
        ok, why = False, f"logdist.csv: {exc}"
    v.check(ok, why)

    for rep in range(reps):
        final, bound = finals.get(rep, math.nan), bounds.get(rep)
        # the report prints the bound to 6 significant digits
        ok = math.isfinite(final) and final <= accuracy and (
            bound is None or final <= bound * (1 + 1e-5))
        v.check(ok, f"rep {rep}: final={final!r} accuracy target={accuracy} bound={bound}")

    for name in shape["checks"]:
        v.check(checks.get(name) == "PASS", f"check {name}: {checks.get(name, 'missing')}")

    if rc != 0 and "FAIL" not in checks.values():
        v.problems = [f"exit code {rc}"] * v.attempted
    return v


def failed_run(shape, why):
    """Verdict of a run that timed out or died: every attempt failed."""
    v = Verdict()
    for _ in range(shape["repetitions"] + len(shape["checks"]) + 3):
        v.check(False, why)
    return v
