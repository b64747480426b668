#!/usr/bin/env python3
"""Error-floor sweep: measured plateau vs the predicted additive floor.

Sweeps the label-perturbation amplitude of the agnostic generator (which
drives the misspecification constants), runs the experiment driver at each
level, and compares the measured final-distance plateau against the theory
floor zeta / (1 - r) and the full recursion-accurate bound.  Repetitions run
in order in one process, as in ``softmix run``.

Usage: python scripts/error_floor_sweep.py [output_csv]
"""
import csv
import dataclasses
import os
import sys
import textwrap

import numpy as np

from softmix.config import validate_config
from softmix.experiment import run_experiment

AMPLITUDES = (0.0, 0.01, 0.02, 0.05, 0.1, 0.2)

CONFIG = validate_config(
    textwrap.dedent(
        """
        data:
          kind: agnostic_piecewise
          k: 2
          d: 4
          n: 6000
          covariate: uniform_ball
          cov_scale: 1.5
          margin: 1.44
          truth: [[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]]
        loss:
          family: ridge
          lam: 1.0e-3
        em:
          iterations: 30
          beta: 10.0
          resample: true
        init:
          mode: perturb_reference
          c_ini: 0.05
        repetitions: 10
        seed: 200
        """
    )
)


def run_level(config, amp: float):
    """Per-repetition final distances, and the predicted bounds and floor
    limits of the repetitions whose bound was evaluated (``within_bound`` is
    not None, the rule ``report.txt`` counts by), at amplitude ``amp``."""
    data = dataclasses.replace(config.data, perturb_amplitude=amp)
    report = run_experiment(dataclasses.replace(config, data=data), write=False)
    floors = [r.trace.final_distance() for r in report.repetitions]
    evaluated = [r.quantities for r in report.repetitions if r.within_bound is not None]
    bounds = [q.bound for q in evaluated]
    limits = [q.zeta / (1.0 - q.contraction) for q in evaluated]
    return floors, bounds, limits


def main() -> int:
    out = sys.argv[1] if len(sys.argv) > 1 else "out/error_floor_sweep.csv"
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    rows = []
    print(f"{'amp':>6} {'median floor':>13} {'median bound':>13} {'floor limit':>12}")
    for amp in AMPLITUDES:
        floors, bounds, limits = run_level(CONFIG, amp)
        med_floor = float(np.median(floors))
        med_bound = float(np.median(bounds)) if bounds else float("nan")
        med_limit = float(np.median(limits)) if limits else float("nan")
        print(f"{amp:>6.3f} {med_floor:>13.4e} {med_bound:>13.4e} {med_limit:>12.4e}")
        rows.append((amp, med_floor, med_bound, med_limit))
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["amplitude", "median_floor", "median_bound", "floor_limit"])
        writer.writerows(rows)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
