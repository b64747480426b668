#!/usr/bin/env python3
"""Convergence demo: noiseless 2-component mixed linear regression.

Runs gradient EM with re-sampling on a well-separated instance over several
seeds, prints the fitted geometric rate and final aligned distance per
repetition, and writes trace/logdist CSVs suitable for plotting the
log-distance curves.

Usage: python scripts/convergence_demo.py [output_dir]
"""
import sys
import textwrap

from softmix.config import validate_config
from softmix.experiment import run_experiment

CONFIG = textwrap.dedent(
    """
    data:
      kind: generative_mlr
      k: 2
      d: 4
      n: 4000
      noise_sigma: 0.0
      cov_scale: 10.0
      margin: 2.0
      truth: [[0.3, 0.0, 0.0, 0.0], [-0.3, 0.0, 0.0, 0.0]]
    loss:
      family: ridge
      lam: 1.0e-4
    em:
      iterations: 20
      beta: 10.0
      resample: true
    init:
      mode: perturb_reference
      c_ini: 0.2
    checks:
      gradient_oracle: true
      decomposition: true
    repetitions: 10
    seed: 100
    """
)


def main() -> int:
    output_dir = sys.argv[1] if len(sys.argv) > 1 else "out/convergence-demo"
    config = validate_config(CONFIG + f"output_dir: {output_dir}\n")
    report = run_experiment(config)
    print(f"{len(report.repetitions)} repetitions (seed, rate, final distance):")
    for rep in report.repetitions:
        trace = rep.trace
        rate = "n/a" if trace.fitted_rate is None else f"{trace.fitted_rate:.3f}"
        print(f"  seed={rep.seed}  rate={rate}  final={trace.final_distance():.3e}")
    for check in report.checks:
        print(check.line())
    print(f"CSV outputs in {output_dir} (plot logdist.csv: t vs log10 distance)")
    return 1 if report.failed_checks else 0


if __name__ == "__main__":
    sys.exit(main())
