"""Command line interface.

Subcommands:

* ``run <config.yaml>``            -- full experiment, writes report + CSVs
* ``gen <genspec.yaml> -o <file>`` -- generate a dataset to CSV
* ``check-gradients <loss.yaml>``  -- randomized finite-difference audit
* ``bounds <config.yaml>``         -- print theory quantities only

A bad config or dataset, or an input file that cannot be read, exits 2 with
a one-line error.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, _section, _typed, parse_yaml, validate_config
from .datagen import GenSpec, generate, save_csv
from .em import align_to_reference
from .experiment import _format_bound, _format_constants, _format_quantities
from .experiment import repetition_context, run_experiment, theory_at
from .losses import FAMILIES, LossModel
from .verify import GRADIENT_TOLERANCE, worst_gradient_error


def _cmd_run(args) -> int:
    config = validate_config(Path(args.config).read_text())
    if args.output_dir:
        config = replace(config, output_dir=args.output_dir)
    report = run_experiment(config)
    sys.stdout.write(f"{len(report.repetitions)} repetitions, {report.bound_summary()}\n")
    for check in report.checks:
        sys.stdout.write(check.line() + "\n")
    sys.stdout.write(f"outputs written to {config.output_dir}\n")
    return 1 if report.failed_checks else 0


def _cmd_gen(args) -> int:
    doc = parse_yaml(Path(args.genspec).read_text())
    if not isinstance(doc, dict):
        raise ConfigError("genspec must be a mapping")
    # the seed is the genspec's own key, not a data: key of an experiment config
    spec = _section({key: doc[key] for key in doc if key != "seed"}, GenSpec, "genspec")
    dataset, _ = generate(replace(spec, seed=_typed(doc.get("seed", 0), int, "seed")))
    save_csv(dataset, args.output)
    sys.stdout.write(f"wrote {dataset.n} samples (d={dataset.d}) to {args.output}\n")
    return 0


def _cmd_check_gradients(args) -> int:
    doc = parse_yaml(Path(args.loss_spec).read_text())
    if not isinstance(doc, dict):
        raise ConfigError("loss spec must be a mapping")
    model = _section({key: doc[key] for key in doc if key not in ("seed", "d")}, LossModel, "loss")
    seed = _typed(doc.get("seed", 0), int, "seed")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    d = _typed(doc.get("d", 3), int, "d")
    if d < 1:
        raise ConfigError(f"d must be >= 1, got {d}")
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    signed = FAMILIES[model.family].signed_labels

    def label() -> float:
        return rng.choice([-1.0, 1.0]) if signed else rng.standard_normal()

    cases = (
        (rng.standard_normal(d), label(), rng.standard_normal(d))
        for _ in range(args.trials)
    )
    worst = worst_gradient_error(model, cases)
    ok = worst <= GRADIENT_TOLERANCE
    sys.stdout.write(
        f"{model.family}: worst relative error {worst:.3g} over {args.trials} trials "
        f"-> {'PASS' if ok else 'FAIL'}\n"
    )
    return 0 if ok else 1


def _cmd_bounds(args) -> int:
    config = validate_config(Path(args.config).read_text())
    # repetition 0's bound needs its starting distances, not its EM run
    context = repetition_context(config, 0)
    _, d0 = align_to_reference(context.init, context.reference)
    quantities = theory_at(context, d0)
    sys.stdout.write("constants:  " + _format_constants(context.constants) + "\n")
    sys.stdout.write("quantities: " + _format_quantities(quantities) + "\n")
    sys.stdout.write(
        f"gamma={context.em.gamma:.6g} d0={float(np.max(d0)):.6g} "
        f"predicted_bound={_format_bound(quantities)}\n"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softmix",
        description="Gradient EM for soft-min mixture fitting, with bound validation. "
        "Config keys and defaults are the fields of softmix.config.ExperimentConfig.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("-o", "--output-dir", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("gen", help="generate a dataset from a genspec")
    p_gen.add_argument("genspec")
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_chk = sub.add_parser("check-gradients", help="finite-difference gradient audit")
    p_chk.add_argument("loss_spec")
    p_chk.add_argument("--trials", type=int, default=100)
    p_chk.set_defaults(func=_cmd_check_gradients)

    p_bounds = sub.add_parser("bounds", help="print theory quantities for a config")
    p_bounds.add_argument("config")
    p_bounds.set_defaults(func=_cmd_bounds)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
