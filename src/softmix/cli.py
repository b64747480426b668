"""Command line interface.

Subcommands:

* ``run <config.yaml>``            -- full experiment, writes report + CSVs
* ``gen <genspec.yaml> -o <file>`` -- generate a dataset to CSV

A bad config or dataset, or an input file that cannot be read, exits 2 with
a one-line error.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, _section, _typed, parse_yaml, validate_config
from .datagen import GenSpec, generate, save_csv
from .experiment import run_experiment


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
