"""README's library quick start runs as written against the public API, the
top-level ``softmix`` namespace is that quick start, and the CLI docs name
the subcommands that the parser has."""
import argparse
import re
import types
from pathlib import Path

import softmix
import softmix.cli as cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    rate, final = capsys.readouterr().out.split()
    assert float(rate) < 1.0 and float(final) >= 0.0


def test_top_level_names_are_the_quick_start_and_its_types():
    public = {
        name for name, value in vars(softmix).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    quick_start = {"GenSpec", "LossModel", "EMConfig", "ParamSet", "generate", "certify",
                   "default_step_size", "run_gradient_em"}
    returned_or_raised = {"DataSet", "ConvergenceTrace", "CertificationError"}
    assert public == quick_start | returned_or_raised


def test_cli_docs_name_exactly_the_parser_subcommands():
    (sub,) = [
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", README.read_text(), flags=re.S).group(1)
    readme = set(re.findall(r"^softmix (\S+)", block, flags=re.M))
    docstring = set(re.findall(r"^\* ``(\S+)", cli.__doc__, flags=re.M))
    assert readme == docstring == set(sub.choices)
