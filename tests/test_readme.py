"""README's library quick start runs as written against the public API, and
the CLI docs name the subcommands that the parser has."""
import argparse
import re
from pathlib import Path

import softmix.cli as cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    rate, final = capsys.readouterr().out.split()
    assert float(rate) < 1.0 and float(final) >= 0.0


def test_cli_docs_name_exactly_the_parser_subcommands():
    (sub,) = [
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", README.read_text(), flags=re.S).group(1)
    readme = set(re.findall(r"^softmix (\S+)", block, flags=re.M))
    docstring = set(re.findall(r"^\* ``(\S+)", cli.__doc__, flags=re.M))
    assert readme == docstring == set(sub.choices)
