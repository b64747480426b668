"""The functions the benchmark's tracer wraps still exist under their names.

``perfbench/spans.py`` names each traced function by module and attribute; a
rename or deletion in ``softmix`` would otherwise be found only when a traced
benchmark run installs its wrappers.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("module, attr", [t[1:3] for t in TARGETS], ids=[t[0] for t in TARGETS])
def test_trace_target_resolves_to_a_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
