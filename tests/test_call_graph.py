"""The layers a full-batch logistic run goes through, seen from outside.

``perfbench/spans.py`` times a run by replacing softmix functions at every
module binding that refers to them.  A refactor that stops calling one of
them through such a binding would silently zero that layer of the benchmark,
so this test wraps the same bindings with counters and checks that each
layer still fires on a shrunk copy of the ``logistic_fullbatch`` workload.
"""
import functools
import importlib
import sys
import textwrap
from collections import Counter

import pytest

from softmix.config import validate_config
from softmix.experiment import run_experiment

# (module, attribute) of every layer that a full-batch traced run must reach
LAYERS = (
    ("softmix.em", "gradient_em_step"),
    ("softmix.softmin", "weight_matrix"),
    ("softmix.softmin", "loss_matrix"),
    ("softmix.losses", "batch_loss"),
    ("softmix.softmin", "empirical_loss"),
)

ITERATIONS = 5

LOGISTIC_FULLBATCH = textwrap.dedent(
    f"""
    data:
      kind: generative_logistic
      k: 2
      d: 4
      n: 400
      truth_scale: 3.0
    loss:
      family: logistic
      lam: 0.001
    em:
      iterations: {ITERATIONS}
      beta: 2.0
      resample: false
    init:
      mode: perturb_reference
      c_ini: 0.1
    reference: truth
    repetitions: 1
    """
)


def _count_calls(monkeypatch, counts):
    """Wrap every layer at each ``softmix`` module attribute bound to it."""
    modules = [m for n, m in sys.modules.items() if n == "softmix" or n.startswith("softmix.")]
    for module_name, attr in LAYERS:
        original = getattr(importlib.import_module(module_name), attr)

        def counted(*args, _name=attr, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        wrapper = functools.wraps(original)(counted)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, wrapper)


# the workload's bound is vacuous by design; the run says so with a UserWarning
@pytest.mark.filterwarnings("ignore:separation delta:UserWarning")
def test_every_benchmarked_layer_fires(tmp_path, monkeypatch):
    counts = Counter()
    _count_calls(monkeypatch, counts)
    config = validate_config(LOGISTIC_FULLBATCH + f"output_dir: {tmp_path / 'out'}\n")
    report = run_experiment(config)
    assert len(report.repetitions) == 1
    assert {attr for _, attr in LAYERS} <= {name for name, n in counts.items() if n > 0}
    assert counts["gradient_em_step"] == ITERATIONS
