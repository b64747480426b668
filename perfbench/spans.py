"""Out-of-program tracing of softmix's public functions.

Every traced function is replaced, at every module binding that refers to it,
by a wrapper that records a span ``(name, start, end, parent)`` in memory.
Spans are written out once, at the end of the run, and reduced to per-layer
self times by :func:`self_times`.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter


def _rows(params, dataset, *args, **kwargs):
    return len(dataset) * params.k


def _samples(spec, *args, **kwargs):
    return spec.n


# (span name, module, attribute, work counter name, work count of one call)
TARGETS = (
    ("datagen.generate", "softmix.datagen", "generate", "datagen.samples", _samples),
    ("losses.batch_loss", "softmix.losses", "batch_loss", None, None),
    ("losses.batch_gradient", "softmix.losses", "batch_gradient", None, None),
    ("losses.certify", "softmix.losses", "certify", None, None),
    ("losses.default_step_size", "softmix.losses", "default_step_size", None, None),
    ("softmin.loss_matrix", "softmix.softmin", "loss_matrix", "softmin.loss_rows", _rows),
    ("softmin.weight_matrix", "softmix.softmin", "weight_matrix", None, None),
    ("softmin.empirical_loss", "softmix.softmin", "empirical_loss", None, None),
    ("em.gradient_em_step", "softmix.em", "gradient_em_step", "em.step_rows", _rows),
    ("em.run_gradient_em", "softmix.em", "run_gradient_em", None, None),
    ("em.partition_dataset", "softmix.em", "partition_dataset", None, None),
    ("em.align_to_reference", "softmix.em", "align_to_reference", None, None),
    ("theory.estimate_constants", "softmix.theory", "estimate_constants", None, None),
    ("theory.partition_regions", "softmix.theory", "partition_regions", None, None),
    ("theory.theorem_quantities", "softmix.theory", "theorem_quantities", None, None),
    ("verify.check_lemma_bounds", "softmix.verify", "check_lemma_bounds", None, None),
    ("verify.step_decomposition", "softmix.verify", "step_decomposition", None, None),
    ("verify.finite_diff_gradient", "softmix.verify", "finite_diff_gradient", None, None),
    ("experiment.run_repetition", "softmix.experiment", "run_repetition", None, None),
    ("experiment.multistart_reference", "softmix.experiment", "_multistart_reference", None, None),
    ("experiment.run_checks", "softmix.experiment", "_run_checks", None, None),
    ("experiment.write_outputs", "softmix.experiment", "write_outputs", None, None),
    ("config.validate_config", "softmix.config", "validate_config", None, None),
)

SPAN_NAMES = tuple(t[0] for t in TARGETS)


class Tracer:
    """Holds the spans and work counts of one traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._open = []

    def _wrap(self, name, fn, counter, count):
        spans, counts, open_ = self.spans, self.counts, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counts[counter] += count(*args, **kwargs)
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()

        return traced

    def install(self):
        """Wrap every target at each ``softmix`` module attribute bound to it.

        Raises if a target no longer exists, so a rename cannot silently
        zero a layer.
        """
        importlib.import_module("softmix.cli")
        modules = [m for n, m in sys.modules.items() if n == "softmix" or n.startswith("softmix.")]
        for name, module_name, attr, counter, count in TARGETS:
            original = getattr(importlib.import_module(module_name), attr, None)
            if not callable(original):
                raise RuntimeError(f"trace target {module_name}.{attr} not found")
            wrapper = self._wrap(name, original, counter, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def self_times(spans):
    """Per-name totals ``{name: (calls, total_s, self_s)}`` plus the summed
    duration of the top-level spans.

    A span's self time is its duration minus the time its direct children
    cover; spans nest strictly because the program is single-threaded.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    top = 0.0
    for (name, start, end, parent), covered in zip(spans, child_time):
        calls, total, self_s = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, total + (end - start), self_s + (end - start - covered))
        if parent < 0:
            top += end - start
    return out, top
