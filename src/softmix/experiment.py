"""Experiment driver: data -> certification -> gradient EM -> theory checks.

:func:`run_experiment` is the one path from a config to its frozen records,
for ``softmix run`` and for the loops under ``scripts/``.  Repetition r runs
with derived seed ``base_seed + r`` so any repetition can be reproduced
standalone; every random draw is from a substream of that seed (see
:mod:`softmix.datagen`).  Its context (data, ``config.em`` with the step size
and the seed fixed, reference, constants with the certified (m, M), and
start) is built once.  A data file is read once per run, checked against
the config by :func:`~softmix.config.check_data` before any other work, and
certified once; the checks enabled in ``config.checks`` run on repetition
0's data and reference and reuse its context.  Repetitions run in order in
the calling process, so the CSVs, and the report apart from its wall-clock
time, depend on the config alone.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from .config import EXPLICIT, RANDOM_BALL, ExperimentConfig, check_data, serialize
from .data import DataSet, ParamSet
from .datagen import _INIT_STREAM, _MULTISTART_STREAM, _ORACLE_STREAM, _substream
from .datagen import generate, load_csv, uniform_ball
from . import em
from .em import ConvergenceTrace, EMConfig, run_gradient_em
from .losses import certify, default_step_size
from .softmin import mean_loss, weight_matrix
from .theory import ProblemConstants, TheoremQuantities, estimate_constants, theorem_quantities
from .verify import (
    GRADIENT_TOLERANCE,
    check_lemma_bounds,
    step_decomposition,
    worst_gradient_error,
)

# random ParamSets the ``lemmas`` check sweeps in the start's ball
LEMMA_TRIALS = 20
# classical EM runs per multistart reference; a run stops once no component
# moves more than the tolerance, or once its move and its aligned distance to
# a fixed point an earlier run reached are both within the merge radius, and
# fails after the step cap
RESTARTS = 16
REFERENCE_TOLERANCE = 1e-7
MERGE_RADIUS = 1e-2
REFERENCE_STEPS = 1000


@dataclass(frozen=True)
class MultistartSearch:
    """The distinct fixed points a multistart reference's runs reached, in
    the order found, with their soft-min losses; ``reached[r]`` is the index
    of the point run r reached, and ``em_steps`` counts the E/M steps of all
    runs.  The reference is the first point of least loss."""

    points: Tuple[ParamSet, ...]
    losses: Tuple[float, ...]
    reached: Tuple[int, ...]
    em_steps: int

    @property
    def chosen(self) -> int:
        return int(np.argmin(self.losses))

    @property
    def reference(self) -> ParamSet:
        return self.points[self.chosen]

    def line(self) -> str:
        merged = len(self.reached) - len(self.points)
        return (
            f"reference: fixed_points={len(self.points)} "
            f"chosen_hits={self.reached.count(self.chosen)} merged={merged} "
            f"em_steps={self.em_steps}"
        )


@dataclass
class RepetitionContext:
    """What one repetition is fitted and measured against, built once."""

    seed: int
    dataset: DataSet
    em: EMConfig  # the config's, with the step size and ``seed`` fixed
    reference: ParamSet  # the truth, or the multistart reference; its k is the run's
    constants: ProblemConstants  # at ``reference``: (m, M) and ``dataset``'s ``region_of``
    init: ParamSet  # the start, drawn from ``seed``'s init substream
    search: Optional[MultistartSearch]  # how a multistart reference was found; None for the truth


@dataclass(frozen=True)
class RepetitionResult:
    """One repetition's records, each value held once: EM's ``fitted``
    ParamSet and its ``trace``, the ``constants`` at the reference, what
    :func:`theorem_quantities` returned for the trace's initial distances
    (None at beta = inf), the reference's fixed-point residual
    (:func:`em.fixed_point_residual`, 0 at a fixed point of gradient EM),
    and how a multistart reference was found (None for the truth)."""

    rep: int
    seed: int
    gamma: float
    fitted: ParamSet
    trace: ConvergenceTrace
    constants: ProblemConstants
    quantities: Optional[TheoremQuantities]
    reference_residual: float
    reference_search: Optional[MultistartSearch]

    @property
    def within_bound(self) -> Optional[bool]:
        """Whether the final distance met the bound; None if none was evaluated."""
        q = self.quantities
        return None if q is None else q.within(self.trace.final_distance())


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"check {self.name}: {'PASS' if self.passed else 'FAIL'} ({self.detail})"


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig  # serialized only when the report is rendered
    repetitions: List[RepetitionResult]
    checks: List[CheckResult] = field(default_factory=list)
    wall_clock_s: float = 0.0

    @property
    def failed_checks(self) -> List[CheckResult]:
        return [c for c in self.checks if not c.passed]

    @property
    def success_frequency(self) -> Optional[float]:
        """Share of the repetitions with an evaluated bound that stayed within
        it; ``None`` when no repetition had one."""
        evaluated = [r.within_bound for r in self.repetitions if r.within_bound is not None]
        return sum(evaluated) / len(evaluated) if evaluated else None

    def bound_summary(self) -> str:
        """Success frequency plus the within / violated / not-evaluated counts."""
        outcomes = [r.within_bound for r in self.repetitions]
        freq = self.success_frequency
        return (
            f"success_frequency: {'n/a' if freq is None else f'{freq:.4f}'} "
            f"(within={outcomes.count(True)} violated={outcomes.count(False)} "
            f"not_evaluated={outcomes.count(None)})"
        )


def repetition_context(
    config: ExperimentConfig, rep: int, first: Optional[RepetitionContext] = None
) -> RepetitionContext:
    """Generate (or load) repetition ``rep``'s data, certify the loss on it,
    and fix its EM run parameters, reference, constants and start.

    A data file is checked against the config (:func:`check_data`) before
    any other work.  Every repetition reads the same data file, so given
    repetition 0's context ``first``, file data and its certified (m, M) are
    taken from it, and the rest built anew.  The default step size is
    computed only when the config leaves ``em.gamma`` out.
    """
    seed = config.seed + rep
    if first is not None and isinstance(config.data, str):
        dataset, truth = first.dataset, None
        curvature = first.constants.m, first.constants.M
    else:
        if isinstance(config.data, str):
            dataset, truth = load_csv(config.data), None
            check_data(config, len(dataset), dataset.d, config.data)
        else:
            dataset, truth = generate(replace(config.data, seed=seed))
        curvature = certify(config.loss, dataset)
    gamma = default_step_size(config.loss, dataset) if config.em.gamma is None else config.em.gamma
    em_config = replace(config.em, gamma=gamma, seed=seed)
    if config.reference == "truth":
        reference, search = truth, None
    else:
        search = _multistart_reference(dataset, config, seed)
        reference = search.reference
    constants = estimate_constants(dataset, reference, config.loss, curvature)
    init = _build_init(config, reference, seed)
    return RepetitionContext(seed, dataset, em_config, reference, constants, init, search)


def _multistart_reference(
    dataset: DataSet, config: ExperimentConfig, seed: int
) -> MultistartSearch:
    """The search for the reference optimizer of agnostic data, whose
    ``reference`` is the fixed point of classical EM with the least soft-min
    loss (:func:`softmin.empirical_loss`, read from its last weight matrix),
    over :data:`RESTARTS` runs, run r from slab r of one standard-normal
    ``(RESTARTS, config.k, d)`` draw from ``seed``'s multistart substream.

    A run alternates the E-step (:func:`softmin.weight_matrix`) with the Newton
    M-step (:func:`em.m_step`) on the full data, which share the E-step's
    product Theta X^T.  Its end is a fixed point of gradient EM too: both leave
    theta where sum_i W_ij grad F_ij(theta_j) = 0.  The first run to reach a
    fixed point stops once no component moves more than
    :data:`REFERENCE_TOLERANCE`.  A later run stops as soon as its move and its
    aligned distance to a fixed point already found (:func:`_point_reached`)
    are both at most :data:`MERGE_RADIUS`: it reached that point, and its loss
    is not computed.  So the reference is the first run to converge to the
    best fixed point.  A run still moving after :data:`REFERENCE_STEPS` E/M
    steps raises a ValueError that names the loss family and the fixed-point
    residual.
    """
    model, beta = config.loss, config.em.beta
    outer = em.outer_products(dataset.X)
    starts = _substream(seed, _MULTISTART_STREAM).standard_normal((RESTARTS, config.k, dataset.d))
    points, losses_at, reached, em_steps = [], [], [], 0
    for restart, start in enumerate(starts):
        params = ParamSet(start)
        weights, losses, Z = weight_matrix(params, dataset, model, beta)
        hit = None
        for _ in range(REFERENCE_STEPS):
            fitted = em.m_step(params, dataset, model, weights, losses, Z, outer)
            weights, losses, Z = weight_matrix(fitted, dataset, model, beta)
            em_steps += 1
            move = np.max(np.linalg.norm(fitted.thetas - params.thetas, axis=1))
            params = fitted
            if move <= MERGE_RADIUS:
                hit = _point_reached(params, points)
                if hit is not None:
                    break
            if move <= REFERENCE_TOLERANCE:
                break
        else:
            residual = em.fixed_point_residual(params, dataset, model, beta)
            raise ValueError(
                f"multistart reference: the {model.family} E/M restart {restart} still moved "
                f"{move:.3g} after {REFERENCE_STEPS} steps (fixed-point residual {residual:.3g})"
            )
        if hit is None:
            hit = len(points)
            points.append(params)
            losses_at.append(mean_loss(weights, losses))
        reached.append(hit)
    return MultistartSearch(tuple(points), tuple(losses_at), tuple(reached), em_steps)


def _point_reached(params: ParamSet, points) -> Optional[int]:
    """Index of the first of ``points`` whose aligned distance
    (:func:`em.align_to_reference`) from ``params`` is at most
    :data:`MERGE_RADIUS`, or None."""
    for i, point in enumerate(points):
        if np.max(em.align_to_reference(params, point)[1]) <= MERGE_RADIUS:
            return i
    return None


def _build_init(config: ExperimentConfig, reference: ParamSet, seed: int) -> ParamSet:
    """The repetition's start about ``reference``, from ``seed``'s init substream."""
    mode = config.init.mode
    if mode == EXPLICIT:
        return config.init.thetas.copy()
    rng = _substream(seed, _INIT_STREAM)
    k, d = reference.thetas.shape
    if mode == RANDOM_BALL:
        return ParamSet(reference.thetas + uniform_ball(rng, config.init.radius, k, d))
    # perturb reference: offset of exactly c_ini * ||theta*_j|| per component
    offsets = rng.standard_normal((k, d))
    offsets /= np.linalg.norm(offsets, axis=1, keepdims=True)
    radii = config.init.c_ini * np.linalg.norm(reference.thetas, axis=1)
    return ParamSet(reference.thetas + radii[:, None] * offsets)


def run_repetition(
    config: ExperimentConfig, rep: int, first: Optional[RepetitionContext] = None
) -> Tuple[RepetitionResult, RepetitionContext]:
    """Run one seeded repetition: build its context, run EM, evaluate bounds.

    ``first`` is repetition 0's context (see :func:`repetition_context`).
    Returns ``(result, context)``; the context is what the later repetitions
    and the checks reuse.  Where the theorem does not apply, the bound is None
    and the repetition counts as not evaluated (``within_bound=None``).
    """
    context = repetition_context(config, rep, first)
    fitted, trace = run_gradient_em(
        context.init, context.dataset, config.loss, context.em, reference=context.reference
    )
    quantities = theorem_quantities(
        context.constants, context.em.beta, context.em.gamma, trace.distances[0],
        context.em.iterations,
    )
    residual = em.fixed_point_residual(
        context.reference, context.dataset, config.loss, config.em.beta
    )
    return RepetitionResult(
        rep, context.seed, context.em.gamma, fitted, trace, context.constants, quantities,
        residual, context.search,
    ), context


def _run_checks(
    config: ExperimentConfig, context: RepetitionContext, result: RepetitionResult
) -> List[CheckResult]:
    """The enabled checks, on repetition 0's data and reference (``context``)
    and its records (``result``)."""
    results: List[CheckResult] = []
    dataset, model, reference = context.dataset, config.loss, context.reference
    beta, constants = config.em.beta, context.constants

    if config.checks.gradient_oracle:
        rng = _substream(context.seed, _ORACLE_STREAM)
        rows = rng.integers(len(dataset), size=100)
        cases = zip(dataset.X[rows], dataset.y[rows], rng.standard_normal((100, dataset.d)))
        worst = worst_gradient_error(model, cases)
        ok = worst <= GRADIENT_TOLERANCE
        results.append(CheckResult("gradient_oracle", ok, f"worst relative error {worst:.3g}"))

    if config.checks.lemmas:
        rep1, rep2 = check_lemma_bounds(
            dataset, reference, model, constants, beta=beta, radii=result.trace.distances[0],
            trials=LEMMA_TRIALS, seed=context.seed,
        )
        bad = sum(r.violations for r in (rep1, rep2) if not r.bound_vacuous)
        detail = (
            f"own-region: {rep1.violations}/{rep1.checked} violations"
            f" (vacuous={rep1.bound_vacuous}); cross-region: "
            f"{rep2.violations}/{rep2.checked} (vacuous={rep2.bound_vacuous})"
        )
        results.append(CheckResult("lemmas", bad == 0, detail))

    if config.checks.decomposition:
        dec = step_decomposition(context.init, dataset, model, context.em, reference, constants)
        ok = dec.total <= dec.T1 + dec.T2 + 1e-9
        detail = f"total={dec.total:.6g} vs T1+T2={dec.T1 + dec.T2:.6g}"
        results.append(CheckResult("decomposition", ok, detail))

    return results


def _format_constants(c: ProblemConstants) -> str:
    return (
        f"epsilon={c.epsilon:.6g} epsilon1={c.epsilon1:.6g} delta={c.delta:.6g} "
        f"pi_min={c.pi_min:.6g} region_sizes={list(c.region_sizes)}"
    )


def _format_bound(q: Optional[TheoremQuantities]) -> str:
    return "n/a" if q is None or q.bound is None else f"{q.bound:.6g}"


def _format_quantities(q: Optional[TheoremQuantities]) -> str:
    if q is None:
        return "not computed (beta = inf)"
    contraction = "vacuous" if q.contraction is None else f"{q.contraction:.6g}"
    return (
        f"eta={q.eta:.6g} eta_prime={q.eta_prime:.6g} zeta={q.zeta:.6g} "
        f"contraction={contraction}"
    )


def write_outputs(report: ExperimentReport, output_dir) -> None:
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "trace.csv", "w") as fh:
        fh.write("rep,t,j,distance,loss\n")
        for rr in report.repetitions:
            for (t, j), distance in np.ndenumerate(rr.trace.distances):
                fh.write(f"{rr.rep},{t},{j},{distance:.17g},{rr.trace.losses[t]:.17g}\n")
    with open(out / "logdist.csv", "w") as fh:
        fh.write("rep,t,log10_max_distance\n")
        for rr in report.repetitions:
            for t, v in enumerate(rr.trace.max_distances()):
                logv = math.log10(v) if v > 0 else -math.inf
                fh.write(f"{rr.rep},{t},{logv:.17g}\n")
    with open(out / "report.txt", "w") as fh:
        fh.write(render_report(report))


def render_report(report: ExperimentReport) -> str:
    lines = ["softmix experiment report", "=" * 40, "", "config:", serialize(report.config), ""]
    for rr in report.repetitions:
        trace, rate = rr.trace, rr.trace.fitted_rate
        rate = "n/a" if rate is None else f"{rate:.4f}"
        d0, final = trace.max_distances()[[0, -1]]
        lines.append(
            f"rep {rr.rep} (seed {rr.seed}): gamma={rr.gamma:.6g} "
            f"d0={d0:.6g} final={final:.6g} rate={rate} "
            f"bound={_format_bound(rr.quantities)} within_bound={rr.within_bound} "
            f"alignment={trace.alignment.tolist()}"
        )
        lines.append("  constants: " + _format_constants(rr.constants))
        lines.append("  quantities: " + _format_quantities(rr.quantities))
        lines.append(f"  reference_residual: {rr.reference_residual:.6g}")
        if rr.reference_search is not None:
            lines.append("  " + rr.reference_search.line())
    lines.append("")
    lines.append(report.bound_summary())
    lines.extend(check.line() for check in report.checks)
    lines.append(f"wall_clock_s: {report.wall_clock_s:.3f}")
    return "\n".join(lines) + "\n"


def run_experiment(config: ExperimentConfig, write: bool = True) -> ExperimentReport:
    """Execute all repetitions plus enabled checks; optionally persist outputs.
    Repetition 0's context serves the later repetitions and the checks."""
    start = time.perf_counter()
    result, first = run_repetition(config, 0)
    results = [result]
    for rep in range(1, config.repetitions):
        results.append(run_repetition(config, rep, first)[0])
    checks = _run_checks(config, first, result)
    report = ExperimentReport(
        config=config,
        repetitions=results,
        checks=checks,
        wall_clock_s=time.perf_counter() - start,
    )
    if write:
        write_outputs(report, config.output_dir)
    return report
