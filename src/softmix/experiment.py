"""Experiment driver: data -> certification -> gradient EM -> theory checks.

Repetition r runs with derived seed ``base_seed + r`` so any repetition can
be reproduced standalone.  Its context (data, certified model, step size and
reference) is built once, and a data file is read and certified once per
run; the checks run on repetition 0's data and reference and reuse its
context instead of building them again.
Repetitions run in order in the calling process, so the CSVs, and the report
apart from its wall-clock time, depend on the config alone.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

from .config import EXPLICIT, RANDOM_BALL, ExperimentConfig, serialize
from .data import DataSet, ParamSet
from .datagen import GenSpec, generate, load_csv
from . import em
from .em import EMConfig, run_gradient_em
from .losses import LossModel, certify, default_step_size
from .softmin import empirical_loss
from .theory import (
    ProblemConstants,
    TheoremQuantities,
    estimate_constants,
    predicted_distance_bound,
    theorem_quantities,
)
from .verify import (
    GRADIENT_TOLERANCE,
    CHECK_GRID,
    brute_force_minimize,
    check_lemma_bounds,
    step_decomposition,
    worst_gradient_error,
)


@dataclass
class RepetitionContext:
    """What one repetition is fitted and measured against, built once."""

    seed: int
    dataset: DataSet
    model: LossModel  # certified on ``dataset``
    gamma: float
    reference: ParamSet  # the truth, or the multistart reference; its k is the run's
    fitted: Optional[ParamSet] = None  # EM's final ParamSet, once the repetition ran


@dataclass
class RepetitionResult:
    rep: int
    seed: int
    gamma: float
    initial_distance: float
    final_distance: float
    fitted_rate: Optional[float]
    fitted_floor: Optional[float]
    alignment: list
    predicted_bound: Optional[float]
    within_bound: Optional[bool]  # None when no bound was evaluated
    constants: ProblemConstants
    quantities: Optional[TheoremQuantities]
    distances: np.ndarray  # (T+1, k) aligned distances
    losses: np.ndarray  # (T+1,)
    context: Optional[RepetitionContext] = field(default=None, repr=False, compare=False)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"check {self.name}: {'PASS' if self.passed else 'FAIL'} ({self.detail})"


@dataclass
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
    """Generate (or load) repetition ``rep``'s data, certify the loss on it and
    fix its step size and reference.

    ``k`` comes from the generating truth, else from ``init.thetas``, else 1.
    Every repetition reads the same data file, so given repetition 0's
    context ``first``, file data and its certified model and step size are
    taken from it; only the multistart reference is built again.
    """
    seed = config.seed + rep
    if first is not None and isinstance(config.data, str):
        dataset, model = first.dataset, first.model
        reference = _multistart_reference(dataset, model, config, first.reference.k, seed)
        return RepetitionContext(seed, dataset, model, first.gamma, reference)
    thetas = config.init.thetas
    if isinstance(config.data, str):
        dataset, truth = load_csv(config.data), None
        if config.init.mode == EXPLICIT and thetas.d != dataset.d:
            raise ValueError(f"init.thetas has d={thetas.d}, the data file's d is {dataset.d}")
    else:
        dataset, truth = generate(GenSpec(**{**config.data.__dict__, "seed": seed}))
    if config.reference == "truth" and truth is None:
        raise ValueError("reference=truth requires generated data with a truth ParamSet")
    model = certify(config.loss, dataset)
    gamma = config.gamma if config.gamma is not None else default_step_size(model, dataset)
    if config.reference == "truth":
        reference = truth
    else:
        k = truth.k if truth is not None else (1 if thetas is None else thetas.k)
        reference = _multistart_reference(dataset, model, config, k, seed)
    return RepetitionContext(seed, dataset, model, gamma, reference)


def _multistart_reference(
    dataset: DataSet, model: LossModel, config: ExperimentConfig, k: int, seed: int
) -> ParamSet:
    """Reference optimizer for agnostic data: best of 16 long, small-step
    full-data gradient EM runs from random-ball initializations.

    The restarts call ``em.run_gradient_em`` through its module: this
    module's ``run_gradient_em`` binding is the repetitions' own EM run.
    """
    smcfg = config.softmin()
    restart_em = EMConfig(
        step_size=default_step_size(model, dataset) / 4.0,
        iterations=5 * config.iterations,
        softmin=smcfg,
        resample=False,
    )
    best, best_loss = None, math.inf
    for restart in range(16):
        rng = np.random.default_rng(seed * 1_000_003 + restart)
        init = ParamSet(rng.standard_normal((k, dataset.d)))
        params, _ = em.run_gradient_em(init, dataset, model, restart_em)
        loss = empirical_loss(params, dataset, model, smcfg)
        if loss < best_loss:
            best, best_loss = params, loss
    return best


def _build_init(config: ExperimentConfig, context: RepetitionContext) -> ParamSet:
    """The repetition's initial ParamSet, drawn with its seed."""
    reference = context.reference
    mode = config.init.mode
    if mode == EXPLICIT:
        return config.init.thetas.copy()
    rng = np.random.default_rng(context.seed)
    offsets = rng.standard_normal(reference.thetas.shape)
    offsets /= np.linalg.norm(offsets, axis=1, keepdims=True)
    if mode == RANDOM_BALL:
        radii = config.init.radius * rng.random(reference.k) ** (1.0 / reference.d)
    else:  # perturb reference: offset of exactly c_ini * ||theta*_j|| per component
        radii = config.init.c_ini * np.linalg.norm(reference.thetas, axis=1)
    return ParamSet(reference.thetas + radii[:, None] * offsets)


def _em_config(
    config: ExperimentConfig, context: RepetitionContext, resample: bool
) -> EMConfig:
    return EMConfig(
        step_size=context.gamma,
        iterations=config.iterations,
        softmin=config.softmin(),
        resample=resample,
        seed=context.seed,
    )


def theory_at(config: ExperimentConfig, context: RepetitionContext, d0: np.ndarray):
    """``(constants, quantities, bound)`` for a run starting at aligned
    distances ``d0``.  ``quantities`` is None at beta = inf; ``bound`` is None
    when the contraction is vacuous and inf when zeta is."""
    constants = estimate_constants(context.dataset, context.reference, context.model)
    norms = np.linalg.norm(context.reference.thetas, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        c_eff = float(np.max(np.where(norms > 0, d0 / norms, 0.0)))
    if math.isinf(config.beta):
        return constants, None, None
    q = theorem_quantities(
        constants, context.model, config.beta, c_eff, context.gamma, context.reference.k,
        config.c_universal,
    )
    bound = None
    if q.contraction is not None:
        bound = math.inf
        if math.isfinite(q.zeta):
            per_component = predicted_distance_bound(d0, q.contraction, q.zeta, config.iterations)
            bound = float(np.max(per_component))
    return constants, q, bound


def run_repetition(
    config: ExperimentConfig, rep: int, first: Optional[RepetitionContext] = None
) -> RepetitionResult:
    """Run one seeded repetition: build its context, run EM, evaluate bounds.

    ``first`` is repetition 0's context (see :func:`repetition_context`).
    The result keeps the context, with the fitted ParamSet, for the checks to
    reuse.  A vacuous bound (``TheoremQuantities.vacuous``) is still reported
    but counts as not evaluated (``within_bound=None``).
    """
    context = repetition_context(config, rep, first)
    context.fitted, trace = run_gradient_em(
        _build_init(config, context), context.dataset, context.model,
        _em_config(config, context, config.resample), reference=context.reference,
    )
    d0 = trace.records[0].distances
    constants, quantities, bound = theory_at(config, context, d0)
    final = trace.final_distance()
    within = None if quantities is None or quantities.vacuous else final <= bound
    return RepetitionResult(
        rep=rep,
        seed=context.seed,
        gamma=context.gamma,
        initial_distance=float(np.max(d0)),
        final_distance=final,
        fitted_rate=trace.fitted_rate,
        fitted_floor=trace.fitted_floor,
        alignment=list(map(int, trace.alignment)),
        predicted_bound=bound,
        within_bound=within,
        constants=constants,
        quantities=quantities,
        distances=np.stack([r.distances for r in trace.records]),
        losses=np.array([r.loss for r in trace.records]),
        context=context,
    )


def _run_checks(config: ExperimentConfig, context: RepetitionContext) -> List[CheckResult]:
    """The enabled checks, on repetition 0's data and reference (``context``)."""
    results: List[CheckResult] = []
    if not config.checks:
        return results
    dataset, model, reference = context.dataset, context.model, context.reference
    smcfg = config.softmin()

    if "gradient_oracle" in config.checks:
        rng = np.random.default_rng(context.seed)
        cases = [
            (dataset.sample(int(rng.integers(len(dataset)))), rng.standard_normal(dataset.d))
            for _ in range(100)
        ]
        worst = worst_gradient_error(model, cases)
        ok = worst <= GRADIENT_TOLERANCE
        results.append(CheckResult("gradient_oracle", ok, f"worst relative error {worst:.3g}"))

    if "lemmas" in config.checks:
        c_ini = config.init.c_ini if config.init.c_ini is not None else 0.1
        rep1, rep2 = check_lemma_bounds(
            dataset, reference, model, beta=config.beta, c_ini=c_ini,
            trials=config.lemma_trials, seed=context.seed,
        )
        bad = sum(r.violations for r in (rep1, rep2) if not r.bound_vacuous)
        detail = (
            f"own-region: {rep1.violations}/{rep1.checked} violations"
            f" (vacuous={rep1.bound_vacuous}); cross-region: "
            f"{rep2.violations}/{rep2.checked} (vacuous={rep2.bound_vacuous})"
        )
        results.append(CheckResult("lemmas", bad == 0, detail))

    if "decomposition" in config.checks:
        em_config = _em_config(config, context, resample=False)
        dec = step_decomposition(_build_init(config, context), dataset, model, em_config, reference)
        ok = dec.total <= dec.T1 + dec.T2 + 1e-9
        detail = f"total={dec.total:.6g} vs T1+T2={dec.T1 + dec.T2:.6g}"
        results.append(CheckResult("decomposition", ok, detail))

    if "brute_force" in config.checks:
        grid = CHECK_GRID
        best = brute_force_minimize(dataset, model, smcfg, reference.k, grid)
        bf_loss = empirical_loss(best, dataset, model, smcfg)
        em_loss = empirical_loss(context.fitted, dataset, model, smcfg)
        cell = (grid.hi - grid.lo) / (grid.points - 1)
        shifted = ParamSet(best.thetas + cell)
        slack = 2.0 * abs(empirical_loss(shifted, dataset, model, smcfg) - bf_loss)
        ok = em_loss <= bf_loss + max(slack, 1e-9)
        detail = f"EM loss {em_loss:.6g} vs grid optimum {bf_loss:.6g} (slack {slack:.3g})"
        results.append(CheckResult("brute_force", ok, detail))
    return results


def _format_constants(c: ProblemConstants) -> str:
    return (
        f"epsilon={c.epsilon:.6g} epsilon1={c.epsilon1:.6g} delta={c.delta:.6g} "
        f"pi_min={c.pi_min:.6g} region_sizes={list(c.region_sizes)}"
    )


def _format_quantities(q: Optional[TheoremQuantities]) -> str:
    if q is None:
        return "not computed (beta = inf)"
    contraction = "vacuous" if q.contraction is None else f"{q.contraction:.6g}"
    return (
        f"eta={q.eta:.6g} eta_prime={q.eta_prime:.6g} zeta={q.zeta:.6g} "
        f"contraction={contraction} c_universal={q.c_universal:.6g}"
    )


def write_outputs(report: ExperimentReport, output_dir) -> None:
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "trace.csv", "w") as fh:
        fh.write("rep,t,j,distance,loss\n")
        for rr in report.repetitions:
            T, k = rr.distances.shape
            for t in range(T):
                for j in range(k):
                    fh.write(
                        f"{rr.rep},{t},{j},{rr.distances[t, j]:.17g},{rr.losses[t]:.17g}\n"
                    )
    with open(out / "logdist.csv", "w") as fh:
        fh.write("rep,t,log10_max_distance\n")
        for rr in report.repetitions:
            md = np.max(rr.distances, axis=1)
            for t, v in enumerate(md):
                logv = math.log10(v) if v > 0 else -math.inf
                fh.write(f"{rr.rep},{t},{logv:.17g}\n")
    with open(out / "report.txt", "w") as fh:
        fh.write(render_report(report))


def render_report(report: ExperimentReport) -> str:
    lines = ["softmix experiment report", "=" * 40, "", "config:", serialize(report.config), ""]
    for rr in report.repetitions:
        rate = "n/a" if rr.fitted_rate is None else f"{rr.fitted_rate:.4f}"
        bound = "n/a" if rr.predicted_bound is None else f"{rr.predicted_bound:.6g}"
        lines.append(
            f"rep {rr.rep} (seed {rr.seed}): gamma={rr.gamma:.6g} "
            f"d0={rr.initial_distance:.6g} final={rr.final_distance:.6g} "
            f"rate={rate} floor={rr.fitted_floor:.6g} bound={bound} "
            f"within_bound={rr.within_bound} alignment={rr.alignment}"
        )
        lines.append("  constants: " + _format_constants(rr.constants))
        lines.append("  quantities: " + _format_quantities(rr.quantities))
    lines.append("")
    lines.append(report.bound_summary())
    lines.extend(check.line() for check in report.checks)
    lines.append(f"wall_clock_s: {report.wall_clock_s:.3f}")
    return "\n".join(lines) + "\n"


def run_experiment(config: ExperimentConfig, write: bool = True) -> ExperimentReport:
    """Execute all repetitions plus enabled checks; optionally persist outputs."""
    start = time.perf_counter()
    first = run_repetition(config, 0)
    results = [first]
    for rep in range(1, config.repetitions):
        results.append(run_repetition(config, rep, first.context))
        results[-1].context = None  # only repetition 0's is reused, by the checks
    checks = _run_checks(config, first.context)
    first.context = None
    report = ExperimentReport(
        config=config,
        repetitions=results,
        checks=checks,
        wall_clock_s=time.perf_counter() - start,
    )
    if write:
        write_outputs(report, config.output_dir)
    return report
