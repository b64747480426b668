"""Experiment driver: data -> certification -> gradient EM -> theory checks.

Repetition r runs with derived seed ``base_seed + r`` so any repetition can
be reproduced standalone.  Repetitions may execute in parallel
(``SOFTMIX_WORKERS``); the report and CSVs are assembled in repetition order
and are byte-identical regardless of worker count.
"""
from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

from .config import (
    EXPLICIT,
    RANDOM_BALL,
    ExperimentConfig,
)
from .data import DataSet, ParamSet
from .datagen import GenSpec, generate, load_csv
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
    GridSpec,
    brute_force_minimize,
    check_lemma_bounds,
    step_decomposition,
    worst_gradient_error,
)

WORKERS_ENV = "SOFTMIX_WORKERS"


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


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class ExperimentReport:
    config_text: str
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


def _materialize_data(config: ExperimentConfig, rep_seed: int):
    if isinstance(config.data, str):
        return load_csv(config.data), None
    spec: GenSpec = config.data
    spec = GenSpec(**{**spec.__dict__, "seed": rep_seed})
    return generate(spec)


def _multistart_reference(
    dataset: DataSet, model: LossModel, config: ExperimentConfig, k: int, seed: int
) -> ParamSet:
    """Reference optimizer for agnostic data: best of 16 long, small-step
    full-data gradient EM runs from random-ball initializations."""
    gamma = default_step_size(model, dataset) / 4.0
    radius = 1.0
    best, best_loss = None, math.inf
    smcfg = config.softmin()
    for restart in range(16):
        rng = np.random.default_rng(seed * 1_000_003 + restart)
        init = ParamSet(radius * rng.standard_normal((k, dataset.d)))
        em = EMConfig(
            step_size=gamma,
            iterations=5 * config.iterations,
            softmin=smcfg,
            resample=False,
            seed=seed,
        )
        params, _ = run_gradient_em(init, dataset, model, em)
        loss = empirical_loss(params, dataset, model, smcfg)
        if loss < best_loss:
            best, best_loss = params, loss
    return best


def _build_init(
    config: ExperimentConfig, reference: ParamSet, rng: np.random.Generator
) -> ParamSet:
    mode = config.init.mode
    if mode == EXPLICIT:
        return config.init.thetas.copy()
    if mode == RANDOM_BALL:
        offsets = rng.standard_normal(reference.thetas.shape)
        offsets /= np.linalg.norm(offsets, axis=1, keepdims=True)
        radii = config.init.radius * rng.random(reference.k) ** (1.0 / reference.d)
        return ParamSet(reference.thetas + radii[:, None] * offsets)
    # perturb reference: offset of exactly c_ini * ||theta*_j|| per component
    offsets = rng.standard_normal(reference.thetas.shape)
    offsets /= np.linalg.norm(offsets, axis=1, keepdims=True)
    radii = config.init.c_ini * np.linalg.norm(reference.thetas, axis=1)
    return ParamSet(reference.thetas + radii[:, None] * offsets)


def run_repetition(config: ExperimentConfig, rep: int) -> RepetitionResult:
    """Run one seeded repetition: generate, certify, run EM, evaluate bounds."""
    rep_seed = config.seed + rep
    dataset, truth = _materialize_data(config, rep_seed)
    model = certify(config.loss, dataset)
    gamma = config.gamma if config.gamma is not None else default_step_size(model, dataset)

    if config.reference_mode == "truth":
        if truth is None:
            raise ValueError("reference=truth requires generated data with a truth ParamSet")
        reference = truth
        k = truth.k
    else:
        k = truth.k if truth is not None else (config.init.thetas.k if config.init.thetas else 1)
        reference = _multistart_reference(dataset, model, config, k, rep_seed)

    rng = np.random.default_rng(rep_seed)
    init = _build_init(config, reference, rng)

    em = EMConfig(
        step_size=gamma,
        iterations=config.iterations,
        softmin=config.softmin(),
        resample=config.resample,
        seed=rep_seed,
    )
    _, trace = run_gradient_em(init, dataset, model, em, reference=reference)

    constants = estimate_constants(dataset, reference, model)
    norms = np.linalg.norm(reference.thetas, axis=1)
    d0 = trace.records[0].distances
    with np.errstate(divide="ignore", invalid="ignore"):
        c_eff = float(np.max(np.where(norms > 0, d0 / norms, 0.0)))
    quantities = None
    bound = None
    if not math.isinf(config.beta):
        quantities = theorem_quantities(
            constants, model, config.beta, c_eff, gamma, k, config.c_universal
        )
        if quantities.contraction is not None and math.isfinite(quantities.zeta):
            bound = float(
                np.max(
                    predicted_distance_bound(
                        d0, quantities.contraction, quantities.zeta, config.iterations
                    )
                )
            )
        elif quantities.contraction is not None:
            bound = math.inf
    final = trace.final_distance()
    within = None if bound is None else final <= bound
    return RepetitionResult(
        rep=rep,
        seed=rep_seed,
        gamma=gamma,
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
    )


def _run_checks(config: ExperimentConfig) -> List[CheckResult]:
    results: List[CheckResult] = []
    if not config.checks:
        return results
    dataset, truth = _materialize_data(config, config.seed)
    model = certify(config.loss, dataset)
    gamma = config.gamma if config.gamma is not None else default_step_size(model, dataset)
    reference = truth
    if config.reference_mode != "truth" or truth is None:
        reference = _multistart_reference(
            dataset, model, config, truth.k if truth else 1, config.seed
        )

    if "gradient_oracle" in config.checks:
        rng = np.random.default_rng(config.seed)
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
            dataset,
            reference,
            model,
            beta=config.beta,
            c_ini=c_ini,
            trials=config.lemma_trials,
            seed=config.seed,
        )
        bad = (rep1.violations if not rep1.bound_vacuous else 0) + (
            rep2.violations if not rep2.bound_vacuous else 0
        )
        detail = (
            f"own-region: {rep1.violations}/{rep1.checked} violations"
            f" (vacuous={rep1.bound_vacuous}); cross-region: "
            f"{rep2.violations}/{rep2.checked} (vacuous={rep2.bound_vacuous})"
        )
        results.append(CheckResult("lemmas", bad == 0, detail))

    if "decomposition" in config.checks:
        rng = np.random.default_rng(config.seed)
        init = _build_init(config, reference, rng)
        em = EMConfig(
            step_size=gamma,
            iterations=config.iterations,
            softmin=config.softmin(),
            resample=False,
            seed=config.seed,
        )
        dec = step_decomposition(init, dataset, model, em, reference)
        ok = dec.total <= dec.T1 + dec.T2 + 1e-9
        results.append(
            CheckResult(
                "decomposition",
                ok,
                f"total={dec.total:.6g} vs T1+T2={dec.T1 + dec.T2:.6g}",
            )
        )

    if "brute_force" in config.checks:
        k = reference.k
        grid = GridSpec(-1.5, 1.5, 61)
        best = brute_force_minimize(dataset, model, config.softmin(), k, grid)
        bf_loss = empirical_loss(best, dataset, model, config.softmin())
        rng = np.random.default_rng(config.seed)
        init = _build_init(config, reference, rng)
        em = EMConfig(
            step_size=gamma,
            iterations=config.iterations,
            softmin=config.softmin(),
            resample=config.resample,
            seed=config.seed,
        )
        final, _ = run_gradient_em(init, dataset, model, em)
        em_loss = empirical_loss(final, dataset, model, config.softmin())
        cell = (grid.hi - grid.lo) / (grid.points - 1)
        shifted = ParamSet(best.thetas + cell)
        slack = 2.0 * abs(
            empirical_loss(shifted, dataset, model, config.softmin()) - bf_loss
        )
        ok = em_loss <= bf_loss + max(slack, 1e-9)
        results.append(
            CheckResult(
                "brute_force",
                ok,
                f"EM loss {em_loss:.6g} vs grid optimum {bf_loss:.6g} (slack {slack:.3g})",
            )
        )
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
    lines = ["softmix experiment report", "=" * 40, "", "config:", report.config_text, ""]
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
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        lines.append(f"check {check.name}: {status} ({check.detail})")
    lines.append(f"wall_clock_s: {report.wall_clock_s:.3f}")
    return "\n".join(lines) + "\n"


def run_experiment(config: ExperimentConfig, write: bool = True) -> ExperimentReport:
    """Execute all repetitions plus enabled checks; optionally persist outputs."""
    from .config import serialize

    start = time.perf_counter()
    workers = int(os.environ.get(WORKERS_ENV, "1"))
    reps = list(range(config.repetitions))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_repetition, [config] * len(reps), reps))
    else:
        results = [run_repetition(config, r) for r in reps]
    results.sort(key=lambda r: r.rep)
    checks = _run_checks(config)
    report = ExperimentReport(
        config_text=serialize(config),
        repetitions=results,
        checks=checks,
        wall_clock_s=time.perf_counter() - start,
    )
    if write:
        write_outputs(report, config.output_dir)
    return report
