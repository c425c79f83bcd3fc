"""Schedule×partition search: beam refinement over simulated candidates.

The matchmaker picks one strategy per application class and trusts each
strategy's internal predictor for the split point.  This module searches
*across* that structure, HeSP-style: every applicable strategy's default
pick seeds the candidate set, a split-ratio grid sweeps the SP-* families
at forced GPU fractions (``PlanConfig.gpu_fraction``), a task-count ladder
covers the chunking knob of the dynamic strategies that read it
(:data:`TASK_COUNT_STRATEGIES`), and a beam of the best fraction
candidates is refined on a halving grid for a few rounds.  DP-Guided and
HYB-Static chunk by thread count, so they keep only their seed run: a
ladder row would repeat it exactly.

Every candidate is one :class:`~repro.bench.harness.SweepCell`, so the
search streams through the ordinary sweep backends (``jobs`` process
pools, remote ``workers``) unchanged.  Candidates run at summary detail
on the one run loop: static candidates drain each barrier-fenced epoch
and the unfenced final one analytically (:mod:`repro.sim.plan`), while
dynamic candidates cannot drain and run event by event, so the result
set is exact either way.  ``plan_eval=False`` refuses the drain on every
cell (``RuntimeConfig.drain``), the reference path.  The drain counts
ride back on the :class:`SearchResult`.

The search's contract with the seeds: the returned ``best`` is the
minimum over a superset of the per-strategy default picks, so it is never
worse than the best single-strategy pick (``baseline``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.apps.registry import get_application
from repro.errors import (
    PartitioningError,
    StrategyInapplicableError,
)
from repro.partition.base import (
    SWEEP_SCOPE,
    PlanConfig,
    get_strategy,
    strategies_for_class,
    sweep_scope,
)
from repro.platform.topology import Platform
from repro.runtime.executor import RuntimeConfig

#: SP families the fraction grid can drive (they honor ``gpu_fraction``)
FRACTION_STRATEGIES = ("SP-Single", "SP-Unified", "SP-Varied")

#: dynamic families the task-count ladder can drive (they chunk by
#: ``PlanConfig.chunks``; DP-Guided and HYB-Static chunk by thread count)
TASK_COUNT_STRATEGIES = ("DP-Perf", "DP-Dep", "DP-Aff")

#: task-count multipliers explored for dynamic strategies (the §V knob)
TASK_COUNT_LADDER = (0.5, 2.0, 4.0)


@dataclass(frozen=True)
class Candidate:
    """One point of the search space: a strategy plus forced knobs."""

    strategy: str
    gpu_fraction: float | None = None
    task_count: int | None = None

    def label(self) -> str:
        parts = [self.strategy]
        if self.gpu_fraction is not None:
            parts.append(f"f={self.gpu_fraction:.4g}")
        if self.task_count is not None:
            parts.append(f"tasks={self.task_count}")
        return " ".join(parts)


@dataclass(frozen=True)
class CandidateResult:
    """One evaluated candidate: the knobs and what they simulated to."""

    candidate: Candidate
    makespan_ms: float
    gpu_fraction: float  #: realized split (post warp rounding)
    hardware_config: str
    round: int  #: 0 = seeds/coarse grid, 1.. = refinement rounds


@dataclass(frozen=True)
class SearchResult:
    """Everything a ``repro search`` run decided and measured.

    ``best`` minimizes simulated makespan over all evaluated candidates;
    ``baseline`` minimizes over the seed candidates only (each applicable
    strategy's own default pick), so ``best.makespan_ms <=
    baseline.makespan_ms`` always holds.  ``plans_per_sec`` counts
    evaluated candidates against the wall-clock of the whole search
    (planning + simulation + dispatch).

    ``plan_compile_errors`` and ``wave_fallbacks`` surface the silent
    event-loop fallbacks behind the numbers: candidates that cannot
    drain at all (dynamic schedulers — expected for every DP-* and
    HYB-Static seed and every task-count ladder row) and barrier waves
    whose gates failed mid-run.  Both are exact under serial evaluation
    (``jobs=1``, no remote workers) and a lower bound otherwise — pool
    workers keep their own process-wide counters.
    """

    app: str
    app_class: str
    n: int | None
    iterations: int | None
    sync: bool | None
    rounds: int
    evaluated: tuple[CandidateResult, ...]
    best: CandidateResult
    baseline: CandidateResult
    elapsed_s: float
    plans_per_sec: float
    plan_compile_errors: int = 0
    wave_fallbacks: int = 0

    def to_record(self) -> dict:
        """A JSON-serializable summary (the ``-o file.json`` form)."""
        def rec(r: CandidateResult) -> dict:
            return {
                "strategy": r.candidate.strategy,
                "gpu_fraction": r.candidate.gpu_fraction,
                "task_count": r.candidate.task_count,
                "makespan_ms": r.makespan_ms,
                "realized_gpu_fraction": r.gpu_fraction,
                "hardware_config": r.hardware_config,
                "round": r.round,
            }

        return {
            "app": self.app,
            "app_class": self.app_class,
            "n": self.n,
            "iterations": self.iterations,
            "sync": self.sync,
            "rounds": self.rounds,
            "candidates": len(self.evaluated),
            "elapsed_s": self.elapsed_s,
            "plans_per_sec": self.plans_per_sec,
            "plan_compile_errors": self.plan_compile_errors,
            "wave_fallbacks": self.wave_fallbacks,
            "best": rec(self.best),
            "baseline": rec(self.baseline),
            "evaluated": [rec(r) for r in self.evaluated],
        }


@dataclass
class SearchSpace:
    """The candidate generator: seeds, coarse grid, and refinements."""

    seed_strategies: list[str]
    fraction_strategies: list[str]
    task_count_strategies: list[str]
    grid: int
    base_config: PlanConfig
    default_tasks: int
    _seen: set = field(default_factory=set)

    def _emit(self, cands: list[Candidate], cand: Candidate) -> None:
        key = (cand.strategy, cand.gpu_fraction, cand.task_count)
        if key not in self._seen:
            self._seen.add(key)
            cands.append(cand)

    def seeds(self) -> list[Candidate]:
        out: list[Candidate] = []
        for name in self.seed_strategies:
            self._emit(out, Candidate(strategy=name))
        return out

    def coarse(self) -> list[Candidate]:
        out: list[Candidate] = []
        for name in self.fraction_strategies:
            for i in range(self.grid):
                frac = i / (self.grid - 1) if self.grid > 1 else 0.5
                self._emit(out, Candidate(strategy=name, gpu_fraction=frac))
        for name in self.task_count_strategies:
            for mult in TASK_COUNT_LADDER:
                tasks = max(1, int(round(self.default_tasks * mult)))
                self._emit(out, Candidate(strategy=name, task_count=tasks))
        return out

    def refine(self, around: list[CandidateResult], step: float) -> list[Candidate]:
        """Halving-grid neighbors of the beam's fraction candidates."""
        out: list[Candidate] = []
        for result in around:
            cand = result.candidate
            if cand.gpu_fraction is None:
                continue
            for delta in (-step, step):
                frac = min(1.0, max(0.0, cand.gpu_fraction + delta))
                self._emit(
                    out, Candidate(strategy=cand.strategy, gpu_fraction=frac)
                )
        return out


def _build_space(
    app, platform: Platform, program, config: PlanConfig, grid: int
) -> SearchSpace:
    """Probe which strategies can plan this program at all."""
    seeds: list[str] = []
    for name in strategies_for_class(app.paper_class, ranked_only=False):
        try:
            get_strategy(name).plan(program, platform, config)
        except (StrategyInapplicableError, PartitioningError):
            continue
        seeds.append(name)
    probe = replace(config, gpu_fraction=0.5)
    fractions: list[str] = []
    for name in FRACTION_STRATEGIES:
        try:
            get_strategy(name).plan(program, platform, probe)
        except (StrategyInapplicableError, PartitioningError):
            continue
        fractions.append(name)
    return SearchSpace(
        seed_strategies=seeds,
        fraction_strategies=fractions,
        task_count_strategies=[
            n for n in seeds if n in TASK_COUNT_STRATEGIES
        ],
        grid=grid,
        base_config=config,
        default_tasks=config.chunks(platform),
    )


def _evaluate(
    candidates: list[Candidate],
    app,
    platform: Platform,
    *,
    n,
    iterations,
    sync,
    base_config: PlanConfig,
    round_no: int,
    jobs: int,
    workers,
    progress: bool,
    drain: bool,
) -> list[CandidateResult]:
    # deferred: repro.bench pulls in repro.core, which imports this package
    from repro.bench.harness import SweepCell, run_sweep

    # the mode rides on each cell, so pool and remote workers get it from
    # the pickled cell
    runtime = RuntimeConfig(
        cpu_threads=base_config.threads(platform), drain=drain
    )
    cells = [
        SweepCell(
            app=app.name,
            strategy=cand.strategy,
            platform=platform,
            n=n,
            iterations=iterations,
            sync=sync,
            config=replace(
                base_config,
                gpu_fraction=cand.gpu_fraction,
                task_count=(
                    cand.task_count
                    if cand.task_count is not None
                    else base_config.task_count
                ),
            ),
            runtime_config=runtime,
        )
        for cand in candidates
    ]
    artifacts = run_sweep(
        cells, jobs=jobs, workers=workers, detail="summary", progress=progress,
    )
    return [
        CandidateResult(
            candidate=cand,
            makespan_ms=artifact.makespan_ms,
            gpu_fraction=artifact.gpu_fraction,
            hardware_config=artifact.decision.hardware_config,
            round=round_no,
        )
        for cand, artifact in zip(candidates, artifacts)
    ]


@sweep_scope()
def search_plan(
    app_name: str,
    platform: Platform,
    *,
    n: int | None = None,
    iterations: int | None = None,
    sync: bool | None = None,
    config: PlanConfig | None = None,
    grid: int = 9,
    beam: int = 3,
    rounds: int = 2,
    jobs: int = 1,
    workers=None,
    progress: bool = False,
    plan_eval: bool = True,
) -> SearchResult:
    """Search (strategy × split ratio × chunking) for one scenario.

    Chunking is searched only for :data:`TASK_COUNT_STRATEGIES`, the
    dynamic strategies whose plans read ``PlanConfig.task_count``.
    ``grid`` sets the coarse fraction resolution (points in [0, 1]);
    ``beam`` how many best fraction candidates each refinement round
    expands; ``rounds`` how many halving refinement rounds follow the
    coarse sweep.  ``jobs``/``workers`` pass straight through to
    :func:`~repro.bench.harness.run_sweep`.  ``plan_eval=False`` sets
    ``RuntimeConfig.drain=False`` on every cell: static candidates then
    run event by event too, with identical results.

    The probes and every round run in one
    :class:`~repro.partition.base.SweepScope`: they share the scenario's
    program, and the dynamic candidates one graph per chunking.
    """
    if grid < 2:
        raise PartitioningError(f"grid={grid} needs at least 2 points")
    app = get_application(app_name)
    base_config = config or PlanConfig()
    effective_sync = app.needs_sync if sync is None else sync
    program = SWEEP_SCOPE.get().scenario_program(
        (app.name, n, iterations, effective_sync),
        lambda: app.program(n, iterations=iterations, sync=effective_sync),
    )
    space = _build_space(app, platform, program, base_config, grid)
    if not space.seed_strategies:
        raise PartitioningError(
            f"no strategy can plan {app.name!r} on this platform"
        )

    # deferred for the same import-cycle reason as the harness import
    from repro.sim.plan import drain_stats

    stats_before = drain_stats()
    t0 = time.perf_counter()
    evaluated: list[CandidateResult] = []

    def run(cands: list[Candidate], round_no: int) -> list[CandidateResult]:
        if not cands:
            return []
        results = _evaluate(
            cands, app, platform,
            n=n, iterations=iterations, sync=sync,
            base_config=base_config, round_no=round_no,
            jobs=jobs, workers=workers, progress=progress,
            drain=plan_eval,
        )
        evaluated.extend(results)
        return results

    seed_results = run(space.seeds(), 0)
    run(space.coarse(), 0)

    step = 1.0 / (grid - 1) / 2.0
    for round_no in range(1, rounds + 1):
        with_fraction = [
            r for r in evaluated if r.candidate.gpu_fraction is not None
        ]
        if not with_fraction:
            break
        front = sorted(with_fraction, key=lambda r: r.makespan_ms)[:beam]
        if not run(space.refine(front, step), round_no):
            break
        step /= 2.0

    elapsed = time.perf_counter() - t0
    stats_after = drain_stats()
    best = min(evaluated, key=lambda r: r.makespan_ms)
    baseline = min(seed_results, key=lambda r: r.makespan_ms)
    return SearchResult(
        app=app.name,
        app_class=str(app.paper_class),
        n=n,
        iterations=iterations,
        sync=sync,
        rounds=rounds,
        evaluated=tuple(evaluated),
        best=best,
        baseline=baseline,
        elapsed_s=elapsed,
        plans_per_sec=len(evaluated) / elapsed if elapsed > 0 else 0.0,
        plan_compile_errors=(
            stats_after["compile_errors"] - stats_before["compile_errors"]
        ),
        wave_fallbacks=(
            stats_after["wave_fallbacks"] - stats_before["wave_fallbacks"]
        ),
    )


def format_search(result: SearchResult, *, top: int = 10) -> str:
    """Human-readable search report (the CLI's default output)."""
    lines = [
        f"search: {result.app} [{result.app_class}]  "
        f"{len(result.evaluated)} candidates in {result.elapsed_s:.2f}s  "
        f"({result.plans_per_sec:.0f} plans/s)",
        f"  baseline (best single-strategy pick): "
        f"{result.baseline.candidate.label()}  "
        f"{result.baseline.makespan_ms:.3f} ms",
        f"  best: {result.best.candidate.label()}  "
        f"{result.best.makespan_ms:.3f} ms",
    ]
    gain = result.baseline.makespan_ms / result.best.makespan_ms
    lines.append(f"  gain over baseline: {gain:.3f}x")
    if result.plan_compile_errors or result.wave_fallbacks:
        lines.append(
            f"  event-loop fallbacks: {result.plan_compile_errors} "
            f"candidates that cannot drain, {result.wave_fallbacks} "
            "wave-gate failures (exact runs, just slower)"
        )
    ranked = sorted(result.evaluated, key=lambda r: r.makespan_ms)[:top]
    lines.append(f"  top {len(ranked)}:")
    for r in ranked:
        lines.append(
            f"    {r.makespan_ms:10.3f} ms  {r.candidate.label()}"
            f"  (realized f={r.gpu_fraction:.3f}, {r.hardware_config},"
            f" round {r.round})"
        )
    return "\n".join(lines)
