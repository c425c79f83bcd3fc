"""Matchmaking: select the best strategy and execute it (§III-A step 4).

This is the end-to-end entry point a user of the library calls: give it an
application and a platform, get back the class, the chosen strategy, and
the (simulated) execution outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.base import Application
from repro.artifact import RunArtifact
from repro.core.analyzer import AnalysisReport, analyze_program
from repro.core.ranking import RankingProvider, resolve_ranker
from repro.partition.base import ExecutionPlan, PlanConfig, get_strategy, run_plan
from repro.platform.topology import Platform
from repro.runtime.executor import RuntimeConfig


@dataclass
class MatchResult:
    """Outcome of matchmaking one application."""

    report: AnalysisReport
    plan: ExecutionPlan
    result: RunArtifact | None = None

    @property
    def strategy(self) -> str:
        return self.plan.strategy_name

    @property
    def makespan_ms(self) -> float:
        if self.result is None:
            raise ValueError("match() was called with execute=False")
        return self.result.makespan_ms


def match(
    app: Application,
    platform: Platform,
    *,
    n: int | None = None,
    iterations: int | None = None,
    sync: bool | None = None,
    config: PlanConfig | None = None,
    runtime_config: RuntimeConfig | None = None,
    execute: bool = True,
    detail: str = "full",
    ranker: str | RankingProvider | None = None,
) -> MatchResult:
    """Classify ``app``, pick the best-ranked strategy, plan, and run it.

    ``ranker`` selects who orders the strategies: the paper's Table I
    (``"table"``, default) or a tournament played on *this* platform
    (``"measured"``) — see :mod:`repro.core.ranking`.  The program is
    built once: the same object is analyzed, planned and run.
    """
    cfg = config or PlanConfig()
    provider = resolve_ranker(ranker, platform)
    effective_sync = app.needs_sync if sync is None else sync
    program = app.program(n, iterations=iterations, sync=effective_sync)
    report = analyze_program(
        program, name=app.name, needs_sync=effective_sync, ranker=provider
    )
    strategy = get_strategy(report.best_strategy)
    plan = strategy.plan(program, platform, cfg)
    result = None
    if execute:
        rt = runtime_config or RuntimeConfig(cpu_threads=cfg.threads(platform))
        result = run_plan(plan, platform, rt, detail=detail)
    return MatchResult(report=report, plan=plan, result=result)


def run_best(
    app: Application,
    platform: Platform,
    **kwargs,
) -> RunArtifact:
    """Convenience wrapper: matchmake and return the execution result."""
    outcome = match(app, platform, execute=True, **kwargs)
    assert outcome.result is not None
    return outcome.result
