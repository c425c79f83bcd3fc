"""One experiment driver per paper table/figure (see DESIGN.md §4).

Each :class:`Experiment` names the paper artifact it regenerates, the
scenarios (application + sync mode) involved, and the strategies compared.
:func:`run_experiment` executes it on a platform; ``scale`` shrinks the
problem sizes for quick runs (tests use ``scale`` well below 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.apps.registry import get_application
from repro.bench.harness import (
    MK_STRATEGIES,
    SK_STRATEGIES,
    DAG_STRATEGIES,
    ScenarioResult,
    SweepCell,
    assemble_scenario,
    run_scenario,
    run_sweep,
)
from repro.core.analyzer import analyze
from repro.errors import ExperimentError
from repro.platform.topology import Platform
from repro.units import round_up


@dataclass(frozen=True)
class Scenario:
    """One application configuration inside an experiment."""

    app: str
    sync: bool | None = None  # None = the application's natural mode


@dataclass(frozen=True)
class Experiment:
    """A paper table/figure to regenerate."""

    key: str
    paper_artifact: str
    description: str
    scenarios: tuple[Scenario, ...]
    strategies: tuple[str, ...]

    def label(self) -> str:
        return f"{self.paper_artifact}: {self.description}"


EXPERIMENTS: dict[str, Experiment] = {
    "fig5": Experiment(
        key="fig5",
        paper_artifact="Figure 5",
        description="SK-One execution times (MatrixMul, BlackScholes)",
        scenarios=(Scenario("MatrixMul"), Scenario("BlackScholes")),
        strategies=SK_STRATEGIES,
    ),
    "fig6": Experiment(
        key="fig6",
        paper_artifact="Figure 6",
        description="SK-One partitioning ratios",
        scenarios=(Scenario("MatrixMul"), Scenario("BlackScholes")),
        strategies=("SP-Single", "DP-Perf", "DP-Dep"),
    ),
    "fig7": Experiment(
        key="fig7",
        paper_artifact="Figure 7",
        description="SK-Loop execution times (Nbody, HotSpot)",
        scenarios=(Scenario("Nbody"), Scenario("HotSpot")),
        strategies=SK_STRATEGIES,
    ),
    "fig8": Experiment(
        key="fig8",
        paper_artifact="Figure 8",
        description="SK-Loop partitioning ratios",
        scenarios=(Scenario("Nbody"), Scenario("HotSpot")),
        strategies=("SP-Single", "DP-Perf", "DP-Dep"),
    ),
    "fig9": Experiment(
        key="fig9",
        paper_artifact="Figure 9",
        description="MK-Seq execution times (STREAM-Seq, w/ and w/o sync)",
        scenarios=(
            Scenario("STREAM-Seq", sync=False),
            Scenario("STREAM-Seq", sync=True),
        ),
        strategies=MK_STRATEGIES,
    ),
    "fig10": Experiment(
        key="fig10",
        paper_artifact="Figure 10",
        description="MK-Seq partitioning ratios (per kernel for SP-Varied)",
        scenarios=(
            Scenario("STREAM-Seq", sync=False),
            Scenario("STREAM-Seq", sync=True),
        ),
        strategies=("SP-Unified", "DP-Perf", "DP-Dep", "SP-Varied"),
    ),
    "fig11": Experiment(
        key="fig11",
        paper_artifact="Figure 11",
        description="MK-Loop execution times (STREAM-Loop, w/ and w/o sync)",
        scenarios=(
            Scenario("STREAM-Loop", sync=False),
            Scenario("STREAM-Loop", sync=True),
        ),
        strategies=MK_STRATEGIES,
    ),
    "mkdag": Experiment(
        key="mkdag",
        paper_artifact="Section IV footnote 3 / ref [20]",
        description="MK-DAG dynamic scheduling (blocked Cholesky extension)",
        scenarios=(Scenario("Cholesky"),),
        strategies=DAG_STRATEGIES,
    ),
    "spmv": Experiment(
        key="spmv",
        paper_artifact="ref [9] (imbalanced workloads)",
        description="Imbalanced SpMV (heavy-tailed, degree-ordered CSR)",
        scenarios=(Scenario("SpMV"),),
        strategies=SK_STRATEGIES,
    ),
    "fdtd": Experiment(
        key="fdtd",
        paper_artifact="extension (MK-Loop via halo dependences)",
        description="FDTD E/H updates chained by halos, no taskwaits",
        scenarios=(Scenario("FDTD"),),
        strategies=MK_STRATEGIES,
    ),
}


def scaled_size(app_name: str, scale: float) -> int:
    """The application's paper problem size scaled by ``scale``.

    Sizes are kept structurally valid: at least 256 indices (but never
    more than the paper size — tile-granular applications like Cholesky
    have small index spaces), rounded to a warp multiple so static GPU
    rounding stays representative.
    """
    if not (0.0 < scale <= 1.0):
        raise ExperimentError(f"scale must be in (0, 1], got {scale}")
    app = get_application(app_name)
    floor = min(256, app.paper_n)
    n = max(floor, int(app.paper_n * scale))
    if n <= floor:
        return n
    return round_up(n, 32)


def run_experiment(
    key: str,
    platform: Platform,
    *,
    scale: float = 1.0,
    iterations: int | None = None,
    jobs: int = 1,
    workers: Sequence[str] | None = None,
    detail: str = "summary",
    progress: bool = False,
) -> list[ScenarioResult]:
    """Run one experiment; returns one :class:`ScenarioResult` per scenario.

    All scenario x strategy cells are flattened into one sweep, so
    ``jobs > 1`` parallelizes across the whole experiment, not just
    within a scenario, and ``workers=["host:port", ...]`` shards the
    same flat sweep over remote workers (see :mod:`repro.distrib`).
    Results are order-deterministic either way.
    Every reported number comes from the artifacts'
    :class:`~repro.artifact.TraceSummary`; pass ``detail="full"`` to also
    keep the raw traces on the outcomes.  ``progress`` reports
    ``completed/total`` cells to stderr as the sweep streams.
    """
    try:
        experiment = EXPERIMENTS[key]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {key!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
    cells = []
    for scenario in experiment.scenarios:
        n = scaled_size(scenario.app, scale) if scale != 1.0 else None
        for name in experiment.strategies:
            cells.append(
                SweepCell(
                    app=scenario.app, strategy=name, platform=platform,
                    n=n, iterations=iterations, sync=scenario.sync,
                )
            )
    outcomes = run_sweep(
        cells, jobs=jobs, workers=workers, detail=detail, progress=progress,
    )
    results = []
    stride = len(experiment.strategies)
    for i, scenario in enumerate(experiment.scenarios):
        app = get_application(scenario.app)
        results.append(
            assemble_scenario(
                app, scenario.sync, experiment.strategies,
                outcomes[i * stride: (i + 1) * stride],
            )
        )
    return results


@dataclass
class RankingComparison:
    """Theoretical (Table I) vs empirical strategy ranking for one scenario."""

    scenario: str
    theoretical: tuple[str, ...]
    empirical: tuple[str, ...]
    #: measured makespans, ms, keyed by strategy
    times_ms: dict[str, float] = field(default_factory=dict)

    def matches(self, *, tie_tolerance: float = 1.12) -> bool:
        """Whether the measured times respect the theoretical order.

        Adjacent strategies in the theoretical ranking may appear swapped
        when within ``tie_tolerance`` of each other — the paper's own ">="
        relations ("outperforms or equals").  The top-ranked strategy must
        be fastest up to the same tolerance.
        """
        order = list(self.theoretical)
        times = [self.times_ms[s] for s in order]
        if min(self.times_ms.values()) * tie_tolerance < times[0]:
            return False
        return all(
            times[i] <= times[i + 1] * tie_tolerance for i in range(len(times) - 1)
        )


def empirical_ranking(
    app_name: str,
    platform: Platform,
    *,
    sync: bool | None = None,
    scale: float = 1.0,
    iterations: int | None = None,
) -> RankingComparison:
    """Run all suitable strategies and compare against Table I."""
    app = get_application(app_name)
    report = analyze(app, sync=sync)
    n = scaled_size(app_name, scale) if scale != 1.0 else None
    scenario = run_scenario(
        app,
        platform,
        report.ranked_strategies,
        n=n,
        iterations=iterations,
        sync=sync,
    )
    times = {o.strategy: o.makespan_ms for o in scenario.outcomes}
    empirical = tuple(sorted(times, key=times.__getitem__))
    return RankingComparison(
        scenario=scenario.label,
        theoretical=report.ranked_strategies,
        empirical=empirical,
        times_ms=times,
    )
