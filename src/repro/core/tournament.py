"""Measured rankings: earn Table I instead of asserting it.

The paper *derives* its per-class strategy ranking from three
propositions and validates it on one machine.  This module re-derives the
ranking empirically on any simulated platform: a **tournament** round-robin
runs every applicable (ranked) strategy over a scenario suite — the Table
II applications plus Cholesky for MK-DAG, each MK application in both
sync variants — and orders strategies per ``(class, sync)`` group by the
geometric mean of their makespan ratio to the per-scenario winner.

Matches are dispatched through :func:`repro.bench.harness.run_sweep_iter`,
so a tournament parallelizes exactly like any other sweep (``--jobs``
process pools, ``--workers`` remote batches); run serially, the matches
of one scenario share its program and dynamic task graphs (see
:class:`~repro.partition.base.SweepScope`).  Outcomes are memoized in the
``"tournament"`` cache store keyed by platform/scenario/strategy
fingerprints; because named stores ride the :mod:`repro.cache` snapshot
machinery, a ``--cache-dir`` warm start replays previous tournaments
without simulating a single match.

:class:`MeasuredRankingProvider` wraps a (lazily run) tournament in the
:class:`~repro.core.ranking.RankingProvider` seam, making ``ranker=
"measured"`` a drop-in for the Table I default everywhere the analyzer
and matchmaker are used.  :mod:`repro.bench.matchup` compares the two
providers cell by cell and flags where the paper's propositions stop
holding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cache import get_cache, platform_fingerprint
from repro.core.classes import AppClass
from repro.core.ranking import TABLE, RankingProvider
from repro.errors import ClassificationError, ConfigurationError
from repro.partition.base import strategies_for_class
from repro.platform.topology import Platform

#: scenario apps: Table II order, Cholesky appended for MK-DAG coverage
DEFAULT_APPS = (
    "MatrixMul",
    "BlackScholes",
    "Nbody",
    "HotSpot",
    "STREAM-Seq",
    "STREAM-Loop",
    "Cholesky",
)

#: class labels whose ranking depends on the sync sub-case (Table I)
_SYNC_SENSITIVE = ("MK-Seq", "MK-Loop")


@dataclass(frozen=True)
class Scenario:
    """One tournament fixture: an application at a size and sync setting."""

    app: str
    app_class: str
    needs_sync: bool
    n: int
    iterations: int | None = None

    @property
    def label(self) -> str:
        sync = "+sync" if self.needs_sync else ""
        return f"{self.app}{sync}@{self.n}"


@dataclass(frozen=True)
class MatchRecord:
    """One strategy's measured outcome on one scenario."""

    scenario: Scenario
    strategy: str
    makespan_s: float
    cached: bool = False


@dataclass(frozen=True)
class ClassRanking:
    """Measured ordering for one ``(class, sync)`` group."""

    app_class: str
    needs_sync: bool
    #: strategy names, best (lowest mean ratio) first
    ranking: tuple[str, ...]
    #: geometric-mean makespan ratio to the per-scenario winner (>= 1.0)
    scores: dict[str, float] = field(default_factory=dict)
    #: scenario labels the group aggregates over
    scenarios: tuple[str, ...] = ()


@dataclass(frozen=True)
class TournamentResult:
    """Everything one tournament measured."""

    platform: str
    scale: float
    matches: tuple[MatchRecord, ...]
    #: ``(class label, needs_sync)`` -> measured ordering
    rankings: dict[tuple[str, bool], ClassRanking]

    @property
    def simulated(self) -> int:
        """Matches actually simulated (not replayed from the memo store)."""
        return sum(1 for m in self.matches if not m.cached)

    def ranking_for(
        self, app_class: AppClass | str, *, needs_sync: bool = False
    ) -> tuple[str, ...]:
        """The measured ordering for a class, honoring the sync sub-case."""
        label = getattr(app_class, "value", app_class)
        sync = needs_sync if label in _SYNC_SENSITIVE else False
        try:
            return self.rankings[(label, sync)].ranking
        except KeyError:
            raise ClassificationError(
                f"tournament has no ranking for class {label!r} "
                f"(needs_sync={sync}); scenarios covered: "
                f"{sorted(set(k for k in self.rankings))}"
            ) from None


def default_scenarios(
    *, scale: float = 1.0, apps: tuple[str, ...] = DEFAULT_APPS
) -> list[Scenario]:
    """The standard fixture list: each MK app in both sync variants.

    Single-kernel and DAG applications keep their natural sync setting
    (the sub-case only changes the Table I row for MK-Seq/MK-Loop).
    Problem sizes follow :func:`repro.bench.experiments.scaled_size`.
    """
    from repro.apps import get_application
    from repro.bench.experiments import scaled_size

    scenarios: list[Scenario] = []
    for name in apps:
        app = get_application(name)
        n = scaled_size(name, scale)
        if app.paper_class in _SYNC_SENSITIVE:
            for sync in (False, True):
                scenarios.append(
                    Scenario(
                        app=name, app_class=app.paper_class,
                        needs_sync=sync, n=n,
                    )
                )
        else:
            scenarios.append(
                Scenario(
                    app=name, app_class=app.paper_class,
                    needs_sync=app.needs_sync, n=n,
                )
            )
    return scenarios


def _match_key(platform_fp: str, scenario: Scenario, strategy: str) -> tuple:
    return (
        "match",
        platform_fp,
        scenario.app,
        scenario.needs_sync,
        scenario.n,
        scenario.iterations,
        strategy,
    )


def _table_position(app_class: str, needs_sync: bool) -> dict[str, int]:
    """Tie-break order: Table I position first, unranked names after."""
    row = TABLE.ranking(AppClass(app_class), needs_sync=needs_sync)
    return {name: i for i, name in enumerate(row)}


def run_tournament(
    platform: Platform,
    *,
    scale: float = 1.0,
    apps: tuple[str, ...] = DEFAULT_APPS,
    jobs: int = 1,
    workers=None,
    config=None,
    runtime_config=None,
) -> TournamentResult:
    """Round-robin every applicable ranked strategy over the scenarios.

    ``jobs``/``workers`` forward to
    :func:`~repro.bench.harness.run_sweep_iter` untouched.  Previously
    played matches are replayed from the ``"tournament"`` memo store (and
    therefore from any ``--cache-dir`` snapshot) instead of re-simulated.
    """
    from repro.bench.harness import SweepCell, run_sweep_iter

    scenarios = default_scenarios(scale=scale, apps=apps)
    pairs: list[tuple[Scenario, str]] = []
    for scenario in scenarios:
        names = strategies_for_class(scenario.app_class)
        if not names:
            raise ConfigurationError(
                f"no ranked strategies registered for class "
                f"{scenario.app_class!r}"
            )
        pairs.extend((scenario, name) for name in names)

    platform_fp = platform_fingerprint(platform)
    store = get_cache("tournament")
    known = store.entries()
    records: dict[tuple, MatchRecord] = {}
    todo: list[tuple[Scenario, str]] = []
    for scenario, strategy in pairs:
        key = _match_key(platform_fp, scenario, strategy)
        if key in known:
            makespan = store.get_or_compute(key, lambda: known[key])
            records[key] = MatchRecord(scenario, strategy, makespan, cached=True)
        else:
            todo.append((scenario, strategy))

    if todo:
        cells = [
            SweepCell(
                app=scenario.app,
                strategy=strategy,
                platform=platform,
                n=scenario.n,
                iterations=scenario.iterations,
                sync=scenario.needs_sync,
                config=config,
                runtime_config=runtime_config,
            )
            for scenario, strategy in todo
        ]
        for index, artifact in run_sweep_iter(cells, jobs=jobs, workers=workers):
            scenario, strategy = todo[index]
            makespan = artifact.makespan_s
            key = _match_key(platform_fp, scenario, strategy)
            store.get_or_compute(key, lambda m=makespan: m)
            records[key] = MatchRecord(scenario, strategy, makespan)

    matches = tuple(
        records[_match_key(platform_fp, scenario, strategy)]
        for scenario, strategy in pairs
    )
    devices = [platform.host.device_id] + [
        acc.device_id for acc in platform.accelerators
    ]
    return TournamentResult(
        platform="+".join(devices),
        scale=scale,
        matches=matches,
        rankings=_aggregate(matches),
    )


def _aggregate(
    matches: tuple[MatchRecord, ...]
) -> dict[tuple[str, bool], ClassRanking]:
    """Per-``(class, sync)`` geometric-mean-of-ratios orderings."""
    # group matches by (class, sync bucket), then by scenario within it
    groups: dict[tuple[str, bool], dict[Scenario, list[MatchRecord]]] = {}
    for record in matches:
        scenario = record.scenario
        sync = scenario.needs_sync if scenario.app_class in _SYNC_SENSITIVE else False
        by_scenario = groups.setdefault((scenario.app_class, sync), {})
        by_scenario.setdefault(scenario, []).append(record)

    rankings: dict[tuple[str, bool], ClassRanking] = {}
    for (app_class, sync), by_scenario in groups.items():
        log_ratios: dict[str, float] = {}
        for scenario, recs in by_scenario.items():
            best = min(r.makespan_s for r in recs)
            for r in recs:
                log_ratios[r.strategy] = (
                    log_ratios.get(r.strategy, 0.0)
                    + math.log(r.makespan_s / best)
                )
        k = len(by_scenario)
        scores = {
            name: math.exp(total / k) for name, total in log_ratios.items()
        }
        position = _table_position(app_class, sync)
        ordered = tuple(
            sorted(
                scores,
                key=lambda name: (
                    scores[name],
                    position.get(name, len(position)),
                    name,
                ),
            )
        )
        rankings[(app_class, sync)] = ClassRanking(
            app_class=app_class,
            needs_sync=sync,
            ranking=ordered,
            scores=scores,
            scenarios=tuple(s.label for s in by_scenario),
        )
    return rankings


class MeasuredRankingProvider(RankingProvider):
    """A :class:`RankingProvider` backed by a lazily run tournament.

    The first ``ranking()`` call plays (or replays from the memo store)
    the whole tournament for the provider's platform; later calls are
    dictionary lookups.  ``platform`` defaults to the paper's Table III
    machine.
    """

    name = "measured"

    def __init__(
        self,
        platform: Platform | None = None,
        *,
        scale: float = 1.0,
        apps: tuple[str, ...] = DEFAULT_APPS,
        jobs: int = 1,
        workers=None,
    ) -> None:
        if platform is None:
            from repro.platform.presets import shen_icpp15_platform

            platform = shen_icpp15_platform()
        self.platform = platform
        self.scale = scale
        self.apps = apps
        self.jobs = jobs
        self.workers = workers
        self._result: TournamentResult | None = None

    def result(self) -> TournamentResult:
        """The backing tournament, playing it on first use."""
        if self._result is None:
            self._result = run_tournament(
                self.platform,
                scale=self.scale,
                apps=self.apps,
                jobs=self.jobs,
                workers=self.workers,
            )
        return self._result

    def ranking(
        self, app_class: AppClass, *, needs_sync: bool = False
    ) -> tuple[str, ...]:
        return self.result().ranking_for(app_class, needs_sync=needs_sync)


def format_tournament(result: TournamentResult) -> str:
    """Human-readable tournament report (the ``repro rank`` output)."""
    lines = [
        f"tournament on {result.platform} "
        f"(scale {result.scale:g}, {len(result.matches)} matches, "
        f"{result.simulated} simulated / "
        f"{len(result.matches) - result.simulated} replayed)",
    ]
    for (app_class, sync), ranking in sorted(result.rankings.items()):
        sync_note = ""
        if app_class in _SYNC_SENSITIVE:
            sync_note = " (w sync)" if sync else " (w/o sync)"
        lines.append(f"\n{app_class}{sync_note}:")
        table_row = _table_position(app_class, sync)
        for place, name in enumerate(ranking.ranking, start=1):
            score = ranking.scores[name]
            in_table = "" if name in table_row else "  [not in Table I]"
            lines.append(
                f"  {place}. {name:11s} geomean ratio {score:6.3f}{in_table}"
            )
        lines.append(f"  scenarios: {', '.join(ranking.scenarios)}")
    return "\n".join(lines)
