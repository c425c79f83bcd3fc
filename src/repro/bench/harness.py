"""Common machinery for running an application under many strategies.

Experiment drivers decompose their work into :class:`SweepCell` units —
one (application, strategy, platform, size) point each — and hand them to
:func:`run_sweep`, which runs them serially or fans them out across worker
processes.  Results always come back in cell order, so parallel runs are
byte-identical to serial ones.

Sweeps are **streaming pipelines** underneath: :func:`run_sweep_iter`
yields ``(index, artifact)`` pairs *as cells complete* — on the serial
path, the process-pool path (``as_completed`` over submitted futures),
and the distributed path (workers stream one result frame per finished
cell, see :mod:`repro.distrib`) — so reporting can overlap execution and
time-to-first-result is one cell, not the whole sweep.  :func:`run_sweep`
is a thin collect-and-reorder wrapper over the iterator, which is what
preserves the byte-parity contract: reordering completion-ordered
artifacts by index reproduces the buffered output exactly.

Sweeps exchange :class:`~repro.artifact.RunArtifact` bundles.  By default
(``detail="summary"``) workers return artifacts *without* the raw trace —
every figure/table number lives in the precomputed
:class:`~repro.artifact.TraceSummary`, so the pickled returns are a tiny
fraction of the full-trace size (``benchmarks/bench_pipeline_perf.py``
records the ratio).  Pass ``detail="full"`` to keep the traces.

A serial sweep runs its cells inside one
:class:`~repro.partition.base.SweepScope`: consecutive cells of a
scenario share its program, and cells that chunk it the same way (the
dynamic strategies) share one read-only task graph.  Pool and remote
cells build their own, with the same results.

Parallel sweeps also ship a read-only snapshot of the parent's
:mod:`repro.cache` stores to every worker through the pool initializer,
so workers replay the probes/predictions the parent already has instead
of re-running them cold (each artifact carries its own hit/miss delta in
``cache_stats``).
"""

from __future__ import annotations

import dataclasses
import os
import sys
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import repro.cache as _cache
from repro.apps.base import Application
from repro.apps.registry import get_application
from repro.artifact import RunArtifact, check_detail
from repro.partition.base import (
    SWEEP_SCOPE,
    PlanConfig,
    SweepScope,
    get_strategy,
    sweep_scope,
)
from repro.platform.topology import Platform
from repro.runtime.executor import RuntimeConfig

#: strategy sets per class family (baselines first, paper figure order)
SK_STRATEGIES = ("Only-GPU", "Only-CPU", "SP-Single", "DP-Perf", "DP-Dep")
MK_STRATEGIES = (
    "Only-GPU", "Only-CPU", "SP-Unified", "DP-Perf", "DP-Dep", "SP-Varied",
)
DAG_STRATEGIES = ("Only-GPU", "Only-CPU", "DP-Perf", "DP-Dep")


def sk_strategies() -> tuple[str, ...]:
    """Strategies compared for SK-One/SK-Loop applications (Figs. 5/7)."""
    return SK_STRATEGIES


def mk_strategies() -> tuple[str, ...]:
    """Strategies compared for MK-Seq/MK-Loop applications (Figs. 9/11)."""
    return MK_STRATEGIES


@dataclass
class StrategyOutcome:
    """One bar of a paper figure: one strategy on one scenario."""

    strategy: str
    result: RunArtifact

    @property
    def makespan_ms(self) -> float:
        return self.result.makespan_ms

    @property
    def gpu_fraction(self) -> float:
        return self.result.gpu_fraction

    @property
    def ratio_by_kernel(self) -> dict[str, dict[str, int]]:
        return self.result.ratio_by_kernel()


@dataclass
class ScenarioResult:
    """All strategies of one scenario (one figure group)."""

    label: str
    application: str
    sync: bool | None
    outcomes: list[StrategyOutcome] = field(default_factory=list)

    def outcome(self, strategy: str) -> StrategyOutcome:
        for o in self.outcomes:
            if o.strategy == strategy:
                return o
        raise KeyError(f"{self.label}: no outcome for {strategy!r}")

    def makespan_ms(self, strategy: str) -> float:
        return self.outcome(strategy).makespan_ms

    def best_strategy(self, *, exclude_baselines: bool = True) -> str:
        """The fastest strategy (by default excluding Only-CPU/Only-GPU)."""
        candidates = [
            o for o in self.outcomes
            if not (exclude_baselines and o.strategy.startswith("Only-"))
        ]
        return min(candidates, key=lambda o: o.makespan_ms).strategy

    def ordered(self, *, exclude_baselines: bool = True) -> list[str]:
        """Strategies from fastest to slowest."""
        candidates = [
            o for o in self.outcomes
            if not (exclude_baselines and o.strategy.startswith("Only-"))
        ]
        return [o.strategy for o in sorted(candidates, key=lambda o: o.makespan_ms)]


@dataclass(frozen=True)
class SweepCell:
    """One experiment point: an application under one strategy.

    Cells carry the *names* of the application and strategy (workers
    rebuild both through the registries) plus everything needed to
    reconstruct the program deterministically — input arrays are seeded,
    so a cell re-run in any process yields the same graph and therefore
    the same simulated trace.
    """

    app: str
    strategy: str
    platform: Platform
    n: int | None = None
    iterations: int | None = None
    sync: bool | None = None
    config: PlanConfig | None = None
    runtime_config: RuntimeConfig | None = None


def _run_cell(cell: SweepCell, detail: str = "summary") -> RunArtifact:
    """Execute one cell (module-level so worker processes can unpickle it).

    Inside a :class:`~repro.partition.base.SweepScope` the scenario's
    program comes from the scope, so consecutive cells of one scenario
    share it (and, through ``finalize_graph``, their unpinned graphs).
    """
    app = get_application(cell.app)
    sync = app.needs_sync if cell.sync is None else cell.sync

    def build():
        return app.program(cell.n, iterations=cell.iterations, sync=sync)

    scope = SWEEP_SCOPE.get()
    if scope is None:
        program = build()
    else:
        key = (app.name, cell.n, cell.iterations, sync)
        program = scope.scenario_program(key, build)
    strategy = get_strategy(cell.strategy)
    return strategy.run(
        program, cell.platform,
        config=cell.config, runtime_config=cell.runtime_config,
        detail=detail,
    )


def _init_worker(snapshot) -> None:
    """Pool initializer: warm this worker from the parent's memo stores.

    A forked worker inherits the parent's active sweep scope; it is
    dropped, so pool cells build their own programs and graphs.
    """
    _cache.preload_snapshot(snapshot)
    SWEEP_SCOPE.set(None)


def _canonicalize(obj):
    """Re-intern every string reachable through plain containers.

    Pickling an artifact across a process or socket boundary loses
    *object identity* between equal strings (and between a string and an
    enum member's ``.value``), so a re-pickle on the consuming side
    memoizes them differently than a freshly built artifact —
    byte-different pickles for semantically equal results.  Interning
    collapses every equal string back to one object, giving artifacts a
    single canonical pickle form.  Every ``run_sweep_iter`` backend
    (serial, local pool, distributed) funnels its artifacts through this
    before yielding, which is what makes sweep output byte-identical
    across backends.
    """
    if isinstance(obj, str):
        return sys.intern(obj)
    if isinstance(obj, dict):
        return {_canonicalize(k): _canonicalize(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_canonicalize(v) for v in obj]
    if isinstance(obj, tuple):
        return type(obj)(*map(_canonicalize, obj)) if hasattr(obj, "_fields") \
            else tuple(_canonicalize(v) for v in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        changes = {
            f.name: _canonicalize(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return dataclasses.replace(obj, **changes)
    return obj


def default_jobs() -> int:
    """Worker count when the caller asks for 'all cores'.

    Respects the process's CPU affinity mask where the platform exposes
    one (containers and pinned CI runners often grant far fewer CPUs
    than ``os.cpu_count()`` reports), so ``--jobs 0`` never
    oversubscribes a cgroup/taskset-restricted run.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        try:
            return max(1, len(affinity(0)))
        except OSError:  # pragma: no cover - exotic platform failure
            pass
    return max(1, os.cpu_count() or 1)


def run_sweep_iter(
    cells: Iterable[SweepCell],
    *,
    jobs: int = 1,
    detail: str = "summary",
    share_cache: bool = True,
    workers: Sequence[str] | None = None,
    batch_size: int | None = None,
) -> Iterator[tuple[int, RunArtifact]]:
    """Stream ``(index, artifact)`` pairs as cells complete.

    The streaming core of :func:`run_sweep`: cells are yielded in
    *completion* order, each tagged with its position in ``cells``, so a
    consumer can report (or persist, or abort) incrementally instead of
    waiting for the whole sweep.  Every backend streams:

    * serial — each cell is yielded as soon as it executes;
    * ``jobs`` — futures are submitted per cell to a
      :class:`ProcessPoolExecutor` and drained with ``as_completed``;
    * ``workers`` — remote workers stream one result frame per finished
      cell (see :mod:`repro.distrib`), with the adaptive dispatcher
      sizing batches from observed per-cell latency.

    Cell execution is deterministic, so collecting the pairs and sorting
    by index reproduces the buffered :func:`run_sweep` output exactly —
    that wrapper is the byte-parity guarantee's home.
    """
    check_detail(detail)
    cells = list(cells)
    if workers:
        from repro.distrib.executor import DistributedSweepExecutor

        executor = DistributedSweepExecutor(
            workers, jobs=jobs, batch_size=batch_size
        )
        yield from executor.run_iter(
            cells, detail=detail, share_cache=share_cache
        )
        return
    if jobs <= 0:
        jobs = default_jobs()
    if jobs == 1 or len(cells) <= 1:
        # one scope for the whole loop, active only while a cell runs:
        # the consumer's code between yields never sees it
        scope = SweepScope()
        try:
            for index, cell in enumerate(cells):
                with sweep_scope(scope):
                    artifact = _run_cell(cell, detail)
                yield index, _canonicalize(artifact)
        finally:
            scope.clear()
        return
    pool_size = min(jobs, len(cells))
    snapshot = _cache.snapshot_stores() if share_cache else {}
    with ProcessPoolExecutor(
        max_workers=pool_size, initializer=_init_worker, initargs=(snapshot,)
    ) as pool:
        futures = {
            pool.submit(_run_cell, cell, detail): index
            for index, cell in enumerate(cells)
        }
        for future in as_completed(futures):
            yield futures[future], _canonicalize(future.result())


def run_sweep(
    cells: Iterable[SweepCell],
    *,
    jobs: int = 1,
    detail: str = "summary",
    share_cache: bool = True,
    workers: Sequence[str] | None = None,
    batch_size: int | None = None,
    progress: bool = False,
) -> list[RunArtifact]:
    """Run every cell; artifacts are returned in cell order.

    A thin collect-and-reorder wrapper over :func:`run_sweep_iter`:
    completion-ordered artifacts are written into their cell's original
    index, so the output is independent of completion order — a parallel
    or distributed sweep is byte-identical to a serial one.

    ``jobs > 1`` fans the cells out over a :class:`ProcessPoolExecutor`;
    ``jobs <= 0`` means one worker per core.

    ``workers`` switches to the distributed path: cells are dispatched
    over the given ``"host:port"`` worker servers (see
    :mod:`repro.distrib`), with ``jobs`` forwarded as each worker's
    intra-batch parallelism.  ``batch_size`` pins a fixed dispatch size;
    by default an adaptive controller sizes each dispatch from the
    worker's observed per-cell latency.  Cells a dead pool cannot finish
    fall back to local execution.

    ``detail="summary"`` (default) returns artifacts without raw traces —
    the cheap cross-process form; ``detail="full"`` keeps them.  With
    ``share_cache`` (default), parallel workers start from a read-only
    snapshot of the parent's :mod:`repro.cache` stores (shipped once per
    remote session at handshake), recovering the serial run's memo hit
    rates under ``jobs > 1`` and ``workers=[...]`` alike.

    ``progress`` prints ``completed/total`` cells to stderr as results
    stream in (the CLI's ``--progress``).
    """
    cells = list(cells)
    results: list[RunArtifact | None] = [None] * len(cells)
    done = 0
    for index, artifact in run_sweep_iter(
        cells, jobs=jobs, detail=detail, share_cache=share_cache,
        workers=workers, batch_size=batch_size,
    ):
        results[index] = artifact
        done += 1
        if progress:
            print(f"[sweep] {done}/{len(cells)} cells", file=sys.stderr)
    return results


def scenario_label(app: Application, sync: bool | None) -> str:
    """The figure-row label of a scenario (w/ vs w/o sync variants)."""
    return app.name if sync is None else (
        f"{app.name}-{'w' if sync else 'w/o'}"
    )


def assemble_scenario(
    app: Application,
    sync: bool | None,
    strategies: Sequence[str],
    results: Sequence[RunArtifact],
    *,
    label: str | None = None,
) -> ScenarioResult:
    """Zip strategy names with their sweep results into a scenario row."""
    scenario = ScenarioResult(
        label=label or scenario_label(app, sync),
        application=app.name,
        sync=sync,
    )
    for name, result in zip(strategies, results):
        scenario.outcomes.append(StrategyOutcome(strategy=name, result=result))
    return scenario


def run_scenario(
    app: Application,
    platform: Platform,
    strategies: tuple[str, ...],
    *,
    n: int | None = None,
    iterations: int | None = None,
    sync: bool | None = None,
    config: PlanConfig | None = None,
    runtime_config: RuntimeConfig | None = None,
    label: str | None = None,
    jobs: int = 1,
    detail: str = "summary",
) -> ScenarioResult:
    """Run ``app`` under every strategy; returns the scenario row."""
    cells = [
        SweepCell(
            app=app.name, strategy=name, platform=platform,
            n=n, iterations=iterations, sync=sync,
            config=config, runtime_config=runtime_config,
        )
        for name in strategies
    ]
    results = run_sweep(cells, jobs=jobs, detail=detail)
    return assemble_scenario(app, sync, strategies, results, label=label)
