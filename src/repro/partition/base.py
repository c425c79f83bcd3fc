"""Strategy interface, plan objects, and the strategy registry.

A :class:`Strategy` turns a :class:`~repro.runtime.graph.Program` into an
:class:`ExecutionPlan`: an expanded, dependence-annotated task graph plus
the scheduler that should drive it.  Static strategies pin instances to
resources; dynamic strategies leave them to the scheduler.

Strategies never import application code — the matchmaker in
:mod:`repro.core` connects :class:`~repro.apps.base.Application` objects to
strategies.
"""

from __future__ import annotations

import abc
import difflib
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator

import repro.cache as _cache
from repro.artifact import RunArtifact
from repro.errors import ConfigurationError, PartitioningError
from repro.platform.topology import Platform
from repro.runtime.dependence import build_dependences, endpoint_order
from repro.runtime.executor import RuntimeConfig, RuntimeEngine
from repro.runtime.graph import KernelInvocation, Program, TaskGraph, expand_program
from repro.runtime.schedulers.base import Scheduler


@dataclass(frozen=True)
class PlanConfig:
    """Knobs shared by all strategies.

    Parameters
    ----------
    cpu_threads:
        The paper's ``m`` — number of SMP threads (default: host cores).
        Used for static CPU chunking *and* as the dynamic task count
        (dynamic task size is ``n / m``, creating ``m`` instances).
    task_count:
        Override for the number of dynamic task instances per kernel
        invocation (the §V auto-tuning knob).  ``None`` = ``cpu_threads``.
    warp_size:
        GPU partition sizes are rounded up to a multiple of this.
    gpu_only_threshold / cpu_only_threshold:
        Glinda's hardware-configuration decision: a predicted GPU fraction
        above/below these collapses to Only-GPU / Only-CPU.
    """

    cpu_threads: int | None = None
    task_count: int | None = None
    warp_size: int = 32
    gpu_only_threshold: float = 0.97
    cpu_only_threshold: float = 0.03
    #: force the GPU share of every split instead of asking the Glinda
    #: predictor (SP-* strategies only).  The schedule×partition search
    #: drives this knob across a candidate grid.
    gpu_fraction: float | None = None

    def threads(self, platform: Platform) -> int:
        return self.cpu_threads or platform.host.spec.cores

    def chunks(self, platform: Platform) -> int:
        return self.task_count or self.threads(platform)


@dataclass
class StrategyDecision:
    """What a strategy decided, for reporting (cf. paper Figs. 6/8/10).

    ``gpu_fraction_by_kernel`` maps kernel name to the *planned* GPU share
    (static strategies only; dynamic strategies discover it at runtime).
    ``notes`` carries strategy-specific details such as the Glinda metrics.
    """

    strategy: str
    hardware_config: str = "cpu+gpu"
    gpu_fraction_by_kernel: dict[str, float] = field(default_factory=dict)
    notes: dict[str, Any] = field(default_factory=dict)


@dataclass
class ExecutionPlan:
    """A ready-to-execute partitioned workload.

    ``runtime_overrides`` lets a strategy adjust the runtime-cost model for
    its execution style — the Only-GPU baseline is plain OpenCL without an
    OmpSs runtime, so it zeroes the task-management and taskwait-quiescence
    overheads.
    """

    graph: TaskGraph
    scheduler: Scheduler
    decision: StrategyDecision
    runtime_overrides: dict[str, Any] = field(default_factory=dict)

    @property
    def strategy_name(self) -> str:
        return self.decision.strategy


class Strategy(abc.ABC):
    """Base class for partitioning strategies."""

    #: canonical name used in tables and the registry ("SP-Single", ...)
    name: str = "?"
    #: True for SP-* strategies (fixed split before runtime)
    static: bool = True

    @abc.abstractmethod
    def plan(
        self, program: Program, platform: Platform, config: PlanConfig | None = None
    ) -> ExecutionPlan:
        """Build the execution plan for ``program`` on ``platform``.

        Raises :class:`~repro.errors.StrategyInapplicableError` when the
        program's kernel structure is outside this strategy's coverage.
        """

    def run(
        self,
        program: Program,
        platform: Platform,
        *,
        config: PlanConfig | None = None,
        runtime_config: RuntimeConfig | None = None,
        detail: str = "full",
    ) -> RunArtifact:
        """Plan and execute in one call (convenience wrapper).

        The returned :class:`~repro.artifact.RunArtifact` carries this
        strategy's :class:`StrategyDecision` and the memo-cache hit/miss
        deltas of the whole plan+execute window.  ``detail="summary"``
        drops the raw trace (the cheap cross-process form).
        """
        cfg = config or PlanConfig()
        before = _cache.counters()
        plan = self.plan(program, platform, cfg)
        rt = runtime_config or RuntimeConfig(cpu_threads=cfg.threads(platform))
        return run_plan(plan, platform, rt, detail=detail, cache_baseline=before)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Strategy {self.name}>"


def run_plan(
    plan: ExecutionPlan,
    platform: Platform,
    runtime_config: RuntimeConfig | None = None,
    *,
    detail: str = "full",
    cache_baseline: dict[str, tuple[int, int]] | None = None,
) -> RunArtifact:
    """Execute a plan on the simulated runtime.

    The plan's ``runtime_overrides`` are applied on top of the supplied
    runtime configuration.  The artifact comes back with the plan's
    decision attached; ``cache_baseline`` (a :func:`repro.cache.counters`
    snapshot) widens the attributed cache window to include planning.
    """
    config = runtime_config or RuntimeConfig()
    if plan.runtime_overrides:
        config = replace(config, **plan.runtime_overrides)
    before = cache_baseline if cache_baseline is not None else _cache.counters()
    engine = RuntimeEngine(platform, config=config)
    artifact = engine.execute(plan.graph, plan.scheduler, detail=detail)
    return artifact.with_context(
        decision=plan.decision, cache_stats=_cache.stats_delta(before)
    )


# -- program rewriting helpers shared by strategies -----------------------


def force_sync(program: Program) -> Program:
    """A copy of ``program`` with a ``taskwait`` after every invocation.

    This is SP-Varied's required "extra global synchronization points".
    """
    return Program(
        invocations=[
            KernelInvocation(
                invocation_id=inv.invocation_id,
                kernel=inv.kernel,
                n=inv.n,
                iteration=inv.iteration,
                sync_after=True,
            )
            for inv in program.invocations
        ],
        arrays=dict(program.arrays),
    )


def has_inter_kernel_sync(program: Program) -> bool:
    """Whether any non-final invocation is followed by a ``taskwait``."""
    if not program.invocations:
        return False
    return any(inv.sync_after for inv in program.invocations[:-1])


class SweepScope:
    """One scenario's program, unpinned graphs and edge sets, for a sweep.

    The cells of a sweep run many strategies over few scenarios, and
    every dynamic strategy chunks a program the same way (``m``
    unpinned instances per invocation).  While a scope is active,
    :meth:`scenario_program` builds each scenario's :class:`Program` once and
    :func:`finalize_graph` builds each unpinned graph of that program
    once per chunking; later cells get the same read-only
    :class:`TaskGraph`.  Pinned graphs are never kept: every forced
    split is its own graph, so they would only cost memory.

    Their *edges* do repeat: the SP fractions of a search move split
    points without changing how the region endpoints sort, and the
    dependence builder only compares endpoints.  So :meth:`link` keeps
    one immutable ``succs_sorted`` table per *endpoint order* —
    the chunk count of each invocation plus
    :func:`~repro.runtime.dependence.endpoint_order` — and a graph of the
    scope's program whose order the scope has built before adopts that
    table instead of being built.  The order is computed only for a
    chunk-count shape the scope has seen before (``shapes`` holds the
    first graph of each shape until the shape repeats), so sweeps whose
    shapes rarely repeat, like the tournament's, pay almost nothing.

    The scope holds one scenario at a time — moving to another key drops
    the previous program, its graphs and its edge sets — and
    :meth:`clear` drops everything, so no program, graph or table
    outlives the sweep.
    """

    __slots__ = ("key", "program", "graphs", "shapes", "edges")

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.key: tuple | None = None
        self.program: Program | None = None
        self.graphs: dict[tuple, TaskGraph] = {}
        #: chunk-count shape -> its first graph's ``(access_rows,
        #: succs_sorted)`` until the shape repeats, then ``None``
        self.shapes: dict[tuple, tuple | None] = {}
        #: ``(shape, endpoint order)`` -> ``succs_sorted``
        self.edges: dict[tuple, tuple] = {}

    def scenario_program(
        self, key: tuple, build: Callable[[], Program]
    ) -> Program:
        """The scenario program for ``key``, built on first request."""
        if self.program is None or key != self.key:
            self.clear()
            self.program = build()
            self.key = key
        return self.program

    def link(self, graph: TaskGraph, shape: tuple[int, ...]) -> None:
        """Give an edge-free graph of the scope's program its dependences.

        ``shape`` is the graph's chunk count per invocation.  A graph
        whose endpoint order the scope has built adopts that edge set
        (:meth:`TaskGraph.adopt_edges`); any other is built and checked,
        and its table kept for the graphs to come.
        """
        first = self.shapes.get(shape, _UNSEEN)
        if first is _UNSEEN:
            _build_and_check(graph)
            self.shapes[shape] = (graph.access_rows, graph.succs_sorted)
            return
        program = self.program
        if first is not None:  # the shape repeats: order its first graph
            rows, table = first
            self.edges[shape, endpoint_order(program, shape, rows)] = table
            self.shapes[shape] = None
        key = (shape, endpoint_order(program, shape, graph.access_rows))
        table = self.edges.get(key)
        if table is None:
            _build_and_check(graph)
            self.edges[key] = graph.succs_sorted
        else:
            graph.adopt_edges(table)


_UNSEEN = object()


def _build_and_check(graph: TaskGraph) -> None:
    build_dependences(graph)
    graph.validate_acyclic()


#: the active sweep scope; a context variable, so other threads never
#: see it (a forked pool worker inherits it and resets it at start-up)
SWEEP_SCOPE: ContextVar[SweepScope | None] = ContextVar(
    "repro_sweep_scope", default=None
)


@contextmanager
def sweep_scope(scope: SweepScope | None = None) -> Iterator[None]:
    """Run the block inside a :class:`SweepScope`.

    An already-active scope is joined, so a search's scope covers the
    sweeps it runs.  Otherwise ``scope`` (a fresh one by default) is
    activated for the block; a fresh scope is cleared on exit, while a
    caller that passes its own — the serial sweep loop, which activates
    it around each cell but never across a ``yield`` — clears it itself.
    """
    if SWEEP_SCOPE.get() is not None:
        yield
        return
    owned = scope is None
    if owned:
        scope = SweepScope()
    token = SWEEP_SCOPE.set(scope)
    try:
        yield
    finally:
        SWEEP_SCOPE.reset(token)
        if owned:
            scope.clear()


def finalize_graph(
    program: Program,
    chunker: Callable[[KernelInvocation], list[tuple[int, int, str | None, str | None]]],
) -> TaskGraph:
    """Expand, build dependences, and sanity-check a task graph.

    The chunker runs for every invocation even when the graph is shared,
    because chunkers may record per-kernel decisions as they go
    (``forced_plan``'s fractions).  Inside a :class:`SweepScope`, a graph
    of the scope's program whose chunks carry no pin is built once per
    chunking and returned to every later caller; such a graph is
    read-only from here on.  Every other graph of the scope's program is
    a new graph, whose edges :meth:`SweepScope.link` takes from an
    earlier graph with the same endpoint order when there is one (the
    checks ran on that graph's build).
    """
    chunks = tuple(tuple(chunker(inv)) for inv in program.invocations)
    scope = SWEEP_SCOPE.get()
    scoped = scope is not None and program is scope.program
    shared = scoped and all(
        dev is None and res is None
        for rows in chunks for _lo, _hi, dev, res in rows
    )
    if shared:
        graph = scope.graphs.get(chunks)
        if graph is not None:
            return graph
    pending = iter(chunks)
    graph = expand_program(program, lambda _inv: next(pending))
    if not graph.instances:
        raise PartitioningError("plan produced an empty task graph")
    if scoped:
        scope.link(graph, tuple(map(len, chunks)))
    else:
        _build_and_check(graph)
    if shared:
        scope.graphs[chunks] = graph
    return graph


# -- registry ---------------------------------------------------------------
#
# Strategies register with *metadata*, not bare factories: the family they
# belong to and the application classes they cover.  The tournament engine
# (:mod:`repro.core.tournament`) derives its per-class entry lists from
# this applicability instead of hard-coding Table I's strategy sets, and
# ``repro list`` renders the same metadata.  Class labels are plain
# strings (``"SK-One"`` ... ``"MK-DAG"``) so this module never imports
# :mod:`repro.core` (which imports us).

#: the five paper class labels, in Table I order
ALL_CLASSES = ("SK-One", "SK-Loop", "MK-Seq", "MK-Loop", "MK-DAG")
SINGLE_KERNEL_CLASSES = ("SK-One", "SK-Loop")
MULTI_KERNEL_CLASSES = ("MK-Seq", "MK-Loop")


@dataclass(frozen=True)
class StrategyInfo:
    """Registry entry: factory plus matchmaking metadata.

    ``family`` groups strategies by mechanism ("static", "dynamic",
    "affinity", "hybrid", "baseline", ...); ``applies_to`` holds the
    class labels the strategy can plan for.  Baselines take part in
    figure sweeps but are excluded from rankings (``ranked=False``).
    """

    name: str
    factory: Callable[[], Strategy]
    family: str = "dynamic"
    applies_to: frozenset[str] = frozenset(ALL_CLASSES)
    ranked: bool = True
    description: str = ""

    def applicable(self, app_class: object, *, needs_sync: bool = False) -> bool:
        """Whether the strategy covers ``app_class`` (label or AppClass)."""
        label = getattr(app_class, "value", app_class)
        return label in self.applies_to


_REGISTRY: dict[str, StrategyInfo] = {}


def register_strategy(
    name: str,
    factory: Callable[[], Strategy],
    *,
    family: str = "dynamic",
    applies_to: tuple[str, ...] | frozenset[str] = ALL_CLASSES,
    ranked: bool = True,
    description: str = "",
) -> None:
    """Register a strategy factory plus its matchmaking metadata."""
    if name in _REGISTRY:
        raise ConfigurationError(f"strategy {name!r} already registered")
    unknown = set(applies_to) - set(ALL_CLASSES)
    if unknown:
        raise ConfigurationError(
            f"strategy {name!r}: unknown class labels {sorted(unknown)}"
        )
    _REGISTRY[name] = StrategyInfo(
        name=name,
        factory=factory,
        family=family,
        applies_to=frozenset(applies_to),
        ranked=ranked,
        description=description,
    )


def _unknown_strategy_error(name: str) -> PartitioningError:
    message = f"unknown strategy {name!r}"
    close = difflib.get_close_matches(name, _REGISTRY, n=1, cutoff=0.5)
    if close:
        message += f"; did you mean {close[0]!r}?"
    return PartitioningError(f"{message} (known: {', '.join(sorted(_REGISTRY))})")


def get_strategy(name: str) -> Strategy:
    """Instantiate a registered strategy by canonical name.

    An unknown name raises with the closest registered name suggested
    (typos are the common failure: ``"dp-perf"``, ``"SP-Signle"``).
    """
    try:
        return _REGISTRY[name].factory()
    except KeyError:
        raise _unknown_strategy_error(name) from None


def strategy_info(name: str) -> StrategyInfo:
    """The registry metadata of one strategy."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise _unknown_strategy_error(name) from None


def all_strategy_info() -> list[StrategyInfo]:
    """Metadata of every registered strategy, sorted by name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def strategies_for_class(
    app_class: object, *, ranked_only: bool = True
) -> list[str]:
    """Names of the strategies applicable to a class (label or AppClass).

    ``ranked_only`` drops the Only-CPU/Only-GPU baselines — they execute
    everywhere but never compete in a ranking.
    """
    return [
        info.name
        for info in all_strategy_info()
        if info.applicable(app_class) and (info.ranked or not ranked_only)
    ]


def list_strategies() -> list[str]:
    """Canonical names of all registered strategies."""
    return sorted(_REGISTRY)
