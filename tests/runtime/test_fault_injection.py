"""Failure injection: misbehaving schedulers and corrupted graphs."""

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.runtime.dependence import build_dependences
from repro.runtime.executor import RuntimeConfig, RuntimeEngine
from repro.runtime.graph import chunk_ranges, expand_program
from repro.runtime.schedulers.base import Scheduler

from tests.conftest import chain_program, single_kernel_program

EXACT = RuntimeConfig(
    task_creation_overhead_s=0.0,
    dynamic_decision_overhead_s=0.0,
    barrier_overhead_s=0.0,
)


def graph_of(n=1000, chunks=4):
    graph = expand_program(
        single_kernel_program(n=n),
        lambda inv: [
            (lo, hi, None, None) for lo, hi in chunk_ranges(inv.n, chunks)
        ],
    )
    return build_dependences(graph)


class UnknownResourceScheduler(Scheduler):
    name = "broken-unknown"

    def assign(self, ready, ctx):
        return [(inst, "warp-drive") for inst in ready]


class DoubleAssignScheduler(Scheduler):
    name = "broken-double"

    def assign(self, ready, ctx):
        if not ready:
            return []
        inst = ready[0]
        rid = ctx.resources[0].resource_id
        return [(inst, rid), (inst, rid)]


class BlockedInstanceScheduler(Scheduler):
    """Assigns an instance whose dependences have not run yet."""

    name = "broken-blocked"

    def start(self, graph, ctx):
        self._last = graph.instances[-1]

    def assign(self, ready, ctx):
        assert self._last not in ready
        return [(self._last, ctx.resources[0].resource_id)]


class ReassignScheduler(Scheduler):
    """Assigns the first ready instance, then hands it out once more."""

    name = "broken-reassign"

    def __init__(self):
        self._first = None

    def assign(self, ready, ctx):
        if self._first is None:
            self._first = ready[0]
        return [(self._first, ctx.resources[0].resource_id)]


class LazyScheduler(Scheduler):
    """Never assigns anything: the run must end in a deadlock error."""

    name = "broken-lazy"

    def assign(self, ready, ctx):
        return []


class TestFaultySchedulers:
    def test_unknown_resource_raises(self, tiny_platform):
        with pytest.raises(SchedulingError):
            RuntimeEngine(tiny_platform, config=EXACT).execute(
                graph_of(), UnknownResourceScheduler()
            )

    def test_double_assignment_raises(self, tiny_platform):
        with pytest.raises(SchedulingError, match="twice or out of the ready"):
            RuntimeEngine(tiny_platform, config=EXACT).execute(
                graph_of(), DoubleAssignScheduler()
            )

    def test_reassigning_a_dispatched_instance_raises(self, tiny_platform):
        with pytest.raises(SchedulingError, match="twice or out of the ready"):
            RuntimeEngine(tiny_platform, config=EXACT).execute(
                graph_of(), ReassignScheduler()
            )

    def test_assigning_a_blocked_instance_raises(self, tiny_platform):
        graph = build_dependences(expand_program(
            chain_program(3),
            lambda inv: [(0, inv.n, None, None)],
        ))
        assert graph.instances[-1].deps  # not ready at the start
        with pytest.raises(SchedulingError, match="twice or out of the ready"):
            RuntimeEngine(tiny_platform, config=EXACT).execute(
                graph, BlockedInstanceScheduler()
            )

    def test_lazy_scheduler_detected_as_deadlock(self, tiny_platform):
        with pytest.raises(SimulationError, match="deadlock"):
            RuntimeEngine(tiny_platform, config=EXACT).execute(
                graph_of(), LazyScheduler()
            )


class TestCorruptedGraphs:
    def test_dangling_dependence_is_a_deadlock(self, tiny_platform):
        graph = graph_of()
        graph.instances[0].deps.add(999)
        with pytest.raises((SimulationError, KeyError)):
            RuntimeEngine(tiny_platform, config=EXACT).execute(
                graph, LazyScheduler()
            )

    def test_engine_reusable_after_failure(self, tiny_platform):
        """A failed run must not poison the engine for the next one."""
        from repro.runtime.schedulers.breadth_first import BreadthFirstScheduler

        engine = RuntimeEngine(tiny_platform, config=EXACT)
        with pytest.raises(SchedulingError):
            engine.execute(graph_of(), UnknownResourceScheduler())
        result = engine.execute(graph_of(), BreadthFirstScheduler())
        assert result.makespan_s > 0
