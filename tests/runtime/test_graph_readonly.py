"""A finalized task graph is read-only: running it changes nothing.

Within a sweep, every cell that chunks a scenario's program the same way
gets the same :class:`~repro.runtime.graph.TaskGraph` object
(:class:`~repro.partition.base.SweepScope`).  That is only sound if
neither the event loop (dynamic schedulers) nor the drain of static
plans, with its tables, writes to the graph they run.
"""

import pytest

from repro.apps import get_application
from repro.partition import PlanConfig
from repro.partition.base import get_strategy
from repro.runtime.executor import RuntimeConfig, RuntimeEngine
from repro.sim.plan import drain_stats


def _snapshot(graph):
    """Everything a later run of the same graph reads."""
    return {
        "instances": [
            (
                inst.instance_id, inst.kind, inst.lo, inst.hi,
                inst.pinned_device, inst.pinned_resource,
                frozenset(inst.deps), frozenset(inst.succs),
            )
            for inst in graph.instances
        ],
        "access_rows": (
            id(graph.access_rows), [id(row) for row in graph.access_rows]
        ),
        "succs_sorted": (id(graph.succs_sorted), list(graph.succs_sorted)),
    }


def _plan(platform, strategy, app_name, n, iterations, sync, fraction=None):
    program = get_application(app_name).program(
        n, iterations=iterations, sync=sync
    )
    cfg = PlanConfig(gpu_fraction=fraction)
    plan = get_strategy(strategy).plan(program, platform, cfg)
    config = RuntimeConfig(
        cpu_threads=cfg.threads(platform), **plan.runtime_overrides
    )
    return plan, config


@pytest.mark.parametrize(
    "strategy,app_name,n,iterations,sync",
    [
        ("DP-Perf", "STREAM-Loop", 1 << 13, 2, False),
        ("DP-Dep", "STREAM-Loop", 1 << 13, 2, True),
        ("DP-Aff", "HotSpot", 256, 2, False),
    ],
)
def test_engine_run_leaves_a_dynamic_graph_unchanged(
    paper_platform, strategy, app_name, n, iterations, sync
):
    plan, config = _plan(paper_platform, strategy, app_name, n, iterations, sync)
    assert not any(i.pinned_device or i.pinned_resource
                   for i in plan.graph.instances)
    before = _snapshot(plan.graph)
    first = RuntimeEngine(paper_platform, config=config).execute(
        plan.graph, plan.scheduler, detail="summary"
    )
    assert _snapshot(plan.graph) == before
    # a second cell on the shared graph sees exactly what the first saw
    again = get_strategy(strategy).plan(
        plan.graph.program, paper_platform, PlanConfig()
    )
    second = RuntimeEngine(paper_platform, config=config).execute(
        plan.graph, again.scheduler, detail="summary"
    )
    assert _snapshot(plan.graph) == before
    assert second.makespan_s == first.makespan_s


@pytest.mark.parametrize(
    "strategy,app_name,n,iterations,sync",
    [
        ("SP-Unified", "STREAM-Loop", 1 << 13, 2, False),
        ("SP-Single", "HotSpot", 256, 3, True),
    ],
)
def test_plan_evaluation_leaves_a_static_graph_unchanged(
    paper_platform, strategy, app_name, n, iterations, sync
):
    plan, config = _plan(
        paper_platform, strategy, app_name, n, iterations, sync, fraction=0.5
    )
    before = _snapshot(plan.graph)
    builds = drain_stats()["evaluations"]

    def drained():
        return RuntimeEngine(paper_platform, config=config).execute(
            plan.graph, plan.scheduler, detail="summary"
        )

    first = drained()
    assert _snapshot(plan.graph) == before
    second = drained()
    assert _snapshot(plan.graph) == before
    assert drain_stats()["evaluations"] == builds + 2  # both built tables
    assert second.makespan_s == first.makespan_s
