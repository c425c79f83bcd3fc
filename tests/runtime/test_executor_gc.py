"""A finished run leaves no cyclic garbage.

Everything a ``_Run`` allocates — its trace store and lanes, simulated
resources, memory directory — must be freed by reference counting the
moment the run (and, at full detail, its artifact) is dropped, so memory
use does not wait on a full GC pass.  Each case runs with the collector
disabled: the run object must already be dead, and a forced collection
must find nothing unreachable.
"""

import gc
import weakref

import pytest

from repro.apps import get_application
from repro.partition import PlanConfig
from repro.partition.base import get_strategy
from repro.runtime import executor
from repro.runtime.executor import RuntimeConfig, RuntimeEngine

CASES = [
    # strategy, application, n, iterations
    ("DP-Perf", "STREAM-Seq", 1 << 14, None),
    ("DP-Aff", "HotSpot", 256, 2),
    ("SP-Unified", "STREAM-Loop", 1 << 14, 2),
]


@pytest.fixture
def run_refs(monkeypatch):
    """Weak references to every ``_Run`` that executes."""
    refs = []
    go = executor._Run.go

    def tracking_go(self, **kwargs):
        refs.append(weakref.ref(self))
        return go(self, **kwargs)

    monkeypatch.setattr(executor._Run, "go", tracking_go)
    return refs


def _plan_and_engine(platform, strategy, app_name, n, iterations):
    app = get_application(app_name)
    program = app.program(n, iterations=iterations)
    cfg = PlanConfig()
    plan = get_strategy(strategy).plan(program, platform, cfg)
    config = RuntimeConfig(
        cpu_threads=cfg.threads(platform), **plan.runtime_overrides
    )
    return plan, RuntimeEngine(platform, config=config)


@pytest.mark.parametrize("strategy,app_name,n,iterations", CASES)
def test_summary_run_is_freed_without_gc(
    paper_platform, run_refs, strategy, app_name, n, iterations
):
    plan, engine = _plan_and_engine(
        paper_platform, strategy, app_name, n, iterations
    )
    gc.collect()
    gc.disable()
    try:
        artifact = engine.execute(plan.graph, plan.scheduler, detail="summary")
        assert artifact.makespan_s > 0
        assert run_refs[-1]() is None
        del artifact
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("strategy,app_name,n,iterations", CASES)
def test_full_run_is_freed_once_artifact_is_dropped(
    paper_platform, run_refs, strategy, app_name, n, iterations
):
    plan, engine = _plan_and_engine(
        paper_platform, strategy, app_name, n, iterations
    )
    gc.collect()
    gc.disable()
    try:
        artifact = engine.execute(plan.graph, plan.scheduler, detail="full")
        assert run_refs[-1]() is None
        # the trace outlives its run and stays readable through the artifact
        records = artifact.trace.records
        assert len(records) == len(artifact.trace.store.starts) > 0
        assert max(r.end for r in records) <= artifact.makespan_s
        del artifact, records
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("strategy,app_name,n,iterations", CASES)
def test_queried_full_trace_is_freed_once_artifact_is_dropped(
    paper_platform, strategy, app_name, n, iterations
):
    """A queried store (lanes flushed, group indexes built) is freed by
    reference counting alone."""
    plan, engine = _plan_and_engine(
        paper_platform, strategy, app_name, n, iterations
    )
    gc.collect()
    gc.disable()
    try:
        artifact = engine.execute(plan.graph, plan.scheduler, detail="full")
        store = artifact.trace.store
        by_resource = store.busy_by_resource()  # builds the group indexes
        assert list(by_resource) == store.resource_ids_seen()
        assert store.rows_by_category("compute")
        del artifact, store
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.fixture
def scoped_refs(monkeypatch):
    """Weak references to every scoped program and every finalized graph."""
    from repro.partition import base

    refs = []
    scenario_program = base.SweepScope.scenario_program
    expand_program = base.expand_program

    def tracking_program(self, key, build):
        program = scenario_program(self, key, build)
        refs.append(weakref.ref(program))
        return program

    def tracking_expand(program, chunker):
        graph = expand_program(program, chunker)
        refs.append(weakref.ref(graph))
        return graph

    monkeypatch.setattr(base.SweepScope, "scenario_program", tracking_program)
    monkeypatch.setattr(base, "expand_program", tracking_expand)
    return refs


def _sweep_leaves_nothing_behind(refs, sweep):
    gc.collect()
    gc.disable()
    try:
        result = sweep()
        assert refs, "the sweep built no scoped program or graph"
        alive = [ref() for ref in refs if ref() is not None]
        assert alive == []
        del result, alive
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_tournament_frees_its_scoped_programs_and_graphs(
    paper_platform, scoped_refs
):
    from repro.core.tournament import run_tournament

    # a scale no other test plays, so no match is replayed from the store
    _sweep_leaves_nothing_behind(
        scoped_refs, lambda: run_tournament(paper_platform, scale=0.017)
    )


def test_search_frees_its_scoped_programs_and_graphs(
    paper_platform, scoped_refs
):
    from repro.partition.search import search_plan

    _sweep_leaves_nothing_behind(
        scoped_refs,
        lambda: search_plan(
            "HotSpot", paper_platform, n=192, iterations=2, sync=True,
            grid=3, rounds=1,
        ),
    )


def test_search_frees_its_edge_tables(paper_platform, monkeypatch):
    """The sweep's edge memo holds the only other references to its
    ``succs_sorted`` tables, and it is cleared when the search ends."""
    from repro.partition import base
    from repro.partition.search import search_plan

    tables = {}
    link = base.SweepScope.link

    def tracking_link(self, graph, shape):
        link(self, graph, shape)
        tables[id(graph.succs_sorted)] = graph.succs_sorted

    monkeypatch.setattr(base.SweepScope, "link", tracking_link)
    gc.collect()
    gc.disable()
    try:
        search_plan(
            "STREAM-Loop", paper_platform, n=2048, iterations=2, grid=3,
            rounds=1,
        )
        assert len(tables) > 1
        for key in tables:
            assert gc.get_referrers(tables[key]) == [tables]
    finally:
        gc.enable()
