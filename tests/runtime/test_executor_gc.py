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
    """The store's cached vectorized view does not pin the store."""
    pytest.importorskip("numpy")
    plan, engine = _plan_and_engine(
        paper_platform, strategy, app_name, n, iterations
    )
    gc.collect()
    gc.disable()
    try:
        artifact = engine.execute(plan.graph, plan.scheduler, detail="full")
        store = artifact.trace.store
        view = store.vec_view(force=True)
        if view is None:  # the run holds REPRO_NO_NUMPY set
            pytest.skip("vectorized analytics disabled")
        assert view.busy_by_resource() == store.busy_by_resource()
        assert store.vec_view(force=True) is view  # cached on the store
        del artifact, store, view
        assert gc.collect() == 0
    finally:
        gc.enable()
