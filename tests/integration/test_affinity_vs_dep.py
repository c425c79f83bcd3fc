"""Where DP-Aff schedules exactly like DP-Dep, and where it does not.

On synced HotSpot and synced STREAM-Loop the two policies produce the same
compute rows — resource, label and start — at every chunking; on
sync-free FDTD they do not.  Why:

* **DP-Dep is first-in-first-out on synced loops.**  A ``taskwait`` after
  every invocation makes each instance depend on the barrier alone (the
  edge to the previous chunk is implied through it), so every instance
  starts its own dependence chain and is unbound when it becomes ready.
  DP-Dep then hands each idle resource, accelerator first, the oldest
  ready instance.
* **DP-Aff is first-in-first-out there too.**  Its residency is a hint
  the barriers never flush.  In the first epoch nothing is resident, so
  every pick is the oldest fresh instance.  These loops cut every
  invocation at the same split points and have no halo, so chunk ``j``
  of an epoch reads only ranges that chunk ``j`` of earlier epochs read
  or wrote, and they are resident on exactly the device that ran chunk
  ``j`` last.  If first-in-first-out sends every chunk to the same device
  in every epoch (checked below), then when a device goes idle, the
  oldest ready chunk is one it ran in the previous epoch.  That chunk is
  resident there, and it has the most resident bytes of any ready chunk
  there, because earlier chunks are never smaller.  So DP-Aff's
  local-first pick is the oldest chunk, and the argument repeats, by
  induction over decisions.
* **Sync-free FDTD breaks both premises.**  Its halo reads cross chunk
  boundaries, so a chunk's inputs sit partly on two devices and DP-Aff
  weighs bytes where DP-Dep sees one chain.  Chains never reset, so
  DP-Dep keeps a chain on its first device while DP-Aff steals.

The equality is a property of these program shapes, not of the
policies: a synced loop whose epochs map chunks to devices differently,
or one with halo reads, can break it.
"""

from __future__ import annotations

import pytest

from repro.apps import get_application
from repro.partition.base import PlanConfig, get_strategy, run_plan
from repro.runtime.executor import RuntimeConfig

#: the default chunk count and three of the search's task counts
TASK_COUNTS = (None, 6, 26, 52)


def _run(platform, strategy, app, n, sync, task_count):
    program = get_application(app).program(n, iterations=4, sync=sync)
    config = PlanConfig(task_count=task_count)
    plan = get_strategy(strategy).plan(program, platform, config)
    runtime = RuntimeConfig(cpu_threads=config.threads(platform),
                            **plan.runtime_overrides)
    artifact = run_plan(plan, platform, runtime, detail="full")
    rows = [(r.resource_id, r.label, r.start)
            for r in artifact.trace.by_category("compute")]
    return plan.graph, rows


def _epoch_maps(graph, rows):
    """Per invocation: chunk range -> the device that ran it."""
    maps: dict[int, dict] = {}
    for resource_id, label, _ in rows:
        inst = graph.instances[int(label.rsplit("#", 1)[1])]
        device = resource_id.split(":")[0]
        maps.setdefault(inst.invocation.invocation_id, {})[
            (inst.lo, inst.hi)] = device
    return list(maps.values())


@pytest.mark.parametrize("task_count", TASK_COUNTS)
@pytest.mark.parametrize("app,n", [("HotSpot", 1024), ("STREAM-Loop", 4096)])
def test_affinity_equals_dep_on_synced_loops(paper_platform, app, n,
                                             task_count):
    graph, dep_rows = _run(paper_platform, "DP-Dep", app, n, True,
                           task_count)
    # the premises: one chain per instance, and one chunk -> device map
    # for every epoch
    chains = [c for c in graph.chains if c is not None]
    assert len(set(chains)) == len(chains)
    maps = _epoch_maps(graph, dep_rows)
    assert len(maps) > 1 and all(m == maps[0] for m in maps)
    _, aff_rows = _run(paper_platform, "DP-Aff", app, n, True, task_count)
    assert aff_rows == dep_rows


@pytest.mark.parametrize("task_count", TASK_COUNTS)
def test_affinity_differs_from_dep_on_sync_free_fdtd(paper_platform,
                                                     task_count):
    _, dep_rows = _run(paper_platform, "DP-Dep", "FDTD", 1024, False,
                       task_count)
    _, aff_rows = _run(paper_platform, "DP-Aff", "FDTD", 1024, False,
                       task_count)
    assert aff_rows != dep_rows
