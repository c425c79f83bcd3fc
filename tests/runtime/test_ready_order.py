"""A scheduler sees the ready set in release order, not in id order.

An instance joins the ready set when its last dependence completes,
behind every instance already waiting there.  So when a short chunk's
successor becomes ready before a long chunk's, the higher-id instance
comes first, and a scheduler that breaks ties by "first in the list"
breaks them by release time.
"""

from repro.runtime.dependence import build_dependences
from repro.runtime.executor import RuntimeConfig, RuntimeEngine
from repro.runtime.graph import expand_program
from repro.runtime.schedulers.base import Scheduler

from tests.conftest import chain_program


class _HoldingScheduler(Scheduler):
    """Records every ready set it is offered.  Runs each chunk on its own
    CPU thread, but holds instance 3 until instance 2 is ready too."""

    name = "holding"

    def start(self, graph, ctx):
        self.seen = []

    def assign(self, ready, ctx):
        ids = [inst.instance_id for inst in ready]
        self.seen.append(ids)
        if ids == [3]:
            return []
        idle = [r.resource_id for r in ctx.idle_resources()
                if not r.is_accelerator]
        return list(zip(ready, idle))


def test_scheduler_sees_release_order(tiny_platform):
    # k0 then k1, each cut into a long chunk [0, 90) and a short one
    # [90, 100): instances 0 and 1 (k0), 2 and 3 (k1); 2 waits for 0,
    # 3 for 1.  The short chunk 1 finishes first, so 3 is released
    # before 2.
    program = chain_program(2, n=100)
    graph = expand_program(
        program, lambda inv: [(0, 90, None, None), (90, 100, None, None)]
    )
    build_dependences(graph)
    assert [sorted(i.deps) for i in graph.instances] == [[], [], [0], [1]]
    scheduler = _HoldingScheduler()
    RuntimeEngine(tiny_platform, config=RuntimeConfig()).execute(
        graph, scheduler
    )
    assert scheduler.seen == [[0, 1], [3], [3, 2]]
