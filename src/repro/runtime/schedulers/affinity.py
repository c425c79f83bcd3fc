"""Affinity/locality-aware dynamic scheduling (the DP-Aff policy).

Models the locality-aware work-stealing of Bleuse et al. (XKaapi on
CPU+GPU platforms): every device keeps working on the data it already
holds, and only *steals* remote-resident work when it would otherwise go
idle.  Where DP-Dep tracks a coarse per-chain device binding, this policy
tracks **region residency** — which element ranges of which arrays each
device currently holds — and scores every ready instance by how many of
its input bytes are already local to a device.

The policy stays deliberately capability-blind, like DP-Dep: no rate
estimates, only idle resources take work.  The decision rule per idle
resource (accelerator helper threads first, as in the breadth-first
scheduler) is a three-tier preference:

1. the ready instance with the **most input bytes resident** on the
   resource's device (ties: creation order);
2. otherwise the oldest *fresh* instance — one whose inputs are not
   resident anywhere yet (cold data starts at the host and costs the
   same wherever it is first pulled);
3. otherwise **steal** the oldest instance whose data lives on another
   device — paying the transfer beats idling.

Residency is updated at assignment time: written ranges become exclusive
to the executing device (other copies are invalidated), read ranges are
replicated onto it.  Taskwait barriers are not modelled as flushes here —
residency is a scheduling *hint*, and the simulator's coherence directory
independently charges whatever transfers really occur.
"""

from __future__ import annotations

from typing import Sequence

from repro.runtime.graph import TaskGraph, TaskInstance
from repro.runtime.regions import IntervalSet
from repro.runtime.schedulers.base import Scheduler, SchedulingContext


class AffinityScheduler(Scheduler):
    """Region-residency work-stealing with a local-first preference."""

    name = "affinity"
    dynamic = True

    def __init__(self) -> None:
        #: device id -> array name -> resident element ranges
        self._resident: dict[str, dict[str, IntervalSet]] = {}
        self._rows: list = []

    def start(self, graph: TaskGraph, ctx: SchedulingContext) -> None:
        self._resident = {}
        self._rows = graph.access_rows
        for resource in ctx.resources:
            self._resident.setdefault(resource.device.device_id, {})

    # -- residency bookkeeping --------------------------------------------

    def _affinity_bytes(self, inst: TaskInstance, device_id: str) -> int:
        """Input bytes of ``inst`` currently resident on ``device_id``.

        FULL-pattern reads are excluded: they are fetched once per device,
        not per chunk, so they would give every chunk of a kernel the same
        affinity everywhere the kernel has run — pure noise.
        """
        arrays = self._resident.get(device_id)
        if not arrays:
            return 0
        total = 0
        for region, elem_bytes in self._rows[inst.instance_id].partial_reads:
            resident = arrays.get(region.array)
            if resident is not None:
                total += resident.overlap(region.start, region.end) * elem_bytes
        return total

    def _record_assignment(self, inst: TaskInstance, device_id: str) -> None:
        """Writes become exclusive to ``device_id``; reads replicate there."""
        home = self._resident.setdefault(device_id, {})
        row = self._rows[inst.instance_id]
        for region in row.writes:
            for other_id, arrays in self._resident.items():
                if other_id == device_id:
                    continue
                resident = arrays.get(region.array)
                if resident is not None:
                    resident.remove(region.start, region.end)
        touched = [region for region, _ in row.partial_reads]
        for region in touched + list(row.writes):
            target = home.get(region.array)
            if target is None:
                target = home[region.array] = IntervalSet()
            target.add(region.start, region.end)

    # -- policy ------------------------------------------------------------

    def assign(
        self, ready: Sequence[TaskInstance], ctx: SchedulingContext
    ) -> list[tuple[TaskInstance, str]]:
        out: list[tuple[TaskInstance, str]] = []
        # accelerator helper threads serve the ready queue first, matching
        # the breadth-first scheduler's fixed registration order
        idle = sorted(
            ctx.idle_resources(), key=lambda r: (not r.is_accelerator,)
        )
        taken: set[int] = set()
        for resource in idle:
            device_id = resource.device.device_id
            local_best: TaskInstance | None = None
            local_bytes = 0
            fresh: TaskInstance | None = None
            stolen: TaskInstance | None = None
            for inst in ready:  # creation order — first hit wins ties
                if inst.instance_id in taken:
                    continue
                here = self._affinity_bytes(inst, device_id)
                if here > local_bytes:
                    local_best, local_bytes = inst, here
                    continue
                if local_best is not None:
                    continue
                if fresh is None or stolen is None:
                    anywhere = any(
                        self._affinity_bytes(inst, other) > 0
                        for other in self._resident
                        if other != device_id
                    )
                    if not anywhere and fresh is None:
                        fresh = inst
                    elif anywhere and stolen is None:
                        stolen = inst
            choice = local_best or fresh or stolen
            if choice is None:
                continue
            taken.add(choice.instance_id)
            self._record_assignment(choice, device_id)
            out.append((choice, resource.resource_id))
        return out
