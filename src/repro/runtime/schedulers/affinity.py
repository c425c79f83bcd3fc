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
   resource's device (ties: the first in release order);
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

Scores are kept, not recomputed.  An instance's score on a device is a
pure function of its access row's non-FULL reads and that device's
residency over them, so the scheduler caches one score per (device,
access row) and drops exactly the entries a residency change can move:
an assignment that adds ranges to its device, or removes written ranges
from another device, marks stale the cached scores *of that device*
whose rows read an overlapping range, found through a per-array sorted
index of the rows' partial reads.  Every other cached score is still
what a rescan would compute, so decisions are unchanged.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Sequence

from repro.runtime.graph import TaskGraph, TaskInstance
from repro.runtime.regions import IntervalSet
from repro.runtime.schedulers.base import Scheduler, SchedulingContext

#: a cached score that a residency change made stale
_STALE = -1


class AffinityScheduler(Scheduler):
    """Region-residency work-stealing with a local-first preference."""

    name = "affinity"
    dynamic = True

    def __init__(self) -> None:
        #: device id -> array name -> resident element ranges
        self._resident: dict[str, dict[str, IntervalSet]] = {}
        self._rows: list = []
        #: device id -> device slot, in the run's resource order
        self._slot: dict[str, int] = {}
        #: resources in serving order: ``(resource id, device slot,
        #: device id)``
        self._order: list[tuple[str, int, str]] = []
        #: per device slot: the other slots
        self._others: list[list[int]] = []
        #: per device slot: its resident arrays (``_resident``'s values)
        self._arrays: list[dict[str, IntervalSet]] = []
        #: instance id -> its access row's slot (``None`` for barriers)
        self._row_slot: list[int | None] = []
        #: row slot -> the row's non-FULL reads
        self._reads: list[tuple] = []
        #: per device slot: cached score per row slot, or ``_STALE``
        self._scores: list[list[int]] = []
        #: array -> ``(starts, ends, row slots, longest range)`` of every
        #: non-empty partial read, sorted by start
        self._readers: dict[str, tuple[list, list, list, int]] = {}

    def start(self, graph: TaskGraph, ctx: SchedulingContext) -> None:
        self._resident = {}
        self._rows = graph.access_rows
        for resource in ctx.resources:
            self._resident.setdefault(resource.device.device_id, {})
        self._slot = {dev: k for k, dev in enumerate(self._resident)}
        self._arrays = list(self._resident.values())
        slots = range(len(self._arrays))
        self._others = [[o for o in slots if o != k] for k in slots]
        # accelerator helper threads serve the ready queue first,
        # matching the breadth-first scheduler's fixed registration order
        self._order = [
            (r.resource_id, self._slot[r.device.device_id], r.device.device_id)
            for r in sorted(ctx.resources, key=lambda r: not r.is_accelerator)
        ]
        # one score per distinct row: instances of one signature share
        # their row, and so their score
        row_ids: dict[int, int] = {}
        self._row_slot = row_slot = []
        self._reads = reads = []
        by_array: dict[str, list] = {}
        for row in self._rows:
            if row is None:
                row_slot.append(None)
                continue
            k = row_ids.get(id(row))
            if k is None:
                k = row_ids[id(row)] = len(reads)
                reads.append(row.partial_reads)
                for region, _ in row.partial_reads:
                    if region.start < region.end:
                        by_array.setdefault(region.array, []).append(
                            (region.start, region.end, k)
                        )
            row_slot.append(k)
        self._scores = [[_STALE] * len(reads) for _ in slots]
        self._readers = {}
        for array, entries in by_array.items():
            entries.sort()
            self._readers[array] = (
                [start for start, _, _ in entries],
                [end for _, end, _ in entries],
                [k for _, _, k in entries],
                max(end - start for start, end, _ in entries),
            )

    # -- residency bookkeeping --------------------------------------------

    def _affinity_bytes(self, k: int, slot: int) -> int:
        """Input bytes of row slot ``k`` currently resident on device
        ``slot``.

        FULL-pattern reads are excluded: they are fetched once per device,
        not per chunk, so they would give every chunk of a kernel the same
        affinity everywhere the kernel has run — pure noise.
        """
        arrays = self._arrays[slot]
        if not arrays:
            return 0
        total = 0
        for region, elem_bytes in self._reads[k]:
            resident = arrays.get(region.array)
            if resident is not None:
                total += resident.overlap(region.start, region.end) * elem_bytes
        return total

    def _invalidate(self, slot: int, array: str, lo: int, hi: int) -> None:
        """Residency of ``array[lo:hi)`` changed on device ``slot``: mark
        stale its cached scores of rows that read an overlapping range."""
        readers = self._readers.get(array)
        if readers is None:
            return
        starts, ends, ks, longest = readers
        scores = self._scores[slot]
        # a read starting at or before lo - longest ends at or before lo
        for x in range(bisect_right(starts, lo - longest),
                       bisect_left(starts, hi)):
            if ends[x] > lo:
                scores[ks[x]] = _STALE

    def _record_assignment(self, inst: TaskInstance, device_id: str) -> None:
        """Writes become exclusive to ``device_id``; reads replicate there.

        Only ranges whose residency really changes invalidate scores: a
        removal that finds nothing resident, or an addition that finds
        the range already resident, leaves its set as it was.
        """
        resident = self._resident
        slot_of = self._slot
        home = resident.setdefault(device_id, {})
        row = self._rows[inst.instance_id]
        for region in row.writes:
            array, lo, hi = region.array, region.start, region.end
            for other_id, arrays in resident.items():
                if other_id == device_id:
                    continue
                held = arrays.get(array)
                if held is not None and held.overlap(lo, hi):
                    self._invalidate(slot_of[other_id], array, lo, hi)
                    held.remove(lo, hi)
        slot = slot_of[device_id]
        touched = [region for region, _ in row.partial_reads]
        for region in touched + list(row.writes):
            array, lo, hi = region.array, region.start, region.end
            target = home.get(array)
            if target is None:
                target = home[array] = IntervalSet()
            if target.overlap(lo, hi) < hi - lo:
                self._invalidate(slot, array, lo, hi)
                target.add(lo, hi)

    # -- policy ------------------------------------------------------------

    def assign(
        self, ready: Sequence[TaskInstance], ctx: SchedulingContext
    ) -> list[tuple[TaskInstance, str]]:
        inflight = ctx.inflight
        idle = [entry for entry in self._order if inflight.get(entry[0], 0) == 0]
        if not idle:
            return []
        out: list[tuple[TaskInstance, str]] = []
        scores = self._scores
        row_slot = self._row_slot
        score = self._affinity_bytes
        # the one scan of the ready set; later rounds walk what is left
        candidates = [(inst, row_slot[inst.instance_id]) for inst in ready]
        for rid, slot, device_id in idle:
            if not candidates:
                break
            col = scores[slot]
            others = self._others[slot]
            local_best = -1
            local_bytes = 0
            fresh = stolen = -1
            # release order — the first hit wins ties
            for pos, (inst, k) in enumerate(candidates):
                here = col[k]
                if here < 0:
                    here = col[k] = score(k, slot)
                if here > local_bytes:
                    local_best, local_bytes = pos, here
                    continue
                if local_best >= 0:
                    continue
                if fresh < 0 or stolen < 0:
                    anywhere = False
                    for other in others:
                        there = scores[other][k]
                        if there < 0:
                            there = scores[other][k] = score(k, other)
                        if there > 0:
                            anywhere = True
                            break
                    if not anywhere and fresh < 0:
                        fresh = pos
                    elif anywhere and stolen < 0:
                        stolen = pos
            pos = (local_best if local_best >= 0
                   else fresh if fresh >= 0 else stolen)
            if pos < 0:
                continue
            choice = candidates.pop(pos)[0]
            self._record_assignment(choice, device_id)
            out.append((choice, rid))
        return out
