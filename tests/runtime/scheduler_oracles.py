"""Reference copies of the DP-Aff, DP-Dep and DP-Perf scheduling policies.

These are the straightforward forms of
:class:`~repro.runtime.schedulers.affinity.AffinityScheduler`,
:class:`~repro.runtime.schedulers.breadth_first.BreadthFirstScheduler` and
:class:`~repro.runtime.schedulers.perf_aware.PerfAwareScheduler`: every
decision rescans the whole ready set and recomputes every score and
estimate from scratch.  The library's schedulers keep indexes and
per-run tables instead; ``test_scheduler_oracles.py`` requires them to
make exactly the decisions these copies make.  Keep these as they are:
they are the specification, not code to optimize.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import SchedulingError
from repro.platform.topology import ComputeResource
from repro.runtime.dependence import dependence_chains
from repro.runtime.graph import TaskGraph, TaskInstance
from repro.runtime.regions import IntervalSet
from repro.runtime.schedulers.base import Scheduler, SchedulingContext
from repro.runtime.schedulers.perf_aware import ProfileTable


class OracleAffinityScheduler(Scheduler):
    """DP-Aff: every ready instance re-scored against every device."""

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


class OracleBreadthFirstScheduler(Scheduler):
    """DP-Dep: two passes over the ready set per idle resource."""

    name = "breadth-first"
    dynamic = True

    def __init__(self) -> None:
        self._chains: dict[int, int] = {}
        #: chain id -> device id where the chain started executing
        self._chain_device: dict[int, str] = {}

    def start(self, graph: TaskGraph, ctx: SchedulingContext) -> None:
        self._chains = dependence_chains(graph)
        self._chain_device.clear()

    def assign(
        self, ready: Sequence[TaskInstance], ctx: SchedulingContext
    ) -> list[tuple[TaskInstance, str]]:
        out: list[tuple[TaskInstance, str]] = []
        # accelerator helper threads register before the SMP worker team,
        # so they serve the ready queue first — a fixed, capability-blind
        # order; with the paper's m instances over m threads + 1 GPU this
        # leaves the GPU exactly one instance ("only one task instance is
        # assigned to the GPU and the rest to the CPU").
        idle = sorted(
            ctx.idle_resources(), key=lambda r: (not r.is_accelerator,)
        )
        taken: set[int] = set()
        for resource in idle:
            choice: TaskInstance | None = None
            # first preference: an instance whose chain lives on this device
            for inst in ready:
                if inst.instance_id in taken:
                    continue
                chain = self._chains.get(inst.instance_id)
                dev = self._chain_device.get(chain) if chain is not None else None
                if dev == resource.device.device_id:
                    choice = inst
                    break
            if choice is None:
                # otherwise: oldest ready instance not bound elsewhere
                for inst in ready:
                    if inst.instance_id in taken:
                        continue
                    chain = self._chains.get(inst.instance_id)
                    dev = self._chain_device.get(chain) if chain is not None else None
                    if dev is None or dev == resource.device.device_id:
                        choice = inst
                        break
            if choice is None:
                continue
            taken.add(choice.instance_id)
            chain = self._chains.get(choice.instance_id)
            if chain is not None:
                self._chain_device.setdefault(chain, resource.device.device_id)
            out.append((choice, resource.resource_id))
        return out


class OraclePerfAwareScheduler(Scheduler):
    """DP-Perf: every estimate recomputed from the profile and the row."""

    name = "perf-aware"
    dynamic = True

    def __init__(
        self,
        profile: ProfileTable | None = None,
        *,
        ewma_alpha: float = 0.5,
    ) -> None:
        if not (0.0 <= ewma_alpha <= 1.0):
            raise SchedulingError("ewma_alpha must be in [0, 1]")
        self.profile = profile or ProfileTable()
        self.ewma_alpha = ewma_alpha
        #: estimated absolute time at which each resource drains its queue
        self._busy_until: dict[str, float] = {}
        self._shares: dict[str, tuple[float, str]] = {}
        self._graph: TaskGraph | None = None
        self._host_id: str | None = None
        #: dependence-chain tracking (shared policy with DP-Dep)
        self._chains: dict[int, int] = {}
        self._chain_device: dict[int, str] = {}
        self._rows: list = []
        #: per-run resource table: ``(resource, resource id, device-class
        #: slot, first resource of its class)``
        self._table: list[tuple[ComputeResource, str, int, bool]] = []
        #: work units per shared access row (pure in the row's signature)
        self._work: dict = {}

    def start(self, graph: TaskGraph, ctx: SchedulingContext) -> None:
        self._graph = graph
        self._busy_until = {r.resource_id: 0.0 for r in ctx.resources}
        self._shares = {
            r.resource_id: (r.share, r.device.device_id) for r in ctx.resources
        }
        self._host_id = next(
            (r.device.device_id for r in ctx.resources if not r.is_accelerator),
            None,
        )
        # default the per-byte link costs from the platform for any
        # accelerator the seeding profile did not cover
        if ctx.platform is not None:
            for r in ctx.resources:
                if r.is_accelerator:
                    dev_id = r.device.device_id
                    if dev_id not in self.profile.transfer_s_per_byte:
                        link = ctx.platform.link_for(dev_id)
                        self.profile.transfer_s_per_byte[dev_id] = (
                            1.0 / link.bandwidth
                        )
        self._chains = dependence_chains(graph)
        self._chain_device.clear()
        self._rows = graph.access_rows
        self._work = {}
        # a device class is a (device, share) pair: every resource of one
        # class gets the same estimate for an instance
        slots: dict[tuple[str, float], int] = {}
        self._table = []
        for r in ctx.resources:
            cls = (r.device.device_id, r.share)
            first = cls not in slots
            if first:
                slots[cls] = len(slots)
            self._table.append((r, r.resource_id, slots[cls], first))

    # -- estimation -------------------------------------------------------

    def _rate(self, inst: TaskInstance, resource: ComputeResource) -> float:
        """Estimated whole-device seconds/index for this kernel."""
        kernel = inst.kernel
        rate = self.profile.get(kernel.name, resource.device.device_id)
        if rate is None:
            # cold start: fall back to an optimistic peak-rate guess, like a
            # runtime that has not yet profiled this kernel on this device.
            rate = 1.0 / kernel.device_throughput(resource.device, inst.invocation.n)
            self.profile.set(kernel.name, resource.device.device_id, rate)
        return rate

    def _data_home(self, inst: TaskInstance) -> str | None:
        """Where the instance's dependence chain's data currently lives.

        ``None`` means host memory (fresh chains start there).
        """
        chain = self._chains.get(inst.instance_id)
        if chain is None:
            return self._host_id
        return self._chain_device.get(chain, self._host_id)

    def _cost(self, inst: TaskInstance) -> tuple[float, int, int]:
        """``(work_units, in_bytes, out_bytes)`` of an instance.

        The byte totals cover non-FULL accesses only: FULL data is
        fetched once per device, not per chunk, so billing it to every
        instance would wildly overestimate.
        """
        row = self._rows[inst.instance_id]
        work = self._work.get(row)
        if work is None:
            work = self._work[row] = inst.kernel.work_units(inst.lo, inst.hi)
        return work, row.in_bytes, row.out_bytes

    def estimate(self, inst: TaskInstance, resource: ComputeResource) -> float:
        """Estimated execution time of ``inst`` on ``resource``.

        Compute scales with the resource share.  A transfer charge — the
        instance's partitioned data volume at nominal link bandwidth — is
        added when the chain's data would have to cross the link to reach
        ``resource``: accelerators fetching host/foreign data, or the host
        pulling an accelerator-resident chain back.  Barriers reset chain
        residency to the host (taskwait flushes to host memory).
        """
        rate = self._rate(inst, resource)
        # work units, not index counts: for imbalanced kernels (ref [9])
        # the runtime knows each task instance's size at creation time
        work, in_b, out_b = self._cost(inst)
        est = work * rate / resource.share
        home = self._data_home(inst)
        target = resource.device.device_id
        if resource.is_accelerator:
            # the runtime bills an accelerator task its full partitioned
            # traffic — inputs in, outputs eventually back — regardless of
            # current residency (the 0.7-era directory cannot promise a
            # cached copy survives until the task runs); at execution time
            # resident data is of course not re-transferred, which is the
            # systematic GPU-cost overestimate that keeps the equilibrium
            # stable instead of creeping all chains onto the device.
            per_byte = self.profile.transfer_s_per_byte.get(target, 0.0)
            est += (in_b + out_b) * per_byte
        elif home != self._host_id and home is not None:
            # pulling a device-resident chain back to the host
            per_byte = self.profile.transfer_s_per_byte.get(home, 0.0)
            est += in_b * per_byte
        return est

    # -- policy ------------------------------------------------------------

    def assign(
        self, ready: Sequence[TaskInstance], ctx: SchedulingContext
    ) -> list[tuple[TaskInstance, str]]:
        out: list[tuple[TaskInstance, str]] = []
        busy_until = self._busy_until
        now = ctx.now
        table = self._table
        # estimate() is a pure function of the instance and the
        # resource's (device, share) class — identical for every thread
        # of the same device — so it runs once per class, at the class's
        # first resource, not once per resource.  It is recomputed for
        # every instance and every call: completions move the rates
        # (EWMA) and assignments move the chains' data homes.
        est_of_slot = [0.0] * len(table)
        for inst in ready:  # creation order, assigned immediately
            best_rid: str | None = None
            best_finish = float("inf")
            for resource, rid, slot, first in table:
                if first:
                    est = est_of_slot[slot] = self.estimate(inst, resource)
                else:
                    est = est_of_slot[slot]
                busy = busy_until[rid]
                finish = (busy if busy > now else now) + est
                if finish < best_finish - 1e-15:
                    best_finish = finish
                    best_rid = rid
            if best_rid is None:
                raise SchedulingError("no resources available for assignment")
            self._busy_until[best_rid] = best_finish
            chain = self._chains.get(inst.instance_id)
            if chain is not None:
                self._chain_device[chain] = self._shares[best_rid][1]
            out.append((inst, best_rid))
        return out

    def on_complete(
        self,
        instance: TaskInstance,
        resource_id: str,
        *,
        compute_time: float,
        transfer_time: float,
    ) -> None:
        """EWMA-refresh the rate estimate from a measured instance."""
        if instance.size <= 0:
            return
        resource = self._shares.get(resource_id)
        if resource is None:
            return
        # normalize the measurement back to a whole-device per-work-unit
        # rate; the runtime measures the task's wall time, which includes
        # the transfers it triggered — this is how the scheduler learns
        # that a device is transfer-bound for a kernel
        share, device_id = resource
        work = self._cost(instance)[0]
        if work <= 0:
            return
        measured = (compute_time + transfer_time) * share / work
        key = (instance.kernel.name, device_id)
        old = self.profile.rate_s_per_index.get(key)
        if old is None:
            self.profile.rate_s_per_index[key] = measured
        else:
            a = self.ewma_alpha
            self.profile.rate_s_per_index[key] = a * measured + (1 - a) * old
