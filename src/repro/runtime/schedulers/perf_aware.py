"""Performance-aware earliest-finish scheduling (the DP-Perf policy).

Reproduces the Planas et al. self-adaptive OmpSs scheduler as the paper uses
it:

* a **profiling phase** seeds per-``(kernel, device)`` execution-rate
  estimates — the paper gives each device 3 task instances per kernel and
  excludes that phase from the measurements, so here the seed comes from a
  :class:`ProfileTable` built by the DP-Perf strategy's profiling run;
* estimates are refined online from measured instance durations
  (exponentially weighted moving average);
* every ready instance is assigned immediately to the resource with the
  **earliest estimated finish time**, tracking each device's estimated busy
  time ("the runtime ... estimates the device busy time ... and will
  schedule the coming partition to that device").

Like DP-Dep, the policy "also tracks data dependency as DP-Dep": chain
residency is recorded and used when estimating the *host* side (pulling a
device-resident chain back is billed its transfer).  Accelerator
estimates, however, bill the instance's full partitioned traffic at
nominal link bandwidth regardless of residency — the 0.7-era directory
cannot promise a cached copy survives until the task runs — which both
stabilizes the assignment equilibrium and reproduces the paper's
observation that DP-Perf "overestimates the GPU capability".  The
estimates also ignore link queueing and message latency; together with
the chunk granularity (n/m), this is why DP-Perf can absorb all m
instances onto the GPU on transfer-bound workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import SchedulingError
from repro.platform.topology import ComputeResource
from repro.runtime.graph import TaskGraph, TaskInstance
from repro.runtime.schedulers.base import Scheduler, SchedulingContext


@dataclass
class ProfileTable:
    """Per-``(kernel name, device id)`` estimated seconds per kernel index.

    Rates are whole-device rates; the scheduler scales by the resource
    share (one CPU thread provides ``1/m`` of the CPU).  ``transfer_s_per_
    byte`` maps accelerator device ids to the nominal per-byte transfer
    cost used in estimates (0 when unknown).
    """

    rate_s_per_index: dict[tuple[str, str], float] = field(default_factory=dict)
    transfer_s_per_byte: dict[str, float] = field(default_factory=dict)

    def get(self, kernel: str, device_id: str) -> float | None:
        return self.rate_s_per_index.get((kernel, device_id))

    def set(self, kernel: str, device_id: str, rate: float) -> None:
        if rate <= 0:
            raise SchedulingError("profiled rate must be positive")
        self.rate_s_per_index[(kernel, device_id)] = rate


class PerfAwareScheduler(Scheduler):
    """Earliest-finish-time assignment over online performance estimates."""

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
        self._host_id: str | None = None
        #: dependence-chain tracking (shared policy with DP-Dep)
        self._chain_device: dict[int, str] = {}
        #: per-run device-class table, one row per ``(device, share)``
        #: class in first-resource order: ``(slot, first resource, device
        #: id, share, is accelerator)``
        self._classes: list[tuple] = []
        #: per-run resource table, in resource order: ``(resource id,
        #: device-class slot, device id)``
        self._table: list[tuple[str, int, str]] = []
        #: per-run instance table, by instance id: the static terms of
        #: its estimate, ``(kernel name, work units, in + out bytes,
        #: in bytes, chain id)``; ``None`` for barriers
        self._terms: list[tuple | None] = []

    def start(self, graph: TaskGraph, ctx: SchedulingContext) -> None:
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
        self._chain_device.clear()
        # the byte totals cover non-FULL accesses only: FULL data is
        # fetched once per device, not per chunk, so billing it to every
        # instance would wildly overestimate.  Work units are pure in the
        # row's signature, so instances sharing a row share them.
        work_of: dict[int, float] = {}
        self._terms = terms = []
        for inst, row, chain in zip(graph.instances, graph.access_rows,
                                    graph.chains):
            if row is None:
                terms.append(None)
                continue
            work = work_of.get(id(row))
            if work is None:
                work = work_of[id(row)] = inst.kernel.work_units(
                    inst.lo, inst.hi
                )
            terms.append((inst.kernel.name, work, row.in_bytes + row.out_bytes,
                          row.in_bytes, chain))
        # a device class is a (device, share) pair: every resource of one
        # class gets the same estimate for an instance
        slots: dict[tuple[str, float], int] = {}
        self._classes = []
        self._table = []
        for r in ctx.resources:
            device_id = r.device.device_id
            cls = (device_id, r.share)
            slot = slots.get(cls)
            if slot is None:
                slot = slots[cls] = len(slots)
                self._classes.append(
                    (slot, r, device_id, r.share, r.is_accelerator)
                )
            self._table.append((r.resource_id, slot, device_id))

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

    # -- policy ------------------------------------------------------------

    def assign(
        self, ready: Sequence[TaskInstance], ctx: SchedulingContext
    ) -> list[tuple[TaskInstance, str]]:
        out: list[tuple[TaskInstance, str]] = []
        busy_until = self._busy_until
        now = ctx.now
        table = self._table
        terms = self._terms
        chain_device = self._chain_device
        host_id = self._host_id
        rates = self.profile.rate_s_per_index
        per_byte = self.profile.transfer_s_per_byte
        # The estimated execution time of an instance on a resource:
        # compute, in work units (for imbalanced kernels, ref [9], the
        # runtime knows each task instance's size at creation time),
        # scales with the resource share.  A transfer charge — the
        # instance's partitioned data volume at nominal link bandwidth —
        # is added when the chain's data would have to cross the link:
        # accelerators fetching host/foreign data, or the host pulling an
        # accelerator-resident chain back.  Barriers reset chain
        # residency to the host (taskwait flushes to host memory).
        #
        # The estimate is a pure function of the instance and the
        # resource's (device, share) class — identical for every thread
        # of the same device — so it runs once per class, not once per
        # resource.  It is recomputed for every instance and every call:
        # completions move the rates (EWMA) and assignments move the
        # chains' data homes.
        classes = self._classes
        est_of_slot = [0.0] * len(classes)
        for inst in ready:  # release order, assigned immediately
            name, work, in_out, in_b, chain = terms[inst.instance_id]
            # where the chain's data lives now: fresh chains start at
            # the host
            home = chain_device.get(chain, host_id)
            for slot, resource, device_id, share, is_accelerator in classes:
                rate = rates.get((name, device_id))
                if rate is None:
                    rate = self._rate(inst, resource)
                est = work * rate / share
                if is_accelerator:
                    # the runtime bills an accelerator task its full
                    # partitioned traffic — inputs in, outputs eventually
                    # back — regardless of current residency (the 0.7-era
                    # directory cannot promise a cached copy survives
                    # until the task runs); at execution time resident
                    # data is of course not re-transferred, which is the
                    # systematic GPU-cost overestimate that keeps the
                    # equilibrium stable instead of creeping all chains
                    # onto the device
                    est += in_out * per_byte.get(device_id, 0.0)
                elif home != host_id and home is not None:
                    # pulling a device-resident chain back to the host
                    est += in_b * per_byte.get(home, 0.0)
                est_of_slot[slot] = est
            # the earliest finish in resource order; a later resource
            # must beat the best so far by more than 1e-15 s
            best_rid: str | None = None
            best_device = None
            best_finish = bar = float("inf")
            for rid, slot, device_id in table:
                busy = busy_until[rid]
                finish = (busy if busy > now else now) + est_of_slot[slot]
                if finish < bar:
                    best_finish = finish
                    bar = finish - 1e-15
                    best_rid = rid
                    best_device = device_id
            if best_rid is None:
                raise SchedulingError("no resources available for assignment")
            busy_until[best_rid] = best_finish
            chain_device[chain] = best_device
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
        if instance.hi <= instance.lo:
            return
        resource = self._shares.get(resource_id)
        if resource is None:
            return
        # normalize the measurement back to a whole-device per-work-unit
        # rate; the runtime measures the task's wall time, which includes
        # the transfers it triggered — this is how the scheduler learns
        # that a device is transfer-bound for a kernel
        share, device_id = resource
        name, work = self._terms[instance.instance_id][:2]
        if work <= 0:
            return
        measured = (compute_time + transfer_time) * share / work
        key = (name, device_id)
        rates = self.profile.rate_s_per_index
        old = rates.get(key)
        if old is None:
            rates[key] = measured
        else:
            a = self.ewma_alpha
            rates[key] = a * measured + (1 - a) * old
