"""The runtime engine: replays a task graph on the simulated platform.

The engine wires everything together:

* compute resources and link channels become serial
  :class:`~repro.sim.resources.SimResource` objects;
* an instance's lifecycle is *ready -> assigned -> transfers -> compute ->
  complete*; each stage is driven by typed completion events — small
  ``__slots__`` countdown objects (:class:`_ComputeArm`,
  :class:`_Transfer`, :class:`_BarrierArm`) and ``(method, arg)``
  callbacks — rather than per-event closures, so the (default) fast
  engine's slot-dispatched run loop never allocates bookkeeping lambdas
  on the hot path.  No callback is stored on the run itself, so a
  finished run holds no reference cycle and is freed by reference
  counting alone; transfers serialize on the link channel of the target
  device and may overlap other instances' compute (dual-stream style
  pipelining);
* ``taskwait`` barriers flush dirty device data back to the host over the
  D2H channel before unblocking their successors;
* per-instance runtime costs: task creation overhead for every instance,
  plus a dynamic-decision overhead for dynamically scheduled ones — the
  "runtime scheduling overhead" the paper attributes to dynamic
  partitioning;
* optionally, a final flush returns all results to host memory at program
  end (end-to-end timing, like the paper's measurements that include
  getting results back);
* at summary detail, a run whose every instance has a statically known
  resource may commit whole epochs analytically at its quiet points —
  the drain of :mod:`repro.sim.plan`, exact to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.artifact import RunArtifact, TraceSummary, check_detail
from repro.errors import SchedulingError, SimulationError
from repro.platform.topology import HOST_SPACE, ComputeResource, Platform
from repro.runtime.graph import TaskGraph, TaskInstance
from repro.runtime.memory import MemoryManager, TransferOp
from repro.runtime.schedulers.base import (
    Scheduler,
    SchedulingContext,
    StaticScheduler,
)
from repro.sim.engine import DEFAULT_MAX_EVENTS
from repro.sim.fast_engine import make_simulator
from repro.sim.plan import drain_for
from repro.sim.resources import SimResource
from repro.sim.trace import ExecutionTrace
from repro.sim.tracestore import TraceLane

#: per-run instance classes: how the pump routes a ready instance
_BARRIER, _PINNED, _FREE = 0, 1, 2

#: lazy trace-label templates for transfer rows — the store packs
#: (template, array, start, end) instead of interning a per-row f-string
_TRANSFER_LABEL = {
    "h2d": "{}[{}:{}) h2d",
    "d2h": "{}[{}:{}) d2h",
}


@dataclass
class _InflightTransfer:
    """A transfer on the wire; readers of the overlapping region wait."""

    start: int
    end: int
    done: bool = False
    waiters: list = field(default_factory=list)


class _ComputeArm:
    """Countdown to compute start: fires once every awaited transfer lands.

    One slotted object per dispatched instance replaces the per-dispatch
    ``arm_compute`` closure (and its cell variable); waiters lists and
    transfer completions invoke it like any zero-argument callback.
    """

    __slots__ = ("run", "inst", "resource", "space", "transfer_total", "pending")

    def __init__(self, run, inst, resource, space, transfer_total, pending):
        self.run = run
        self.inst = inst
        self.resource = resource
        self.space = space
        self.transfer_total = transfer_total
        self.pending = pending

    def __call__(self) -> None:
        self.pending -= 1
        if self.pending == 0:
            self.run._start_compute(
                self.inst, self.resource, self.space, self.transfer_total
            )


class _Transfer:
    """One transfer's lifecycle state: arm (source hazards) -> wire -> done.

    Replaces the ``start``/``arm``/``finish`` closure triple: upstream
    waiters call the object to count down source hazards, the link
    occupation completes through a ``(run._transfer_done, self)``
    callback, and the inflight entry/key ride along in slots.
    """

    __slots__ = ("run", "op", "duration", "direction", "entry", "key",
                 "on_complete", "pending")

    def __init__(self, run, op, duration, direction, entry, key,
                 on_complete, pending):
        self.run = run
        self.op = op
        self.duration = duration
        self.direction = direction
        self.entry = entry
        self.key = key
        self.on_complete = on_complete
        self.pending = pending

    def __call__(self) -> None:
        """One upstream (source-side) transfer landed."""
        self.pending -= 1
        if self.pending == 0:
            self.start()

    def start(self) -> None:
        """Put the transfer on its link channel."""
        run = self.run
        op = self.op
        key = f"{op.device_space}:{self.direction}"
        # lane path: label/category come from the lane's constants; at
        # full detail the varying args pack into the lazy label columns
        # and the meta dict is handed over un-copied, at summary detail
        # the lane only folds the row, so neither is built
        if run.trace is None:
            args, meta = (), None
        else:
            args = (op.array, op.start, op.end)
            meta = {
                "array": op.array,
                "bytes": op.nbytes,
                "direction": self.direction,
                "device": op.device_space,
            }
        run.links[key].occupy(
            self.duration,
            label="",
            category="transfer",
            on_complete=(run._transfer_done, self),
            lane=run.transfer_lanes[key],
            args=args,
            meta=meta,
        )


class _BarrierArm:
    """Countdown to barrier completion: overhead event plus every flush."""

    __slots__ = ("run", "inst", "pending")

    def __init__(self, run, inst, pending):
        self.run = run
        self.inst = inst
        self.pending = pending

    def __call__(self) -> None:
        self.pending -= 1
        if self.pending == 0:
            run = self.run
            if run._pending_writebacks:
                run._wb_waiters.append(self.inst)
            else:
                run._barrier_done(self.inst)


@dataclass(frozen=True)
class RuntimeConfig:
    """Tunable runtime parameters.

    Parameters
    ----------
    cpu_threads:
        Number of SMP threads ``m`` (``None`` = host core count).  The
        paper uses the same ``m`` for Only-CPU, static, and dynamic runs.
    task_creation_overhead_s:
        Host-side cost of creating/bookkeeping one task instance (charged
        on the executing resource, all strategies).
    dynamic_decision_overhead_s:
        Extra per-instance cost of a runtime scheduling decision plus the
        device-side task management it triggers — dependence resolution,
        cache-directory lookups, OpenCL command construction (dynamic
        schedulers only).  The default (~0.3 ms) matches the per-task
        overheads reported for the 2014-era Nanos++ accelerator support
        and is the "runtime scheduling overhead" the paper's Propositions
        charge dynamic partitioning with.
    barrier_invalidates_devices:
        Whether ``taskwait`` empties the device caches after flushing
        (OmpSs-0.7 behaviour; see
        :meth:`repro.runtime.memory.MemoryManager.flush_to_host`).
    final_flush:
        Whether to flush all device data to the host at program end and
        include it in the makespan (end-to-end timing).
    eager_writeback:
        When an instance belongs to an invocation followed by a
        ``taskwait``, copy its device-written regions back to the host as
        soon as it completes, overlapping the flush with the rest of the
        iteration's compute (the producing task knows a synchronization
        follows, so it issues its own read-back — as the OpenCL-side
        tasks of the paper's synchronized loops do).  Instances without a
        following ``taskwait`` stay lazy, preserving device residency
        (SP-Unified's single-transfer property).
    barrier_overhead_s:
        Fixed cost of one ``taskwait``: quiescing the thread team,
        draining device command queues, and tearing down/rebuilding the
        cache directory.  Paid by every OmpSs-managed execution (static
        and dynamic alike); the Only-GPU baseline is plain OpenCL and
        overrides it to zero.  This calibrated lump is what makes adding
        synchronization an application never needed expensive — the
        paper's SP-Varied-without-sync penalty.
    max_events:
        Event budget per simulator drain — the safety valve against
        runaway self-scheduling loops.  Exceeding it raises a
        :class:`~repro.errors.SimulationError` that names this knob (and
        the CLI ``--max-events`` flag); raise it for legitimately huge
        simulations instead of editing the engine.
    drain:
        Let a summary-detail run whose every compute instance has a
        statically known resource commit whole epochs analytically at
        its quiet points (the drain of :mod:`repro.sim.plan`).  The
        artifact is the same either way; ``False`` is the drain-refused
        reference the differential suites compare against.
    """

    cpu_threads: int | None = None
    task_creation_overhead_s: float = 5e-6
    dynamic_decision_overhead_s: float = 700e-6
    final_flush: bool = True
    eager_writeback: bool = True
    barrier_invalidates_devices: bool = True
    barrier_overhead_s: float = 11e-3
    max_events: int = DEFAULT_MAX_EVENTS
    drain: bool = True


#: Compatibility alias: the historical result type.  One simulated run now
#: travels as a frozen :class:`~repro.artifact.RunArtifact`, which exposes
#: the full old ``ExecutionResult`` API (``makespan_ms``, ``gpu_fraction``,
#: ``ratio_by_kernel()``, ``trace`` ...) — derived numbers come from its
#: :class:`~repro.artifact.TraceSummary` instead of per-query trace scans.
ExecutionResult = RunArtifact


class RuntimeEngine:
    """Executes task graphs on a platform under a given scheduler."""

    def __init__(self, platform: Platform, *, config: RuntimeConfig | None = None) -> None:
        self.platform = platform
        self.config = config or RuntimeConfig()

    # -- public API ---------------------------------------------------------

    def execute(
        self, graph: TaskGraph, scheduler: Scheduler, *, detail: str = "full"
    ) -> RunArtifact:
        """Simulate ``graph`` under ``scheduler``; returns the run artifact.

        ``detail="full"`` (default) attaches the raw trace to the
        artifact; ``detail="summary"`` drops it, leaving only the
        precomputed :class:`~repro.artifact.TraceSummary` — the cheap
        form sweeps ship between processes.
        """
        run = _Run(self.platform, self.config, graph, scheduler,
                   detail=check_detail(detail))
        return run.go()


class _Run:
    """Single-use execution state (the engine itself stays reusable).

    ``detail`` decides what the run keeps of its trace: at ``"full"``
    its lanes stage every row into an :class:`ExecutionTrace`, at
    ``"summary"`` there is no trace (``self.trace is None``) and the
    lanes only fold.  Either way the lanes are the only producer of the
    run's :class:`~repro.artifact.TraceSummary`.

    A summary-detail run whose every compute instance has a statically
    known resource also holds the analytic drain of
    :mod:`repro.sim.plan` (``self._drain``, decided once here) and
    offers it the run's quiet points; every other run holds ``None``
    and never pays for it.
    """

    def __init__(
        self,
        platform: Platform,
        config: RuntimeConfig,
        graph: TaskGraph,
        scheduler: Scheduler,
        *,
        detail: str,
    ) -> None:
        self.platform = platform
        self.config = config
        self.graph = graph
        self.scheduler = scheduler
        self.detail = detail

        self.sim = make_simulator()
        self.trace = ExecutionTrace() if detail == "full" else None
        self.memory = MemoryManager(platform, graph.program.arrays)

        self.resources: list[ComputeResource] = platform.compute_resources(
            cpu_threads=config.cpu_threads
        )
        self._resource_by_id: dict[str, ComputeResource] = {
            r.resource_id: r for r in self.resources
        }
        host_id = platform.host.device_id
        #: resource id -> the memory space its device computes from
        self._space_of: dict[str, str] = {
            r.resource_id: (
                HOST_SPACE if r.device.device_id == host_id
                else r.device.device_id
            )
            for r in self.resources
        }
        self.sim_resources: dict[str, SimResource] = {
            r.resource_id: SimResource(self.sim, r.resource_id, self.trace)
            for r in self.resources
        }
        self.links: dict[str, SimResource] = {}
        for acc in platform.accelerators:
            link = platform.link_for(acc.device_id)
            if link.duplex:
                self.links[f"{acc.device_id}:h2d"] = SimResource(
                    self.sim, f"link:{acc.device_id}:h2d", self.trace
                )
                self.links[f"{acc.device_id}:d2h"] = SimResource(
                    self.sim, f"link:{acc.device_id}:d2h", self.trace
                )
            else:
                shared = SimResource(self.sim, f"link:{acc.device_id}", self.trace)
                self.links[f"{acc.device_id}:h2d"] = shared
                self.links[f"{acc.device_id}:d2h"] = shared

        # trace lanes, one per pre-declared homogeneous stream, in
        # registration order: each folds its rows into the summary and,
        # at full detail, stages them for the trace with its constants
        # interned once here instead of once per occupation.  Every
        # compute resource carries exactly one stream (kernel-instance
        # rows); every link channel one per direction (a half-duplex
        # link's shared SimResource gets two lanes, one per direction).
        self.lanes: list[TraceLane] = []
        #: float summary groups the fold-only lanes feed (see TraceLane)
        self._fed: set = set()
        self.compute_lanes = {
            r.resource_id: self._lane(
                r.resource_id, "compute", "{}[{}:{})#{}",
                device_kind=r.device.kind.value,
                device=r.device.device_id,
            )
            for r in self.resources
        }
        self.transfer_lanes = {}
        for acc in platform.accelerators:
            for direction in ("h2d", "d2h"):
                key = f"{acc.device_id}:{direction}"
                self.transfer_lanes[key] = self._lane(
                    self.links[key].resource_id, "transfer",
                    _TRANSFER_LABEL[direction],
                    device=acc.device_id, direction=direction,
                )

        instances = graph.instances
        #: per-instance count of dependences not yet done
        self.remaining = [len(inst.deps) for inst in instances]
        self._last_invocation_id = last_invocation_id = (
            graph.program.invocations[-1].invocation_id
            if graph.program.invocations else -1
        )
        #: released, undispatched instances by pump class, each in
        #: release order (see :meth:`_release`)
        self._barriers: list[TaskInstance] = []
        self._pinned: list[TaskInstance] = []
        self._free: list[TaskInstance] = []
        #: per-instance flag: waiting in ``_pinned``/``_free`` — the set
        #: a scheduler's assignments are checked against
        self._queued = bytearray(len(instances))
        self.inflight: dict[str, int] = {r.resource_id: 0 for r in self.resources}
        #: the one context the scheduler sees; the pump advances ``now``
        self._ctx = SchedulingContext(
            now=self.sim.now,
            resources=self.resources,
            inflight=self.inflight,
            platform=platform,
        )
        # per-instance tables, built in one pass: the pump class
        # (barrier, pinned or free); whether the compute pays the dynamic
        # decision overhead (a free instance under a dynamic scheduler);
        # whether it faces a taskwait — explicit, or the program's
        # implicit final sync after the last invocation when the run
        # accounts for end-to-end readback — and so writes back eagerly
        self._cls = cls = []
        self._pays_decision = pays = []
        self._faces_sync = faces = []
        dynamic = scheduler.dynamic
        final_flush = config.final_flush
        for inst in instances:
            invocation = inst.invocation
            if invocation is None:
                cls.append(_BARRIER)
                pays.append(False)
                faces.append(False)
                continue
            if inst.pinned_resource or inst.pinned_device:
                cls.append(_PINNED)
                pays.append(False)
            else:
                cls.append(_FREE)
                pays.append(dynamic)
            faces.append(invocation.sync_after or (
                final_flush
                and invocation.invocation_id == last_invocation_id
            ))
        #: whether the scheduler wants completions (the base class ignores
        #: them, and most policies keep that)
        self._notify = (
            getattr(scheduler.on_complete, "__func__", None)
            is not Scheduler.on_complete
        )
        #: successor ids in release order
        self._succs = graph.succs_sorted
        self.done: set[int] = set()
        self.transfer_bytes = {"h2d": 0, "d2h": 0}
        self._pumping = False
        self._finalized = False
        self._static = None
        #: eager write-backs still on the link; barriers wait for them
        self._pending_writebacks = 0
        self._wb_waiters: list[TaskInstance] = []
        #: in-flight transfers per (array, destination space): readers of a
        #: region being transferred must wait for the wire, not just for
        #: the (optimistically updated) directory
        self._inflight: dict[tuple[str, str], list[_InflightTransfer]] = {}
        #: how many transfers ``_inflight`` holds; while none is live, no
        #: hazard scan can find one
        self._live_transfers = 0
        #: per-instance regions, shared per signature by the graph
        self._rows = graph.access_rows
        #: resource id -> the graph's memo of compute times on the
        #: resource's (device, share) class.  Looped programs re-issue
        #: the same (kernel object, range, n) chunk once per iteration,
        #: every thread of one device has the same class, runs that share
        #: the graph share the memo, and the times are pure roofline
        #: arithmetic, so sharing is value-identical to recomputing.
        self._chunk_times = {
            r.resource_id: graph.chunk_times(r.device, r.share)
            for r in self.resources
        }
        #: resource id -> the program's memo of the same times, keyed on
        #: the kernel and its work rather than on this graph's rows, so
        #: the graphs a sweep pins from one program share it
        self._program_times = {
            r.resource_id: graph.program.chunk_times(r.device, r.share)
            for r in self.resources
        }
        #: the epoch drain, or None for runs that may not drain
        self._drain = (
            drain_for(self) if detail == "summary" and config.drain else None
        )

    # -- helpers --------------------------------------------------------------

    def _lane(self, resource_id: str, category: str, template: str,
              **consts) -> TraceLane:
        """Register the run's next lane: staging into the trace at full
        detail, fold-only at summary detail."""
        if self.trace is not None:
            lane = self.trace.lane(resource_id, category, template, **consts)
        else:
            lane = TraceLane(None, resource_id, category, template,
                             fed=self._fed, **consts)
        self.lanes.append(lane)
        return lane

    def _transfer_duration(self, op: TransferOp) -> float:
        link = self.platform.link_for(op.device_space)
        return link.transfer_time(op.nbytes)

    def _duration(self, inst: TaskInstance, resource: ComputeResource) -> float:
        """Roofline time plus task-creation overhead of ``inst`` on
        ``resource``, the roofline time memoized on the graph
        (:meth:`TaskGraph.chunk_times`), and on a miss there on the
        program (:meth:`Program.chunk_times`); the drain reads the same
        floats."""
        memo = self._chunk_times[resource.resource_id]
        n = inst.invocation.n
        key = (self._rows[inst.instance_id], n)
        seconds = memo.get(key)
        if seconds is None:
            kernel = inst.invocation.kernel
            units = kernel.work_units(inst.lo, inst.hi)
            shared = self._program_times[resource.resource_id]
            shared_key = (id(kernel), units, n)
            seconds = shared.get(shared_key)
            if seconds is None:
                seconds = shared[shared_key] = kernel.chunk_time(
                    resource.device, units, n, share=resource.share
                )
            memo[key] = seconds
        return seconds + self.config.task_creation_overhead_s

    # -- main loop --------------------------------------------------------------

    def go(self) -> RunArtifact:
        """Run to completion; returns the artifact at the run's detail."""
        self.scheduler.start(self.graph, self._ctx)
        remaining = self.remaining
        for inst in self.graph.instances:
            if remaining[inst.instance_id] == 0:
                self._release(inst)
        self._pump()
        if self._drain is not None:
            # all-host plans never transfer, so no wire would ever offer
            # the first quiet point
            self._drain.quiet_point(self)
        self.sim.run(max_events=self.config.max_events)
        if len(self.done) != len(self.graph.instances):
            stuck = [
                i.label() for i in self.graph.instances
                if i.instance_id not in self.done
            ]
            raise SimulationError(
                f"deadlock: {len(stuck)} instances never ran, e.g. {stuck[:5]}"
            )
        if self.config.final_flush:
            self._final_flush()
            self.sim.run(max_events=self.config.max_events)
        return self._result()

    def _release(self, inst: TaskInstance) -> None:
        """Queue a newly ready instance behind its pump class's queue."""
        c = self._cls[inst.instance_id]
        if c == _FREE:
            self._free.append(inst)
        elif c == _PINNED:
            self._pinned.append(inst)
        else:
            self._barriers.append(inst)
            return
        self._queued[inst.instance_id] = 1

    def has_ready(self) -> bool:
        """Whether any released instance still waits for dispatch."""
        return bool(self._free or self._pinned or self._barriers)

    def _pump(self) -> None:
        """Dispatch ready work; safe against reentrant completion events.

        Each round runs the released barriers (outside the scheduler),
        hands the pinned instances to the static scheduler and the free
        ones to the run's scheduler — each queue in release order, the
        order :meth:`_release` saw them become ready — dispatches every
        assignment, and keeps the unassigned free rest in release order.
        Rounds repeat until one dispatches nothing, so the scheduler sees
        its leftovers again after its own assignments took effect.
        """
        if self._pumping:
            return
        self._pumping = True
        try:
            ctx = self._ctx
            ctx.now = self.sim.now
            queued = self._queued
            while True:
                barriers = self._barriers
                if barriers:
                    self._barriers = []
                    for inst in barriers:
                        self._run_barrier(inst)
                pinned = self._pinned
                free = self._free
                assignments: list[tuple[TaskInstance, str]] = []
                if pinned:
                    if self._static is None:
                        self._static = StaticScheduler()
                    assignments.extend(self._static.assign(pinned, ctx))
                if free:
                    assignments.extend(self.scheduler.assign(free, ctx))
                if not assignments:
                    if not barriers:
                        return
                    continue
                for inst, rid in assignments:
                    iid = inst.instance_id
                    if not queued[iid]:
                        raise SchedulingError(
                            f"scheduler assigned instance {iid} twice or "
                            "out of the ready set"
                        )
                    queued[iid] = 0
                    self._dispatch(inst, rid)
                if pinned:
                    self._pinned = [
                        i for i in pinned if queued[i.instance_id]
                    ]
                if free:
                    self._free = [i for i in free if queued[i.instance_id]]
        finally:
            self._pumping = False

    # -- instance lifecycle ----------------------------------------------------

    def _pending_overlaps(
        self, inst: TaskInstance, space: str
    ) -> list[_InflightTransfer]:
        """In-flight transfers the instance's reads must wait for."""
        found: list[_InflightTransfer] = []
        for region in self._rows[inst.instance_id].reads:
            for entry in self._inflight.get((region.array, space), ()):
                if (
                    not entry.done
                    and entry.start < region.end
                    and region.start < entry.end
                    and entry not in found
                ):
                    found.append(entry)
        return found

    def _dispatch(self, inst: TaskInstance, resource_id: str) -> None:
        try:
            resource = self._resource_by_id[resource_id]
        except KeyError:
            raise SchedulingError(
                f"scheduler chose unknown resource {resource_id!r}"
            ) from None
        self.inflight[resource_id] += 1
        space = self._space_of[resource_id]
        # collect transfers already on the wire BEFORE issuing our own
        waits = (
            self._pending_overlaps(inst, space) if self._live_transfers else ()
        )
        ops: list[TransferOp] = []
        for region in self._rows[inst.instance_id].reads:
            ops.extend(self.memory.ensure(region, space))
        pending = len(ops) + len(waits)
        if pending == 0:
            self._start_compute(inst, resource, space, 0.0)
            return

        durations = [self._transfer_duration(op) for op in ops]
        arm = _ComputeArm(
            self, inst, resource, space, sum(durations), pending
        )
        for entry in waits:
            entry.waiters.append(arm)
        for op, duration in zip(ops, durations):
            self._issue_transfer(op, duration, on_complete=arm)

    def _issue_transfer(
        self, op: TransferOp, duration: float, *, on_complete=None
    ) -> None:
        direction = "h2d" if op.is_h2d else "d2h"
        self.transfer_bytes[direction] += op.nbytes
        # source-side hazard: data still being staged INTO the source space
        # (device -> host -> device chains) must land before this leg reads
        # it off
        src_waits = []
        if self._live_transfers:
            src_waits = [
                e for e in self._inflight.get((op.array, op.src_space), ())
                if not e.done and e.start < op.end and op.start < e.end
            ]
        entry = _InflightTransfer(start=op.start, end=op.end)
        key = (op.array, op.dst_space)
        self._inflight.setdefault(key, []).append(entry)
        self._live_transfers += 1

        xfer = _Transfer(
            self, op, duration, direction, entry, key, on_complete,
            len(src_waits),
        )
        if not src_waits:
            xfer.start()
            return
        for upstream in src_waits:
            upstream.waiters.append(xfer)

    def _transfer_done(self, xfer: _Transfer) -> None:
        """The wire leg of ``xfer`` landed: publish and fire waiters."""
        entry = xfer.entry
        entry.done = True
        on_wire = self._inflight[xfer.key]
        on_wire.remove(entry)
        self._live_transfers -= 1
        for waiter in entry.waiters:
            waiter()
        cb = xfer.on_complete
        if cb is not None:
            cb()
        if self._drain is not None and not on_wire:
            self._drain.quiet_point(self)

    def _start_compute(
        self,
        inst: TaskInstance,
        resource: ComputeResource,
        space: str,
        transfer_total: float,
    ) -> None:
        """Occupy ``resource`` with ``inst``'s compute."""
        name = inst.invocation.kernel.name
        size = inst.hi - inst.lo
        duration = self._duration(inst, resource)
        if self._pays_decision[inst.instance_id]:
            duration += self.config.dynamic_decision_overhead_s
        # summary detail: the lane folds size and kernel, nothing else
        if self.trace is None:
            args, meta = (), None
        else:
            args = (name, inst.lo, inst.hi, inst.instance_id)
            meta = {
                "kernel": name,
                "size": size,
                "device_kind": resource.device.kind.value,
                "device": resource.device.device_id,
                "invocation": inst.invocation.invocation_id,
                "iteration": inst.invocation.iteration,
            }
        self.sim_resources[resource.resource_id].occupy(
            duration,
            label="",
            category="compute",
            on_complete=(
                self._complete,
                (inst, resource, space, duration, transfer_total),
            ),
            lane=self.compute_lanes[resource.resource_id],
            args=args,
            size=size,
            kernel=name,
            meta=meta,
        )

    def _complete(self, args: tuple) -> None:
        """A compute occupation ended: publish the instance's writes, start
        its eager write-backs and release its successors.

        ``args`` is the ``(instance, resource, memory space, compute time,
        transfer time)`` tuple :meth:`_start_compute` hands the resource.
        """
        inst, resource, space, compute_time, transfer_time = args
        iid = inst.instance_id
        if self._drain is not None and iid in self.done:
            return  # a running head a drain commit already completed
        writes = self._rows[iid].writes
        for region in writes:
            self.memory.write(region, space)
        # an instance followed by a taskwait reads its own results back
        # immediately, overlapping the flush with the other processor's
        # remaining compute
        if (
            self.config.eager_writeback
            and self._faces_sync[iid]
            and space != HOST_SPACE
        ):
            for region in writes:
                for op in self.memory.writeback(region, space):
                    self._pending_writebacks += 1
                    self._issue_transfer(
                        op, self._transfer_duration(op),
                        on_complete=self._writeback_done,
                    )
        self.inflight[resource.resource_id] -= 1
        if self._notify:
            self.scheduler.on_complete(
                inst,
                resource.resource_id,
                compute_time=compute_time,
                transfer_time=transfer_time,
            )
        self._mark_done(inst)

    def _writeback_done(self) -> None:
        self._pending_writebacks -= 1
        if self._pending_writebacks == 0 and self._wb_waiters:
            waiters, self._wb_waiters = self._wb_waiters, []
            for barrier in waiters:
                self._barrier_done(barrier)

    def _barrier_overhead(self, inst: TaskInstance) -> float:
        """Quiescence cost of one ``taskwait``.

        A trailing barrier (no successors) is the program's exit sync:
        the thread team is torn down rather than restarted, so no
        quiescence is charged.  Shared by the event path below and the
        drain, which models barriers analytically and must charge the
        identical float.
        """
        return self.config.barrier_overhead_s if inst.succs else 0.0

    def _run_barrier(self, inst: TaskInstance) -> None:
        ops = self.memory.flush_to_host(
            invalidate=self.config.barrier_invalidates_devices
        )
        # the quiescence overhead and the flush transfers proceed in
        # parallel; the barrier completes when both are over (and all
        # eager write-backs have landed on the host)
        overhead = self._barrier_overhead(inst)
        arm = _BarrierArm(self, inst, len(ops) + 1)
        self.sim.after(overhead, arm)
        for op in ops:
            self._issue_transfer(
                op, self._transfer_duration(op), on_complete=arm
            )

    def _barrier_done(self, inst: TaskInstance) -> None:
        """A ``taskwait`` completed; a drain may commit the epoch it
        opens before any successor dispatches."""
        if self._drain is None:
            self._mark_done(inst)
        else:
            self._drain.open_epoch(self, inst)

    def _mark_done(self, inst: TaskInstance) -> None:
        self.done.add(inst.instance_id)
        remaining = self.remaining
        instances = self.graph.instances
        for succ in self._succs[inst.instance_id]:
            remaining[succ] -= 1
            if remaining[succ] == 0:
                self._release(instances[succ])
        self._pump()

    def _final_flush(self) -> None:
        if self._finalized:
            return
        self._finalized = True
        for op in self.memory.flush_to_host():
            self._issue_transfer(op, self._transfer_duration(op))

    # -- result assembly --------------------------------------------------------

    def _result(self) -> RunArtifact:
        summary = TraceSummary.from_lanes(self.lanes)
        return RunArtifact(
            # a trailing barrier's quiescence is a pure event (no resource
            # occupation), so the clock — not just the trace — bounds the run
            makespan_s=max(summary.trace_makespan_s, self.sim.now),
            scheduler_name=self.scheduler.name,
            instance_count=len(self.graph.instances),
            summary=summary,
            transfer_bytes=dict(self.transfer_bytes),
            detail=self.detail,
            trace=self.trace,
        )
