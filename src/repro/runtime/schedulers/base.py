"""Scheduler interface and the trivial scheduler for static plans."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import SchedulingError
from repro.platform.topology import ComputeResource
from repro.runtime.graph import TaskGraph, TaskInstance


@dataclass
class SchedulingContext:
    """The executor-side state a scheduler may inspect when assigning work.

    The executor passes one context per run and advances ``now`` in
    place, so a scheduler reads it inside ``start``/``assign`` calls and
    keeps no value it needs later.

    Attributes
    ----------
    now:
        Current virtual time.
    resources:
        All compute resources of the run.
    inflight:
        Per-resource count of dispatched-but-unfinished instances; a
        resource with ``inflight == 0`` is idle.
    platform:
        The platform being executed on (for link-cost introspection);
        ``None`` only in hand-built test contexts.
    """

    now: float
    resources: Sequence[ComputeResource]
    inflight: dict[str, int]
    platform: "object | None" = None

    def idle_resources(self) -> list[ComputeResource]:
        """Resources with no running, queued, or in-flight work."""
        return [r for r in self.resources if self.inflight.get(r.resource_id, 0) == 0]

    def resource(self, resource_id: str) -> ComputeResource:
        for r in self.resources:
            if r.resource_id == resource_id:
                return r
        raise SchedulingError(f"unknown resource {resource_id!r}")


class Scheduler:
    """Decides where unpinned ready task instances execute.

    The executor calls :meth:`assign` at every decision point (instances
    became ready or a resource went idle) with the current ready set in
    *release order*: the order the instances became ready, which is not
    id order — a completion releases its successors behind everything
    already waiting, so a higher-id instance released early precedes a
    lower-id one released later.  The scheduler returns
    ``(instance, resource_id)`` pairs to dispatch now; instances it leaves
    out stay in the ready set, in the same order, for the next decision
    point.

    ``dynamic`` marks policies that take per-instance decisions at runtime;
    the executor charges them the dynamic scheduling overhead the paper
    attributes to dynamic partitioning.
    """

    name: str = "base"
    dynamic: bool = True

    def start(self, graph: TaskGraph, ctx: SchedulingContext) -> None:
        """Called once before execution begins."""

    def assign(
        self, ready: Sequence[TaskInstance], ctx: SchedulingContext
    ) -> list[tuple[TaskInstance, str]]:
        raise NotImplementedError

    def on_complete(
        self,
        instance: TaskInstance,
        resource_id: str,
        *,
        compute_time: float,
        transfer_time: float,
    ) -> None:
        """Called when an instance finishes (for online estimate updates)."""


class StaticScheduler(Scheduler):
    """Dispatches pinned instances; used by all SP-* strategies.

    Every instance must carry a resource or device pin.  Device-pinned
    instances go to the device's least-loaded resource.  Instances are
    dispatched immediately when ready — the simulated resources serialize
    FIFO, matching a statically partitioned program where each device
    simply works through its own fixed share.
    """

    name = "static"
    dynamic = False

    def __init__(self) -> None:
        self._rr: dict[str, int] = {}

    def assign(
        self, ready: Sequence[TaskInstance], ctx: SchedulingContext
    ) -> list[tuple[TaskInstance, str]]:
        out: list[tuple[TaskInstance, str]] = []
        for inst in ready:
            if inst.pinned_resource is not None:
                out.append((inst, inst.pinned_resource))
            elif inst.pinned_device is not None:
                out.append((inst, self._pick(inst.pinned_device, ctx)))
            else:
                raise SchedulingError(
                    f"static scheduler got unpinned instance {inst.label()}"
                )
        return out

    def _pick(self, device_id: str, ctx: SchedulingContext) -> str:
        candidates = [
            r for r in ctx.resources if r.device.device_id == device_id
        ]
        if not candidates:
            raise SchedulingError(f"no resources on device {device_id!r}")
        # least in-flight work, round-robin among ties
        start = self._rr.get(device_id, 0)
        best: ComputeResource | None = None
        best_load = None
        for i in range(len(candidates)):
            r = candidates[(start + i) % len(candidates)]
            load = ctx.inflight.get(r.resource_id, 0)
            if best_load is None or load < best_load:
                best, best_load = r, load
        assert best is not None
        self._rr[device_id] = (start + 1) % len(candidates)
        return best.resource_id
