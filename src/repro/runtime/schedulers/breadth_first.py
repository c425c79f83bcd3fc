"""Breadth-first, dependence-chain-affine scheduling (the DP-Dep policy).

This reproduces OmpSs' default *breadth-first* scheduler as the paper uses
it:

* ready task instances are served FIFO in release order (the order they
  became ready);
* only **idle** resources take work (no estimates, no queueing ahead);
* an instance whose dependence chain has already executed somewhere is kept
  on that *device* to avoid data transfers ("DP-Dep keeps tracking the data
  dependency chain to assign partitions that belong to the same chain to
  the same device");
* the policy is deliberately oblivious to device capability — the source of
  the workload imbalance the paper observes (the GPU ends up with one of
  ``m`` instances in MatrixMul).
"""

from __future__ import annotations

from typing import Sequence

from repro.runtime.graph import TaskGraph, TaskInstance
from repro.runtime.schedulers.base import Scheduler, SchedulingContext


class BreadthFirstScheduler(Scheduler):
    """FIFO self-scheduling with dependence-chain device affinity."""

    name = "breadth-first"
    dynamic = True

    def __init__(self) -> None:
        #: chain id per instance id (the graph's :attr:`TaskGraph.chains`)
        self._chains: tuple = ()
        #: chain id -> device id where the chain started executing
        self._chain_device: dict[int, str] = {}
        #: resources in serving order: ``(resource id, device id)``
        self._order: list[tuple[str, str]] = []

    def start(self, graph: TaskGraph, ctx: SchedulingContext) -> None:
        self._chains = graph.chains
        self._chain_device.clear()
        # accelerator helper threads register before the SMP worker team,
        # so they serve the ready queue first — a fixed, capability-blind
        # order; with the paper's m instances over m threads + 1 GPU this
        # leaves the GPU exactly one instance ("only one task instance is
        # assigned to the GPU and the rest to the CPU").
        self._order = [
            (r.resource_id, r.device.device_id)
            for r in sorted(ctx.resources, key=lambda r: not r.is_accelerator)
        ]

    def assign(
        self, ready: Sequence[TaskInstance], ctx: SchedulingContext
    ) -> list[tuple[TaskInstance, str]]:
        out: list[tuple[TaskInstance, str]] = []
        inflight = ctx.inflight
        chains = self._chains
        chain_device = self._chain_device
        taken: set[int] = set()
        for rid, device_id in self._order:
            if inflight.get(rid, 0) != 0:
                continue  # only idle resources take work
            # one pass: an instance whose chain lives on this device wins;
            # otherwise the oldest one whose chain is bound nowhere yet
            choice: TaskInstance | None = None
            unbound: TaskInstance | None = None
            for inst in ready:
                if inst.instance_id in taken:
                    continue
                dev = chain_device.get(chains[inst.instance_id])
                if dev == device_id:
                    choice = inst
                    break
                if dev is None and unbound is None:
                    unbound = inst
            if choice is None:
                choice = unbound
                if choice is None:
                    continue
            taken.add(choice.instance_id)
            chain_device.setdefault(chains[choice.instance_id], device_id)
            out.append((choice, rid))
        return out
