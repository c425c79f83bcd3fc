"""Run artifacts: the single result unit flowing through the pipeline.

One simulated run travels through the pipeline as a two-level bundle,
so that no consumer (figure tables, speedup rows, validation checks, CSV
export) re-scans a trace for each derived number and ``run_sweep``
workers need not pickle whole traces back to the parent:

* :class:`TraceSummary` — every number the reporting layers derive from a
  trace (makespan, per-resource busy times, per-direction transfer times,
  per-kernel split ratios, element/instance counts).  A run folds each
  trace row into its :class:`~repro.sim.tracestore.TraceLane` as the row
  happens, and :meth:`TraceSummary.from_lanes` merges the lanes in
  registration order, at either detail, without reading any store.
  The accumulation order matches the old filtered record scans exactly,
  so every figure/table number derived from a summary is bit-identical
  to :meth:`TraceSummary.from_store` over the full trace (enforced by
  ``tests/integration/test_artifact_differential.py`` and
  ``tests/sim/test_summary_fold.py``).
* :class:`RunArtifact` — a frozen, cheaply-picklable bundle of the
  summary, the strategy's :class:`~repro.partition.base.StrategyDecision`,
  and the run's cache hit/miss deltas.  The raw trace rides along only
  when the run was requested with ``detail="full"``; summarized artifacts
  (the ``run_sweep`` worker default) are orders of magnitude smaller on
  the wire.

``RunArtifact`` derives the reported figures (``makespan_ms``,
``gpu_fraction``, ``ratio_by_kernel()``, ...) from its summary; its
``trace``, when kept, is the run's
:class:`~repro.sim.tracestore.TraceStore`.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Iterable

from repro.sim.tracestore import SUMMARY_DIRECTIONS, TraceLane, TraceStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.partition.base import StrategyDecision

#: valid values of the ``detail`` knob
DETAIL_LEVELS = ("summary", "full")


def check_detail(detail: str) -> str:
    """Validate a ``detail`` argument; returns it for chaining."""
    if detail not in DETAIL_LEVELS:
        raise ValueError(
            f"detail must be one of {DETAIL_LEVELS}, got {detail!r}"
        )
    return detail


@dataclass(frozen=True)
class TraceSummary:
    """Every reported aggregate of one trace, computed once.

    All float aggregates accumulate in trace-row order per group — the
    same order the old per-query record scans used — so the values are
    bit-identical to querying the raw trace.  Runs build it with
    :meth:`from_lanes`; :meth:`from_store` condenses a stored trace and
    is the differential oracle the fold is checked against.
    """

    #: latest end time across all records (trace-only; the artifact's
    #: ``makespan_s`` is additionally bounded by the simulator clock)
    trace_makespan_s: float
    #: number of trace records the summary condenses
    record_count: int
    #: kernel indices executed per device kind ("cpu"/"gpu")
    elements_by_device: dict[str, int]
    #: compute task instances per device kind
    instances_by_device: dict[str, int]
    #: kernel name -> device kind -> indices (per-kernel split ratios)
    ratio_by_kernel: dict[str, dict[str, int]]
    #: link-busy seconds per transfer direction ("h2d"/"d2h")
    transfer_time_s: dict[str, float]
    #: resource id -> category -> occupied seconds
    busy_by_resource: dict[str, dict[str, float]]

    @classmethod
    def from_lanes(cls, lanes: Iterable[TraceLane]) -> "TraceSummary":
        """Merge a run's folded lanes, in registration order.

        Equal to :meth:`from_store` of the trace the lanes would stage
        when they are its only producers: a flushed store holds each
        lane's rows as one block, in registration order, so every dict
        takes its keys in first-appearance order over the lanes, and a
        float group fed by several lanes continues one sequential sum
        through them (:meth:`~repro.sim.tracestore.TraceLane.resume`) —
        per-lane totals added together would round differently.
        """
        makespan = 0.0
        count = 0
        elements: dict[str, int] = {}
        instances: dict[str, int] = {}
        ratio: dict[str, dict[str, int]] = {}
        transfer: dict[str, float] = {}
        busy: dict[str, dict[str, float]] = {}
        for lane in lanes:
            n = lane.rows
            if not n:
                continue
            count += n
            if lane.max_end > makespan:
                makespan = lane.max_end
            category = lane.category
            per_cat = busy.setdefault(lane.resource_id, {})
            total = per_cat.get(category)
            per_cat[category] = (
                lane.busy if total is None else lane.resume(total)
            )
            direction = lane.direction
            if category == "transfer" and direction in SUMMARY_DIRECTIONS:
                total = transfer.get(direction)
                transfer[direction] = (
                    lane.busy if total is None else lane.resume(total)
                )
            kind = lane.device_kind
            if category != "compute" or kind is None:
                continue
            instances[kind] = instances.get(kind, 0) + n
            if lane.elements:
                elements[kind] = (
                    elements.get(kind, 0) + sum(lane.elements.values())
                )
            for kernel, size in lane.elements.items():
                if kernel is not None:
                    per_kind = ratio.setdefault(kernel, {})
                    per_kind[kind] = per_kind.get(kind, 0) + size
        return cls(
            trace_makespan_s=makespan,
            record_count=count,
            elements_by_device=elements,
            instances_by_device=instances,
            ratio_by_kernel=ratio,
            transfer_time_s={
                d: transfer.get(d, 0.0) for d in SUMMARY_DIRECTIONS
            },
            busy_by_resource=busy,
        )

    @classmethod
    def from_store(cls, store: TraceStore) -> "TraceSummary":
        return cls(
            trace_makespan_s=store.makespan(),
            record_count=len(store),
            elements_by_device=store.elements_by_device(),
            instances_by_device=store.instance_count_by_device(),
            ratio_by_kernel=store.ratio_by_kernel(),
            transfer_time_s=store.transfer_time_by_direction(),
            busy_by_resource=store.busy_by_resource(),
        )

    def busy_time(self, resource_id: str, *, category: str | None = None) -> float:
        """Occupied seconds on a resource (sum over categories or one)."""
        per_cat = self.busy_by_resource.get(resource_id, {})
        if category is not None:
            return per_cat.get(category, 0.0)
        return sum(per_cat.values())


@dataclass(frozen=True)
class RunArtifact:
    """Outcome of one simulated run (frozen, cheaply picklable).

    This is the unit every pipeline layer exchanges: the executor builds
    it, strategies attach their decision and cache deltas, sweep workers
    ship it back summarized, and the reporting layers read only the
    summary.  The raw trace is present only under ``detail="full"``.
    """

    makespan_s: float
    scheduler_name: str
    instance_count: int
    summary: TraceSummary
    #: transferred bytes per direction ("h2d"/"d2h")
    transfer_bytes: dict[str, int] = field(default_factory=dict)
    #: what the producing strategy decided (None for raw engine runs)
    decision: "StrategyDecision | None" = None
    #: per-run memo-store deltas: store name -> {"hits": int, "misses": int}
    cache_stats: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: "summary" (trace dropped) or "full" (trace attached)
    detail: str = "full"
    #: the raw trace; only present under ``detail="full"``
    trace: TraceStore | None = field(default=None, compare=False)

    # -- derived figures (read from the summary) --------------------------

    @property
    def makespan_ms(self) -> float:
        return self.makespan_s * 1e3

    @property
    def elements_by_device(self) -> dict[str, int]:
        """Kernel indices executed per device kind ("cpu"/"gpu")."""
        return self.summary.elements_by_device

    @property
    def instances_by_device(self) -> dict[str, int]:
        """Task instances per device kind."""
        return self.summary.instances_by_device

    @property
    def transfer_time_s(self) -> dict[str, float]:
        """Seconds the link channels were occupied, per direction."""
        return self.summary.transfer_time_s

    @property
    def total_transfer_time_s(self) -> float:
        return sum(self.transfer_time_s.values())

    def device_fraction(self, kind: str) -> float:
        """Fraction of kernel indices executed on ``kind`` ("gpu"/"cpu")."""
        total = sum(self.elements_by_device.values())
        if total == 0:
            return 0.0
        return self.elements_by_device.get(kind, 0) / total

    @property
    def gpu_fraction(self) -> float:
        return self.device_fraction("gpu")

    @property
    def cpu_fraction(self) -> float:
        return self.device_fraction("cpu")

    @property
    def accelerator_fraction(self) -> float:
        """Fraction executed on any non-CPU device (GPU, Phi, ...)."""
        total = sum(self.elements_by_device.values())
        if total == 0:
            return 0.0
        return 1.0 - self.elements_by_device.get("cpu", 0) / total

    def ratio_by_kernel(self) -> dict[str, dict[str, int]]:
        """Kernel name -> device kind -> indices (per-kernel split ratios).

        Returns a fresh copy per call, which callers are free to mutate.
        """
        return {k: dict(v) for k, v in self.summary.ratio_by_kernel.items()}

    @property
    def strategy_name(self) -> str | None:
        """Canonical name of the producing strategy (None for raw runs)."""
        return self.decision.strategy if self.decision is not None else None

    # -- detail management -----------------------------------------------

    def require_trace(self) -> TraceStore:
        """The raw trace; raises when the run was summarized."""
        if self.trace is None:
            raise ValueError(
                "this RunArtifact was produced with detail='summary'; "
                "re-run with detail='full' to keep the raw trace"
            )
        return self.trace

    def summarized(self) -> "RunArtifact":
        """A copy with the raw trace dropped (``detail="summary"``)."""
        if self.trace is None and self.detail == "summary":
            return self
        return replace(self, trace=None, detail="summary")

    def with_context(
        self,
        *,
        decision: "StrategyDecision | None" = None,
        cache_stats: dict[str, dict[str, Any]] | None = None,
    ) -> "RunArtifact":
        """A copy with strategy decision and/or cache deltas attached."""
        out = self
        if decision is not None:
            out = replace(out, decision=decision)
        if cache_stats is not None:
            out = replace(out, cache_stats=cache_stats)
        return out


def artifact_nbytes(artifact: RunArtifact) -> int:
    """Pickled size of an artifact — the sweep's on-the-wire unit cost."""
    return len(pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL))
