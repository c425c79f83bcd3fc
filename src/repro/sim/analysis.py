"""Trace analysis: utilization, overlap, and breakdowns of simulated runs.

The paper's discussion reasons about execution overlap ("the optimal
partitioning ensures a perfect execution overlap between processors") and
transfer shares ("the data transfer takes around 88% of the overall
execution time").  This module computes those quantities from any
:class:`~repro.sim.trace.ExecutionTrace` (or a bare
:class:`~repro.sim.tracestore.TraceStore`), so they can be asserted in
tests and printed alongside the figures.

Both entry points operate on the store's columns directly — no
:class:`~repro.sim.trace.TraceRecord` is ever materialized — through the
store's insertion-order column scans, so every figure is bit-identical
to the original record scans
(``tests/property/test_trace_analytics_properties.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from repro.sim.trace import ExecutionTrace
from repro.sim.tracestore import TraceStore

TraceLike = Union[ExecutionTrace, TraceStore]


def _store_of(trace: TraceLike) -> TraceStore:
    return trace.store if isinstance(trace, ExecutionTrace) else trace


@dataclass(frozen=True)
class ResourceStats:
    """Per-resource occupancy summary."""

    resource_id: str
    busy_s: float
    utilization: float  # busy / makespan
    records: int
    by_category: dict[str, float] = field(default_factory=dict, hash=False)


@dataclass(frozen=True)
class TraceStats:
    """Whole-trace summary."""

    makespan_s: float
    resources: tuple[ResourceStats, ...]
    #: total compute seconds across resources / (makespan * #compute res.)
    mean_compute_utilization: float
    #: fraction of the makespan during which compute ran on >= 2 devices
    overlap_fraction: float
    #: link-busy seconds / makespan (per direction label)
    transfer_share: dict[str, float] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        # id -> stats lookup table, built once so resource() is O(1)
        # (not a field: invisible to __eq__/__repr__/dataclasses.replace)
        object.__setattr__(
            self, "_by_id", {r.resource_id: r for r in self.resources}
        )

    def resource(self, resource_id: str) -> ResourceStats:
        try:
            return self._by_id[resource_id]
        except KeyError:
            raise KeyError(resource_id) from None


def _merge_intervals(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of possibly overlapping time intervals."""
    if not intervals:
        return []
    intervals = sorted(intervals)
    merged = [intervals[0]]
    for start, end in intervals[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


def compute_overlap_fraction(trace: TraceLike) -> float:
    """Fraction of the makespan with compute active on >= 2 devices.

    Devices are identified by the ``device`` metadata of compute records;
    CPU threads collectively count as one device, matching the paper's
    processor-level notion of overlap.
    """
    store = _store_of(trace)
    makespan = store.makespan()
    if makespan <= 0:
        return 0.0
    starts, ends = store.starts, store.ends
    per_device: dict[str, list[tuple[float, float]]] = {}
    for row in store.rows_by_category("compute"):
        device = store.device_key_at(row)
        per_device.setdefault(device, []).append((starts[row], ends[row]))
    if len(per_device) < 2:
        return 0.0
    # sweep the merged intervals of each device
    events: list[tuple[float, int]] = []
    for intervals in per_device.values():
        for start, end in _merge_intervals(intervals):
            events.append((start, +1))
            events.append((end, -1))
    events.sort()
    active = 0
    overlap = 0.0
    prev = 0.0
    for t, delta in events:
        if active >= 2:
            overlap += t - prev
        active += delta
        prev = t
    return overlap / makespan


def analyze_trace(trace: TraceLike) -> TraceStats:
    """Summarize a trace into :class:`TraceStats`."""
    store = _store_of(trace)
    makespan = store.makespan()
    by_category = store.busy_by_resource()

    resources = []
    compute_utils = []
    transfer_share: dict[str, float] = {}
    for rid in store.resource_ids_seen():
        # busy accumulates over *all* of the resource's rows in insertion
        # order (not per-category subtotals), matching the original scan
        busy = store.busy_time(rid)
        by_cat = by_category[rid]
        util = busy / makespan if makespan else 0.0
        resources.append(
            ResourceStats(
                resource_id=rid,
                busy_s=busy,
                utilization=util,
                records=len(store.rows_by_resource(rid)),
                by_category=by_cat,
            )
        )
        if "compute" in by_cat:
            compute_utils.append(by_cat["compute"] / makespan if makespan else 0)
        if rid.startswith("link:"):
            transfer_share[rid] = util

    return TraceStats(
        makespan_s=makespan,
        resources=tuple(sorted(resources, key=lambda r: r.resource_id)),
        mean_compute_utilization=(
            sum(compute_utils) / len(compute_utils) if compute_utils else 0.0
        ),
        overlap_fraction=compute_overlap_fraction(store),
        transfer_share=transfer_share,
    )


def format_stats(stats: TraceStats) -> str:
    """Human-readable rendering of :class:`TraceStats`."""
    lines = [
        f"makespan: {stats.makespan_s * 1e3:.3f} ms   "
        f"compute overlap: {stats.overlap_fraction:.0%}   "
        f"mean compute utilization: {stats.mean_compute_utilization:.0%}",
    ]
    for r in stats.resources:
        cats = "  ".join(
            f"{cat}={sec * 1e3:.2f}ms" for cat, sec in sorted(r.by_category.items())
        )
        lines.append(
            f"  {r.resource_id:<16} {r.utilization:>5.0%} busy "
            f"({r.records} records)  {cats}"
        )
    return "\n".join(lines)
