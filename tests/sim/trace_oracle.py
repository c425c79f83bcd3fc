"""Reference trace: a plain list of records, answered by record scans.

:class:`TraceOracle` keeps every row as a :class:`TraceRecord` with its
label formatted eagerly and its metadata copied, and answers each
aggregate the :class:`~repro.sim.tracestore.TraceStore` offers by a
linear scan over the records, adding floats in row order per group.
The differential suites feed the same rows through trace lanes
(:func:`stage`) and require the lane-staged store to equal this oracle
row for row (:func:`row_key`) and aggregate for aggregate, floats
bit-identical.  Keep this as it is: it is the specification, not code to
optimize.

A row is ``(resource_id, category, template, args, start, end, meta)``.
Lanes take the hot metadata (``device_kind``, ``device``, ``direction``)
as constants and ``size``/``kernel`` as per-row arguments; :func:`stage`
reads all of them from ``meta``, so ``meta`` is the one source of truth
for both sides.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.sim.trace import TraceRecord
from repro.sim.tracestore import TraceStore

#: lane constants a row's metadata may carry
LANE_CONSTANTS = ("device_kind", "device", "direction")


class TraceOracle:
    """A trace as a list of :class:`TraceRecord` rows."""

    def __init__(self, rows: Iterable[tuple] = ()) -> None:
        self.records: list[TraceRecord] = []
        for row in rows:
            self.record(*row)

    def record(self, resource_id, category, template, args, start, end,
               meta=None) -> None:
        self.records.append(TraceRecord(
            resource_id=resource_id,
            label=template.format(*args),
            category=category,
            start=start,
            end=end,
            meta=dict(meta or {}),
        ))

    def __len__(self) -> int:
        return len(self.records)

    # -- row views -------------------------------------------------------

    def by_resource(self, resource_id: str) -> list[TraceRecord]:
        return [r for r in self.records if r.resource_id == resource_id]

    def by_category(self, category: str) -> list[TraceRecord]:
        return [r for r in self.records if r.category == category]

    def resource_ids_seen(self) -> list[str]:
        return list(dict.fromkeys(r.resource_id for r in self.records))

    def categories_seen(self) -> list[str]:
        return list(dict.fromkeys(r.category for r in self.records))

    # -- aggregates ------------------------------------------------------

    def makespan(self) -> float:
        return max((r.end for r in self.records), default=0.0)

    def busy_time(self, resource_id: str, *, category: str | None = None) -> float:
        total = 0.0
        for r in self.records:
            if r.resource_id == resource_id and (
                category is None or r.category == category
            ):
                total += r.end - r.start
        return total

    def total_time(self, *, category: str) -> float:
        total = 0.0
        for r in self.records:
            if r.category == category:
                total += r.end - r.start
        return total

    def elements_by_device(self, *, category: str = "compute",
                           key: str = "device_kind") -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.records:
            if r.category != category:
                continue
            group, size = r.meta.get(key), r.meta.get("size")
            if group is None or size is None:
                continue
            out[str(group)] = out.get(str(group), 0) + int(size)
        return out

    def instance_count_by_device(self, *, key: str = "device_kind") -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.records:
            if r.category != "compute":
                continue
            group = r.meta.get(key)
            if group is None:
                continue
            out[str(group)] = out.get(str(group), 0) + 1
        return out

    def ratio_by_kernel(self, *, category: str = "compute") -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for r in self.records:
            if r.category != category:
                continue
            kernel = r.meta.get("kernel")
            kind, size = r.meta.get("device_kind"), r.meta.get("size")
            if kernel is None or kind is None or size is None:
                continue
            per_kind = out.setdefault(str(kernel), {})
            per_kind[str(kind)] = per_kind.get(str(kind), 0) + int(size)
        return out

    def busy_by_resource(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = {}
        for r in self.records:
            per_cat = out.setdefault(r.resource_id, {})
            per_cat[r.category] = per_cat.get(r.category, 0.0) + (r.end - r.start)
        return out

    def transfer_time_by_direction(self) -> dict[str, float]:
        out = {"h2d": 0.0, "d2h": 0.0}
        for r in self.records:
            direction = r.meta.get("direction")
            if r.category == "transfer" and direction in out:
                out[direction] += r.end - r.start
        return out

    def overlap_fraction(self) -> float:
        """Fraction of the makespan with compute on >= 2 devices (a
        device is ``meta["device"]``, else the resource id)."""
        makespan = self.makespan()
        if makespan <= 0:
            return 0.0
        per_device: dict[str, list[tuple[float, float]]] = {}
        for r in self.records:
            if r.category == "compute":
                device = str(r.meta.get("device", r.resource_id))
                per_device.setdefault(device, []).append((r.start, r.end))
        if len(per_device) < 2:
            return 0.0
        events = []
        for intervals in per_device.values():
            merged: list[list[float]] = []
            for start, end in sorted(intervals):
                if merged and start <= merged[-1][1]:
                    merged[-1][1] = max(merged[-1][1], end)
                else:
                    merged.append([start, end])
            for start, end in merged:
                events += [(start, +1), (end, -1)]
        events.sort()
        active, overlap, prev = 0, 0.0, 0.0
        for t, delta in events:
            if active >= 2:
                overlap += t - prev
            active += delta
            prev = t
        return overlap / makespan


def row_key(record: TraceRecord) -> tuple:
    """Everything a row holds, floats as their exact hex spelling."""
    return (
        record.resource_id, record.label, record.category,
        record.start.hex(), record.end.hex(), sorted(record.meta.items()),
    )


#: marks a lane constant the row's metadata does not carry
_ABSENT = object()


def _lane_key(row: tuple) -> tuple:
    resource_id, category, template, _, _, _, meta = row
    meta = meta or {}
    return (resource_id, category, template,
            *(meta.get(k, _ABSENT) for k in LANE_CONSTANTS))


def staged_order(rows: Iterable[tuple]) -> list[tuple]:
    """``rows`` in the order a store holds them once staged: grouped by
    lane, lanes in the order their first row arrived."""
    lanes: dict[tuple, list[tuple]] = {}
    for row in rows:
        lanes.setdefault(_lane_key(row), []).append(row)
    return [row for group in lanes.values() for row in group]


def stage(rows: Iterable[tuple], store: TraceStore | None = None,
          lanes: dict | None = None) -> TraceStore:
    """Feed ``rows`` one :meth:`~repro.sim.tracestore.TraceLane.append`
    each through ``store``'s lanes, one lane per (resource, category,
    template, lane constants); ``lanes`` carries them across calls."""
    store = TraceStore() if store is None else store
    lanes = {} if lanes is None else lanes
    for row in rows:
        resource_id, category, template, args, start, end, meta = row
        key = _lane_key(row)
        lane = lanes.get(key)
        if lane is None:
            consts: dict[str, Any] = {
                k: meta[k] for k in LANE_CONSTANTS if meta and k in meta
            }
            lane = lanes[key] = store.lane(resource_id, category, template,
                                           **consts)
        meta = meta or {}
        lane.append(start, end, tuple(args), meta.get("size", -1),
                    meta.get("kernel"), dict(meta) or None)
    return store
