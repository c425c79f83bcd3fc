"""Execution traces: the simulator's flight recorder.

Every resource occupation (kernel chunk, data transfer, runtime overhead)
is recorded with its resource, time interval, category, and free-form
metadata.  The experiment harness derives everything it reports from the
trace: partitioning ratios (Figs. 6, 8, 10), transfer shares (STREAM's 88%
observation), device busy times, and ASCII Gantt charts for debugging.

Storage is columnar: the data lives in a
:class:`~repro.sim.tracestore.TraceStore` (parallel arrays plus
per-resource/per-category row indexes built once), and
:class:`ExecutionTrace` is a thin compatibility facade that materializes
:class:`TraceRecord` dataclasses only when a caller actually asks for row
objects.  Aggregate queries (``makespan``, ``busy_time``,
``elements_by_device``, ...) are answered straight from the columns
without creating any records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.sim.tracestore import TraceStore


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One contiguous occupation of one resource."""

    resource_id: str
    label: str
    category: str
    start: float
    end: float
    meta: dict[str, Any] = field(default_factory=dict, hash=False, compare=False)

    @property
    def duration(self) -> float:
        return self.end - self.start


class ExecutionTrace:
    """Record-oriented facade over a columnar :class:`TraceStore`.

    The public API is unchanged from the original list-of-records design;
    queries now run against the store's group indexes, and
    :class:`TraceRecord` objects are built lazily (and cached) only for
    callers that iterate rows.
    """

    __slots__ = ("store", "_records")

    def __init__(self, store: TraceStore | None = None) -> None:
        self.store = store if store is not None else TraceStore()
        #: lazily materialized row objects, aligned with store rows
        self._records: list[TraceRecord | None] = []

    def __getstate__(self) -> TraceStore:
        # pickle only the columns; row objects re-materialize on demand
        return self.store

    def __setstate__(self, store: TraceStore) -> None:
        self.store = store
        self._records = []

    # -- writing ---------------------------------------------------------

    def add(self, record: TraceRecord) -> None:
        """Append an already-built record (compatibility entry point)."""
        row = self.store.record(
            record.resource_id,
            record.label,
            record.category,
            record.start,
            record.end,
            record.meta or None,
        )
        self._fill_to(row)
        self._records.append(record)

    def record(
        self,
        resource_id: str,
        label: str | tuple,
        category: str,
        start: float,
        end: float,
        meta: dict[str, Any] | None = None,
    ) -> None:
        """Append one occupation column-wise (no record allocation).

        ``label`` may be a display string or a lazy ``(template, *args)``
        tuple the store formats only on row materialization.
        """
        self.store.record(resource_id, label, category, start, end, meta)

    def lane(self, resource_id: str, category: str, template: str, **kwargs):
        """Open a staging :class:`~repro.sim.tracestore.TraceLane`.

        Thin forwarder to :meth:`TraceStore.lane`; see there for the
        pre-interned constants (``device_kind``, ``device``,
        ``direction``) and deferred-flush row-numbering semantics.
        """
        return self.store.lane(resource_id, category, template, **kwargs)

    # -- materialization -------------------------------------------------

    def _fill_to(self, row: int) -> None:
        if len(self._records) < row:
            self._records.extend([None] * (row - len(self._records)))

    def _record_at(self, row: int) -> TraceRecord:
        self._fill_to(len(self.store))
        record = self._records[row]
        if record is None:
            store = self.store
            meta_idx = store.meta_idx[row]
            record = TraceRecord(
                resource_id=store.resource_id_at(row),
                label=store.label_at(row),
                category=store.category_at(row),
                start=store.starts[row],
                end=store.ends[row],
                meta=store.metas[meta_idx] if meta_idx >= 0 else {},
            )
            self._records[row] = record
        return record

    def __len__(self) -> int:
        return len(self.store)

    def __iter__(self) -> Iterator[TraceRecord]:
        for row in range(len(self.store)):
            yield self._record_at(row)

    @property
    def records(self) -> list[TraceRecord]:
        """All records in insertion order (do not mutate)."""
        return [self._record_at(row) for row in range(len(self.store))]

    # -- queries ---------------------------------------------------------

    def by_category(self, category: str) -> list[TraceRecord]:
        """Records with the given category tag."""
        return [self._record_at(r) for r in self.store.rows_by_category(category)]

    def by_resource(self, resource_id: str) -> list[TraceRecord]:
        """Records on the given resource."""
        return [self._record_at(r) for r in self.store.rows_by_resource(resource_id)]

    def makespan(self) -> float:
        """Latest end time across all records (0.0 for an empty trace)."""
        return self.store.makespan()

    def busy_time(self, resource_id: str, *, category: str | None = None) -> float:
        """Total occupied seconds on a resource, optionally per category."""
        return self.store.busy_time(resource_id, category=category)

    def total_time(self, *, category: str) -> float:
        """Total occupied seconds across all resources for a category."""
        return self.store.total_time(category=category)

    def elements_by_device(
        self, *, category: str = "compute", key: str = "device_kind"
    ) -> dict[str, int]:
        """Sum the ``size`` metadata of compute records grouped by ``key``.

        This is how partitioning ratios are computed: each compute record
        carries the number of data elements it processed and the device
        kind it ran on.
        """
        return self.store.elements_by_device(category=category, key=key)

    def instance_count_by_device(self, *, key: str = "device_kind") -> dict[str, int]:
        """Number of compute task instances per device group."""
        return self.store.instance_count_by_device(key=key)


#: narrowest chart :func:`render_gantt` draws: its footer pads
#: ``width - GANTT_MIN_WIDTH`` columns between the ``0`` tick and the
#: makespan label
GANTT_MIN_WIDTH = 12


def render_gantt(
    trace: ExecutionTrace,
    *,
    width: int = 80,
    resources: Iterable[str] | None = None,
) -> str:
    """Render an ASCII Gantt chart of the trace.

    Each resource gets one row; compute occupations draw ``#``, transfers
    ``=``, everything else ``+``.  Intended for eyeballing overlap during
    development, not for exact reading.  ``width`` is the chart's column
    count, at least :data:`GANTT_MIN_WIDTH`.
    """
    if width < GANTT_MIN_WIDTH:
        raise ValueError(
            f"gantt width {width} is below the minimum of {GANTT_MIN_WIDTH}"
        )
    store = trace.store
    if not len(store):
        return "(empty trace)"
    if resources is None:
        resources = store.resource_ids_seen()
    else:
        # materialize: a generator would be exhausted by the name-width
        # pass below and then render an empty chart
        resources = list(resources)
    span = trace.makespan()
    if span <= 0:
        return "(zero-length trace)"
    glyph = {"compute": "#", "transfer": "="}
    name_w = max(len(r) for r in resources)
    # category glyphs resolved per *code* once, not per row: the chart
    # walks column indexes only and never materializes a TraceRecord
    code_glyph = [
        glyph.get(cat, "+") for cat in store.category_pool.table
    ]
    starts, ends, category_codes = store.starts, store.ends, store.category_codes
    lines = []
    for rid in resources:
        row = [" "] * width
        for rec in store.rows_by_resource(rid):
            lo = int(starts[rec] / span * (width - 1))
            hi = max(lo, int(ends[rec] / span * (width - 1)))
            ch = code_glyph[category_codes[rec]]
            for i in range(lo, hi + 1):
                row[i] = ch
        lines.append(f"{rid:<{name_w}} |{''.join(row)}|")
    pad = width - GANTT_MIN_WIDTH
    lines.append(f"{'':<{name_w}}  0{'':<{pad}}{span * 1e3:10.3f} ms")
    return "\n".join(lines)
