"""Execution traces: the simulator's flight recorder.

Every resource occupation (kernel chunk, data transfer, runtime overhead)
is recorded with its resource, time interval, category, and free-form
metadata.  The experiment harness derives everything it reports from the
trace: partitioning ratios (Figs. 6, 8, 10), transfer shares (STREAM's 88%
observation), device busy times, and ASCII Gantt charts for debugging.

A run's trace is a columnar :class:`~repro.sim.tracestore.TraceStore`
(parallel arrays plus per-resource/per-category row indexes); this module
holds its row type, :class:`TraceRecord`, which the store builds only for
callers that ask for row objects, and the Gantt renderer, which reads the
columns directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover - the store imports this module
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


#: narrowest chart :func:`render_gantt` draws: its footer pads
#: ``width - GANTT_MIN_WIDTH`` columns between the ``0`` tick and the
#: makespan label
GANTT_MIN_WIDTH = 12


def render_gantt(
    store: TraceStore,
    *,
    width: int = 80,
    resources: Iterable[str] | None = None,
) -> str:
    """Render an ASCII Gantt chart of a run's trace.

    Each resource gets one row; compute occupations draw ``#``, transfers
    ``=``, everything else ``+``.  Intended for eyeballing overlap during
    development, not for exact reading.  ``width`` is the chart's column
    count, at least :data:`GANTT_MIN_WIDTH`.
    """
    if width < GANTT_MIN_WIDTH:
        raise ValueError(
            f"gantt width {width} is below the minimum of {GANTT_MIN_WIDTH}"
        )
    if not len(store):
        return "(empty trace)"
    if resources is None:
        resources = store.resource_ids_seen()
    else:
        # materialize: a generator would be exhausted by the name-width
        # pass below and then render an empty chart
        resources = list(resources)
    span = store.makespan()
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
