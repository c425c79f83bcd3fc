"""Deterministic discrete-event simulation engine.

The runtime replays task execution on the simulated platform through this
engine: compute resources and interconnect channels are serial
:class:`~repro.sim.resources.SimResource` objects, the
:class:`~repro.sim.engine.Simulator` advances virtual time through an event
heap, and every occupation of a resource enters the run's trace — a
columnar :class:`~repro.sim.tracestore.TraceStore` — as one row through a
:class:`~repro.sim.tracestore.TraceLane`, for later analysis
(partitioning ratios, Gantt charts, transfer accounting).  Analysis runs
as insertion-order scans over the store's array-backed columns, and
:class:`~repro.sim.trace.TraceRecord` rows are built only for callers
that ask for them (``TraceStore.records``).

Two interchangeable engines exist: the slot-dispatched
:class:`~repro.sim.fast_engine.FastSimulator` (the default — tuple
events dispatched on an integer kind inside an inlined run loop) and the
closure-per-event oracle :class:`~repro.sim.engine.Simulator` it is
differentially tested against (``REPRO_NO_FAST_ENGINE=1`` selects the
oracle; :func:`~repro.sim.fast_engine.make_simulator` honors the flag).
Both offer ``now``, ``at``/``after``, ``schedule_call`` and
``run(max_events=...)``; the fast engine adds ``schedule_completion``
for resource completions.  Either engine produces byte-identical run
artifacts.
"""

from repro.sim.analysis import (
    ResourceStats,
    TraceStats,
    analyze_trace,
    compute_overlap_fraction,
    format_stats,
)
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.sim.fast_engine import (
    FastSimulator,
    fast_engine_enabled,
    make_simulator,
)
from repro.sim.resources import SimResource
from repro.sim.trace import TraceRecord, render_gantt
from repro.sim.tracestore import TraceStore

__all__ = [
    "ResourceStats",
    "TraceStats",
    "analyze_trace",
    "compute_overlap_fraction",
    "format_stats",
    "Simulator",
    "Event",
    "FastSimulator",
    "fast_engine_enabled",
    "make_simulator",
    "SimResource",
    "TraceRecord",
    "TraceStore",
    "render_gantt",
]
