"""Serial simulated resources (compute contexts and link channels).

A :class:`SimResource` executes one occupation at a time.  Occupations are
either started immediately (if the resource is idle) or queued FIFO.  Each
occupation appends one row to the shared trace's columnar
:class:`~repro.sim.tracestore.TraceStore` — no per-occupation
:class:`~repro.sim.trace.TraceRecord` object is allocated on this hot
path — and fires a completion callback through the owning simulator.

Resources work with either engine.  Under the oracle
:class:`~repro.sim.engine.Simulator` every completion is a closure
scheduled through ``sim.at``; under the
:class:`~repro.sim.fast_engine.FastSimulator` completions go through
``sim.schedule_completion`` and the engine's run loop advances the FIFO
inline (see :mod:`repro.sim.fast_engine`).  Both paths consume one
sequence number per completion, so event interleaving — and therefore
every trace row — is identical across engines.

Completion callbacks may be plain zero-argument callables or ``(fn, arg)``
tuples; the tuple form lets callers (the runtime executor, chiefly) pass
a bound method and its argument instead of building a closure per
occupation.

``trace=None`` creates an *untraced* resource: occupations run with full
timing/queueing semantics but append no rows.  Artifact-producing runs
always trace; the untraced mode serves replay and schedule-search
workloads that only need the clock.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import SimulationError
from repro.sim import _vec
from repro.sim.engine import PRIORITY_COMPLETION, Simulator
from repro.sim.trace import ExecutionTrace
from repro.sim.tracestore import TraceLane


@dataclass(slots=True)
class _Occupation:
    duration: float
    #: display string, or a lazy ``(template, *args)`` tuple the trace
    #: store formats only when a row is materialized
    label: str | tuple
    category: str
    on_complete: Callable[[], Any] | tuple | None
    meta: dict[str, Any] = field(default_factory=dict)
    #: staging lane this occupation's row goes to instead of
    #: ``TraceStore.record`` (resource/category/template pre-interned)
    lane: TraceLane | None = None
    #: per-row lane arguments: label args, element count, kernel name
    args: tuple = ()
    size: int = -1
    kernel: str | None = None
    #: meta is a throwaway dict the store may keep without copying
    own_meta: bool = False


@dataclass(slots=True)
class _StreamBlock:
    """Deferred bulk-trace payload for :meth:`SimResource.occupy_stream`.

    Carries everything :meth:`SimResource._finish_stream` needs to write
    the whole run of rows at the stream's single completion event.
    """

    lane: TraceLane
    #: ``k + 1`` cumulative bounds; row ``i`` spans ``bounds[i]`` to
    #: ``bounds[i + 1]`` (see :func:`repro.sim._vec.lane_bounds`)
    bounds: Any
    str_arg: str | None
    args: Any
    metas: list | None
    on_complete: Callable[[], Any] | tuple | None


class SimResource:
    """A serial resource bound to a simulator and a shared trace.

    Parameters
    ----------
    sim:
        The owning simulator (oracle or fast engine).
    resource_id:
        Unique identifier; appears in trace records.
    trace:
        Shared :class:`ExecutionTrace` that collects occupation records,
        or ``None`` for an untraced resource.
    """

    def __init__(
        self,
        sim: Simulator,
        resource_id: str,
        trace: ExecutionTrace | None,
    ) -> None:
        self.sim = sim
        self.resource_id = resource_id
        self.trace = trace
        #: prebound row appender (or None): one attribute load per row
        #: instead of two, and the untraced check is a None test
        self._record = trace.record if trace is not None else None
        #: engines that inline completion handling expose
        #: ``schedule_completion``; the oracle path allocates a closure
        self._schedule_completion = getattr(sim, "schedule_completion", None)
        #: fast-engine hook for one-event stream completions
        self._schedule_stream = getattr(sim, "schedule_stream", None)
        self._queue: deque[_Occupation] = deque()
        self._busy = False
        self._busy_until = 0.0

    @property
    def busy(self) -> bool:
        """Whether an occupation is currently executing."""
        return self._busy

    @property
    def busy_until(self) -> float:
        """Virtual time at which the current work (incl. queue) finishes.

        For an idle resource this is the current time.
        """
        if not self._busy and not self._queue:
            return self.sim.now
        return self._busy_until

    @property
    def queued(self) -> int:
        """Number of occupations waiting behind the current one."""
        return len(self._queue)

    def occupy(
        self,
        duration: float,
        *,
        label: str | tuple,
        category: str,
        on_complete: Callable[[], Any] | tuple | None = None,
        meta: dict[str, Any] | None = None,
        lane: TraceLane | None = None,
        args: tuple = (),
        size: int = -1,
        kernel: str | None = None,
        own_meta: bool = False,
    ) -> None:
        """Enqueue an occupation of ``duration`` seconds.

        ``category`` tags the record for trace analysis (``"compute"``,
        ``"transfer"``, ``"overhead"`` ...).  ``on_complete`` — a
        callable or a ``(fn, arg)`` tuple — fires at the occupation's end
        time, *after* the resource is marked free.

        Passing ``lane`` routes the trace row through a pre-interned
        :class:`~repro.sim.tracestore.TraceLane` instead of
        ``TraceStore.record``: ``label``/``category`` are ignored for the
        row (the lane's template and constants win) and ``args``, ``size``
        and ``kernel`` become the per-row lane payload.  The lane must
        belong to this resource's trace store.  ``own_meta=True`` marks
        ``meta`` as a throwaway dict the store may keep without copying.
        """
        if duration < 0:
            raise SimulationError(
                f"{self.resource_id}: occupation duration must be >= 0"
            )
        occ = _Occupation(
            duration, label, category, on_complete, meta or {},
            lane, args, size, kernel, own_meta,
        )
        if self._busy:
            self._queue.append(occ)
            self._busy_until += duration
        else:
            self._start(occ)

    def _start(self, occ: _Occupation) -> None:
        self._busy = True
        start = self.sim.now
        end = start + occ.duration
        if not self._queue:
            self._busy_until = end
        # columnar append: no TraceRecord allocation on the hot path
        record = self._record
        if record is not None:
            lane = occ.lane
            if lane is not None:
                lane.append(
                    start, end, occ.args, occ.size, occ.kernel, occ.meta
                )
            else:
                record(
                    self.resource_id, occ.label, occ.category, start, end,
                    occ.meta, occ.own_meta,
                )
        schedule = self._schedule_completion
        if schedule is not None:
            schedule(end, self, occ)
        else:
            self.sim.at(end, lambda: self._finish(occ), priority=PRIORITY_COMPLETION)

    def _finish(self, occ: _Occupation) -> None:
        # NOTE: the fast engine inlines this body (plus _start's) in its
        # run loop for _K_FINISH events; keep the two in sync
        if self._queue:
            nxt = self._queue.popleft()
            self._start(nxt)
        else:
            self._busy = False
            self._busy_until = self.sim.now
        cb = occ.on_complete
        if cb is not None:
            if type(cb) is tuple:
                cb[0](cb[1])
            else:
                cb()

    def occupy_stream(
        self,
        durations,
        lane: TraceLane,
        *,
        str_arg: str | None = None,
        args=None,
        metas: list | None = None,
        on_complete: Callable[[], Any] | tuple | None = None,
    ) -> None:
        """Occupy with a back-to-back run of ``len(durations)`` rows.

        The bulk traced intake: where :meth:`occupy` costs one event and
        one row append per occupation, this schedules **one** completion
        event for the whole run and writes all rows with a single
        block-extend into ``lane`` when it fires.  Cumulative bounds come
        from :func:`repro.sim._vec.lane_bounds` (numpy ``cumsum``, or the
        bit-identical sequential fallback under ``REPRO_NO_NUMPY=1``), so
        every row's start/end matches what ``len(durations)`` chained
        :meth:`occupy` calls would have produced.

        The resource must be idle with an empty queue — the stream
        models an uninterruptible run, so interleaving with queued
        occupations has no meaning.  (Work *arriving* during the stream
        queues behind it as usual.)  ``str_arg``/``args``/``metas`` are
        the per-run lane payload (see
        :class:`~repro.sim.tracestore.TraceLane.extend_block`).  Both
        engines consume exactly one sequence number for the completion,
        keeping event interleaving — and artifact bytes — identical.
        """
        if self.trace is None:
            raise SimulationError(
                f"{self.resource_id}: occupy_stream requires a traced resource"
            )
        if self._busy or self._queue:
            raise SimulationError(
                f"{self.resource_id}: occupy_stream requires an idle resource"
            )
        k = len(durations)
        if args is not None and len(args) != k:
            raise SimulationError(
                f"{self.resource_id}: occupy_stream args length {len(args)}"
                f" != {k} durations"
            )
        if metas is not None and len(metas) != k:
            raise SimulationError(
                f"{self.resource_id}: occupy_stream metas length {len(metas)}"
                f" != {k} durations"
            )
        if k == 0:
            # empty run: no occupation, fire the callback at the current
            # time without consuming an event
            if on_complete is not None:
                if type(on_complete) is tuple:
                    on_complete[0](on_complete[1])
                else:
                    on_complete()
            return
        if min(durations) < 0:
            raise SimulationError(
                f"{self.resource_id}: occupation duration must be >= 0"
            )
        bounds = _vec.lane_bounds(self.sim.now, durations)
        end = float(bounds[k])
        self._busy = True
        self._busy_until = end
        block = _StreamBlock(lane, bounds, str_arg, args, metas, on_complete)
        schedule = self._schedule_stream
        if schedule is not None:
            schedule(end, self, block)
        else:
            self.sim.at(
                end,
                lambda: self._finish_stream(block),
                priority=PRIORITY_COMPLETION,
            )

    def _finish_stream(self, block: _StreamBlock) -> None:
        # mirrors _finish: free the resource (or hand over to work queued
        # *during* the stream), then fire the callback.  The fast engine
        # calls this directly for _K_FINISH_BATCH events.
        block.lane.extend_block(
            block.bounds, block.str_arg, block.args, block.metas
        )
        if self._queue:
            nxt = self._queue.popleft()
            self._start(nxt)
        else:
            self._busy = False
            self._busy_until = self.sim.now
        cb = block.on_complete
        if cb is not None:
            if type(cb) is tuple:
                cb[0](cb[1])
            else:
                cb()
