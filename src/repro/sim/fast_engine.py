"""Slot-dispatched fast event core (the default simulation engine).

The oracle :class:`~repro.sim.engine.Simulator` allocates one
``@dataclass`` :class:`~repro.sim.events.Event` plus one closure per
scheduled callback, and every heap operation compares events through the
dataclass's Python-level ``__lt__``.  That is robust but slow: the run
loop spends most of its time allocating and comparing bookkeeping
objects, not simulating.

:class:`FastSimulator` keeps the exact event *semantics* — total ordering
by ``(time, priority, seq)``, monotonic virtual time, cancellation,
``max_events`` budgets, ``until`` horizons — but represents events as
plain tuples ``(time, priority, seq, kind, a0, a1)`` dispatched on a
small integer ``kind`` inside an inlined run loop:

``_K_CALLBACK``
    The :meth:`at`/:meth:`after` compatibility path: ``a0`` is a
    cancellable :class:`FastEvent` handle.  API-compatible with the
    oracle's ``Event`` (``time``/``priority``/``seq``/``cancel()``).
``_K_FINISH``
    A resource-occupation completion scheduled through
    :meth:`schedule_completion`: ``a0`` is the
    :class:`~repro.sim.resources.SimResource`, ``a1`` the occupation.
    The loop advances the resource's FIFO, records the trace row, and
    re-schedules the next completion *inline* — no per-event closure, no
    Event allocation, and tuple comparisons run at C level in the heap.
    This is the executor's hot path.
``_K_CALL``
    A closure-free deferred call scheduled through
    :meth:`schedule_call`: ``a0`` is a callable, ``a1`` its single
    argument, and the loop simply runs ``a0(a1)``.  A call event anchors
    an entire epoch whose rows were committed analytically by the plan
    evaluator's drain — one heap tuple and one sequence number stand in
    for every completion of the epoch.  Not cancellable (no handle is
    allocated), which is what keeps it free.

Because both engines drive the *same* executor and
:class:`~repro.sim.resources.SimResource` code and consume sequence
numbers identically, a run under either engine produces byte-identical
:class:`~repro.artifact.RunArtifact` pickles — the differential suite
(``tests/integration/test_fast_engine_differential.py``) enforces this
across every strategy and sweep backend.

Set ``REPRO_NO_FAST_ENGINE=1`` to make :func:`make_simulator` return the
oracle engine instead; the environment is consulted per call, so tests
can flip modes in-process.
"""

from __future__ import annotations

import heapq
import os
from typing import Any, Callable

from repro.errors import SimulationError
from repro.sim.engine import (
    DEFAULT_MAX_EVENTS,
    PRIORITY_COMPLETION,
    PRIORITY_SCHEDULE,
    Simulator,
    max_events_error,
)

#: event kinds (the ``kind`` slot of a heap tuple)
_K_CALLBACK = 0
_K_FINISH = 1
_K_CALL = 4


def fast_engine_enabled() -> bool:
    """Whether new simulations use the fast engine (the default).

    ``REPRO_NO_FAST_ENGINE=1`` (or ``true``/``on``) forces the oracle
    :class:`~repro.sim.engine.Simulator`, e.g. to produce a differential
    reference run.  Read per call so tests can flip it in-process.
    """
    return os.environ.get("REPRO_NO_FAST_ENGINE", "0") not in ("1", "true", "on")


def make_simulator(
    *, compact_min: int | None = None
) -> "FastSimulator | Simulator":
    """The engine new runs should use, honoring ``REPRO_NO_FAST_ENGINE``.

    ``compact_min`` overrides the cancelled-event pruning threshold on
    whichever engine is selected (``None`` keeps the engine default).
    """
    if fast_engine_enabled():
        return FastSimulator(compact_min=compact_min)
    return Simulator(compact_min=compact_min)


class FastEvent:
    """Cancellable handle for one scheduled callback.

    API-compatible with the oracle's :class:`~repro.sim.events.Event`:
    exposes ``time``, ``priority``, ``seq``, ``cancelled``, ``callback``
    and :meth:`cancel`.  Unlike the dataclass Event, the handle never
    enters the heap comparison path — ordering lives in the engine's
    tuples — so it carries no ordering dunders.
    """

    __slots__ = ("time", "priority", "seq", "callback", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[[], Any],
        sim: "FastSimulator",
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running when the event fires.

        Cancelling an event that already fired (the engine detaches the
        handle before invoking its callback) is a no-op for the live
        accounting, so :attr:`FastSimulator.pending` stays exact.
        """
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            self._sim = None
            sim._note_cancel()


class FastSimulator:
    """Drop-in fast engine: same contract as the oracle ``Simulator``."""

    #: same default compaction policy as the oracle engine
    _COMPACT_MIN = 64

    #: capability flag: :class:`~repro.sim.resources.SimResource` detects
    #: this attribute and schedules completions through
    #: :meth:`schedule_completion` instead of a per-event closure
    inline_completions = True

    __slots__ = ("_now", "_heap", "_seq", "_running", "_cancelled",
                 "_compact_min", "compactions")

    def __init__(self, *, compact_min: int | None = None) -> None:
        self._now = 0.0
        #: heap of (time, priority, seq, kind, a0, a1) tuples
        self._heap: list[tuple] = []
        self._seq = 0
        self._running = False
        self._cancelled = 0  # cancelled handles still occupying heap slots
        #: cancelled-slot threshold below which the heap is never rebuilt
        #: (see :meth:`_note_cancel`); configurable per workload
        self._compact_min = (
            self._COMPACT_MIN if compact_min is None else compact_min
        )
        self.compactions = 0  # heap rebuilds performed so far

    @property
    def compact_min(self) -> int:
        """Cancelled-slot threshold that arms heap compaction."""
        return self._compact_min

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of queued live (non-cancelled) events."""
        return len(self._heap) - self._cancelled

    # -- scheduling ---------------------------------------------------------

    def at(
        self,
        time: float,
        callback: Callable[[], Any],
        *,
        priority: int = PRIORITY_SCHEDULE,
    ) -> FastEvent:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if time < self._now - 1e-15:
            raise SimulationError(
                f"cannot schedule event at {time} before now={self._now}"
            )
        time = max(time, self._now)
        seq = self._seq
        self._seq = seq + 1
        handle = FastEvent(time, priority, seq, callback, self)
        heapq.heappush(self._heap, (time, priority, seq, _K_CALLBACK, handle, None))
        return handle

    def after(
        self,
        delay: float,
        callback: Callable[[], Any],
        *,
        priority: int = PRIORITY_SCHEDULE,
    ) -> FastEvent:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        return self.at(self._now + delay, callback, priority=priority)

    def schedule_completion(self, time: float, resource, occupation) -> None:
        """Schedule a resource-occupation completion (inlined in the loop).

        The completion consumes one sequence number, exactly like the
        closure the oracle engine would have pushed — which is what keeps
        event interleaving identical between the two engines.
        """
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(
            self._heap,
            (time, PRIORITY_COMPLETION, seq, _K_FINISH, resource, occupation),
        )

    def schedule_call(
        self,
        time: float,
        fn: Callable[[Any], Any],
        arg: Any,
        *,
        priority: int = PRIORITY_COMPLETION,
    ) -> None:
        """Schedule ``fn(arg)`` at ``time`` without allocating a handle.

        The plan drain's anchor: one tuple and one sequence number for
        a whole committed epoch, mirroring the single ``sim.at`` closure the
        oracle engine schedules for the same anchor — which keeps event
        interleaving identical across engines.  Not cancellable.
        """
        if time < self._now - 1e-15:
            raise SimulationError(
                f"cannot schedule event at {time} before now={self._now}"
            )
        time = max(time, self._now)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, priority, seq, _K_CALL, fn, arg))

    def _note_cancel(self) -> None:
        """Track a cancellation; compact once cancelled slots dominate."""
        self._cancelled += 1
        if (
            self._cancelled >= self._compact_min
            and self._cancelled * 2 > len(self._heap)
        ):
            self._heap = [
                e for e in self._heap
                if e[3] != _K_CALLBACK or not e[4].cancelled
            ]
            heapq.heapify(self._heap)
            self._cancelled = 0
            self.compactions += 1

    # -- run loop -----------------------------------------------------------

    def run(
        self, *, until: float | None = None, max_events: int = DEFAULT_MAX_EVENTS
    ) -> float:
        """Drain the event heap; returns the final virtual time.

        Identical contract to the oracle engine's ``run``: an optional
        ``until`` horizon leaves later events queued, and ``max_events``
        bounds the number of *executed* (non-cancelled) events.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        try:
            return self._run_general(until, max_events)
        finally:
            self._running = False

    def _run_general(self, until: float | None, max_events: int) -> float:
        heap = self._heap
        pop = heapq.heappop
        push = heapq.heappush
        processed = 0
        while heap:
            ev = heap[0]
            t = ev[0]
            if until is not None and t > until:
                break
            pop(heap)
            kind = ev[3]
            if kind == _K_FINISH:
                # inlined SimResource completion: advance the FIFO,
                # record the row, re-arm the next occupation — the body
                # of SimResource._finish/_start without the call chain
                # (the shared-semantics contract is enforced by the
                # property and differential suites)
                if processed >= max_events:
                    raise max_events_error(max_events)
                processed += 1
                self._now = t
                res = ev[4]
                queue = res._queue
                if queue:
                    nxt = queue.popleft()
                    end = t + nxt.duration
                    if not queue:
                        res._busy_until = end
                    lane = nxt.lane
                    if lane is not None:
                        lane.append(t, end, nxt.args, nxt.size,
                                    nxt.kernel, nxt.meta)
                    else:
                        res._record(res.resource_id, nxt.label, nxt.category,
                                    t, end, nxt.meta)
                    seq = self._seq
                    self._seq = seq + 1
                    push(heap, (end, PRIORITY_COMPLETION, seq, _K_FINISH,
                                res, nxt))
                else:
                    res._busy = False
                    res._busy_until = t
                cb = ev[5].on_complete
                if cb is not None:
                    if type(cb) is tuple:
                        cb[0](cb[1])
                    else:
                        cb()
            elif kind == _K_CALLBACK:
                handle = ev[4]
                if handle.cancelled:
                    if self._cancelled > 0:
                        self._cancelled -= 1
                    continue
                if processed >= max_events:
                    raise max_events_error(max_events)
                processed += 1
                # firing: detach so a late cancel() cannot skew ``pending``
                handle._sim = None
                self._now = t
                handle.callback()
            else:  # _K_CALL
                # one event for a whole barrier-epoch wave: the plan
                # evaluator committed every row analytically and left a
                # single anchor to advance the clock and continue
                if processed >= max_events:
                    raise max_events_error(max_events)
                processed += 1
                self._now = t
                ev[4](ev[5])
        if until is not None and until > self._now:
            self._now = until
        return self._now
