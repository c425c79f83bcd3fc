"""Slot-dispatched fast event core (the default simulation engine).

The oracle :class:`~repro.sim.engine.Simulator` allocates one
``@dataclass`` :class:`~repro.sim.events.Event` plus one closure per
scheduled callback, and every heap operation compares events through the
dataclass's Python-level ``__lt__``.  That is robust but slow: the run
loop spends most of its time allocating and comparing bookkeeping
objects, not simulating.

:class:`FastSimulator` keeps the exact event *semantics* — total ordering
by ``(time, priority, seq)``, monotonic virtual time, ``max_events``
budgets — but represents events as plain tuples
``(time, priority, seq, kind, a0, a1)`` dispatched on a small integer
``kind`` inside an inlined run loop:

``_K_FINISH``
    A resource-occupation completion scheduled through
    :meth:`schedule_completion`: ``a0`` is the
    :class:`~repro.sim.resources.SimResource`, ``a1`` the occupation.
    The loop advances the resource's FIFO, hands the next occupation's
    row to its trace lane, and re-schedules the next completion *inline*
    — no per-event closure, no Event allocation, and tuple comparisons
    run at C level in the heap.
    This is the executor's hot path.
``_K_CALL``
    A deferred call ``a0(a1)``, scheduled through :meth:`schedule_call`
    (which both engines offer) or, for a zero-argument callback, through
    :meth:`at`/:meth:`after`.  The plan evaluator's drain anchors an
    entire epoch whose rows it committed analytically on one call
    event — one heap tuple and one sequence number stand in for every
    completion of the epoch.

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
_K_FINISH = 0
_K_CALL = 1


def _invoke(callback: Callable[[], Any]) -> None:
    """Run a zero-argument callback: the ``_K_CALL`` target of
    :meth:`FastSimulator.at` and :meth:`FastSimulator.after`."""
    callback()


def fast_engine_enabled() -> bool:
    """Whether new simulations use the fast engine (the default).

    ``REPRO_NO_FAST_ENGINE=1`` (or ``true``/``on``) forces the oracle
    :class:`~repro.sim.engine.Simulator`, e.g. to produce a differential
    reference run.  Read per call so tests can flip it in-process.
    """
    return os.environ.get("REPRO_NO_FAST_ENGINE", "0") not in ("1", "true", "on")


def make_simulator() -> "FastSimulator | Simulator":
    """The engine new runs should use, honoring ``REPRO_NO_FAST_ENGINE``."""
    return FastSimulator() if fast_engine_enabled() else Simulator()


class FastSimulator:
    """Drop-in fast engine: same contract as the oracle ``Simulator``."""

    #: capability flag: :class:`~repro.sim.resources.SimResource` detects
    #: this attribute and schedules completions through
    #: :meth:`schedule_completion` instead of a per-event closure
    inline_completions = True

    __slots__ = ("_now", "_heap", "_seq", "_running")

    def __init__(self) -> None:
        self._now = 0.0
        #: heap of (time, priority, seq, kind, a0, a1) tuples
        self._heap: list[tuple] = []
        self._seq = 0
        self._running = False

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # -- scheduling ---------------------------------------------------------

    def at(
        self,
        time: float,
        callback: Callable[[], Any],
        *,
        priority: int = PRIORITY_SCHEDULE,
    ) -> None:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        self.schedule_call(time, _invoke, callback, priority=priority)

    def after(
        self,
        delay: float,
        callback: Callable[[], Any],
        *,
        priority: int = PRIORITY_SCHEDULE,
    ) -> None:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        self.schedule_call(self._now + delay, _invoke, callback,
                           priority=priority)

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
        """Schedule ``fn(arg)`` at ``time`` as one tuple and one sequence
        number, like the oracle engine's ``schedule_call``."""
        if time < self._now - 1e-15:
            raise SimulationError(
                f"cannot schedule event at {time} before now={self._now}"
            )
        time = max(time, self._now)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, priority, seq, _K_CALL, fn, arg))

    # -- run loop -----------------------------------------------------------

    def run(self, *, max_events: int = DEFAULT_MAX_EVENTS) -> float:
        """Drain the event heap; returns the final virtual time.

        Identical contract to the oracle engine's ``run``: ``max_events``
        bounds the number of executed events.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        push = heapq.heappush
        processed = 0
        try:
            while heap:
                ev = pop(heap)
                if processed >= max_events:
                    raise max_events_error(max_events)
                processed += 1
                t = ev[0]
                self._now = t
                if ev[3] == _K_FINISH:
                    # inlined SimResource completion: advance the FIFO,
                    # hand the next row to its lane, re-arm the next
                    # occupation — the body of SimResource._finish/_start
                    # without the call chain (the shared-semantics
                    # contract is enforced by the property and
                    # differential suites)
                    res = ev[4]
                    queue = res._queue
                    if queue:
                        nxt = queue.popleft()
                        end = t + nxt.duration
                        if not queue:
                            res._busy_until = end
                        nxt.lane.append(t, end, nxt.args, nxt.size,
                                        nxt.kernel, nxt.meta)
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
                else:  # _K_CALL
                    ev[4](ev[5])
        finally:
            self._running = False
        return self._now
