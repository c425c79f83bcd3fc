"""The event-loop core of the simulator."""

from __future__ import annotations

import heapq
from functools import partial
from typing import Any, Callable

from repro.errors import SimulationError
from repro.sim.events import Event

#: priority for resource-completion events (fire before scheduler ticks)
PRIORITY_COMPLETION = 0
#: priority for scheduler decision points
PRIORITY_SCHEDULE = 10

#: default event budget for one :meth:`Simulator.run` call; see
#: :class:`repro.runtime.executor.RuntimeConfig.max_events` for the knob
#: that overrides it on simulated executions
DEFAULT_MAX_EVENTS = 50_000_000


def max_events_error(max_events: int) -> SimulationError:
    """The error raised when a run exhausts its event budget.

    Names the knobs that raise the budget so a legitimate long simulation
    does not dead-end on a bare "runaway?" message.
    """
    return SimulationError(
        f"simulation exceeded max_events={max_events}. If the workload is "
        "legitimately this large, raise the budget via "
        "RuntimeConfig(max_events=...) (CLI: --max-events); otherwise this "
        "is a runaway self-scheduling loop."
    )


class Simulator:
    """A minimal, deterministic discrete-event simulator.

    Usage: schedule callbacks with :meth:`at` / :meth:`after` (or a
    one-argument call with :meth:`schedule_call`), then call :meth:`run`.
    Callbacks may schedule further events.  Virtual time only moves
    forward; scheduling into the past is an error.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[Event] = []
        self._seq = 0
        self._running = False

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def at(
        self,
        time: float,
        callback: Callable[[], Any],
        *,
        priority: int = PRIORITY_SCHEDULE,
    ) -> None:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if time < self._now - 1e-15:
            raise SimulationError(
                f"cannot schedule event at {time} before now={self._now}"
            )
        heapq.heappush(
            self._heap, Event(max(time, self._now), priority, self._seq, callback)
        )
        self._seq += 1

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
        self.at(self._now + delay, callback, priority=priority)

    def schedule_call(
        self,
        time: float,
        fn: Callable[[Any], Any],
        arg: Any,
        *,
        priority: int = PRIORITY_COMPLETION,
    ) -> None:
        """Schedule ``fn(arg)`` at ``time``: one event, one sequence
        number, like the fast engine's closure-free call."""
        self.at(time, partial(fn, arg), priority=priority)

    def run(self, *, max_events: int = DEFAULT_MAX_EVENTS) -> float:
        """Drain the event heap; returns the final virtual time.

        ``max_events`` is a safety valve against runaway self-scheduling
        loops.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        processed = 0
        try:
            while heap:
                event = pop(heap)
                if processed >= max_events:
                    raise max_events_error(max_events)
                self._now = event.time
                event.callback()
                processed += 1
        finally:
            self._running = False
        return self._now
