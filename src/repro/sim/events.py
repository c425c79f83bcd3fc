"""Simulation events.

Events are ordered by ``(time, priority, seq)``: ties in virtual time break
first on an explicit priority (lower runs first) and then on insertion order,
which makes simulations fully deterministic — a property the test suite
relies on heavily.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(order=True, slots=True)
class Event:
    """One scheduled callback in virtual time.

    Attributes
    ----------
    time:
        Virtual time (seconds) at which the event fires.
    priority:
        Tie-breaker for simultaneous events; lower fires first.  Completion
        events use a lower priority than scheduling ticks so that resources
        free up before the scheduler observes them.
    seq:
        Monotonic insertion index; makes ordering total and deterministic.
    callback:
        Zero-argument callable invoked when the event fires.
    """

    time: float
    priority: int
    seq: int
    callback: Callable[[], Any] = field(compare=False)
