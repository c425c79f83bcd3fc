"""Machine-speed calibration, so timings survive a host whose speed drifts.

On a shared host the same op can take 0.9 s in one minute and 1.4 s in
the next, with identical exact counts and CPU time tracking wall time
(so it is not steal): the host switches between a fast and a slow state
that each last from seconds to minutes.  The benchmark therefore times a
fixed pure-Python loop before and after every timed step (a set-up
sample or an op) and multiplies the step's wall time by
``(REFERENCE_S / mean(loop before, loop after)) ** SENSITIVITY[kind]``.

The loop is pure interpreter work and follows the host's state fully;
each kind of step follows it only in part, because part of its time goes
to memory and system calls, which the state moves less.  A kind's
sensitivity is ``log(step slow / fast) / log(loop slow / fast)``, taken
from the median step times binned by the loop time around them (fast:
loop under 34 ms, slow: over 43 ms), over 25-30 runs per workload.  The
loop belongs to the benchmark and shares no code with the program, so a
change to the program cannot move it.
"""

from __future__ import annotations

import heapq
from time import perf_counter

#: the loop's wall time on the reference host; scaled times are "seconds
#: on a host where calibrate() takes this long"
REFERENCE_S = 0.05
#: exponent on the loop's speed ratio per kind of step, as measured (step
#: slowdown / loop slowdown from the fast to the slow state): search
#: 1.47x/1.58x (0.84), tournament 1.48x/1.62x (0.82), matchmake
#: 1.33x/1.62x (0.59), set-up 1.23x/1.60x (0.43)
SENSITIVITY = {"setup": 0.5, "search": 0.8, "tournament": 0.8, "matchmake": 0.6}


class _Task:
    __slots__ = ("key", "start", "cost")

    def __init__(self, key: int, start: float, cost: float) -> None:
        self.key = key
        self.start = start
        self.cost = cost


def calibrate(rounds: int = 15000) -> float:
    """Wall seconds of one fixed calibration loop."""
    t0 = perf_counter()
    ready: dict[int, float] = {}
    heap: list[tuple[float, int, _Task]] = []
    for i in range(rounds):
        key = (i * 2654435761) & 1023
        task = _Task(key, ready.get(key, 0.0), 1.0 + (i % 7) * 0.25)
        heapq.heappush(heap, (task.start + task.cost, i, task))
        if len(heap) > 64:
            end, _, done = heapq.heappop(heap)
            ready[done.key] = max(ready.get(done.key, 0.0), end)
        label = f"{key}:{i}"
        ready[(key + len(label)) & 1023] = ready.get(key, 0.0) * 0.5
    for _ in range(8):
        sorted(ready.items(), key=lambda kv: (kv[1], kv[0]))
    return perf_counter() - t0


class SpeedGauge:
    """Calibration samples taken around a series of timed steps."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def start(self) -> None:
        """Calibrate before the first step of a series."""
        self.samples.append(calibrate())

    def step(self, kind: str) -> float:
        """Calibrate after a step of ``kind``; return the factor that scales
        the step's wall seconds to reference seconds."""
        before = self.samples[-1]
        self.samples.append(calibrate())
        ratio = REFERENCE_S / ((before + self.samples[-1]) / 2)
        return ratio ** SENSITIVITY[kind]
