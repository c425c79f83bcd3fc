"""Serial simulated resources (compute contexts and link channels).

A :class:`SimResource` executes one occupation at a time.  Occupations are
either started immediately (if the resource is idle) or queued FIFO.  Each
occupation hands one row to its :class:`~repro.sim.tracestore.TraceLane`
— no per-occupation row object is allocated on this hot path — and fires
a completion callback through the owning simulator.

Resources work with either engine.  Both offer ``at``/``after`` and
``schedule_call``; only the
:class:`~repro.sim.fast_engine.FastSimulator` offers
``schedule_completion``.  Under the oracle
:class:`~repro.sim.engine.Simulator` every completion is a closure
scheduled through ``sim.at``; under the fast engine completions go
through ``sim.schedule_completion`` and the engine's run loop advances
the FIFO inline (see :mod:`repro.sim.fast_engine`).  Both paths consume one
sequence number per completion, so event interleaving — and therefore
every trace row — is identical across engines.

Completion callbacks may be plain zero-argument callables or ``(fn, arg)``
tuples; the tuple form lets callers (the runtime executor, chiefly) pass
a bound method and its argument instead of building a closure per
occupation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import SimulationError
from repro.sim.engine import PRIORITY_COMPLETION, Simulator
from repro.sim.tracestore import TraceLane


@dataclass(slots=True)
class _Occupation:
    duration: float
    on_complete: Callable[[], Any] | tuple | None
    #: the lane this occupation's row goes to (its resource, category
    #: and label template are the lane's constants)
    lane: TraceLane
    meta: dict[str, Any] | None = None
    #: per-row lane arguments: label args, element count, kernel name
    args: tuple = ()
    size: int = -1
    kernel: str | None = None


class SimResource:
    """A serial resource bound to a simulator.

    Parameters
    ----------
    sim:
        The owning simulator (oracle or fast engine).
    resource_id:
        Unique identifier; the lanes its occupations write to carry it
        into the trace.
    """

    def __init__(self, sim: Simulator, resource_id: str) -> None:
        self.sim = sim
        self.resource_id = resource_id
        #: engines that inline completion handling expose
        #: ``schedule_completion``; the oracle path allocates a closure
        self._schedule_completion = getattr(sim, "schedule_completion", None)
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
        lane: TraceLane,
        on_complete: Callable[[], Any] | tuple | None = None,
        meta: dict[str, Any] | None = None,
        args: tuple = (),
        size: int = -1,
        kernel: str | None = None,
    ) -> None:
        """Enqueue an occupation of ``duration`` seconds.

        The row goes to ``lane``, whose constants (resource id, category
        such as ``"compute"`` or ``"transfer"``, label template) describe
        it; ``args``, ``size``, ``kernel`` and ``meta`` are the per-row
        payload (see :meth:`~repro.sim.tracestore.TraceLane.append`).
        ``on_complete`` — a callable or a ``(fn, arg)`` tuple — fires at
        the occupation's end time, *after* the resource is marked free.
        """
        if duration < 0:
            raise SimulationError(
                f"{self.resource_id}: occupation duration must be >= 0"
            )
        occ = _Occupation(
            duration, on_complete, lane, meta, args, size, kernel,
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
        occ.lane.append(start, end, occ.args, occ.size, occ.kernel, occ.meta)
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
