"""Serial resource semantics (FIFO queueing, completion callbacks)."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.resources import SimResource
from repro.sim.tracestore import TraceStore


@pytest.fixture
def rig():
    sim = Simulator()
    trace = TraceStore()
    return sim, trace, SimResource(sim, "r0")


def lane(trace, label, category="c"):
    """A lane of ``r0`` whose rows all carry ``label``."""
    return trace.lane("r0", category, label)


class TestOccupy:
    def test_single_occupation_records_interval(self, rig):
        sim, trace, res = rig
        res.occupy(2.0, lane=lane(trace, "work", "compute"))
        sim.run()
        (rec,) = trace.records
        assert (rec.start, rec.end) == (0.0, 2.0)
        assert rec.resource_id == "r0"

    def test_fifo_serialization(self, rig):
        sim, trace, res = rig
        res.occupy(1.0, lane=lane(trace, "a", "compute"))
        res.occupy(2.0, lane=lane(trace, "b", "compute"))
        res.occupy(0.5, lane=lane(trace, "c", "compute"))
        sim.run()
        assert [(r.label, r.start, r.end) for r in trace.records] == [
            ("a", 0.0, 1.0), ("b", 1.0, 3.0), ("c", 3.0, 3.5),
        ]

    def test_completion_callbacks_fire_in_order(self, rig):
        sim, trace, res = rig
        log = []
        res.occupy(1.0, lane=lane(trace, "a"),
                   on_complete=lambda: log.append(("a", sim.now)))
        res.occupy(1.0, lane=lane(trace, "b"),
                   on_complete=lambda: log.append(("b", sim.now)))
        sim.run()
        assert log == [("a", 1.0), ("b", 2.0)]

    def test_zero_duration_occupation_allowed(self, rig):
        sim, trace, res = rig
        fired = []
        res.occupy(0.0, lane=lane(trace, "z"),
                   on_complete=lambda: fired.append(True))
        sim.run()
        assert fired == [True]

    def test_negative_duration_rejected(self, rig):
        _, trace, res = rig
        with pytest.raises(SimulationError):
            res.occupy(-1.0, lane=lane(trace, "bad"))

    def test_occupation_enqueued_mid_run(self, rig):
        sim, trace, res = rig

        def chain():
            res.occupy(1.0, lane=lane(trace, "late"))

        res.occupy(1.0, lane=lane(trace, "early"), on_complete=chain)
        sim.run()
        assert [r.label for r in trace.records] == ["early", "late"]
        assert trace.records[1].start == pytest.approx(1.0)


class TestBusyState:
    def test_busy_until_tracks_queue(self, rig):
        sim, trace, res = rig
        assert res.busy_until == 0.0
        res.occupy(1.0, lane=lane(trace, "a"))
        res.occupy(2.0, lane=lane(trace, "b"))
        assert res.busy
        assert res.queued == 1
        assert res.busy_until == pytest.approx(3.0)
        sim.run()
        assert not res.busy
        assert res.queued == 0

    def test_idle_busy_until_is_now(self, rig):
        sim, trace, res = rig
        sim.at(5.0, lambda: None)
        sim.run()
        assert res.busy_until == pytest.approx(5.0)
