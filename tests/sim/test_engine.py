"""Discrete-event engine semantics, one set of cases for both engines.

Every class here runs against its ``engine`` attribute, the oracle
``Simulator``; ``tests/sim/test_fast_engine.py`` subclasses the classes
with ``engine = FastSimulator``, so both engines pass the same cases.
"""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import PRIORITY_COMPLETION, PRIORITY_SCHEDULE, Simulator


class TestScheduling:
    engine = Simulator

    def test_events_fire_in_time_order(self):
        sim = self.engine()
        log = []
        sim.at(2.0, lambda: log.append("b"))
        sim.at(1.0, lambda: log.append("a"))
        sim.at(3.0, lambda: log.append("c"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_simultaneous_events_break_ties_by_priority(self):
        sim = self.engine()
        log = []
        sim.at(1.0, lambda: log.append("sched"), priority=PRIORITY_SCHEDULE)
        sim.at(1.0, lambda: log.append("done"), priority=PRIORITY_COMPLETION)
        sim.run()
        assert log == ["done", "sched"]

    def test_same_priority_preserves_insertion_order(self):
        sim = self.engine()
        log = []
        for i in range(5):
            sim.at(1.0, lambda i=i: log.append(i))
        sim.run()
        assert log == [0, 1, 2, 3, 4]

    def test_after_is_relative_to_now(self):
        sim = self.engine()
        times = []

        def first():
            sim.after(0.5, lambda: times.append(sim.now))

        sim.at(1.0, first)
        sim.run()
        assert times == [pytest.approx(1.5)]

    def test_cannot_schedule_into_the_past(self):
        sim = self.engine()
        sim.at(5.0, lambda: sim.at(1.0, lambda: None))
        with pytest.raises(SimulationError):
            sim.run()

    def test_negative_delay_rejected(self):
        sim = self.engine()
        with pytest.raises(SimulationError):
            sim.after(-1.0, lambda: None)

    def test_schedule_call_passes_its_argument(self):
        sim = self.engine()
        got = []
        sim.schedule_call(2.0, lambda arg: got.append((arg, sim.now)), "x")
        sim.run()
        assert got == [("x", 2.0)]

    def test_schedule_call_defaults_to_completion_priority(self):
        sim = self.engine()
        log = []
        sim.at(1.0, lambda: log.append("sched"))
        sim.schedule_call(1.0, log.append, "call")
        sim.run()
        assert log == ["call", "sched"]

    def test_schedule_call_into_the_past_rejected(self):
        sim = self.engine()
        sim.at(5.0, lambda: sim.schedule_call(1.0, print, None))
        with pytest.raises(SimulationError):
            sim.run()

    def test_every_scheduling_call_consumes_one_sequence_number(self):
        # identical seq consumption keeps the interleaving, and thus every
        # artifact, byte-identical between the two engines
        sim = self.engine()
        assert sim.at(1.0, lambda: None) is None
        assert sim.after(1.0, lambda: None) is None
        assert sim.schedule_call(1.0, print, None) is None
        assert sim._seq == 3


class TestRun:
    engine = Simulator

    def test_run_returns_final_time(self):
        sim = self.engine()
        sim.at(3.5, lambda: None)
        assert sim.run() == pytest.approx(3.5)

    def test_empty_run_stays_at_zero(self):
        assert self.engine().run() == 0.0

    def test_events_may_schedule_events(self):
        sim = self.engine()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 10:
                sim.after(1.0, tick)

        sim.after(1.0, tick)
        assert sim.run() == pytest.approx(10.0)
        assert count[0] == 10

    def test_runaway_guard(self):
        sim = self.engine()

        def forever():
            sim.after(0.0, forever)

        sim.after(0.0, forever)
        with pytest.raises(SimulationError):
            sim.run(max_events=1000)

    def test_max_events_error_names_the_config_knob(self):
        sim = self.engine()

        def forever():
            sim.after(0.0, forever)

        sim.after(0.0, forever)
        with pytest.raises(SimulationError, match="max_events=7") as exc:
            sim.run(max_events=7)
        assert "RuntimeConfig" in str(exc.value)
        assert "--max-events" in str(exc.value)

    def test_max_events_allows_exactly_that_many_callbacks(self):
        sim = self.engine()
        log = []
        for i in range(5):
            sim.at(float(i), lambda i=i: log.append(i))
        sim.run(max_events=5)
        assert log == [0, 1, 2, 3, 4]

    def test_max_events_raises_before_the_extra_callback(self):
        sim = self.engine()
        log = []
        for i in range(6):
            sim.at(float(i), lambda i=i: log.append(i))
        with pytest.raises(SimulationError):
            sim.run(max_events=5)
        # the guard fires *before* event 6 runs, not after
        assert log == [0, 1, 2, 3, 4]

    def test_calls_count_against_max_events(self):
        sim = self.engine()
        log = []
        for i in range(3):
            sim.schedule_call(float(i), log.append, i)
        with pytest.raises(SimulationError):
            sim.run(max_events=2)
        assert log == [0, 1]

    def test_not_reentrant(self):
        sim = self.engine()
        errors = []

        def inner():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.at(1.0, inner)
        sim.run()
        assert len(errors) == 1
