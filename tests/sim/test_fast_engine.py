"""The slot-dispatched fast engine: same contract as the oracle Simulator."""

import pytest

from repro.errors import SimulationError
from repro.sim import ExecutionTrace, SimResource
from repro.sim.engine import PRIORITY_COMPLETION, PRIORITY_SCHEDULE, Simulator
from repro.sim.fast_engine import (
    FastEvent,
    FastSimulator,
    fast_engine_enabled,
    make_simulator,
)


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = FastSimulator()
        log = []
        sim.at(2.0, lambda: log.append("b"))
        sim.at(1.0, lambda: log.append("a"))
        sim.at(3.0, lambda: log.append("c"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_simultaneous_events_break_ties_by_priority(self):
        sim = FastSimulator()
        log = []
        sim.at(1.0, lambda: log.append("sched"), priority=PRIORITY_SCHEDULE)
        sim.at(1.0, lambda: log.append("done"), priority=PRIORITY_COMPLETION)
        sim.run()
        assert log == ["done", "sched"]

    def test_same_priority_preserves_insertion_order(self):
        sim = FastSimulator()
        log = []
        for i in range(5):
            sim.at(1.0, lambda i=i: log.append(i))
        sim.run()
        assert log == [0, 1, 2, 3, 4]

    def test_after_is_relative_to_now(self):
        sim = FastSimulator()
        times = []
        sim.at(1.0, lambda: sim.after(0.5, lambda: times.append(sim.now)))
        sim.run()
        assert times == [pytest.approx(1.5)]

    def test_cannot_schedule_into_the_past(self):
        sim = FastSimulator()
        sim.at(5.0, lambda: sim.at(1.0, lambda: None))
        with pytest.raises(SimulationError):
            sim.run()

    def test_negative_delay_rejected(self):
        sim = FastSimulator()
        with pytest.raises(SimulationError):
            sim.after(-1.0, lambda: None)

    def test_handle_is_api_compatible_with_oracle_events(self):
        sim = FastSimulator()
        handle = sim.at(2.0, lambda: None, priority=3)
        assert isinstance(handle, FastEvent)
        assert handle.time == 2.0
        assert handle.priority == 3
        assert handle.seq == 0
        assert not handle.cancelled


class TestRun:
    def test_run_returns_final_time(self):
        sim = FastSimulator()
        sim.at(3.5, lambda: None)
        assert sim.run() == pytest.approx(3.5)

    def test_empty_run_stays_at_zero(self):
        assert FastSimulator().run() == 0.0

    def test_until_horizon_leaves_later_events_queued(self):
        sim = FastSimulator()
        log = []
        sim.at(1.0, lambda: log.append(1))
        sim.at(10.0, lambda: log.append(10))
        sim.run(until=5.0)
        assert log == [1]
        assert sim.now == pytest.approx(5.0)
        assert sim.pending == 1
        sim.run()
        assert log == [1, 10]

    def test_cancelled_events_do_not_fire(self):
        sim = FastSimulator()
        log = []
        event = sim.at(1.0, lambda: log.append("x"))
        event.cancel()
        sim.run()
        assert log == []

    def test_events_may_schedule_events(self):
        sim = FastSimulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 10:
                sim.after(1.0, tick)

        sim.after(1.0, tick)
        assert sim.run() == pytest.approx(10.0)
        assert count[0] == 10

    def test_runaway_guard(self):
        sim = FastSimulator()

        def forever():
            sim.after(0.0, forever)

        sim.after(0.0, forever)
        with pytest.raises(SimulationError):
            sim.run(max_events=1000)

    def test_max_events_error_names_the_config_knob(self):
        sim = FastSimulator()

        def forever():
            sim.after(0.0, forever)

        sim.after(0.0, forever)
        with pytest.raises(SimulationError, match="max_events=7") as exc:
            sim.run(max_events=7)
        assert "RuntimeConfig" in str(exc.value)
        assert "--max-events" in str(exc.value)

    def test_cancelled_events_do_not_count_against_max_events(self):
        sim = FastSimulator()
        log = []
        events = [sim.at(float(i), lambda i=i: log.append(i)) for i in range(10)]
        for event in events[:7]:
            event.cancel()
        sim.run(max_events=3)
        assert log == [7, 8, 9]

    def test_not_reentrant(self):
        sim = FastSimulator()
        errors = []

        def inner():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.at(1.0, inner)
        sim.run()
        assert len(errors) == 1


class TestPending:
    def test_pending_counts_only_live_events(self):
        sim = FastSimulator()
        events = [sim.at(float(i + 1), lambda: None) for i in range(4)]
        assert sim.pending == 4
        events[0].cancel()
        events[2].cancel()
        assert sim.pending == 2

    def test_double_cancel_counted_once(self):
        sim = FastSimulator()
        event = sim.at(1.0, lambda: None)
        sim.at(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.pending == 1

    def test_cancel_after_fire_never_goes_negative(self):
        sim = FastSimulator()
        fired = []
        first = sim.at(1.0, lambda: fired.append("a"))
        sim.at(2.0, first.cancel)  # cancels an event that already popped
        sim.run()
        assert fired == ["a"]
        assert sim.pending == 0

    def test_mass_cancellation_compacts_the_heap(self):
        sim = FastSimulator()
        keep = sim.at(1000.0, lambda: None)
        events = [sim.at(float(i + 1), lambda: None) for i in range(200)]
        for event in events:
            event.cancel()
        assert sim.pending == 1
        assert len(sim._heap) < 200
        assert sim.run() == pytest.approx(1000.0)
        assert not keep.cancelled


class TestInlineCompletions:
    def test_schedule_completion_consumes_one_seq_like_the_oracle_closure(self):
        # identical seq consumption is what keeps interleaving (and thus
        # artifacts) byte-identical between the two engines
        sim = FastSimulator()
        res = SimResource(sim, "cpu0", ExecutionTrace())
        res.occupy(1.0, label="a", category="compute")
        assert sim._seq == 1
        sim.at(0.5, lambda: None)
        assert sim._seq == 2

    def test_resource_trace_identical_across_engines(self):
        def drive(sim):
            trace = ExecutionTrace()
            res = SimResource(sim, "r0", trace)
            done = []
            res.occupy(1.0, label="first", category="compute",
                       on_complete=lambda: done.append(sim.now))
            res.occupy(0.5, label=("second {}", 1), category="transfer",
                       meta={"k": 1})
            sim.run()
            return done, [
                (r.resource_id, r.label, r.category, r.start, r.end, r.meta)
                for r in trace
            ]

        assert drive(FastSimulator()) == drive(Simulator())

    def test_tuple_on_complete_dispatch(self):
        # the executor passes (fn, arg) pairs to skip closure allocation
        sim = FastSimulator()
        res = SimResource(sim, "r0", ExecutionTrace())
        got = []
        res.occupy(1.0, label="x", category="compute",
                   on_complete=(got.append, "payload"))
        sim.run()
        assert got == ["payload"]


class TestEngineSelection:
    def test_default_is_fast(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_FAST_ENGINE", raising=False)
        assert fast_engine_enabled()
        assert isinstance(make_simulator(), FastSimulator)

    @pytest.mark.parametrize("value", ["1", "true", "on"])
    def test_env_flag_selects_the_oracle(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_NO_FAST_ENGINE", value)
        assert not fast_engine_enabled()
        sim = make_simulator()
        assert isinstance(sim, Simulator)
        assert not isinstance(sim, FastSimulator)

    def test_zero_means_fast(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_FAST_ENGINE", "0")
        assert fast_engine_enabled()

    def test_capability_flag_only_on_fast_engine(self):
        assert FastSimulator.inline_completions
        assert not hasattr(Simulator, "inline_completions")
