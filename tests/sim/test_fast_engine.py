"""The slot-dispatched fast engine: same contract as the oracle Simulator.

The shared scheduling and run cases live in ``tests/sim/test_engine.py``;
the classes below rerun them with ``engine = FastSimulator``.
"""

import pytest

from repro.sim import ExecutionTrace, SimResource
from repro.sim.engine import Simulator
from repro.sim.fast_engine import (
    FastSimulator,
    fast_engine_enabled,
    make_simulator,
)

from tests.sim import test_engine as engine_cases


class TestScheduling(engine_cases.TestScheduling):
    engine = FastSimulator


class TestRun(engine_cases.TestRun):
    engine = FastSimulator


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
