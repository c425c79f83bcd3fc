"""Scenario harness."""

import pytest

from repro.apps import get_application
from repro.bench import harness
from repro.bench.harness import (
    SweepCell,
    default_jobs,
    mk_strategies,
    run_scenario,
    run_sweep,
    sk_strategies,
)


class TestRunScenario:
    def test_all_strategies_present(self, paper_platform):
        scenario = run_scenario(
            get_application("MatrixMul"), paper_platform, sk_strategies(),
            n=512,
        )
        assert [o.strategy for o in scenario.outcomes] == list(sk_strategies())

    def test_label_encodes_sync(self, paper_platform):
        scenario = run_scenario(
            get_application("STREAM-Seq"), paper_platform,
            ("Only-CPU",), n=65536, sync=True,
        )
        assert scenario.label == "STREAM-Seq-w"

    def test_makespan_lookup(self, paper_platform):
        scenario = run_scenario(
            get_application("MatrixMul"), paper_platform,
            ("Only-CPU", "Only-GPU"), n=512,
        )
        assert scenario.makespan_ms("Only-CPU") > 0
        with pytest.raises(KeyError):
            scenario.makespan_ms("SP-Single")

    def test_best_strategy_excludes_baselines(self, paper_platform):
        scenario = run_scenario(
            get_application("MatrixMul"), paper_platform, sk_strategies(),
            n=2048,
        )
        assert not scenario.best_strategy().startswith("Only-")

    def test_ordered_fastest_first(self, paper_platform):
        scenario = run_scenario(
            get_application("MatrixMul"), paper_platform, sk_strategies(),
            n=2048,
        )
        order = scenario.ordered()
        times = [scenario.makespan_ms(s) for s in order]
        assert times == sorted(times)

    def test_strategy_sets(self):
        assert "SP-Single" in sk_strategies()
        assert "SP-Unified" in mk_strategies() and "SP-Varied" in mk_strategies()


class TestRunSweep:
    def _cells(self, platform):
        return [
            SweepCell(
                app="STREAM-Loop", strategy=strategy, platform=platform,
                n=4096, iterations=2, sync=False,
            )
            for strategy in ("Only-CPU", "Only-GPU", "DP-Perf")
        ]

    def test_results_in_cell_order(self, paper_platform):
        cells = self._cells(paper_platform)
        results = run_sweep(cells)
        assert len(results) == len(cells)
        # Only-CPU runs everything on the host, Only-GPU on the accelerator
        assert results[0].gpu_fraction == 0.0
        assert results[1].gpu_fraction == 1.0

    def test_parallel_matches_serial(self, paper_platform):
        cells = self._cells(paper_platform)
        serial = run_sweep(cells, jobs=1)
        parallel = run_sweep(cells, jobs=2)
        assert [r.makespan_ms for r in serial] == [
            r.makespan_ms for r in parallel
        ]
        for a, b in zip(serial, parallel):
            assert a.summary == b.summary
            assert a.elements_by_device == b.elements_by_device
            assert a.transfer_bytes == b.transfer_bytes

    def test_parallel_matches_serial_full_detail(self, paper_platform):
        cells = self._cells(paper_platform)
        serial = run_sweep(cells, jobs=1, detail="full")
        parallel = run_sweep(cells, jobs=2, detail="full")
        for a, b in zip(serial, parallel):
            assert a.trace.records == b.trace.records

    def test_summary_detail_drops_traces(self, paper_platform):
        results = run_sweep(self._cells(paper_platform))
        assert all(r.detail == "summary" and r.trace is None for r in results)
        # every reported number still answers from the summary
        assert all(r.makespan_ms > 0 for r in results)
        assert all(r.decision is not None for r in results)

    def test_scenario_matches_sweep(self, paper_platform):
        scenario = run_scenario(
            get_application("STREAM-Loop"), paper_platform,
            ("Only-CPU", "Only-GPU", "DP-Perf"),
            n=4096, iterations=2, sync=False,
        )
        results = run_sweep(self._cells(paper_platform))
        assert [o.makespan_ms for o in scenario.outcomes] == [
            r.makespan_ms for r in results
        ]

    def test_empty_sweep(self, paper_platform):
        assert run_sweep([]) == []
        assert run_sweep([], jobs=4) == []


class TestDefaultJobs:
    def test_respects_affinity_mask(self, monkeypatch):
        """A cgroup/taskset-restricted process must not oversubscribe."""
        monkeypatch.setattr(harness.os, "sched_getaffinity",
                            lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
        assert default_jobs() == 3

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 6)
        assert default_jobs() == 6

    def test_never_below_one(self, monkeypatch):
        monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        assert default_jobs() == 1
