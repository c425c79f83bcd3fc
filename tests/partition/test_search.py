"""The schedule×partition search engine (``repro.partition.search``)."""

import json
import os

import pytest

from repro.apps.registry import get_application
from repro.errors import PartitioningError, StrategyInapplicableError
from repro.partition.base import PlanConfig, get_strategy, list_strategies
from repro.partition.search import (
    TASK_COUNT_STRATEGIES,
    format_search,
    search_plan,
)


@pytest.fixture(scope="module")
def stream_result(paper_platform_module):
    return search_plan(
        "STREAM-Loop", paper_platform_module, n=2048, iterations=4,
        grid=5, rounds=1,
    )


@pytest.fixture(scope="module")
def paper_platform_module():
    from repro.platform import shen_icpp15_platform

    return shen_icpp15_platform()


class TestSearchPlan:
    def test_best_never_worse_than_baseline(self, stream_result):
        assert (
            stream_result.best.makespan_ms
            <= stream_result.baseline.makespan_ms
        )

    def test_seeds_cover_applicable_strategies(self, stream_result):
        seeded = {
            r.candidate.strategy
            for r in stream_result.evaluated
            if r.candidate.gpu_fraction is None
            and r.candidate.task_count is None
        }
        # MK-Loop: baselines + the static MK pair + the dynamic family
        assert {"Only-CPU", "Only-GPU", "SP-Unified", "SP-Varied"} <= seeded

    def test_fraction_grid_spans_unit_interval(self, stream_result):
        fracs = sorted(
            r.candidate.gpu_fraction
            for r in stream_result.evaluated
            if r.candidate.gpu_fraction is not None
        )
        assert fracs[0] == 0.0 and fracs[-1] == 1.0
        assert len(fracs) > 5  # grid + at least one refinement round

    def test_refinement_rounds_tagged(self, stream_result):
        rounds = {r.round for r in stream_result.evaluated}
        assert 0 in rounds and 1 in rounds

    def test_no_duplicate_candidates(self, stream_result):
        keys = [
            (r.candidate.strategy, r.candidate.gpu_fraction,
             r.candidate.task_count)
            for r in stream_result.evaluated
        ]
        assert len(keys) == len(set(keys))

    def test_throughput_recorded(self, stream_result):
        assert stream_result.plans_per_sec > 0
        assert stream_result.elapsed_s > 0

    def test_mk_dag_best_not_worse_than_single_pick(
        self, paper_platform_module
    ):
        """The acceptance scenario: MK-DAG (blocked Cholesky)."""
        result = search_plan(
            "Cholesky", paper_platform_module, n=6, grid=3, rounds=1,
        )
        assert result.app_class == "MK-DAG"
        assert result.best.makespan_ms <= result.baseline.makespan_ms

    def test_fallback_counts_recorded(self, stream_result):
        # the dynamic seeds and ladder rows cannot drain and are tallied;
        # the sync-free scenario has no barriers, so no wave falls back
        assert stream_result.plan_compile_errors > 0
        assert stream_result.wave_fallbacks == 0

    def test_synced_app_search_drains_waves(self, paper_platform_module):
        """A per-iteration-sync search rides the wave drain end to end."""
        from repro.sim.plan import drain_stats

        before = drain_stats()["waves_drained"]
        result = search_plan(
            "HotSpot", paper_platform_module, n=1024, iterations=4,
            grid=3, rounds=1,
        )
        assert result.best.makespan_ms <= result.baseline.makespan_ms
        assert drain_stats()["waves_drained"] > before

    @pytest.mark.parametrize("app,n,iterations,sync", [
        ("HotSpot", 1024, 3, True),
        ("STREAM-Loop", 2048, 2, False),
    ])
    def test_plan_eval_is_per_cell_and_exact(self, paper_platform_module,
                                             app, n, iterations, sync):
        """The drain mode rides on the cells: the environment is never
        touched, and drained and drain-refused searches agree candidate
        by candidate."""
        from repro.sim.plan import drain_stats

        env_before = dict(os.environ)

        def candidates(plan_eval):
            before = drain_stats()["evaluations"]
            result = search_plan(
                app, paper_platform_module, n=n, iterations=iterations,
                sync=sync, grid=3, rounds=1, plan_eval=plan_eval,
            )
            assert dict(os.environ) == env_before
            evaluated = drain_stats()["evaluations"] - before
            assert (evaluated > 0) == plan_eval
            return [(r.candidate.label(), r.makespan_ms)
                    for r in result.evaluated]

        assert candidates(True) == candidates(False)

    def test_grid_too_small_rejected(self, paper_platform_module):
        with pytest.raises(PartitioningError):
            search_plan("STREAM-Loop", paper_platform_module, n=2048, grid=1)

    def test_parallel_jobs_identical(self, paper_platform_module,
                                     stream_result):
        parallel = search_plan(
            "STREAM-Loop", paper_platform_module, n=2048, iterations=4,
            grid=5, rounds=1, jobs=2,
        )
        key = lambda rs: [
            (r.candidate, r.makespan_ms) for r in rs.evaluated
        ]
        assert key(parallel) == key(stream_result)


class TestTaskCountLadder:
    def test_tuple_names_exactly_the_planners_that_read_task_count(
        self, paper_platform_module
    ):
        """Planning at task_count m and 2m changes the chunking exactly
        for the strategies on the ladder, so the tuple tracks the
        planners."""
        program = get_application("STREAM-Loop").program(
            2048, iterations=2, sync=False
        )
        m = PlanConfig().threads(paper_platform_module)

        def chunking(strategy, tasks):
            plan = strategy.plan(
                program, paper_platform_module, PlanConfig(task_count=tasks)
            )
            return [
                (inst.kind, inst.lo, inst.hi, inst.pinned_device,
                 inst.pinned_resource)
                for inst in plan.graph.instances
            ]

        reads_task_count = set()
        planned = set()
        for name in list_strategies():
            strategy = get_strategy(name)
            try:
                at_m = chunking(strategy, m)
            except (StrategyInapplicableError, PartitioningError):
                continue
            planned.add(name)
            if chunking(strategy, 2 * m) != at_m:
                reads_task_count.add(name)
        assert {"DP-Guided", "HYB-Static"} <= planned
        assert reads_task_count == set(TASK_COUNT_STRATEGIES)

    def test_only_task_count_strategies_are_laddered(
        self, paper_platform_module, stream_result
    ):
        rows = stream_result.evaluated
        assert {"DP-Guided", "HYB-Static"} <= {
            r.candidate.strategy for r in rows
        }
        assert not [
            r for r in rows
            if r.candidate.strategy in ("DP-Guided", "HYB-Static")
            and r.candidate.task_count is not None
        ]
        assert {
            r.candidate.strategy for r in rows
            if r.candidate.task_count is not None
        } == set(TASK_COUNT_STRATEGIES)
        refused = search_plan(
            "STREAM-Loop", paper_platform_module, n=2048, iterations=4,
            grid=5, rounds=1, plan_eval=False,
        )
        key = lambda rs: [
            (r.candidate, r.makespan_ms, r.gpu_fraction, r.hardware_config,
             r.round)
            for r in rs
        ]
        assert key(refused.evaluated) == key(rows)


class TestSearchArtifact:
    def test_record_roundtrips_through_json(self, stream_result):
        record = json.loads(json.dumps(stream_result.to_record()))
        assert record["app"] == "STREAM-Loop"
        assert record["candidates"] == len(stream_result.evaluated)
        assert record["best"]["makespan_ms"] == (
            stream_result.best.makespan_ms
        )
        assert len(record["evaluated"]) == record["candidates"]
        assert record["plan_compile_errors"] == (
            stream_result.plan_compile_errors
        )
        assert record["wave_fallbacks"] == stream_result.wave_fallbacks

    def test_format_mentions_best_and_baseline(self, stream_result):
        text = format_search(stream_result)
        assert "baseline" in text and "best" in text
        assert f"{len(stream_result.evaluated)} candidates" in text
