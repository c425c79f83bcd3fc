"""One program per scenario, one unpinned graph per chunking, within a sweep.

:class:`~repro.partition.base.SweepScope` lets the cells of one serial
sweep (and every probe and round of ``search_plan``) share the scenario's
program and each unpinned task graph.  Sharing must be invisible in the
results: these tests pin down what is shared, what is not, and that the
outputs are the same bits either way.
"""

import threading

import pytest

from repro.apps import get_application
from repro.bench import harness
from repro.bench.harness import SweepCell, run_sweep
from repro.partition import base
from repro.partition.base import (
    SWEEP_SCOPE,
    PlanConfig,
    SweepScope,
    finalize_graph,
    get_strategy,
    sweep_scope,
)
from repro.partition.search import search_plan
from repro.runtime.graph import chunk_ranges

APP, N, ITERATIONS = "STREAM-Loop", 4096, 2


@pytest.fixture
def planned_graphs(monkeypatch):
    """``(strategy, graph)`` of every plan a strategy runs."""
    seen = []
    run_plan = base.run_plan

    def recording(plan, *args, **kwargs):
        seen.append((plan.strategy_name, plan.graph))
        return run_plan(plan, *args, **kwargs)

    monkeypatch.setattr(base, "run_plan", recording)
    return seen


def _cells(platform, strategies, **config):
    return [
        SweepCell(
            app=APP, strategy=name, platform=platform, n=N,
            iterations=ITERATIONS, config=PlanConfig(**config),
        )
        for name in strategies
    ]


def _scoped_program():
    app = get_application(APP)
    return SWEEP_SCOPE.get().scenario_program(
        (app.name, N, ITERATIONS, app.needs_sync),
        lambda: app.program(N, iterations=ITERATIONS),
    )


class TestSerialSweep:
    def test_dynamic_cells_of_one_scenario_share_a_graph(
        self, paper_platform, planned_graphs
    ):
        dynamic = ("DP-Perf", "DP-Dep", "DP-Aff")
        run_sweep(_cells(paper_platform, (*dynamic, "SP-Unified")))
        graphs = dict(planned_graphs)
        assert graphs["DP-Perf"] is graphs["DP-Dep"] is graphs["DP-Aff"]
        assert graphs["SP-Unified"] is not graphs["DP-Perf"]

    def test_each_chunking_gets_its_own_graph(
        self, paper_platform, planned_graphs
    ):
        run_sweep(
            _cells(paper_platform, ("DP-Perf",), task_count=4)
            + _cells(paper_platform, ("DP-Perf",), task_count=8)
            + _cells(paper_platform, ("DP-Dep",), task_count=4)
        )
        (_, four), (_, eight), (_, again) = planned_graphs
        assert four is again
        assert eight is not four
        assert len(eight.instances) > len(four.instances)

    def test_sweeps_do_not_share_with_each_other(
        self, paper_platform, planned_graphs
    ):
        run_sweep(_cells(paper_platform, ("DP-Perf",)))
        run_sweep(_cells(paper_platform, ("DP-Perf",)))
        (_, first), (_, second) = planned_graphs
        assert first is not second
        assert SWEEP_SCOPE.get() is None

    def test_results_equal_unshared_runs(self, paper_platform):
        strategies = ("DP-Perf", "SP-Unified", "DP-Dep", "DP-Aff")
        swept = run_sweep(_cells(paper_platform, strategies))
        app = get_application(APP)
        for name, artifact in zip(strategies, swept):
            alone = get_strategy(name).run(
                app.program(N, iterations=ITERATIONS), paper_platform,
                detail="summary",
            )
            assert artifact.makespan_s.hex() == alone.makespan_s.hex()
            assert artifact.ratio_by_kernel() == alone.ratio_by_kernel()

    def test_scope_is_not_visible_between_cells(self, paper_platform):
        stream = harness.run_sweep_iter(
            _cells(paper_platform, ("DP-Perf", "DP-Dep"))
        )
        next(stream)
        assert SWEEP_SCOPE.get() is None
        list(stream)

    def test_other_threads_do_not_see_the_scope(self):
        seen = []
        with sweep_scope():
            thread = threading.Thread(
                target=lambda: seen.append(SWEEP_SCOPE.get())
            )
            thread.start()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert seen == [None]

    def test_pool_worker_drops_an_inherited_scope(self):
        with sweep_scope():
            harness._init_worker({})
            assert SWEEP_SCOPE.get() is None
        assert SWEEP_SCOPE.get() is None


class TestAdmission:
    def test_unpinned_graphs_of_the_scope_program_are_shared(
        self, paper_platform
    ):
        with sweep_scope():
            program = _scoped_program()
            first = get_strategy("DP-Perf").plan(program, paper_platform)
            second = get_strategy("DP-Aff").plan(program, paper_platform)
            assert first.graph is second.graph
            assert len(SWEEP_SCOPE.get().graphs) == 1

    def test_pinned_graphs_are_not_memoized(self, paper_platform):
        forced = PlanConfig(gpu_fraction=0.5)
        with sweep_scope():
            program = _scoped_program()
            for name, config in (("SP-Unified", forced), ("Only-CPU", None)):
                strategy = get_strategy(name)
                first = strategy.plan(program, paper_platform, config)
                second = strategy.plan(program, paper_platform, config)
                assert first.graph is not second.graph
            assert SWEEP_SCOPE.get().graphs == {}

    def test_other_programs_are_not_memoized(self, paper_platform):
        other = get_application(APP).program(N, iterations=ITERATIONS)
        with sweep_scope():
            _scoped_program()
            first = get_strategy("DP-Perf").plan(other, paper_platform)
            second = get_strategy("DP-Perf").plan(other, paper_platform)
            assert first.graph is not second.graph

    def test_chunker_runs_for_every_invocation_on_a_hit(self):
        calls = []

        def chunker(inv):
            calls.append(inv.invocation_id)
            return [(lo, hi, None, None) for lo, hi in chunk_ranges(inv.n, 4)]

        with sweep_scope():
            program = _scoped_program()
            first = finalize_graph(program, chunker)
            second = finalize_graph(program, chunker)
        assert first is second
        ids = [inv.invocation_id for inv in program.invocations]
        assert calls == ids + ids

    def test_a_new_scenario_drops_the_previous_one(self):
        scope = SweepScope()
        built = []

        def build(tag):
            def _build():
                built.append(tag)
                return get_application(APP).program(N, iterations=ITERATIONS)
            return _build

        a = scope.scenario_program(("a",), build("a"))
        assert scope.scenario_program(("a",), build("a")) is a
        scope.graphs[("chunks",)] = object()
        b = scope.scenario_program(("b",), build("b"))
        assert b is not a and built == ["a", "b"]
        assert scope.graphs == {}
        scope.clear()
        assert scope.program is None and scope.key is None


class TestEdgeMemo:
    def _forced(self, platform, *fractions):
        strategy = get_strategy("SP-Unified")
        program = _scoped_program()
        return [
            strategy.plan(
                program, platform, PlanConfig(gpu_fraction=fraction)
            ).graph
            for fraction in fractions
        ]

    def test_fractions_with_one_endpoint_order_share_a_table(
        self, paper_platform
    ):
        with sweep_scope():
            first, second = self._forced(paper_platform, 0.5, 0.6)
        assert [inst.lo for inst in first.instances] != [
            inst.lo for inst in second.instances
        ]
        assert first.succs_sorted is second.succs_sorted
        assert first is not second
        for a, b in zip(first.instances, second.instances, strict=True):
            assert a is not b
            assert a.deps is not b.deps and a.succs is not b.succs
            assert (a.deps, a.succs) == (b.deps, b.succs)

    def test_the_edge_memo_is_cleared_with_the_scope(self, paper_platform):
        scope = SweepScope()
        with sweep_scope(scope):
            self._forced(paper_platform, 0.5, 0.6)
            assert scope.shapes and scope.edges
            # another scenario drops the previous one's edge sets
            scope.scenario_program(
                ("other",),
                lambda: get_application(APP).program(N, iterations=1),
            )
            assert scope.shapes == {} and scope.edges == {}
            self._forced(paper_platform, 0.5)
            assert scope.shapes
        scope.clear()
        assert scope.shapes == {} and scope.edges == {}

    def test_an_owned_scope_is_cleared_on_exit(self, paper_platform):
        scopes = []
        with sweep_scope():
            self._forced(paper_platform, 0.5, 0.6)
            scopes.append(SWEEP_SCOPE.get())
        (scope,) = scopes
        assert scope.shapes == {} and scope.edges == {}


class TestForcedFractions:
    def test_fractions_reported_whether_or_not_the_program_is_scoped(
        self, paper_platform
    ):
        forced = PlanConfig(gpu_fraction=0.5)
        strategy = get_strategy("SP-Unified")
        program = get_application(APP).program(N, iterations=ITERATIONS)
        expected = strategy.plan(
            program, paper_platform, forced
        ).decision.gpu_fraction_by_kernel
        assert expected and set(expected.values()) == {0.5}
        with sweep_scope():
            scoped = _scoped_program()
            get_strategy("DP-Perf").plan(scoped, paper_platform)
            for _ in range(2):
                plan = strategy.plan(scoped, paper_platform, forced)
                assert plan.decision.gpu_fraction_by_kernel == expected

    def test_fractions_reported_in_a_sweep(self, paper_platform):
        forced = {"gpu_fraction": 0.25}
        swept = run_sweep(
            _cells(paper_platform, ("DP-Perf",))
            + _cells(paper_platform, ("SP-Unified", "SP-Unified"), **forced)
        )
        alone = get_strategy("SP-Unified").run(
            get_application(APP).program(N, iterations=ITERATIONS),
            paper_platform, config=PlanConfig(**forced), detail="summary",
        )
        for artifact in swept[1:]:
            assert (artifact.decision.gpu_fraction_by_kernel
                    == alone.decision.gpu_fraction_by_kernel)


@pytest.mark.parametrize(
    "app_name,n,iterations,sync",
    [("STREAM-Loop", 2048, 2, False), ("HotSpot", 192, 2, True)],
)
def test_search_with_and_without_the_scope_is_identical(
    paper_platform, monkeypatch, app_name, n, iterations, sync
):
    builds = []
    build_dependences = base.build_dependences

    def counting(graph):
        builds.append(graph)
        return build_dependences(graph)

    monkeypatch.setattr(base, "build_dependences", counting)

    def candidates():
        builds.clear()
        result = search_plan(
            app_name, paper_platform, n=n, iterations=iterations, sync=sync,
            grid=3, rounds=1,
        )
        return [(r.candidate, r.makespan_ms.hex(), r.gpu_fraction.hex(),
                 r.hardware_config) for r in result.evaluated], len(builds)

    shared, shared_builds = candidates()
    # without sharing: every probe and cell builds its own program, so no
    # graph is ever the scope's
    monkeypatch.setattr(
        SweepScope, "scenario_program", lambda self, key, build: build()
    )
    unshared, unshared_builds = candidates()
    assert shared == unshared
    assert shared_builds < unshared_builds
