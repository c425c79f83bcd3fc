"""Unit coverage of the drain tables and their trace primitives.

Which runs hold a drain and ``compile_plan``'s tables, the drain
counters, and ``TraceLane.extend_rows``'s equivalence to row-at-a-time
appends.  The end-to-end drain exactness lives in
``tests/integration/test_plan_eval_differential.py``.
"""

from dataclasses import replace

import pytest

from repro.apps import get_application
from repro.partition.base import get_strategy
from repro.runtime.executor import RuntimeConfig, _Run
from repro.sim.plan import compile_plan, drain_stats
from repro.sim.tracestore import TraceStore


def _static_plan(platform, app="STREAM-Loop", n=2048, strategy="SP-Unified"):
    prog = get_application(app).program(n, iterations=2, sync=False)
    return get_strategy(strategy).plan(prog, platform)


def _run(plan, platform, detail="summary", **config):
    config = replace(RuntimeConfig(**config), **plan.runtime_overrides)
    return _Run(platform, config, plan.graph, plan.scheduler, detail=detail)


def _tables(run):
    return compile_plan(run, run._drain.resource_ids)


class TestCompileGates:
    def test_static_plan_compiles(self, paper_platform):
        plan = _static_plan(paper_platform)
        run = _run(plan, paper_platform)
        assert run._drain is not None
        before = drain_stats()["evaluations"]
        tables = _tables(run)
        assert drain_stats()["evaluations"] == before + 1
        n = len(plan.graph.instances)
        assert len(tables.writeback_flags) == n
        assert sum(map(len, tables.epochs)) + len(tables.fences) - 1 == n
        # every compute instance has a static resource to time it on
        for inst in plan.graph.instances:
            if inst.is_barrier:
                continue
            rid = run._drain.resource_ids[inst.instance_id]
            assert run._duration(inst, run._resource_by_id[rid]) > 0

    def test_dynamic_scheduler_rejected(self, paper_platform):
        prog = get_application("STREAM-Loop").program(2048, iterations=2)
        plan = get_strategy("DP-Perf").plan(prog, paper_platform)
        before = drain_stats()["compile_errors"]
        assert _run(plan, paper_platform)._drain is None
        assert drain_stats()["compile_errors"] == before + 1
        # full detail and a refused drain hold none either, uncounted
        plan = _static_plan(paper_platform)
        assert _run(plan, paper_platform, detail="full")._drain is None
        assert _run(plan, paper_platform, drain=False)._drain is None
        assert drain_stats()["compile_errors"] == before + 1

    def test_runtime_overrides_applied(self, paper_platform):
        prog = get_application("STREAM-Loop").program(2048, iterations=2)
        plan = get_strategy("Only-GPU").plan(prog, paper_platform)
        assert plan.runtime_overrides  # zeroes OmpSs overheads
        run = _run(plan, paper_platform)
        for key, value in plan.runtime_overrides.items():
            assert getattr(run.config, key) == value
        inst = next(i for i in plan.graph.instances if not i.is_barrier)
        rid = run._drain.resource_ids[inst.instance_id]
        resource = run._resource_by_id[rid]
        kernel = inst.kernel
        assert run._duration(inst, resource) == kernel.chunk_time(
            resource.device, kernel.work_units(inst.lo, inst.hi),
            inst.invocation.n, share=resource.share,
        ) + run.config.task_creation_overhead_s

    def test_writeback_flags_only_on_synced_device_writers(
        self, paper_platform
    ):
        plan = _static_plan(paper_platform)
        run = _run(plan, paper_platform)
        tables = _tables(run)
        host = paper_platform.host.device_id
        flagged = 0
        for inst in plan.graph.instances:
            if inst.is_barrier:
                continue
            if tables.writeback_flags[inst.instance_id]:
                flagged += 1
                rid = run._drain.resource_ids[inst.instance_id]
                assert not rid.startswith(host)
        assert flagged

    def test_drain_stats_keys(self):
        """The counters perfbench's DRAIN_COUNTERS and search_plan read."""
        assert set(drain_stats()) == {
            "evaluations", "compile_errors", "wave_fallbacks",
            "waves_drained", "waves_replayed", "terminal_drains",
        }


class TestExtendRows:
    def _rowwise(self, lane, rows):
        for start, end, sa, a, b, c, size, kern in rows:
            lane.append(start, end, args=(sa, a, b, c), size=size,
                        kernel=kern)

    def test_matches_per_row_appends(self):
        rows = [
            (0.0, 1.0, "k1", 0, 10, 7, 40, "k1"),
            (1.0, 2.5, "k2", 10, 20, 8, 40, "k2"),
            (2.5, 2.75, "k1", 20, 30, 9, 40, "k1"),
        ]
        stores = TraceStore(), TraceStore()
        lanes = [
            s.lane("r0", "compute", "", device="gpu", device_kind="gpu")
            for s in stores
        ]
        self._rowwise(lanes[0], rows)
        lanes[1].extend_rows(
            [r[0] for r in rows], [r[1] for r in rows],
            str_args=[r[2] for r in rows], args_a=[r[3] for r in rows],
            args_b=[r[4] for r in rows], args_c=[r[5] for r in rows],
            sizes=[r[6] for r in rows], kernels=[r[7] for r in rows],
        )
        import pickle

        assert stores[0].makespan() == stores[1].makespan()
        assert pickle.dumps(stores[0], 5) == pickle.dumps(stores[1], 5)

    def test_defaults_for_omitted_columns(self):
        store = TraceStore()
        lane = store.lane("r0", "compute", "", device="gpu",
                          device_kind="gpu")
        lane.extend_rows([0.0, 1.0], [1.0, 2.0])
        assert len(store) == 2
        assert store.makespan() == 2.0

    def test_length_mismatch_rejected(self):
        store = TraceStore()
        lane = store.lane("r0", "compute", "", device="gpu",
                          device_kind="gpu")
        with pytest.raises(ValueError):
            lane.extend_rows([0.0, 1.0], [1.0])
