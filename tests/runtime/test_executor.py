"""Runtime engine: timing, transfers, barriers, overheads, deadlocks."""

import pickle

import pytest

from repro.errors import SimulationError
from repro.runtime.dependence import build_dependences
from repro.runtime.executor import RuntimeConfig, RuntimeEngine
from repro.runtime.graph import chunk_ranges, expand_program
from repro.runtime.kernels import Kernel
from repro.runtime.schedulers.base import StaticScheduler
from repro.runtime.schedulers.breadth_first import BreadthFirstScheduler

from tests.conftest import chain_program, single_kernel_program

#: zero-overhead config for exact hand-computed timings
EXACT = RuntimeConfig(
    task_creation_overhead_s=0.0,
    dynamic_decision_overhead_s=0.0,
    barrier_overhead_s=0.0,
)


def build(program, chunker):
    graph = expand_program(program, chunker)
    build_dependences(graph)
    return graph


def whole_chunker(device=None, resource=None):
    return lambda inv: [(0, inv.n, device, resource)]


class TestBasicTiming:
    def test_cpu_compute_time_exact(self, tiny_platform):
        # 1 M elems x 2 flops on one core (100 GFLOPS / 4) = 2e6/25e9 = 80 us
        program = single_kernel_program(n=1_000_000, flops=2.0, mem_bytes=0.0)
        graph = build(program, whole_chunker(resource="cpu:0"))
        result = RuntimeEngine(tiny_platform, config=EXACT).execute(
            graph, StaticScheduler()
        )
        assert result.makespan_s == pytest.approx(80e-6)

    def test_gpu_includes_h2d_and_final_flush(self, tiny_platform):
        # reads x (4 MB) -> H2D 4e6/10e9 = 0.4 ms; writes y -> final D2H 0.4 ms
        # compute: 2e6 flops / 1 TFLOPS = 2 us
        program = single_kernel_program(n=1_000_000, flops=2.0, mem_bytes=0.0)
        graph = build(program, whole_chunker(device="gpu0"))
        result = RuntimeEngine(tiny_platform, config=EXACT).execute(
            graph, StaticScheduler()
        )
        assert result.makespan_s == pytest.approx(0.4e-3 + 2e-6 + 0.4e-3)
        assert result.transfer_bytes == {"h2d": 4_000_000, "d2h": 4_000_000}

    def test_final_flush_can_be_disabled(self, tiny_platform):
        program = single_kernel_program(n=1_000_000, flops=2.0, mem_bytes=0.0)
        graph = build(program, whole_chunker(device="gpu0"))
        config = RuntimeConfig(
            task_creation_overhead_s=0.0, dynamic_decision_overhead_s=0.0,
            barrier_overhead_s=0.0, final_flush=False,
        )
        result = RuntimeEngine(tiny_platform, config=config).execute(
            graph, StaticScheduler()
        )
        assert result.makespan_s == pytest.approx(0.4e-3 + 2e-6)

    def test_cpu_threads_share_device_rate(self, tiny_platform):
        # 4 equal chunks on 4 cores run in parallel: same time as 1 chunk
        # on 1 core of a quarter of the device
        program = single_kernel_program(n=1_000_000, flops=2.0, mem_bytes=0.0)
        graph = build(
            program,
            lambda inv: [
                (lo, hi, None, f"cpu:{i}")
                for i, (lo, hi) in enumerate(chunk_ranges(inv.n, 4))
            ],
        )
        result = RuntimeEngine(tiny_platform, config=EXACT).execute(
            graph, StaticScheduler()
        )
        assert result.makespan_s == pytest.approx(80e-6 / 4)

    def test_makespan_equals_trace_makespan(self, tiny_platform):
        program = chain_program(3)
        graph = build(program, whole_chunker(resource="cpu:0"))
        result = RuntimeEngine(tiny_platform, config=EXACT).execute(
            graph, StaticScheduler()
        )
        assert result.makespan_s == result.trace.makespan()


class TestDependencesRespected:
    def test_chain_serializes(self, tiny_platform):
        program = chain_program(3, n=1_000_000)
        graph = build(program, whole_chunker(resource="cpu:0"))
        result = RuntimeEngine(tiny_platform, config=EXACT).execute(
            graph, StaticScheduler()
        )
        computes = result.trace.by_category("compute")
        for earlier, later in zip(computes, computes[1:]):
            assert later.start >= earlier.end - 1e-12

    def test_chain_across_devices_transfers_between(self, tiny_platform):
        # k0 on GPU writes x1; k1 on CPU reads x1 -> must wait for D2H
        program = chain_program(2, n=1_000_000)

        def chunker(inv):
            if inv.kernel.name == "k0":
                return [(0, inv.n, "gpu0", None)]
            return [(0, inv.n, None, "cpu:0")]

        graph = build(program, chunker)
        result = RuntimeEngine(tiny_platform, config=EXACT).execute(
            graph, StaticScheduler()
        )
        transfers = result.trace.by_category("transfer")
        d2h = [t for t in transfers if t.meta["direction"] == "d2h"]
        assert d2h, "expected a device-to-host transfer for the chain hop"
        k1 = next(
            r for r in result.trace.by_category("compute")
            if "k1" in r.label
        )
        assert k1.start >= max(t.end for t in d2h) - 1e-12

    def test_reader_waits_for_inflight_transfer(self, tiny_platform):
        # two GPU chunks read the SAME full array region; the second must
        # not start before the wire delivers it (no optimistic-free ride)
        from tests.conftest import make_kernel
        from repro.runtime.graph import KernelInvocation, Program

        kernel, specs = make_kernel(
            "k", reads=(), full_reads=("x",), writes=("y",), n=1_000_000
        )
        program = Program(
            invocations=[
                KernelInvocation(invocation_id=0, kernel=kernel, n=1_000_000)
            ],
            arrays=specs,
        )
        graph = build(
            program,
            lambda inv: [(0, inv.n // 2, "gpu0", None),
                         (inv.n // 2, inv.n, "gpu0", None)],
        )
        result = RuntimeEngine(tiny_platform, config=EXACT).execute(
            graph, StaticScheduler()
        )
        h2d_end = max(
            t.end for t in result.trace.by_category("transfer")
            if t.meta["direction"] == "h2d"
        )
        for rec in result.trace.by_category("compute"):
            assert rec.start >= h2d_end - 1e-12


class TestBarriers:
    def test_barrier_overhead_charged_except_trailing(self, tiny_platform):
        # 3 iterations with sync = 3 barriers, but the trailing one is the
        # program's exit sync (team torn down, not restarted): 2 charged
        program = single_kernel_program(
            n=1_000_000, iterations=3, sync=True, flops=2.0, mem_bytes=0.0
        )
        graph = build(program, whole_chunker(resource="cpu:0"))
        base = RuntimeEngine(tiny_platform, config=EXACT).execute(
            graph, StaticScheduler()
        )
        graph2 = build(program, whole_chunker(resource="cpu:0"))
        with_barrier = RuntimeEngine(
            tiny_platform,
            config=RuntimeConfig(
                task_creation_overhead_s=0.0, dynamic_decision_overhead_s=0.0,
                barrier_overhead_s=1e-3,
            ),
        ).execute(graph2, StaticScheduler())
        assert with_barrier.makespan_s - base.makespan_s == pytest.approx(2e-3)

    def test_barrier_invalidation_forces_refetch(self, tiny_platform):
        # GPU kernel iterated with sync: every iteration re-uploads inputs
        program = single_kernel_program(
            n=1_000_000, iterations=3, sync=True, flops=2.0, mem_bytes=0.0
        )
        graph = build(program, whole_chunker(device="gpu0"))
        result = RuntimeEngine(tiny_platform, config=EXACT).execute(
            graph, StaticScheduler()
        )
        h2d = [
            t for t in result.trace.by_category("transfer")
            if t.meta["direction"] == "h2d"
        ]
        assert len(h2d) == 3  # x re-uploaded every iteration

    def test_no_invalidation_keeps_residency(self, tiny_platform):
        program = single_kernel_program(
            n=1_000_000, iterations=3, sync=True, flops=2.0, mem_bytes=0.0
        )
        graph = build(program, whole_chunker(device="gpu0"))
        config = RuntimeConfig(
            task_creation_overhead_s=0.0, dynamic_decision_overhead_s=0.0,
            barrier_overhead_s=0.0, barrier_invalidates_devices=False,
        )
        result = RuntimeEngine(tiny_platform, config=config).execute(
            graph, StaticScheduler()
        )
        h2d = [
            t for t in result.trace.by_category("transfer")
            if t.meta["direction"] == "h2d"
        ]
        assert len(h2d) == 1  # x uploaded once, stays resident

    def test_eager_writeback_overlaps_and_covers_flush(self, tiny_platform):
        # GPU chunk + CPU chunk under sync: the GPU writeback starts at
        # GPU-compute end, not at the barrier
        program = single_kernel_program(
            n=2_000_000, iterations=1, sync=True, flops=100.0, mem_bytes=0.0
        )
        graph = build(
            program,
            lambda inv: [(0, inv.n // 2, "gpu0", None),
                         (inv.n // 2, inv.n, None, "cpu:0")],
        )
        result = RuntimeEngine(tiny_platform, config=EXACT).execute(
            graph, StaticScheduler()
        )
        gpu_end = next(
            r.end for r in result.trace.by_category("compute")
            if r.meta["device_kind"] == "gpu"
        )
        cpu_end = next(
            r.end for r in result.trace.by_category("compute")
            if r.meta["device_kind"] == "cpu"
        )
        wb = [
            t for t in result.trace.by_category("transfer")
            if t.meta["direction"] == "d2h"
        ]
        assert wb[0].start == pytest.approx(gpu_end)
        assert wb[0].start < cpu_end  # overlaps the CPU's remaining work


class TestOverheads:
    def test_dynamic_overhead_only_for_dynamic_unpinned(self, tiny_platform):
        program = single_kernel_program(n=1_000_000, flops=2.0, mem_bytes=0.0)
        config = RuntimeConfig(
            cpu_threads=4,
            task_creation_overhead_s=0.0,
            dynamic_decision_overhead_s=10e-3,
            barrier_overhead_s=0.0,
        )
        static_graph = build(program, whole_chunker(resource="cpu:0"))
        t_static = RuntimeEngine(tiny_platform, config=config).execute(
            static_graph, StaticScheduler()
        ).makespan_s
        dyn_graph = build(program, lambda inv: [(0, inv.n, None, None)])
        t_dyn = RuntimeEngine(tiny_platform, config=config).execute(
            dyn_graph, BreadthFirstScheduler()
        ).makespan_s
        assert t_dyn - t_static >= 10e-3 - 1e-9

    def test_task_creation_overhead_for_everyone(self, tiny_platform):
        program = single_kernel_program(n=1_000_000, flops=2.0, mem_bytes=0.0)
        config = RuntimeConfig(
            task_creation_overhead_s=5e-3,
            dynamic_decision_overhead_s=0.0,
            barrier_overhead_s=0.0,
        )
        graph = build(program, whole_chunker(resource="cpu:0"))
        t = RuntimeEngine(tiny_platform, config=config).execute(
            graph, StaticScheduler()
        ).makespan_s
        assert t == pytest.approx(80e-6 + 5e-3)


class TestComputeTimeMemo:
    """Compute times are memoized per program, across its graphs."""

    @staticmethod
    def _counted(monkeypatch):
        calls = []
        real = Kernel.chunk_time

        def chunk_time(self, *args, **kwargs):
            calls.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Kernel, "chunk_time", chunk_time)
        return calls

    @staticmethod
    def _makespan(platform, program):
        def halves(inv):
            return [(0, inv.n // 2, None, "cpu:0"),
                    (inv.n // 2, inv.n, None, "cpu:0")]

        return RuntimeEngine(platform, config=EXACT).execute(
            build(program, halves), StaticScheduler()
        ).makespan_s

    def test_graphs_of_one_program_share_times(self, tiny_platform, monkeypatch):
        program = chain_program(2, n=4096)
        calls = self._counted(monkeypatch)
        first = self._makespan(tiny_platform, program)
        # two kernels, each with two equal-work halves
        assert len(calls) == 2
        assert self._makespan(tiny_platform, program) == first
        assert len(calls) == 2

    def test_memo_stays_out_of_pickles(self, tiny_platform):
        """Kernel ids do not survive a pickle, so the memo is not sent."""
        program = chain_program(2, n=4096)
        pickled = pickle.dumps(program)
        self._makespan(tiny_platform, program)
        assert pickle.dumps(program) == pickled


class TestResultAccounting:
    def test_ratio_and_counts(self, tiny_platform):
        program = single_kernel_program(n=1000, flops=2.0, mem_bytes=0.0)
        graph = build(
            program,
            lambda inv: [(0, 250, "gpu0", None), (250, 1000, None, "cpu:0")],
        )
        result = RuntimeEngine(tiny_platform, config=EXACT).execute(
            graph, StaticScheduler()
        )
        assert result.gpu_fraction == pytest.approx(0.25)
        assert result.cpu_fraction == pytest.approx(0.75)
        assert result.instances_by_device == {"gpu": 1, "cpu": 1}

    def test_ratio_by_kernel(self, tiny_platform):
        program = chain_program(2, n=1000)

        def chunker(inv):
            if inv.kernel.name == "k0":
                return [(0, 500, "gpu0", None), (500, 1000, None, "cpu:0")]
            return [(0, 1000, None, "cpu:0")]

        graph = build(program, chunker)
        result = RuntimeEngine(tiny_platform, config=EXACT).execute(
            graph, StaticScheduler()
        )
        ratios = result.ratio_by_kernel()
        assert ratios["k0"] == {"gpu": 500, "cpu": 500}
        assert ratios["k1"] == {"cpu": 1000}


class TestDeadlockDetection:
    def test_unsatisfiable_dependence_raises(self, tiny_platform):
        program = single_kernel_program(n=1000)
        graph = build(program, whole_chunker(resource="cpu:0"))
        # dependence on a nonexistent instance id never resolves
        graph.instances[0].deps.add(999)
        run = RuntimeEngine(tiny_platform, config=EXACT)
        with pytest.raises((SimulationError, KeyError)):
            run.execute(graph, StaticScheduler())
