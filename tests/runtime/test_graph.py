"""Programs, chunking helpers, and task-graph expansion."""

import pytest

from repro.apps.registry import all_applications
from repro.errors import ConfigurationError, DependenceError
from repro.partition.base import get_strategy
from repro.runtime.graph import (
    InstanceKind,
    KernelInvocation,
    Program,
    TaskInstance,
    chunk_ranges,
    expand_program,
    split_sizes,
)
from repro.runtime.kernels import AccessPattern

from tests.conftest import chain_program, make_kernel, single_kernel_program


class TestChunkRanges:
    def test_even_split(self):
        assert chunk_ranges(100, 4) == [(0, 25), (25, 50), (50, 75), (75, 100)]

    def test_remainder_goes_to_first_chunks(self):
        ranges = chunk_ranges(10, 3)
        assert ranges == [(0, 4), (4, 7), (7, 10)]

    def test_more_chunks_than_elements(self):
        ranges = chunk_ranges(3, 10)
        assert ranges == [(0, 1), (1, 2), (2, 3)]

    def test_single_chunk(self):
        assert chunk_ranges(7, 1) == [(0, 7)]

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            chunk_ranges(0, 4)
        with pytest.raises(ConfigurationError):
            chunk_ranges(10, 0)

    def test_covers_everything_exactly(self):
        for n, k in [(1000, 7), (13, 13), (97, 10)]:
            ranges = chunk_ranges(n, k)
            assert ranges[0][0] == 0 and ranges[-1][1] == n
            for (a, b), (c, _) in zip(ranges, ranges[1:]):
                assert b == c


class TestSplitSizes:
    def test_basic(self):
        assert split_sizes(10, [4, 6]) == [(0, 4), (4, 10)]

    def test_zero_sizes_skipped(self):
        assert split_sizes(10, [0, 10, 0]) == [(0, 10)]

    def test_must_sum_to_n(self):
        with pytest.raises(ConfigurationError):
            split_sizes(10, [4, 4])

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigurationError):
            split_sizes(0, [-5, 5])


class TestProgram:
    def test_kernels_deduplicated_by_name(self):
        program = single_kernel_program(iterations=3)
        assert len(program.kernels) == 1

    def test_total_indices(self):
        program = single_kernel_program(n=100, iterations=3)
        assert program.total_indices() == 300

    def test_rejects_undeclared_arrays(self):
        kernel, specs = make_kernel(n=10)
        inv = KernelInvocation(invocation_id=0, kernel=kernel, n=10)
        with pytest.raises(ConfigurationError):
            Program(invocations=[inv], arrays={})

    def test_rejects_unordered_ids(self):
        kernel, specs = make_kernel(n=10)
        invs = [
            KernelInvocation(invocation_id=1, kernel=kernel, n=10),
            KernelInvocation(invocation_id=0, kernel=kernel, n=10),
        ]
        with pytest.raises(ConfigurationError):
            Program(invocations=invs, arrays=specs)

    def test_invocation_rejects_nonpositive_size(self):
        kernel, _ = make_kernel(n=10)
        with pytest.raises(ConfigurationError):
            KernelInvocation(invocation_id=0, kernel=kernel, n=0)


class TestTaskInstance:
    def test_chunk_must_fit_invocation(self):
        kernel, _ = make_kernel(n=10)
        inv = KernelInvocation(invocation_id=0, kernel=kernel, n=10)
        with pytest.raises(ConfigurationError):
            TaskInstance(instance_id=0, kind=InstanceKind.COMPUTE,
                         invocation=inv, lo=5, hi=15)

    def test_barrier_has_no_size(self):
        barrier = TaskInstance(instance_id=0, kind=InstanceKind.BARRIER)
        assert barrier.size == 0
        assert barrier.is_barrier
        assert barrier.regions() == []

    def test_labels(self):
        kernel, _ = make_kernel("mykernel", n=10)
        inv = KernelInvocation(invocation_id=0, kernel=kernel, n=10)
        inst = TaskInstance(instance_id=3, kind=InstanceKind.COMPUTE,
                            invocation=inv, lo=0, hi=5)
        assert "mykernel" in inst.label()
        barrier = TaskInstance(instance_id=4, kind=InstanceKind.BARRIER)
        assert "taskwait" in barrier.label()


class TestExpandProgram:
    def test_one_instance_per_chunk(self):
        program = single_kernel_program(n=100)
        graph = expand_program(
            program,
            lambda inv: [(lo, hi, None, None) for lo, hi in chunk_ranges(inv.n, 4)],
        )
        assert len(graph.instances) == 4
        assert all(i.kind is InstanceKind.COMPUTE for i in graph.instances)

    def test_sync_appends_barriers(self):
        program = single_kernel_program(n=100, iterations=3, sync=True)
        graph = expand_program(program, lambda inv: [(0, inv.n, None, None)])
        kinds = [i.kind for i in graph.instances]
        assert kinds == [
            InstanceKind.COMPUTE, InstanceKind.BARRIER,
            InstanceKind.COMPUTE, InstanceKind.BARRIER,
            InstanceKind.COMPUTE, InstanceKind.BARRIER,
        ]

    def test_instance_ids_sequential(self):
        program = chain_program(3)
        graph = expand_program(
            program,
            lambda inv: [(lo, hi, None, None) for lo, hi in chunk_ranges(inv.n, 2)],
        )
        assert [i.instance_id for i in graph.instances] == list(range(6))

    def test_pins_preserved(self):
        program = single_kernel_program(n=100)
        graph = expand_program(
            program, lambda inv: [(0, 50, "gpu0", None), (50, 100, None, "cpu:0")]
        )
        assert graph.instances[0].pinned_device == "gpu0"
        assert graph.instances[1].pinned_resource == "cpu:0"


class TestValidateAcyclic:
    def test_accepts_dag(self):
        program = chain_program(3)
        graph = expand_program(program, lambda inv: [(0, inv.n, None, None)])
        from repro.runtime.dependence import build_dependences

        build_dependences(graph)
        graph.validate_acyclic()  # must not raise

    def test_detects_cycle(self):
        program = single_kernel_program(n=10)
        graph = expand_program(
            program,
            lambda inv: [(0, 5, None, None), (5, 10, None, None)],
        )
        a, b = graph.instances
        a.deps.add(b.instance_id); b.succs.add(a.instance_id)
        b.deps.add(a.instance_id); a.succs.add(b.instance_id)
        with pytest.raises(DependenceError):
            graph.validate_acyclic()


class TestAccessRows:
    @pytest.mark.parametrize(
        "app", all_applications(), ids=lambda app: app.name
    )
    def test_rows_match_regions_and_are_shared_per_signature(
        self, app, paper_platform
    ):
        if app.name == "Cholesky":  # one sync-free factorization, 4x4 tiles
            program = app.program(4)
        else:
            program = app.program(256, iterations=2, sync=True)
        graph = get_strategy("DP-Dep").plan(program, paper_platform).graph
        rows = graph.access_rows
        assert len(rows) == len(graph.instances)
        by_signature: dict[tuple, object] = {}
        for inst, row in zip(graph.instances, rows):
            if inst.is_barrier:
                assert row is None
                continue
            assert row.regions == list(inst.regions())
            shared = by_signature.setdefault(
                (id(inst.kernel), inst.lo, inst.hi), row
            )
            assert row is shared
        assert len({id(row) for row in by_signature.values()}) == len(
            by_signature
        )
        if app.name != "Cholesky":
            assert any(inst.is_barrier for inst in graph.instances)

    @pytest.mark.parametrize("size", ["small", "large"])
    @pytest.mark.parametrize(
        "app", all_applications(), ids=lambda app: app.name
    )
    def test_compiled_rows_equal_what_the_regions_define(
        self, app, size, paper_platform
    ):
        if app.name == "Cholesky":  # tiles per side
            program = app.program({"small": 4, "large": 6}[size])
        else:
            n = {"small": 256, "large": 1000}[size]
            program = app.program(n, iterations=2, sync=True)
        graph = get_strategy("DP-Dep").plan(program, paper_platform).graph
        full_regions: dict[str, object] = {}
        by_signature: dict[tuple, object] = {}
        for inst, row in zip(graph.instances, graph.access_rows):
            if inst.is_barrier:
                assert row is None
                continue
            regions = inst.regions()
            accesses = inst.kernel.accesses
            partial = [
                (region, acc, mode)
                for acc, (region, mode) in zip(accesses, regions)
                if acc.pattern is not AccessPattern.FULL
            ]
            assert row.regions == regions
            assert row.reads == tuple(r for r, mode in regions if mode.reads)
            assert row.writes == tuple(r for r, mode in regions if mode.writes)
            assert row.partial_reads == tuple(
                (region, acc.array.elem_bytes)
                for region, acc, mode in partial if mode.reads
            )
            assert row.in_bytes == sum(
                region.nbytes(acc.array.elem_bytes)
                for region, acc, mode in partial if mode.reads
            )
            assert row.out_bytes == sum(
                region.nbytes(acc.array.elem_bytes)
                for region, acc, mode in partial if mode.writes
            )
            # one FULL region object per array, shared by every row
            for acc, (region, _mode) in zip(accesses, row.regions):
                if acc.pattern is AccessPattern.FULL:
                    assert full_regions.setdefault(region.array, region) \
                        is region
            signature = (id(inst.kernel), inst.lo, inst.hi)
            assert by_signature.setdefault(signature, row) is row
