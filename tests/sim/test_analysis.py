"""Trace analysis: utilization, overlap, transfer shares."""

import pytest

from repro.sim.analysis import (
    analyze_trace,
    compute_overlap_fraction,
    format_stats,
)
from repro.sim.tracestore import TraceStore
from tests.sim.trace_oracle import stage


def rec(resource, start, end, *, category="compute", device=None, **meta):
    """One row in the oracle's shape (see ``tests/sim/trace_oracle.py``)."""
    if device is not None:
        meta["device"] = device
    return (resource, category, "t", (), float(start), float(end), meta)


def trace_of(*rows):
    return stage(rows)


class TestOverlapFraction:
    def test_disjoint_devices_zero_overlap(self):
        t = trace_of(
            rec("cpu:0", 0, 1, device="cpu"),
            rec("gpu0", 1, 2, device="gpu0"),
        )
        assert compute_overlap_fraction(t) == 0.0

    def test_full_overlap(self):
        t = trace_of(
            rec("cpu:0", 0, 2, device="cpu"),
            rec("gpu0", 0, 2, device="gpu0"),
        )
        assert compute_overlap_fraction(t) == pytest.approx(1.0)

    def test_partial_overlap(self):
        t = trace_of(
            rec("cpu:0", 0, 3, device="cpu"),
            rec("gpu0", 2, 4, device="gpu0"),
        )
        # overlap [2,3) of makespan 4
        assert compute_overlap_fraction(t) == pytest.approx(0.25)

    def test_cpu_threads_count_as_one_device(self):
        t = trace_of(
            rec("cpu:0", 0, 2, device="cpu"),
            rec("cpu:1", 0, 2, device="cpu"),
        )
        assert compute_overlap_fraction(t) == 0.0

    def test_transfers_do_not_count(self):
        t = trace_of(
            rec("cpu:0", 0, 2, device="cpu"),
            rec("link:gpu0:h2d", 0, 2, category="transfer"),
        )
        assert compute_overlap_fraction(t) == 0.0

    def test_three_devices_sweep(self):
        t = trace_of(
            rec("cpu:0", 0, 4, device="cpu"),
            rec("gpu0", 1, 3, device="gpu0"),
            rec("gpu1", 2, 5, device="gpu1"),
        )
        # >=2 active: [1,3) and [3,4) -> 3 of makespan 5
        assert compute_overlap_fraction(t) == pytest.approx(0.6)

    def test_empty_trace(self):
        assert compute_overlap_fraction(TraceStore()) == 0.0


class TestAnalyzeTrace:
    def test_resource_stats(self):
        t = trace_of(
            rec("gpu0", 0, 2, device="gpu0"),
            rec("gpu0", 3, 4, device="gpu0"),
            rec("link:gpu0:h2d", 0, 1, category="transfer"),
        )
        stats = analyze_trace(t)
        gpu = stats.resource("gpu0")
        assert gpu.busy_s == pytest.approx(3.0)
        assert gpu.utilization == pytest.approx(0.75)
        assert gpu.records == 2
        assert gpu.by_category == {"compute": 3.0}

    def test_transfer_share(self):
        t = trace_of(
            rec("gpu0", 0, 10, device="gpu0"),
            rec("link:gpu0:h2d", 0, 9, category="transfer"),
        )
        stats = analyze_trace(t)
        assert stats.transfer_share["link:gpu0:h2d"] == pytest.approx(0.9)

    def test_unknown_resource_raises(self):
        stats = analyze_trace(trace_of(rec("gpu0", 0, 1, device="gpu0")))
        with pytest.raises(KeyError):
            stats.resource("nope")

    def test_format_contains_resources(self):
        stats = analyze_trace(trace_of(rec("gpu0", 0, 1, device="gpu0")))
        text = format_stats(stats)
        assert "gpu0" in text and "makespan" in text


class TestOnRealRuns:
    def test_static_split_overlaps_processors(self, paper_platform):
        """Glinda's raison d'être: the split overlaps CPU and GPU compute.

        MatrixMul is the compute-bound case where both processors crunch
        for most of the run; transfer-bound apps (BlackScholes) overlap
        CPU compute with GPU *transfers* instead, which this metric
        deliberately does not count.
        """
        from repro.apps import get_application
        from repro.partition import get_strategy

        program = get_application("MatrixMul").program()
        result = get_strategy("SP-Single").run(program, paper_platform)
        stats = analyze_trace(result.trace)
        assert stats.overlap_fraction > 0.8

    def test_only_cpu_has_no_overlap_or_transfers(self, paper_platform):
        from repro.apps import get_application
        from repro.partition import get_strategy

        program = get_application("BlackScholes").program()
        result = get_strategy("Only-CPU").run(program, paper_platform)
        stats = analyze_trace(result.trace)
        assert stats.overlap_fraction == 0.0
        assert not stats.transfer_share

    def test_stream_only_gpu_link_share(self, paper_platform):
        """The 88%-transfer observation through the analysis module."""
        from repro.apps import get_application
        from repro.partition import get_strategy

        program = get_application("STREAM-Seq").program()
        result = get_strategy("Only-GPU").run(program, paper_platform)
        stats = analyze_trace(result.trace)
        total_link = sum(stats.transfer_share.values())
        assert total_link > 0.75
