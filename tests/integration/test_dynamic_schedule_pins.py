"""Exact pins for dynamically scheduled runs.

The differential suites compare two implementations against each other
(fast vs oracle engine, evaluator vs engine), so a change that moves both
sides at once slips through them.  This suite pins the observable result
of the dynamic schedulers — makespan bits plus h2d/d2h transfer volume —
at small scale on five apps that stress the region machinery differently:

* Cholesky — distinct same-named kernels over different tiles;
* STREAM-Loop — one kernel object re-issued every iteration;
* SpMV — PREFIX accesses, here with a zero-nonzero tail so one dynamic
  chunk touches an empty region;
* HotSpot — halo reads across chunk boundaries, with per-iteration sync;
* FDTD — sync-free halo chains, where DP-Aff's read residency matters.

The values were recorded from the engine and must not move unless a
change is meant to alter scheduling results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.registry import get_application
from repro.apps.spmv import SpMV
from repro.partition.base import PlanConfig, get_strategy
from repro.runtime.graph import chunk_ranges

STRATEGIES = ("DP-Perf", "DP-Dep", "DP-Aff", "DP-Guided", "HYB-Static")


class _SpMVEmptyTail(SpMV):
    """SpMV whose last quarter of rows holds no nonzeros.

    Cut into the paper platform's twelve dynamic chunks, the last three
    chunks read an empty PREFIX region of ``vals``/``cols``.
    """

    def _structure(self, n):
        lengths, _ = super()._structure(n)
        lengths = lengths.copy()
        lengths[n - n // 4:] = 0
        row_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=row_ptr[1:])
        return lengths, row_ptr


def _scenario(app):
    """``(program, plan config)`` of one pinned app."""
    if app == "Cholesky":
        return get_application("Cholesky").program(6), PlanConfig()
    if app == "STREAM-Loop":
        program = get_application("STREAM-Loop").program(4096, iterations=3)
        return program, PlanConfig()
    if app == "SpMV":
        return _SpMVEmptyTail().program(1024), PlanConfig()
    if app == "HotSpot":
        program = get_application("HotSpot").program(
            256, iterations=3, sync=True
        )
        return program, PlanConfig()
    if app == "FDTD":
        # sync-free halo chains cut into 24 tasks: the one scenario here
        # where DP-Aff's replication of read ranges changes placement
        program = get_application("FDTD").program(
            4096, iterations=3, sync=False
        )
        return program, PlanConfig(task_count=24)
    raise AssertionError(app)


#: (app, strategy) -> (float.hex(makespan_s), h2d bytes, d2h bytes)
PINS = {
    ("Cholesky", "DP-Perf"): ("0x1.a19f0a8b5574dp-3", 88080384, 88080384),
    ("Cholesky", "DP-Dep"): ("0x1.bd363ac3dd2b9p-3", 88080384, 88080384),
    ("Cholesky", "DP-Aff"): ("0x1.032fd1247da54p+2", 79691776, 54525952),
    ("Cholesky", "DP-Guided"): ("0x1.a19f0a8b5574dp-3", 88080384, 88080384),
    ("Cholesky", "HYB-Static"): ("0x1.a19f0a8b5574dp-3", 88080384, 88080384),
    ("STREAM-Loop", "DP-Perf"): ("0x1.d38d68a13f9eep-6", 36856, 36864),
    ("STREAM-Loop", "DP-Dep"): ("0x1.225d14eefe833p-7", 1368, 4104),
    ("STREAM-Loop", "DP-Aff"): ("0x1.225d14eefe833p-7", 1368, 4104),
    ("STREAM-Loop", "DP-Guided"): ("0x1.82f4e3a30b42fp-3", 27900, 49344),
    ("STREAM-Loop", "HYB-Static"): ("0x1.5509a331afa3cp-5", 19912, 42664),
    ("SpMV", "DP-Perf"): ("0x1.15379fa97e133p-9", 71792, 688),
    ("SpMV", "DP-Dep"): ("0x1.a10a39ab7bd7bp-11", 57224, 344),
    ("SpMV", "DP-Aff"): ("0x1.a10a39ab7bd7bp-11", 57224, 344),
    ("SpMV", "DP-Guided"): ("0x1.24980875d01eep-8", 60644, 412),
    ("SpMV", "HYB-Static"): ("0x1.9028cc53f91b3p-10", 43060, 140),
    ("HotSpot", "DP-Perf"): ("0x1.a64bbc8a66aeap-6", 225280, 112640),
    ("HotSpot", "DP-Dep"): ("0x1.8e300d774d9dep-6", 135168, 67584),
    ("HotSpot", "DP-Aff"): ("0x1.8e300d774d9dep-6", 135168, 67584),
    ("HotSpot", "DP-Guided"): ("0x1.1a9959a47b005p-5", 247808, 123904),
    ("HotSpot", "HYB-Static"): ("0x1.a825d65e99f13p-6", 258048, 129024),
    ("FDTD", "DP-Perf"): ("0x1.44907ea7e3b7cp-6", 24616, 15704),
    ("FDTD", "DP-Dep"): ("0x1.6f8f4f0a7bff6p-7", 9580, 7508),
    ("FDTD", "DP-Aff"): ("0x1.3367dc76c5f2cp-7", 10280, 6824),
    ("FDTD", "DP-Guided"): ("0x1.3f7488d09fbddp-5", 37696, 28160),
    ("FDTD", "HYB-Static"): ("0x1.3d4fab224692fp-6", 33868, 29172),
}


def _observe(app, strategy, platform):
    program, config = _scenario(app)
    art = get_strategy(strategy).run(
        program, platform, config=config, detail="summary"
    )
    return (
        float.hex(art.makespan_s),
        art.transfer_bytes["h2d"],
        art.transfer_bytes["d2h"],
    )


def test_spmv_variant_has_an_empty_prefix_chunk(paper_platform):
    inv = _scenario("SpMV")[0].invocations[0]
    prefix = inv.kernel.accesses[0].prefix
    chunks = chunk_ranges(inv.n, PlanConfig().chunks(paper_platform))
    assert any(prefix[lo] == prefix[hi] for lo, hi in chunks)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize(
    "app", ("Cholesky", "STREAM-Loop", "SpMV", "HotSpot", "FDTD")
)
def test_dynamic_schedule_is_pinned(paper_platform, app, strategy):
    assert _observe(app, strategy, paper_platform) == PINS[(app, strategy)]
