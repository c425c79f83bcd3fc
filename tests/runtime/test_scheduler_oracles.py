"""The dynamic schedulers decide exactly what their reference copies decide.

DP-Aff keeps cached residency scores invalidated through a range index,
DP-Dep chooses in one pass, and DP-Perf reads per-run tables of its
estimate terms.  ``scheduler_oracles.py`` holds the straightforward forms
they replaced, which rescan and recompute everything at every decision.
Random programs from :mod:`repro.runtime.generate` — synced and
sync-free, with halo reads, PREFIX accesses that leave some chunks an
empty region, uneven random split points and a few device-pinned chunks —
run under both forms on the paper platform and the dual-GPU preset.
Every ``assign`` call must see the same ready set and return the same
assignments, and the full-detail artifacts must pickle to the same bytes.
DP-Aff's cache is also checked directly: after every ``assign`` call,
each score it still holds must equal a rescan of the residency.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.platform import dual_gpu_platform, shen_icpp15_platform
from repro.runtime.dependence import build_dependences
from repro.runtime.executor import RuntimeConfig, RuntimeEngine
from repro.runtime.generate import GeneratorConfig, random_program
from repro.runtime.graph import Program, expand_program
from repro.runtime.kernels import AccessPattern, AccessSpec
from repro.runtime.regions import AccessMode, ArraySpec
from repro.runtime.schedulers.affinity import AffinityScheduler
from repro.runtime.schedulers.breadth_first import BreadthFirstScheduler
from repro.runtime.schedulers.perf_aware import PerfAwareScheduler

from tests.runtime.scheduler_oracles import (
    OracleAffinityScheduler,
    OracleBreadthFirstScheduler,
    OraclePerfAwareScheduler,
)

PLATFORMS = {"paper": shen_icpp15_platform, "dual-gpu": dual_gpu_platform}

#: (library scheduler, reference copy) per policy
POLICIES = {
    "DP-Aff": (AffinityScheduler, OracleAffinityScheduler),
    "DP-Dep": (BreadthFirstScheduler, OracleBreadthFirstScheduler),
    "DP-Perf": (PerfAwareScheduler, OraclePerfAwareScheduler),
}

SEEDS = range(40)

#: two CPU threads keep ready sets long on small programs
CONFIG = RuntimeConfig(cpu_threads=2)


def _recording(cls):
    """``cls`` with a log of every ``assign`` call: the ready ids it saw
    and the ``(instance id, resource id)`` pairs it returned."""

    class Recording(cls):
        def start(self, graph, ctx):
            self.calls = []
            super().start(graph, ctx)

        def assign(self, ready, ctx):
            out = super().assign(ready, ctx)
            self.calls.append((
                [inst.instance_id for inst in ready],
                [(inst.instance_id, rid) for inst, rid in out],
            ))
            return out

    return Recording


def _with_prefix_access(program: Program, rng) -> Program:
    """``program`` with a PREFIX access to one extra array in some kernels.

    The prefix steps by 0, 1 or 2 elements per index, so some chunks
    touch an empty region; the mode is random, so PREFIX writes move
    residency too.
    """
    n = program.invocations[0].n
    prefix = np.concatenate(([0], np.cumsum(rng.integers(0, 3, n))))
    spec = ArraySpec("p", int(prefix[-1]), 8)
    modes = (AccessMode.IN, AccessMode.OUT, AccessMode.INOUT)
    kernels = {}
    for inv in program.invocations:
        kernel = inv.kernel
        if id(kernel) in kernels:
            continue
        if rng.random() < 0.4:
            kernels[id(kernel)] = kernel
            continue
        access = AccessSpec(
            spec, modes[int(rng.integers(3))], AccessPattern.PREFIX,
            prefix=prefix,
        )
        kernels[id(kernel)] = dataclasses.replace(
            kernel, accesses=kernel.accesses + (access,)
        )
    return Program(
        invocations=[
            dataclasses.replace(inv, kernel=kernels[id(inv.kernel)])
            for inv in program.invocations
        ],
        arrays={**program.arrays, "p": spec},
    )


def _graph(seed: int, platform):
    """One random program, chunked at random split points."""
    rng = np.random.default_rng(seed)
    config = GeneratorConfig(n=int(rng.integers(32, 128)), max_iterations=5,
                             p_sync=0.3, p_halo=0.6)
    program = _with_prefix_access(random_program(rng, config), rng)
    devices = [platform.host.device_id] + [
        acc.device_id for acc in platform.accelerators
    ]
    chunks = {}
    for inv in program.invocations:
        count = int(rng.integers(1, 17))
        cuts = sorted(rng.choice(np.arange(1, inv.n), count - 1,
                                 replace=False).tolist())
        bounds = [0, *cuts, inv.n]
        chunks[inv.invocation_id] = [
            (lo, hi,
             devices[int(rng.integers(len(devices)))]
             if rng.random() < 0.1 else None,
             None)
            for lo, hi in zip(bounds, bounds[1:])
        ]
    graph = expand_program(program, lambda inv: chunks[inv.invocation_id])
    return build_dependences(graph)


def _run(platform, graph, cls):
    scheduler = _recording(cls)()
    artifact = RuntimeEngine(platform, config=CONFIG).execute(
        graph, scheduler, detail="full"
    )
    return scheduler.calls, pickle.dumps(artifact)


@pytest.mark.parametrize("platform_name", PLATFORMS)
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_decisions_and_artifacts_equal_the_reference(seed, policy,
                                                     platform_name):
    platform = PLATFORMS[platform_name]()
    graph = _graph(seed, platform)
    fast, reference = POLICIES[policy]
    got_calls, got_bytes = _run(platform, graph, fast)
    want_calls, want_bytes = _run(platform, graph, reference)
    assert got_calls == want_calls
    assert got_bytes == want_bytes


class _CheckedAffinity(AffinityScheduler):
    """DP-Aff that, after every ``assign`` call, rescans the residency
    behind each score its cache still holds."""

    def assign(self, ready, ctx):
        out = super().assign(ready, ctx)
        for arrays, scores in zip(self._resident.values(), self._scores):
            for reads, cached in zip(self._reads, scores):
                if cached < 0:
                    continue  # stale: recomputed before its next use
                rescan = 0
                for region, elem_bytes in reads:
                    held = arrays.get(region.array)
                    if held is not None:
                        rescan += held.overlap(region.start,
                                               region.end) * elem_bytes
                assert cached == rescan
        return out


@pytest.mark.parametrize("platform_name", PLATFORMS)
def test_every_cached_affinity_score_equals_a_rescan(platform_name):
    """The invalidation invariant itself: a residency change — a range
    added to the assigned device, or written data taken off another one
    — marks stale every cached score it can move."""
    platform = PLATFORMS[platform_name]()
    for seed in SEEDS:
        _run(platform, _graph(seed, platform), _CheckedAffinity)


def test_the_programs_exercise_what_the_index_must_track():
    """The random programs do hit the cases the DP-Aff index must get
    right, so the equality above is not vacuous: ready instances left
    waiting after an assignment (their scores are read again after
    residency moved), assignments whose writes take residency away from
    another device, and empty PREFIX regions."""

    class Counting(OracleAffinityScheduler):
        takeaways = 0

        def _record_assignment(self, inst, device_id):
            for region in self._rows[inst.instance_id].writes:
                for other_id, arrays in self._resident.items():
                    held = arrays.get(region.array)
                    if other_id != device_id and held is not None:
                        Counting.takeaways += bool(
                            held.overlap(region.start, region.end)
                        )
            super()._record_assignment(inst, device_id)

    platform = shen_icpp15_platform()
    waited = empty = 0
    for seed in SEEDS:
        graph = _graph(seed, platform)
        empty += sum(
            1 for row in graph.access_rows if row is not None
            for region, _ in row.regions if region.empty
        )
        calls, _ = _run(platform, graph, Counting)
        waited += sum(1 for ready, out in calls if 0 < len(out) < len(ready))
    assert waited > 0
    assert Counting.takeaways > 0
    assert empty > 0
