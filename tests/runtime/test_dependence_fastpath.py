"""Differential tests: the frontier fast path vs the reference builder.

`build_dependences` replaces the full-history O(n^2) scan with per-array
writer/reader frontiers.  It intentionally drops transitively-implied
edges, so the graphs are not edge-identical — they are *reachability
equivalent*: same instances, fast edges are a subset of reference edges,
and every reference edge is covered by a fast-graph ancestor path.  That
equivalence is exactly what the executor depends on (an instance becomes
ready when all ancestors completed), so makespans must match too.
"""

import numpy as np
import pytest

from repro.apps.registry import all_applications
from repro.partition.base import force_sync
from repro.runtime import dependence
from repro.runtime.dependence import (
    build_dependences,
    build_dependences_reference,
    dependence_chains,
)
from repro.runtime.executor import RuntimeConfig, RuntimeEngine
from repro.runtime.generate import GeneratorConfig, random_program
from repro.runtime.graph import chunk_ranges, expand_program
from repro.runtime.schedulers.base import StaticScheduler

from tests.conftest import tiny_platform

PLATFORM = tiny_platform.__wrapped__()
EXACT = RuntimeConfig(
    task_creation_overhead_s=0.0,
    dynamic_decision_overhead_s=0.0,
    barrier_overhead_s=0.0,
)

#: differential seeds — the ISSUE asks for at least 200 generated programs
SEEDS = list(range(200))
#: subset run through the simulated executor (it is much slower per case)
EXECUTOR_SEEDS = list(range(12))


def _expand(program, chunks, *, pin=False):
    """Expand with ``chunks`` instances per invocation, optionally pinned.

    Pinned expansion alternates chunks between the two devices so the
    executor exercises cross-device readiness, not just one queue.
    """
    devices = [d.device_id for d in PLATFORM.devices]

    def chunker(inv):
        out = []
        for i, (lo, hi) in enumerate(chunk_ranges(inv.n, chunks)):
            dev = devices[i % len(devices)] if pin else None
            out.append((lo, hi, dev, None))
        return out

    return expand_program(program, chunker)


def _edges(graph):
    return {
        (dep, inst.instance_id)
        for inst in graph.instances
        for dep in inst.deps
    }


def _ancestors(graph):
    """Transitive dependence closure; deps always point backward in id."""
    anc = {}
    for inst in graph.instances:
        s = set()
        for dep in inst.deps:
            s.add(dep)
            s |= anc[dep]
        anc[inst.instance_id] = s
    return anc


@pytest.mark.parametrize("seed", SEEDS)
def test_fastpath_reachability_equivalent(seed):
    rng = np.random.default_rng(seed)
    program = random_program(rng, GeneratorConfig(n=64))
    chunks = int(rng.integers(1, 6))

    fast = build_dependences(_expand(program, chunks))
    ref = build_dependences_reference(_expand(program, chunks))

    assert len(fast.instances) == len(ref.instances)
    fast.validate_acyclic()

    # the fast builder never invents an edge the reference lacks
    assert _edges(fast) <= _edges(ref)

    # ...and never loses ordering: both closures are identical
    assert _ancestors(fast) == _ancestors(ref)


@pytest.fixture
def frontiers(monkeypatch):
    """Every per-array frontier the builder creates."""
    made = []

    class Recorded(dependence._ArrayFrontier):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(dependence, "_ArrayFrontier", Recorded)
    return made


def _assert_barrier_edges_only(program, chunks, frontiers):
    """A window of one invocation: no frontier, the reference's edges."""
    fast = build_dependences(_expand(program, chunks))
    ref = build_dependences_reference(_expand(program, chunks))
    assert _edges(fast) == _edges(ref)
    assert frontiers == []


@pytest.mark.parametrize("seed", SEEDS[:50])
def test_synced_programs_build_only_barrier_edges(seed, frontiers):
    rng = np.random.default_rng(seed)
    program = force_sync(random_program(rng, GeneratorConfig(n=64)))
    _assert_barrier_edges_only(program, int(rng.integers(1, 6)), frontiers)


@pytest.mark.parametrize("app", all_applications(), ids=lambda app: app.name)
def test_synced_app_programs_build_only_barrier_edges(app, frontiers):
    if app.name == "Cholesky":  # tiles per side
        program = force_sync(app.program(4))
    else:
        program = force_sync(app.program(256, iterations=2))
    _assert_barrier_edges_only(program, 4, frontiers)


def test_the_last_window_commits_nothing(frontiers):
    """Frontiers are made for the invocations a later one queries only."""
    rng = np.random.default_rng(4)  # four kernels, three iterations
    program = random_program(rng, GeneratorConfig(n=64, p_sync=0.0))
    graph = build_dependences(_expand(program, 3))
    reference = build_dependences_reference(_expand(program, 3))
    assert _ancestors(graph) == _ancestors(reference)
    assert frontiers  # earlier invocations did commit
    committed = {
        rid for frontier in frontiers
        for rid in (*frontier.wids, *(i for ids in frontier.readers.ids
                                      for i in ids))
    }
    last = program.invocations[-1]
    assert not any(
        graph.instances[rid].invocation is last for rid in committed
    )


@pytest.mark.parametrize("seed", EXECUTOR_SEEDS)
def test_fastpath_makespan_equal_through_executor(seed):
    rng = np.random.default_rng(1000 + seed)
    program = random_program(rng, GeneratorConfig(n=128))
    chunks = int(rng.integers(2, 6))

    # pinned instances + static scheduler: the simulated timeline depends
    # only on readiness times, which reachability equivalence preserves
    fast = build_dependences(_expand(program, chunks, pin=True))
    ref = build_dependences_reference(_expand(program, chunks, pin=True))

    engine = RuntimeEngine(PLATFORM, config=EXACT)
    r_fast = engine.execute(fast, StaticScheduler())
    r_ref = engine.execute(ref, StaticScheduler())

    assert r_fast.makespan_s == pytest.approx(r_ref.makespan_s, rel=1e-12)
    assert r_fast.elements_by_device == r_ref.elements_by_device
    assert r_fast.instance_count == r_ref.instance_count


class _FlatReaders:
    """The pre-interval-index reader bookkeeping, kept as a test oracle."""

    def __init__(self):
        self.readers = []

    def add(self, start, end, instance_id):
        self.readers.append((start, end, instance_id))

    def subtract(self, start, end):
        keep = []
        for rs, re, rid in self.readers:
            if re <= start or rs >= end:
                keep.append((rs, re, rid))
                continue
            if rs < start:
                keep.append((rs, start, rid))
            if re > end:
                keep.append((end, re, rid))
        self.readers = keep

    def overlapping(self, start, end):
        seen = {}
        for rs, re, rid in self.readers:
            if rs < end and start < re:
                seen.setdefault(rid, None)
        return list(seen)


@pytest.mark.parametrize("seed", range(50))
def test_reader_index_matches_flat_oracle(seed):
    """The interval-indexed WAR reader structure vs the flat-list scan."""
    from repro.runtime.dependence import _ReaderIndex

    rng = np.random.default_rng(5000 + seed)
    idx, oracle = _ReaderIndex(), _FlatReaders()
    for step in range(300):
        lo = int(rng.integers(0, 96))
        hi = lo + int(rng.integers(1, 32))
        op = rng.random()
        if op < 0.55:
            idx.add(lo, hi, step)
            oracle.add(lo, hi, step)
        elif op < 0.8:
            idx.subtract(lo, hi)
            oracle.subtract(lo, hi)
        else:
            assert set(idx.overlapping(lo, hi)) == set(oracle.overlapping(lo, hi))
    # invariant: segments stay sorted, disjoint, and non-empty
    for i in range(len(idx.starts)):
        assert idx.starts[i] < idx.ends[i]
        if i:
            assert idx.ends[i - 1] <= idx.starts[i]
    # full-range query sees exactly the oracle's surviving readers
    assert set(idx.overlapping(0, 1 << 20)) == set(oracle.overlapping(0, 1 << 20))


def test_chains_cover_every_compute_instance():
    rng = np.random.default_rng(7)
    program = random_program(rng, GeneratorConfig(n=64, max_kernels=3))
    graph = build_dependences(_expand(program, 4))
    chains = dependence_chains(graph)
    from repro.runtime.graph import InstanceKind

    compute = [i for i in graph.instances if i.kind is InstanceKind.COMPUTE]
    assert set(chains) == {i.instance_id for i in compute}
    # an instance always shares its chain with its lowest compute dep
    for inst in compute:
        deps = [d for d in inst.deps if d in chains]
        if deps:
            assert chains[inst.instance_id] == chains[min(deps)]
