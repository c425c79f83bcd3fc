"""A sweep's edge memo is exact: equal endpoint orders, equal edges.

Within a :class:`~repro.partition.base.SweepScope`, a new graph of the
scope's program adopts the ``succs_sorted`` table of an earlier graph
with the same chunk counts and the same region endpoint order, instead
of running the frontier builder.  Random programs from
:mod:`repro.runtime.generate`, synced and sync-free, with halo reads and
PREFIX accesses (empty chunks included), are chunked many ways at random
per-invocation split points and chunk counts.  Every graph the scope
hands out must carry, edge for edge, what a fresh
:func:`~repro.runtime.dependence.build_dependences` builds for the same
chunks — the frontier builder is the oracle, because it drops implied
edges — and stay reachability-equivalent to
:func:`~repro.runtime.dependence.build_dependences_reference`.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition.base import SWEEP_SCOPE, finalize_graph, sweep_scope
from repro.runtime.dependence import (
    build_dependences,
    build_dependences_reference,
)
from repro.runtime.generate import GeneratorConfig, random_program
from repro.runtime.graph import Program, chunk_ranges, expand_program
from repro.runtime.kernels import AccessPattern, AccessSpec
from repro.runtime.regions import AccessMode, ArraySpec

#: GPU shares close enough to each other that many split moves keep the
#: endpoint order and some flip it (halo reads make near-ties)
FRACTIONS = (0.0, 0.2, 0.24, 0.25, 0.3, 0.5, 0.52, 0.75, 0.77, 1.0)
#: graphs per program: enough for each shape to repeat several times
GRAPHS = 10


def _with_prefix_accesses(program, rng):
    """``program`` with a PREFIX access to one extra array in some kernels.

    The prefix steps by 0, 1 or 2 elements per index, so some chunks
    touch an empty region; the mode is random, so PREFIX writes make
    dependences too.
    """
    n = program.invocations[0].n
    prefix = np.concatenate(([0], np.cumsum(rng.integers(0, 3, n))))
    spec = ArraySpec("p", int(prefix[-1]), 8)
    modes = (AccessMode.IN, AccessMode.OUT, AccessMode.INOUT)
    kernels = {}
    for inv in program.invocations:
        kernel = inv.kernel
        if id(kernel) in kernels or rng.random() < 0.4:
            kernels.setdefault(id(kernel), kernel)
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


def _chunks(n, count, fraction):
    """``count`` chunks of ``[0, n)``: a pinned share, then equal parts."""
    if count == 1:
        return [(0, n, "gpu", None)]
    share = min(max(round(fraction * n), 1), n - count + 1)
    rest = chunk_ranges(n - share, count - 1)
    return [(0, share, "gpu", None)] + [
        (share + lo, share + hi, None, f"cpu{k}")
        for k, (lo, hi) in enumerate(rest)
    ]


def _edges(graph):
    return {(dep, inst.instance_id)
            for inst in graph.instances for dep in inst.deps}


def _ancestors(graph):
    anc = {}
    for inst in graph.instances:
        seen = set()
        for dep in inst.deps:
            seen.add(dep)
            seen |= anc[dep]
        anc[inst.instance_id] = seen
    return anc


def _check(seed, sync):
    """Run one program's sweep; return how many graphs adopted a table
    that a graph with *different* chunks built."""
    rng = np.random.default_rng(seed)
    config = GeneratorConfig(n=int(rng.integers(8, 48)),
                             p_sync=1.0 if sync else 0.0)
    program = _with_prefix_accesses(random_program(rng, config), rng)
    invocations = program.invocations
    shapes = [tuple(int(c) for c in rng.integers(1, 5, len(invocations)))
              for _ in range(2)]
    builders: dict[int, list] = {}  # id(table) -> chunks that built it
    adopted = 0
    with sweep_scope():
        scoped = SWEEP_SCOPE.get().scenario_program(("memo",), lambda: program)
        for _ in range(GRAPHS):
            shape = shapes[int(rng.integers(2))]
            chunks = [
                _chunks(inv.n, count, FRACTIONS[int(rng.integers(len(FRACTIONS)))])
                for inv, count in zip(invocations, shape)
            ]

            def chunker(inv):
                return chunks[inv.invocation_id]

            graph = finalize_graph(scoped, chunker)
            fresh = build_dependences(expand_program(program, chunker))
            assert _edges(graph) == _edges(fresh)
            for inst in graph.instances:
                assert graph.succs_sorted[inst.instance_id] == tuple(
                    sorted(inst.succs))
            reference = build_dependences_reference(
                expand_program(program, chunker))
            assert _ancestors(graph) == _ancestors(reference)
            first = builders.setdefault(id(graph.succs_sorted), chunks)
            adopted += first is not chunks and first != chunks
    return adopted


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sync=st.booleans())
def test_memoized_edges_equal_a_fresh_build(seed, sync):
    _check(seed, sync)


def test_the_property_sees_shared_tables():
    """The fixed seeds below make graphs adopt tables built from other
    split points, synced and sync-free, so the property is not vacuous."""
    for sync in (False, True):
        assert sum(_check(seed, sync) for seed in range(20)) > 0
