"""The frontier builder adds exactly the edges of its reference copy.

``build_dependences`` answers single-segment frontier queries inline and
updates an exactly matching segment in place; ``frontier_oracle.py``
holds the builder as it was before, every query and commit going
through the general interval walk.  The two must build the same graph
edge for edge — not just the same reachability, which
``test_dependence_fastpath.py`` checks against the full-history
``build_dependences_reference``.

Programs come from :mod:`repro.runtime.generate`, sync-free or with a
taskwait after some invocations, with halo reads and a PREFIX access
that leaves some chunks an empty region.  Each invocation is cut at split points drawn from a small pool
of random cut sets, so one barrier window mixes invocations cut the same
way (accesses hitting exactly one frontier segment) with invocations cut
differently (partial overlaps across several segments).
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.dependence import build_dependences
from repro.runtime.generate import GeneratorConfig, random_program
from repro.runtime.graph import Program, expand_program

from tests.runtime.frontier_oracle import oracle_build_dependences
from tests.runtime.test_scheduler_oracles import _with_prefix_access


def _graphs(seed: int, sync: bool, pool: int):
    """Two edge-free copies of one random program's graph."""
    rng = np.random.default_rng(seed)
    config = GeneratorConfig(n=int(rng.integers(8, 96)), max_iterations=5,
                             p_halo=0.6)
    program = random_program(rng, config)
    # synced: a taskwait after some invocations, so barrier windows of
    # several invocations still query the frontier
    program = Program(
        invocations=[
            dataclasses.replace(inv, sync_after=sync and rng.random() < 0.3)
            for inv in program.invocations
        ],
        arrays=program.arrays,
    )
    program = _with_prefix_access(program, rng)
    n = program.invocations[0].n
    cut_sets = []
    for _ in range(pool):
        count = int(rng.integers(1, min(n, 12) + 1))
        cuts = sorted(rng.choice(np.arange(1, n), count - 1,
                                 replace=False).tolist())
        cut_sets.append([0, *cuts, n])
    chunks = {
        inv.invocation_id: cut_sets[int(rng.integers(pool))]
        for inv in program.invocations
    }

    def chunker(inv):
        bounds = chunks[inv.invocation_id]
        return [(lo, hi, None, None) for lo, hi in zip(bounds, bounds[1:])]

    return (expand_program(program, chunker),
            expand_program(program, chunker))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sync=st.booleans(),
    pool=st.integers(1, 3),
)
def test_edges_equal_the_reference_copy(seed, sync, pool):
    graph, oracle = _graphs(seed, sync, pool)
    build_dependences(graph)
    oracle_build_dependences(oracle)
    assert graph.succs_sorted == oracle.succs_sorted
    assert [inst.deps for inst in graph.instances] == [
        inst.deps for inst in oracle.instances
    ]
