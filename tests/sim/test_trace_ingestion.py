"""Differential tests of the trace intake: lanes against the oracle.

Every row enters a :class:`TraceStore` through a :class:`TraceLane`.
The lane-staged store must equal the list-of-records oracle of
``tests/sim/trace_oracle.py`` fed the same rows, row for row (resource,
label, category, start/end bits, meta) and aggregate for aggregate, for
randomized occupation streams; and ``SimResource.occupy`` must write
byte-identical stores under both simulation engines, queued occupations
included.
"""

import pickle

import numpy as np
import pytest

from repro.sim.analysis import analyze_trace
from repro.sim.engine import Simulator
from repro.sim.fast_engine import FastSimulator
from repro.sim.resources import SimResource
from repro.sim.tracestore import TraceStore
from tests.sim.trace_oracle import (
    TraceOracle,
    row_key,
    stage,
    staged_order,
)

CATEGORIES = ("compute", "transfer", "overhead")
KINDS = ("cpu", "gpu")
KERNELS = ("copy", "scale", "triad")


def _random_runs(seed: int, runs: int = 12, max_rows: int = 40):
    """Randomized homogeneous (resource, category) occupation runs.

    Each run is ``(resource_id, category, starts, ends)`` with
    back-to-back rows of random duration.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(runs):
        rid = f"{KINDS[int(rng.integers(2))]}:{int(rng.integers(3))}"
        category = CATEGORIES[int(rng.integers(len(CATEGORIES)))]
        k = int(rng.integers(1, max_rows))
        starts, ends = [], []
        t = float(rng.uniform(0.0, 5.0))
        for _ in range(k):
            dur = float(rng.uniform(0.0, 2.0))
            starts.append(t)
            ends.append(t + dur)
            t += dur
        out.append((rid, category, starts, ends))
    return out


def _grouped_rows(seed: int):
    """The runs as oracle rows, each run one stream of one lane."""
    rows = []
    for run_no, (rid, category, starts, ends) in enumerate(
        _random_runs(seed, runs=6)
    ):
        kind = KINDS[run_no % 2]
        for i, (s, e) in enumerate(zip(starts, ends)):
            meta = {
                "size": i + 1, "device_kind": kind,
                "kernel": KERNELS[i % 3], "device": rid,
            }
            rows.append((rid, category, "{}#{}", (rid, i), s, e, meta))
    return rows


def assert_matches_oracle(store: TraceStore, oracle: TraceOracle) -> None:
    """Row for row and aggregate for aggregate, floats bit-identical."""
    assert [row_key(r) for r in store.records] == [
        row_key(r) for r in oracle.records
    ]
    assert store.resource_ids_seen() == oracle.resource_ids_seen()
    for rid in oracle.resource_ids_seen():
        assert [row_key(r) for r in store.by_resource(rid)] == [
            row_key(r) for r in oracle.by_resource(rid)
        ]
        assert store.busy_time(rid).hex() == oracle.busy_time(rid).hex()
    for cat in oracle.categories_seen():
        assert [row_key(r) for r in store.by_category(cat)] == [
            row_key(r) for r in oracle.by_category(cat)
        ]
    assert store.makespan().hex() == oracle.makespan().hex()
    assert store.busy_by_resource() == oracle.busy_by_resource()
    assert store.elements_by_device() == oracle.elements_by_device()
    assert (
        store.elements_by_device(key="device")
        == oracle.elements_by_device(key="device")
    )
    assert (
        analyze_trace(store).overlap_fraction.hex()
        == oracle.overlap_fraction().hex()
    )


class TestLaneParity:
    def test_grouped_streams_match_the_oracle(self):
        """Rows arriving stream by stream keep their arrival order."""
        for seed in range(3):
            rows = _grouped_rows(seed)
            assert staged_order(rows) == rows
            assert_matches_oracle(stage(rows), TraceOracle(rows))

    def test_interleaved_streams_match_analytics(self):
        """Interleaved lane appends regroup rows but keep every query.

        Staged rows land grouped by lane, not chronologically, so the
        oracle reads them in that order; every aggregate, label and
        metadata dict must match it.
        """
        rng = np.random.default_rng(7)
        rows = []
        t = 0.0
        for i in range(120):
            rid = ("a", "b", "c")[int(rng.integers(3))]
            dur = float(rng.uniform(0.0, 1.0))
            meta = {"size": i, "device_kind": "cpu", "idx": i}
            rows.append((rid, "compute", "{} {}", (rid, i), t, t + dur, meta))
            t += dur
        assert staged_order(rows) != rows
        store = stage(rows)
        assert_matches_oracle(store, TraceOracle(staged_order(rows)))

    def test_staged_rows_flush_on_any_read(self):
        store = TraceStore()
        lane = store.lane("r", "compute", "x {}")
        lane.append(0.0, 1.0, (1,))
        lane.append(1.0, 3.0, (2,))
        assert len(lane) == 2
        assert len(store) == 2  # __len__ flushes
        assert len(lane) == 0
        assert store.label_at(1) == "x 2"
        assert store.makespan() == 3.0
        # lanes stay usable after a flush
        lane.append(3.0, 4.0, (3,))
        assert store.makespan() == 4.0


def _laned_run(engine_cls, seed: int):
    """Randomized per-event lane occupations on three busy resources.

    Bursts land on resources that are still busy, so occupations queue
    and the fast engine's inline completion loop writes their lane rows;
    completions chain follow-up work from inside that loop.  Returns the
    trace pickle and the final clock.
    """
    rng = np.random.default_rng(seed)
    trace = TraceStore()
    sim = engine_cls()
    rids = ("cpu:0", "gpu:0", "link:0")
    resources = {rid: SimResource(sim, rid) for rid in rids}
    lanes = {
        rid: trace.lane(rid, "compute", "{}[{}:{})#{}", device_kind="cpu")
        for rid in rids
    }
    issued = []
    max_queued = 0

    def issue(rid):
        nonlocal max_queued
        i = len(issued)
        issued.append(rid)
        follow = None
        if i < 150 and rng.random() < 0.5:
            follow = (issue, rids[int(rng.integers(len(rids)))])
        resources[rid].occupy(
            float(rng.uniform(0.0, 2.0)),
            lane=lanes[rid], on_complete=follow,
            args=(rid, i, i + 1, i), size=i + 1,
            kernel=KERNELS[i % 3],
            meta={"size": i + 1, "kernel": KERNELS[i % 3], "idx": i},
        )
        max_queued = max(max_queued, resources[rid].queued)

    for _ in range(40):
        t = float(rng.uniform(0.0, 10.0))
        burst = [rids[int(rng.integers(len(rids)))]
                 for _ in range(int(rng.integers(1, 4)))]
        sim.at(t, lambda burst=burst: [issue(rid) for rid in burst])
    now = sim.run()
    assert max_queued > 1  # work really queued behind busy resources
    assert len(trace) == len(issued)
    return pickle.dumps(trace, 5), now


class TestLanedOccupations:
    @pytest.mark.parametrize("seed", range(3))
    def test_cross_engine_byte_parity(self, seed):
        fast_blob, fast_now = _laned_run(FastSimulator, seed)
        oracle_blob, oracle_now = _laned_run(Simulator, seed)
        assert fast_blob == oracle_blob
        assert fast_now == oracle_now


#: sha256 over every full-detail row's ``row_key`` of two runs, as
#: ``TraceStore.records`` reads them; (app, strategy, preset, n,
#: iterations, sync) -> (rows, digest)
RECORD_VIEW_PINS = {
    ("HotSpot", "SP-Single", "shen", 1024, 2, True): (
        32, "834af25975a37a8ed2eb327893de3497e8b2dbc9c80ef5655bd5f442bfceee86",
    ),
    ("FDTD", "DP-Perf", "dual-gpu", 256, 2, None): (
        131, "daf30de867f0c44ee3c87cd8ebecf42063ef068383c28d9914e0f7fb67cbfc73",
    ),
}


class TestRecordViewPins:
    """The full-detail record view of two runs, pinned row for row."""

    @pytest.mark.parametrize("case", list(RECORD_VIEW_PINS),
                             ids=lambda case: case[0])
    def test_full_detail_records_digest(self, case):
        import hashlib

        from repro.apps import get_application
        from repro.partition import get_strategy
        from repro.platform.presets import (
            dual_gpu_platform,
            shen_icpp15_platform,
        )

        app, strategy, preset, n, iterations, sync = case
        platform = {"shen": shen_icpp15_platform,
                    "dual-gpu": dual_gpu_platform}[preset]()
        application = get_application(app)
        program = application.program(
            n, iterations=iterations,
            sync=application.needs_sync if sync is None else sync,
        )
        artifact = get_strategy(strategy).run(program, platform,
                                              detail="full")
        digest = hashlib.sha256()
        records = artifact.trace.records
        for record in records:
            digest.update(repr(row_key(record)).encode())
        assert (len(records), digest.hexdigest()) == RECORD_VIEW_PINS[case]
