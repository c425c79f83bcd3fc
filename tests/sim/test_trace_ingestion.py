"""Differential tests of the staged trace-ingestion path.

:class:`TraceLane` staging exists purely for speed: it must be
observationally identical to row-at-a-time ``record()`` — same pickle
bytes for grouped streams, same ``analyze_trace`` output, same labels
and metadata — for randomized occupation streams.
``SimResource.occupy(..., lane=...)`` must additionally write
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
from repro.sim.trace import ExecutionTrace
from repro.sim.tracestore import TraceStore

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


class TestLaneParity:
    def test_grouped_streams_pickle_identical_to_record(self):
        """Lane ingestion == record() when rows arrive stream-grouped.

        Same rows, same order, full hot-metadata agreement: the staged
        path must produce byte-identical pickles, intern pools included.
        """
        runs = _random_runs(3, runs=6)
        recorded, laned = TraceStore(), TraceStore()
        for run_no, (rid, category, starts, ends) in enumerate(runs):
            kind = KINDS[run_no % 2]
            lane = laned.lane(
                rid, category, "{}#{}", device_kind=kind, device=rid,
            )
            # the record() side interns lane constants at first row; the
            # lane side at creation — grouped appends make the pool
            # first-appearance orders coincide
            for i, (s, e) in enumerate(zip(starts, ends)):
                meta = {
                    "size": i + 1, "device_kind": kind,
                    "kernel": KERNELS[i % 3], "device": rid,
                }
                recorded.record(rid, ("{}#{}", rid, i), category, s, e, meta)
                lane.append(
                    s, e, (rid, i),
                    size=i + 1, kernel=KERNELS[i % 3], meta=dict(meta),
                )
        assert pickle.dumps(recorded, 5) == pickle.dumps(laned, 5)

    def test_interleaved_streams_match_analytics(self):
        """Interleaved lane appends regroup rows but keep every query.

        Row order differs from chronological record() ingestion (staged
        rows land grouped by lane), so pickles legitimately differ; all
        aggregates, labels and metadata must not.
        """
        rng = np.random.default_rng(7)
        recorded, laned = TraceStore(), TraceStore()
        lanes = {
            rid: laned.lane(rid, "compute", "{} {}", device_kind="cpu")
            for rid in ("a", "b", "c")
        }
        rows = []
        t = 0.0
        for i in range(120):
            rid = ("a", "b", "c")[int(rng.integers(3))]
            dur = float(rng.uniform(0.0, 1.0))
            rows.append((rid, t, t + dur, i))
            t += dur
        for rid, s, e, i in rows:
            meta = {"size": i, "device_kind": "cpu", "idx": i}
            recorded.record(rid, ("{} {}", rid, i), "compute", s, e, meta)
            lanes[rid].append(s, e, (rid, i), size=i, meta=dict(meta))
        a, b = ExecutionTrace(recorded), ExecutionTrace(laned)
        assert analyze_trace(a) == analyze_trace(b)
        assert recorded.makespan() == laned.makespan()
        for rid in ("a", "b", "c"):
            assert recorded.busy_time(rid) == laned.busy_time(rid)
            assert (
                [recorded.label_at(r) for r in recorded.rows_by_resource(rid)]
                == [laned.label_at(r) for r in laned.rows_by_resource(rid)]
            )
            assert (
                [recorded.meta_at(r) for r in recorded.rows_by_resource(rid)]
                == [laned.meta_at(r) for r in laned.rows_by_resource(rid)]
            )

    def test_staged_rows_flush_on_any_read(self):
        store = TraceStore()
        lane = store.lane("r", "compute", "x {}")
        lane.append(0.0, 1.0, (1,))
        lane.append(1.0, 3.0, (2,))
        assert store.staged_rows() == 2
        assert len(store) == 2  # __len__ flushes
        assert store.staged_rows() == 0
        assert store.label_at(1) == "x 2"
        assert store.makespan() == 3.0
        # lanes stay usable after a flush
        lane.append(3.0, 4.0, (3,))
        assert store.makespan() == 4.0


class TestMetaOwnership:
    def test_shared_dict_defensively_copied_by_default(self):
        store = TraceStore()
        shared = {"size": 1, "device_kind": "cpu"}
        store.record("r", "x", "compute", 0.0, 1.0, shared)
        shared["size"] = 999
        shared["injected"] = True
        assert store.meta_at(0) == {"size": 1, "device_kind": "cpu"}


def _laned_run(engine_cls, seed: int):
    """Randomized per-event lane occupations on three busy resources.

    Bursts land on resources that are still busy, so occupations queue
    and the fast engine's inline completion loop writes their lane rows;
    completions chain follow-up work from inside that loop.  Returns the
    trace pickle and the final clock.
    """
    rng = np.random.default_rng(seed)
    trace = ExecutionTrace()
    sim = engine_cls()
    rids = ("cpu:0", "gpu:0", "link:0")
    resources = {rid: SimResource(sim, rid, trace) for rid in rids}
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
            label="", category="compute", on_complete=follow,
            lane=lanes[rid], args=(rid, i, i + 1, i), size=i + 1,
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
