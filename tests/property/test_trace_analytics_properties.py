"""Property-based differential tests of the trace analytics paths.

Hypothesis generates arbitrary row mixes — duplicated and tied
timestamps, zero-length intervals, rows with and without hot metadata,
device tags aliasing resource ids — and every aggregate must be
bit-identical (``==``, never approx) to a naive scan of the same rows
held as records, the oracle of ``tests/sim/trace_oracle.py``, along two
routes:

* the store's queries and the trace analysis over the staged rows,
* the production fold: the same rows fed through
  :meth:`~repro.sim.tracestore.TraceStore.lane`, several lanes per
  resource and per transfer direction, merged by
  :meth:`TraceSummary.from_lanes`.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.artifact import TraceSummary
from repro.sim.analysis import analyze_trace
from repro.sim.tracestore import TraceStore
from tests.sim.trace_oracle import (
    TraceOracle,
    row_key,
    stage,
    staged_order,
    summary_of,
)

RESOURCES = ("cpu:0", "gpu:0", "link:h2d", "dev")
CATEGORIES = ("compute", "transfer", "overhead")


def _row(draw):
    category = draw(st.sampled_from(CATEGORIES))
    # a few fixed starts make tied timestamps common
    start = draw(st.one_of(
        st.sampled_from((0.0, 1.0, 2.5)),
        st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False),
    ))
    # durations include exactly 0 so intervals can tie and touch
    duration = draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0)))
    meta = {}
    if category == "compute" and draw(st.booleans()):
        meta = {
            "size": draw(st.integers(0, 1 << 40)),
            "device_kind": draw(st.sampled_from(("cpu", "gpu"))),
            "kernel": draw(st.sampled_from(("copy", "triad"))),
        }
        if draw(st.booleans()):
            # device tags deliberately collide with bare resource ids
            meta["device"] = draw(st.sampled_from(("dev", "cpu:0", "gpuX")))
    elif category == "transfer" and draw(st.booleans()):
        meta = {"direction": draw(st.sampled_from(("h2d", "d2h")))}
    return (
        draw(st.sampled_from(RESOURCES)), category, start, start + duration, meta
    )


@st.composite
def traces(draw):
    """Rows staged through lanes, and the oracle holding them in the
    store's row order."""
    rows = []
    for i in range(draw(st.integers(0, 60))):
        rid, cat, start, end, meta = _row(draw)
        rows.append((rid, cat, "t{}", (i,), start, end, meta))
    return stage(rows), TraceOracle(staged_order(rows))


@st.composite
def laned_rows(draw):
    """Rows plus a lane slot each: rows of one stream sharing a slot share
    a lane, so a stream (and a transfer direction) spreads over several."""
    return [
        (*_row(draw), draw(st.integers(0, 1)))
        for _ in range(draw(st.integers(0, 60)))
    ]


def assert_aggregates_match(store, oracle):
    assert [row_key(r) for r in store.records] == [
        row_key(r) for r in oracle.records
    ]
    assert {
        rid: store.busy_time(rid) for rid in store.resource_ids_seen()
    } == {rid: oracle.busy_time(rid) for rid in oracle.resource_ids_seen()}
    assert store.busy_by_resource() == oracle.busy_by_resource()
    assert store.elements_by_device() == oracle.elements_by_device()
    assert store.elements_by_device(key="device") == (
        oracle.elements_by_device(key="device")
    )
    assert analyze_trace(store).overlap_fraction == oracle.overlap_fraction()


@settings(max_examples=150, deadline=None)
@given(traces())
def test_python_path_matches_record_scan(trace):
    store, oracle = trace
    assert_aggregates_match(store, oracle)


@settings(max_examples=150, deadline=None)
@given(laned_rows())
def test_lane_fold_matches_store_and_record_scan(rows):
    store = TraceStore()
    lanes = {}
    # the flushed store holds each lane's rows as one block, lanes in
    # registration order; the oracle holds them in that order too
    blocks: dict[tuple, list[tuple]] = {}
    for i, (rid, cat, start, end, meta, slot) in enumerate(rows):
        key = (rid, cat, meta.get("device_kind"), meta.get("device"),
               meta.get("direction"), slot)
        lane = lanes.get(key)
        if lane is None:
            consts = {k: meta[k] for k in ("device_kind", "device",
                                           "direction") if k in meta}
            lane = lanes[key] = store.lane(rid, cat, "t{}", **consts)
        lane.append(start, end, (i,), meta.get("size", -1),
                    meta.get("kernel"), dict(meta) if meta else None)
        blocks.setdefault(key, []).append(
            (rid, cat, "t{}", (i,), start, end, meta)
        )
    oracle = TraceOracle(row for block in blocks.values() for row in block)
    # folded before anything reads (and so flushes) the store
    folded = TraceSummary.from_lanes(lanes.values())
    stored = summary_of(store)
    assert folded == stored
    assert pickle.dumps(folded, 5) == pickle.dumps(stored, 5)

    assert_aggregates_match(store, oracle)
    assert folded.record_count == len(oracle) == len(rows)
    assert folded.trace_makespan_s == oracle.makespan()
    assert folded.busy_by_resource == oracle.busy_by_resource()
    assert folded.transfer_time_s == oracle.transfer_time_by_direction()
    assert folded.elements_by_device == oracle.elements_by_device()
    assert folded.instances_by_device == oracle.instance_count_by_device()
    assert folded.ratio_by_kernel == oracle.ratio_by_kernel()
    # the trace analysis reads the laned store like any other
    stats = analyze_trace(store)
    for rid, per_cat in oracle.busy_by_resource().items():
        assert stats.resource(rid).busy_s == oracle.busy_time(rid)
        assert stats.resource(rid).by_category == per_cat


@settings(max_examples=60, deadline=None)
@given(traces())
def test_makespan_and_pickle_stability(trace):
    store, oracle = trace
    assert store.makespan() == oracle.makespan()
    clone = pickle.loads(pickle.dumps(store))
    assert clone.makespan() == store.makespan()
    assert clone.busy_by_resource() == store.busy_by_resource()
    assert [row_key(r) for r in clone.records] == [
        row_key(r) for r in oracle.records
    ]
