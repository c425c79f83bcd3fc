"""Property-based differential tests of the trace analytics paths.

Hypothesis generates arbitrary row mixes — duplicated and tied
timestamps, zero-length intervals, rows with and without hot metadata,
device tags aliasing resource ids — and every aggregate must be
bit-identical (``==``, never approx) across three routes:

* the store's array-backed column scans (:meth:`TraceSummary.from_store`),
* the production fold: the same rows fed through
  :meth:`~repro.sim.tracestore.TraceStore.lane`, several lanes per
  resource and per transfer direction, merged by
  :meth:`TraceSummary.from_lanes`,
* a naive re-scan of the materialized :class:`TraceRecord` rows (the
  pre-columnar oracle).
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.artifact import TraceSummary
from repro.sim.analysis import analyze_trace
from repro.sim.trace import ExecutionTrace
from repro.sim.tracestore import TraceStore

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
    trace = ExecutionTrace()
    for i in range(draw(st.integers(0, 60))):
        rid, cat, start, end, meta = _row(draw)
        trace.record(rid, f"t{i}", cat, start, end, meta)
    return trace


@st.composite
def laned_rows(draw):
    """Rows plus a lane slot each: rows of one stream sharing a slot share
    a lane, so a stream (and a transfer direction) spreads over several."""
    return [
        (*_row(draw), draw(st.integers(0, 1)))
        for _ in range(draw(st.integers(0, 60)))
    ]


def record_scan_aggregates(records):
    """The pre-columnar oracle: one pass per aggregate over the records."""
    busy = {}
    by_resource = {}
    transfer = {"h2d": 0.0, "d2h": 0.0}
    elements = {}
    ratio = {}
    for r in records:
        busy[r.resource_id] = busy.get(r.resource_id, 0.0) + r.duration
        per = by_resource.setdefault(r.resource_id, {})
        per[r.category] = per.get(r.category, 0.0) + r.duration
        if r.category == "transfer":
            direction = r.meta.get("direction")
            if direction in transfer:
                transfer[direction] += r.duration
        if r.category == "compute":
            kind, size = r.meta.get("device_kind"), r.meta.get("size")
            kernel = r.meta.get("kernel")
            if kind is not None and size is not None:
                elements[str(kind)] = elements.get(str(kind), 0) + int(size)
                if kernel is not None:
                    per_k = ratio.setdefault(str(kernel), {})
                    per_k[str(kind)] = per_k.get(str(kind), 0) + int(size)
    return {
        "busy": busy,
        "by_resource": by_resource,
        "transfer": transfer,
        "elements": elements,
        "ratio": ratio,
    }


@settings(max_examples=150, deadline=None)
@given(traces())
def test_python_path_matches_record_scan(trace):
    store = trace.store
    records = list(trace)
    oracle = record_scan_aggregates(records)
    assert {
        rid: store.busy_time(rid) for rid in store.resource_ids_seen()
    } == oracle["busy"]
    assert store.busy_by_resource() == oracle["by_resource"]
    assert store.transfer_time_by_direction() == oracle["transfer"]
    assert store.elements_by_device() == oracle["elements"]
    assert store.ratio_by_kernel() == oracle["ratio"]


@settings(max_examples=150, deadline=None)
@given(laned_rows())
def test_lane_fold_matches_store_and_record_scan(rows):
    store = TraceStore()
    lanes = {}
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
    # folded before anything reads (and so flushes) the store
    folded = TraceSummary.from_lanes(lanes.values())
    stored = TraceSummary.from_store(store)
    assert folded == stored
    assert pickle.dumps(folded, 5) == pickle.dumps(stored, 5)

    # the flushed store holds each lane's rows as one block; the oracle
    # scans them in that order
    records = list(ExecutionTrace(store))
    oracle = record_scan_aggregates(records)
    instances = {}
    for r in records:
        kind = r.meta.get("device_kind")
        if r.category == "compute" and kind is not None:
            instances[kind] = instances.get(kind, 0) + 1
    assert folded.record_count == len(records) == len(rows)
    assert folded.trace_makespan_s == max(
        (r.end for r in records), default=0.0
    )
    assert folded.busy_by_resource == oracle["by_resource"]
    assert folded.transfer_time_s == oracle["transfer"]
    assert folded.elements_by_device == oracle["elements"]
    assert folded.instances_by_device == instances
    assert folded.ratio_by_kernel == oracle["ratio"]
    # the trace analysis reads the laned store like any other
    stats = analyze_trace(store)
    for rid, busy in oracle["busy"].items():
        assert stats.resource(rid).busy_s == busy
        assert stats.resource(rid).by_category == oracle["by_resource"][rid]


@settings(max_examples=60, deadline=None)
@given(traces())
def test_makespan_and_pickle_stability(trace):
    import pickle

    store = trace.store
    records = list(trace)
    expected = max((r.end for r in records), default=0.0)
    assert store.makespan() == expected
    clone = pickle.loads(pickle.dumps(store))
    assert clone.makespan() == store.makespan()
    assert clone.busy_by_resource() == store.busy_by_resource()
