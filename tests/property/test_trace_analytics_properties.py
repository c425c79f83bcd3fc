"""Property-based differential tests of the trace analytics paths.

Hypothesis generates arbitrary row mixes — duplicated timestamps,
zero-length intervals, rows with and without hot metadata, device tags
aliasing resource ids — and every aggregate the store answers must be
bit-identical (``==``, never approx) across three routes:

* the array-backed column scan (the pure-Python fallback),
* the forced numpy :class:`~repro.sim._vec.VecView`,
* a naive re-scan of the materialized :class:`TraceRecord` rows (the
  pre-columnar oracle).
"""

import os
from contextlib import contextmanager
from unittest import mock

import pytest

pytest.importorskip("numpy")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import _vec
from repro.sim.analysis import analyze_trace, compute_overlap_fraction
from repro.sim.trace import ExecutionTrace

RESOURCES = ("cpu:0", "gpu:0", "link:h2d", "dev")


def scalar_path():
    """Force the pure-Python path inside the block, then restore the
    toggle to whatever it was (a whole run may hold it set)."""
    return mock.patch.dict(os.environ, {"REPRO_NO_NUMPY": "1"})


@contextmanager
def numpy_path():
    """Unset the toggle inside the block, then restore it."""
    with mock.patch.dict(os.environ):
        os.environ.pop("REPRO_NO_NUMPY", None)
        yield
CATEGORIES = ("compute", "transfer", "overhead")


def _row(draw):
    category = draw(st.sampled_from(CATEGORIES))
    start = draw(st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False))
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
    with scalar_path():
        assert {
            rid: store.busy_time(rid) for rid in store.resource_ids_seen()
        } == oracle["busy"]
        assert store.busy_by_resource() == oracle["by_resource"]
        assert store.transfer_time_by_direction() == oracle["transfer"]
        assert store.elements_by_device() == oracle["elements"]
        assert store.ratio_by_kernel() == oracle["ratio"]


@settings(max_examples=150, deadline=None)
@given(traces())
def test_vec_path_matches_python_path(trace):
    store = trace.store
    with scalar_path():
        python = {
            "busy": {
                rid: store.busy_time(rid) for rid in store.resource_ids_seen()
            },
            "by_resource": store.busy_by_resource(),
            "transfer": store.transfer_time_by_direction(),
            "elements": store.elements_by_device(),
            "instances": store.instance_count_by_device(),
            "ratio": store.ratio_by_kernel(),
            "overlap": compute_overlap_fraction(store),
            "stats": analyze_trace(store),
        }

    with numpy_path():
        vec = store.vec_view(force=True)
        assert vec is not None
        assert {
            rid: vec.busy_time(rid) for rid in store.resource_ids_seen()
        } == python["busy"]
        assert vec.busy_by_resource() == python["by_resource"]
        assert vec.transfer_time_by_direction() == python["transfer"]
        assert vec.elements_by_kind("compute") == python["elements"]
        assert vec.instance_count_by_kind() == python["instances"]
        assert vec.ratio_by_kernel("compute") == python["ratio"]

        # route analyze/overlap through the view regardless of store size
        old_min = _vec.VEC_MIN_ROWS
        _vec.VEC_MIN_ROWS = 0
        try:
            assert compute_overlap_fraction(store) == python["overlap"]
            assert analyze_trace(store) == python["stats"]
        finally:
            _vec.VEC_MIN_ROWS = old_min


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
