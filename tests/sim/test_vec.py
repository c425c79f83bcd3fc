"""Vectorized analytics vs the pure-Python column scans, bit for bit.

``repro.sim._vec`` promises that every float the numpy view computes is
bit-identical to the pure-Python fallback, because downstream reports
must not depend on whether numpy is installed.  These tests force both
paths on the same stores — ``vec_view(force=True)`` for the vectorized
side, ``REPRO_NO_NUMPY`` for the scalar side — and demand ``==``, never
approx.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.sim import _vec
from repro.sim.analysis import analyze_trace, compute_overlap_fraction
from repro.sim.tracestore import TraceStore

from tests.sim.test_tracestore import random_trace


@pytest.fixture(autouse=True)
def numpy_path(monkeypatch):
    """Start every test on the numpy path, even in a run that holds
    ``REPRO_NO_NUMPY`` set; tests set it themselves for the scalar side."""
    monkeypatch.delenv("REPRO_NO_NUMPY", raising=False)


@pytest.fixture
def no_numpy_env(monkeypatch):
    """Force the pure-Python path for code under this fixture."""
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")


def force_vec(store):
    view = store.vec_view(force=True)
    assert view is not None, "vec view must build when numpy is available"
    return view


def python_aggregates(store, monkeypatch):
    """Every public aggregate, computed on the scalar path."""
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    try:
        return {
            "busy": {
                rid: store.busy_time(rid) for rid in store.resource_ids_seen()
            },
            "busy_compute": {
                rid: store.busy_time(rid, category="compute")
                for rid in store.resource_ids_seen()
            },
            "total": {
                cat: store.total_time(category=cat)
                for cat in store.categories_seen()
            },
            "by_resource": store.busy_by_resource(),
            "transfer": store.transfer_time_by_direction(),
            "elements": store.elements_by_device(),
            "instances": store.instance_count_by_device(),
            "ratio": store.ratio_by_kernel(),
        }
    finally:
        monkeypatch.delenv("REPRO_NO_NUMPY")


@pytest.mark.parametrize("seed", range(10))
class TestVecMatchesPython:
    def test_aggregates_bit_identical(self, seed, monkeypatch):
        store = random_trace(seed).store
        oracle = python_aggregates(store, monkeypatch)
        vec = force_vec(store)
        assert {r: vec.busy_time(r) for r in store.resource_ids_seen()} == oracle["busy"]
        assert {
            r: vec.busy_time(r, "compute") for r in store.resource_ids_seen()
        } == oracle["busy_compute"]
        assert {
            c: vec.total_time(c) for c in store.categories_seen()
        } == oracle["total"]
        assert vec.busy_by_resource() == oracle["by_resource"]
        assert vec.transfer_time_by_direction() == oracle["transfer"]
        assert vec.elements_by_kind("compute") == oracle["elements"]
        assert vec.instance_count_by_kind() == oracle["instances"]
        assert vec.ratio_by_kernel("compute") == oracle["ratio"]

    def test_store_queries_route_identically(self, seed, monkeypatch):
        """The store's own query methods agree across both routes."""
        store = random_trace(seed).store
        oracle = python_aggregates(store, monkeypatch)
        monkeypatch.setattr(_vec, "VEC_MIN_ROWS", 1)  # route via the view
        assert {
            r: store.busy_time(r) for r in store.resource_ids_seen()
        } == oracle["busy"]
        assert store.busy_by_resource() == oracle["by_resource"]
        assert store.transfer_time_by_direction() == oracle["transfer"]
        assert store.elements_by_device() == oracle["elements"]
        assert store.instance_count_by_device() == oracle["instances"]
        assert store.ratio_by_kernel() == oracle["ratio"]

    def test_analysis_bit_identical(self, seed, monkeypatch):
        store = random_trace(seed, n=700).store
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        overlap_py = compute_overlap_fraction(store)
        stats_py = analyze_trace(store)
        monkeypatch.delenv("REPRO_NO_NUMPY")
        assert store.vec_view() is not None  # 700 rows >= VEC_MIN_ROWS
        assert compute_overlap_fraction(store) == overlap_py
        assert analyze_trace(store) == stats_py


class TestEdgeCases:
    def test_empty_store(self):
        store = TraceStore()
        assert store.vec_view(force=True) is not None or not _vec.enabled()
        vec = force_vec(store)
        assert vec.busy_by_resource() == {}
        assert vec.transfer_time_by_direction() == {"h2d": 0.0, "d2h": 0.0}
        assert vec.elements_by_kind("compute") == {}
        assert vec.ratio_by_kernel("compute") == {}
        assert compute_overlap_fraction(store) == 0.0

    def test_single_row(self):
        store = TraceStore()
        store.record("a", "t", "compute", 0.5, 1.5, {"size": 3, "device_kind": "cpu"})
        vec = force_vec(store)
        assert vec.busy_time("a") == store.busy_time("a") == 1.0
        assert vec.elements_by_kind("compute") == {"cpu": 3}
        assert compute_overlap_fraction(store) == 0.0  # one device only

    def test_zero_duration_rows(self, monkeypatch):
        store = TraceStore()
        store.record("a", "t", "compute", 1.0, 1.0, {"device": "d0"})
        store.record("b", "t", "compute", 1.0, 1.0, {"device": "d1"})
        store.record("a", "t", "compute", 1.0, 2.0, {"device": "d0"})
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        overlap_py = compute_overlap_fraction(store)
        monkeypatch.delenv("REPRO_NO_NUMPY")
        vec = force_vec(store)
        assert vec.overlap_seconds(vec.compute_device_intervals()) / store.makespan() == overlap_py

    def test_tied_timestamps(self, monkeypatch):
        """Identical starts and touching intervals: tie-break must match."""
        store = TraceStore()
        rows = [
            ("x", 0.0, 2.0, "d0"), ("y", 0.0, 2.0, "d1"),
            ("x", 2.0, 3.0, "d0"), ("y", 2.0, 3.0, "d1"),
            ("x", 3.0, 3.0, "d0"), ("y", 3.0, 4.0, "d1"),
        ]
        for rid, start, end, device in rows:
            store.record(rid, "t", "compute", start, end, {"device": device})
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        overlap_py = compute_overlap_fraction(store)
        stats_py = analyze_trace(store)
        monkeypatch.delenv("REPRO_NO_NUMPY")
        monkeypatch.setattr(_vec, "VEC_MIN_ROWS", 1)
        assert compute_overlap_fraction(store) == overlap_py
        assert analyze_trace(store) == stats_py

    def test_device_tag_and_resource_id_share_a_group(self, monkeypatch):
        """A device string reached via meta and via resource id is one group."""
        store = TraceStore()
        store.record("gpu:0", "t", "compute", 0.0, 1.0, {"device": "cpu:0"})
        store.record("cpu:0", "t", "compute", 0.0, 1.0)  # no device meta
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        overlap_py = compute_overlap_fraction(store)
        monkeypatch.delenv("REPRO_NO_NUMPY")
        assert overlap_py == 0.0  # both rows belong to group "cpu:0"
        vec = force_vec(store)
        assert vec.compute_device_intervals() is None
        monkeypatch.setattr(_vec, "VEC_MIN_ROWS", 1)
        assert compute_overlap_fraction(store) == overlap_py


class TestGating:
    def test_env_gate_disables_view(self, no_numpy_env):
        store = random_trace(0, n=600).store
        assert not _vec.enabled()
        assert store.vec_view() is None
        assert store.vec_view(force=True) is None

    def test_small_stores_stay_scalar(self):
        store = random_trace(0, n=20).store
        assert store.vec_view() is None  # under VEC_MIN_ROWS
        assert store.vec_view(force=True) is not None

    def test_view_invalidated_by_append(self):
        store = random_trace(0, n=30).store
        first = store.vec_view(force=True)
        assert store.vec_view(force=True) is first  # cached per row count
        store.record("new", "t", "compute", 0.0, 1.0)
        second = store.vec_view(force=True)
        assert second is not first
        assert second.n == len(store)
