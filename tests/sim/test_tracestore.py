"""Columnar TraceStore vs the record-scan oracle.

These tests stage generated rows through trace lanes and compare the
store's rows and queries, and the lanes' folded summary, with a naive
scan over the same rows held as records (``tests/sim/trace_oracle.py``),
demanding *equality* — not approx — because both promise bit-identical
accumulation order, and downstream reports rely on it for byte-identical
figure/table numbers.
"""

import pickle

import numpy as np
import pytest

from repro.artifact import TraceSummary
from repro.sim.tracestore import TraceLane, TraceStore
from tests.sim.trace_oracle import (
    TraceOracle,
    row_key,
    stage,
    staged_order,
    summary_of,
)

CATEGORIES = ("compute", "transfer", "overhead")
KINDS = ("cpu", "gpu")
KERNELS = ("copy", "scale", "triad")


def random_rows(seed: int, n: int = 400) -> list[tuple]:
    """Generated oracle rows mixing compute/transfer/overhead."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        category = CATEGORIES[int(rng.integers(len(CATEGORIES)))]
        start = float(rng.uniform(0.0, 50.0))
        end = start + float(rng.uniform(1e-6, 3.0))
        resource = f"{KINDS[int(rng.integers(2))]}:{int(rng.integers(3))}"
        meta = {}
        if category == "compute":
            meta = {
                "size": int(rng.integers(1, 10_000)),
                "device_kind": KINDS[int(rng.integers(2))],
                "kernel": KERNELS[int(rng.integers(3))],
            }
        elif category == "transfer":
            meta = {"direction": ("h2d", "d2h")[int(rng.integers(2))]}
        if rng.random() < 0.1:
            meta = {}  # some rows carry no metadata at all
        rows.append((resource, category, "t{}", (i,), start, end, meta))
    return rows


def random_trace(seed: int, n: int = 400) -> tuple[TraceStore, TraceOracle]:
    """The generated rows staged through lanes, and their oracle (which
    holds them in the order the store does)."""
    rows = random_rows(seed, n)
    return stage(rows), TraceOracle(staged_order(rows))


def random_fold(seed: int, n: int = 400) -> tuple[TraceSummary, TraceStore]:
    """The generated rows' lane fold (taken before any read flushes the
    lanes), and the store the lanes staged them into."""
    lanes: dict = {}
    store = stage(random_rows(seed, n), lanes=lanes)
    return TraceSummary.from_lanes(lanes.values()), store


@pytest.mark.parametrize("seed", range(20))
class TestStoreMatchesRecordScans:
    def test_group_queries(self, seed):
        store, oracle = random_trace(seed)
        records = [row_key(r) for r in store.records]
        assert records == [row_key(r) for r in oracle.records]
        assert store.resource_ids_seen() == oracle.resource_ids_seen()
        for rid in store.resource_ids_seen():
            assert [records[i] for i in store.rows_by_resource(rid)] == [
                row_key(r) for r in oracle.by_resource(rid)
            ]
            assert [row_key(r) for r in store.by_resource(rid)] == [
                row_key(r) for r in oracle.by_resource(rid)
            ]
        for cat in oracle.categories_seen():
            assert [records[i] for i in store.rows_by_category(cat)] == [
                row_key(r) for r in oracle.by_category(cat)
            ]
            assert [row_key(r) for r in store.by_category(cat)] == [
                row_key(r) for r in oracle.by_category(cat)
            ]

    def test_aggregates_bit_identical(self, seed):
        store, oracle = random_trace(seed)
        assert store.makespan() == oracle.makespan()
        for rid in store.resource_ids_seen():
            assert store.busy_time(rid) == oracle.busy_time(rid)
        assert store.elements_by_device() == oracle.elements_by_device()
        folded, store = random_fold(seed)
        assert folded == summary_of(store)
        assert pickle.dumps(folded, 5) == pickle.dumps(summary_of(store), 5)

    def test_transfer_time_by_direction(self, seed):
        # the summary's per-direction link time comes from the lanes'
        # fold alone; the oracle scans the staged transfer rows
        folded, store = random_fold(seed)
        _, oracle = random_trace(seed)
        assert list(folded.transfer_time_s) == ["h2d", "d2h"]
        assert folded.transfer_time_s == oracle.transfer_time_by_direction()

    def test_busy_by_resource(self, seed):
        store, oracle = random_trace(seed)
        got = store.busy_by_resource()
        assert got == oracle.busy_by_resource()
        for rid, per_cat in got.items():
            for cat, seconds in per_cat.items():
                assert seconds == oracle.busy_time(rid, category=cat)


class TestIncrementalIndexes:
    def test_queries_interleaved_with_appends(self):
        store = TraceStore()
        a_compute = store.lane("a", "compute", "t0")
        a_compute.append(0.0, 1.0)
        assert store.rows_by_resource("a") == [0]
        store.lane("b", "compute", "t1").append(1.0, 2.0)
        store.lane("a", "transfer", "t2").append(2.0, 3.0)
        # the index extends over the new rows instead of rescanning
        assert store.rows_by_resource("a") == [0, 2]
        assert store.rows_by_category("compute") == [0, 1]
        assert store.resource_ids_seen() == ["a", "b"]
        # a flushed lane keeps staging; its next row lands after the rest
        a_compute.append(3.0, 4.0)
        assert store.rows_by_resource("a") == [0, 2, 3]

    def test_meta_side_table(self):
        store = TraceStore()
        lane = store.lane("a", "compute", "t{}")
        lane.append(0.0, 1.0, (0,), size=5, meta={"size": 5})
        lane.append(1.0, 2.0, (1,))
        assert [r.meta for r in store.records] == [{"size": 5}, {}]
        assert store.metas == [{"size": 5}]  # no dict per meta-less row


class TestArrayColumns:
    """The array('d')/array('q')/code-column representation itself."""

    def test_numeric_columns_are_arrays(self):
        import array

        store, _ = random_trace(0, n=30)
        assert isinstance(store.starts, array.array)
        assert store.starts.typecode == "d"
        assert isinstance(store.ends, array.array)
        assert store.ends.typecode == "d"
        assert store.meta_idx.typecode == "q"
        for name in (
            "resource_codes", "category_codes", "label_tmpl_codes",
            "label_arg_strs", "device_codes",
        ):
            col = getattr(store, name)
            assert isinstance(col, array.array) and col.typecode == "i", name

    def test_string_columns_are_interned_codes(self):
        store = TraceStore()
        a_lane = store.lane("a", "compute", "t{}")
        a_lane.append(0.0, 1.0, (0,))
        store.lane("b", "transfer", "t{}").append(1.0, 2.0, (1,))
        a_lane.append(2.0, 3.0, (2,))
        store.lane("a", "compute", "t{}").append(3.0, 4.0, (3,))
        # any read flushes the lanes; rows land lane by lane: a's two
        # rows, then b's, then the second a lane's
        assert len(store) == 4
        # same string -> same small-int code over a side table
        assert list(store.resource_codes) == [0, 0, 1, 0]
        assert store.resource_pool.table == ["a", "b"]
        assert list(store.category_codes) == [0, 0, 1, 0]
        assert store.category_pool.table == ["compute", "transfer"]
        assert list(store.label_tmpl_codes) == [0, 0, 0, 0]
        assert [r.resource_id for r in store.records] == [
            "a", "a", "b", "a"
        ]
        assert [store.label_at(i) for i in range(4)] == [
            "t0", "t2", "t1", "t3"
        ]

    def test_device_key_falls_back_to_resource_id(self):
        store = TraceStore()
        store.lane("gpu:0", "compute", "t", device="dev").append(
            0.0, 1.0, meta={"device": "dev"}
        )
        store.lane("cpu:0", "compute", "t").append(0.0, 1.0)
        assert store.device_key_at(0) == "dev"
        assert store.device_key_at(1) == "cpu:0"

    def test_bare_store_pickle_round_trip(self):
        store, _ = random_trace(7, n=60)
        store.rows_by_resource(store.resource_ids_seen()[0])  # warm indexes
        clone = pickle.loads(pickle.dumps(store))
        assert list(clone.starts) == list(store.starts)
        assert clone.resource_pool.table == store.resource_pool.table
        assert clone.makespan() == store.makespan()
        assert clone.busy_by_resource() == store.busy_by_resource()
        # appending after unpickling keeps columns and indexes coherent
        clone.lane("fresh", "compute", "t").append(100.0, 101.0)
        assert clone.rows_by_resource("fresh") == [len(store)]

    def test_column_nbytes_tracks_growth(self):
        small, _ = random_trace(1, n=10)
        big, _ = random_trace(1, n=200)
        assert 0 < small.column_nbytes() < big.column_nbytes()


class TestLazyLabels:
    """Labels stay unformatted until someone reads the row."""

    def test_packed_label_formats_like_str_format(self):
        store = TraceStore()
        store.lane("gpu:0", "compute", "{}[{}:{})#{}").append(
            0.0, 1.0, ("triad", 0, 512, 7)
        )
        store.lane("cpu:0", "overhead", "taskwait#{}").append(1.0, 2.0, (9,))
        assert store.label_at(0) == "triad[0:512)#7"
        assert store.label_at(1) == "taskwait#9"
        # no formatted string is kept: templates and arguments only
        assert store.label_tmpl_pool.table == [
            "{}[{}:{})#{}", "taskwait#{}"
        ]
        assert store.label_arg_pool.table == ["triad"]

    def test_templates_and_str_args_are_shared(self):
        store = TraceStore()
        lane = store.lane("gpu:0", "transfer", "{}[{}:{}) h2d")
        for i in range(50):
            lane.append(float(i), float(i) + 0.5, ("A", i, i + 1))
        # one template entry, one string-arg entry, 50 packed rows
        assert len(store.label_tmpl_pool.table) == 1
        assert store.label_arg_pool.table == ["A"]
        assert store.label_at(49) == "A[49:50) h2d"

    def test_mixed_eager_and_lazy_rows_coexist(self):
        # a template without slots is a plain label
        store = TraceStore()
        plain = store.lane("r", "compute", "plain")
        plain.append(0.0, 1.0)
        store.lane("r", "compute", "lazy#{}").append(1.0, 2.0, (3,))
        plain.append(2.0, 3.0)
        assert [store.label_at(i) for i in range(3)] == [
            "plain", "plain", "lazy#3"
        ]

    def test_pickle_round_trip_keeps_labels_lazy(self):
        store = TraceStore()
        store.lane("r", "compute", "{}#{}").append(0.0, 1.0, ("k", 1))
        clone = pickle.loads(pickle.dumps(store))
        assert clone.label_tmpl_pool.table == ["{}#{}"]
        assert clone.label_at(0) == "k#1"
        # lanes opened after unpickling keep packing
        clone.lane("r", "compute", "{}#{}").append(1.0, 2.0, ("k", 2))
        assert clone.label_at(1) == "k#2"
        assert len(clone.label_tmpl_pool.table) == 1

    def test_records_materialize_formatted_labels(self):
        store = TraceStore()
        store.lane("gpu:0", "compute", "{}[{}:{})#{}").append(
            0.0, 1.0, ("copy", 0, 64, 1)
        )
        (record,) = store.records
        assert record.label == "copy[0:64)#1"
        clone = pickle.loads(pickle.dumps(store))
        assert clone.records[0].label == "copy[0:64)#1"

    def test_column_nbytes_counts_packed_columns(self):
        plain, packed = TraceStore(), TraceStore()
        plain.lane("r", "compute", "x").append(0.0, 1.0)
        packed.lane("r", "compute", "{}#{}").append(0.0, 1.0, ("x", 1))
        assert 0 < plain.column_nbytes() < packed.column_nbytes()


class TestRecordView:
    """``records``/``by_resource``/``by_category``: rows built per call."""

    def test_pickle_round_trip(self):
        store, _ = random_trace(3, n=50)
        clone = pickle.loads(pickle.dumps(store))
        assert [row_key(r) for r in clone.records] == [
            row_key(r) for r in store.records
        ]
        assert clone.makespan() == store.makespan()

    def test_unseen_groups_and_empty_store(self):
        store = TraceStore()
        assert store.records == []
        store.lane("a", "compute", "t").append(0.0, 1.0)
        assert store.by_resource("nope") == []
        assert store.by_category("nope") == []
        assert [r.label for r in store.by_category("compute")] == ["t"]

    def test_records_are_built_per_call(self):
        store, _ = random_trace(4, n=10)
        first, again = store.records, store.records
        assert first == again and first[0] is not again[0]
        # a row's metadata is the stored dict itself, not a copy
        row = next(i for i, r in enumerate(first) if r.meta)
        assert first[row].meta is store.metas[store.meta_idx[row]]
        # a row without metadata gets a dict of its own
        bare = TraceStore()
        bare.lane("r", "compute", "t").append(0.0, 1.0)
        assert bare.records[0].meta == {}
        assert bare.records[0].meta is not bare.records[0].meta

    def test_one_read_flushes_each_lane_once(self, monkeypatch):
        lanes: dict = {}
        store = stage(random_rows(5, n=60), lanes=lanes)
        flushes = []
        flush = TraceLane._flush

        def counting_flush(lane, into):
            flushes.append(lane)
            flush(lane, into)

        monkeypatch.setattr(TraceLane, "_flush", counting_flush)
        rid = random_rows(5, n=60)[0][0]
        for read in (
            lambda: store.records,
            lambda: store.by_resource(rid),
            lambda: store.by_category("compute"),
        ):
            flushes.clear()
            assert read()
            assert len(flushes) <= len(lanes) < len(store)
