"""Regions, arrays, and interval-set arithmetic."""

import pytest

from repro.errors import DependenceError
from repro.runtime.regions import AccessMode, ArraySpec, IntervalSet, Region


class TestAccessMode:
    def test_reads_writes(self):
        assert AccessMode.IN.reads and not AccessMode.IN.writes
        assert AccessMode.OUT.writes and not AccessMode.OUT.reads
        assert AccessMode.INOUT.reads and AccessMode.INOUT.writes


class TestArraySpec:
    def test_nbytes(self):
        assert ArraySpec("a", 100, 4).nbytes == 400

    def test_full_region(self):
        region = ArraySpec("a", 100, 4).full_region()
        assert (region.start, region.end) == (0, 100)

    def test_rejects_negative_elems(self):
        with pytest.raises(DependenceError):
            ArraySpec("a", -1, 4)

    def test_rejects_nonpositive_elem_bytes(self):
        with pytest.raises(DependenceError):
            ArraySpec("a", 1, 0)


class TestRegion:
    def test_overlap_same_array(self):
        a = Region("x", 0, 10)
        assert a.overlaps(Region("x", 5, 15))
        assert not a.overlaps(Region("x", 10, 20))  # half-open
        assert not a.overlaps(Region("y", 0, 10))

    def test_empty_region_overlaps_nothing(self):
        # an empty PREFIX chunk inside a written range shares no element
        empty = Region("x", 5, 5)
        assert not empty.overlaps(Region("x", 0, 10))
        assert not Region("x", 0, 10).overlaps(empty)
        assert not empty.overlaps(empty)

    def test_intersection(self):
        inter = Region("x", 0, 10).intersection(Region("x", 5, 15))
        assert (inter.start, inter.end) == (5, 10)
        assert Region("x", 0, 5).intersection(Region("x", 5, 10)) is None

    def test_size_and_bytes(self):
        r = Region("x", 10, 30)
        assert r.size == 20
        assert r.nbytes(8) == 160

    def test_invalid_region_rejected(self):
        with pytest.raises(DependenceError):
            Region("x", 5, 3)
        with pytest.raises(DependenceError):
            Region("x", -1, 3)

    def test_empty_region_allowed(self):
        assert Region("x", 3, 3).empty


class TestIntervalSet:
    def test_add_disjoint(self):
        s = IntervalSet([(0, 5), (10, 15)])
        assert s.intervals == [(0, 5), (10, 15)]
        assert s.total == 10

    def test_add_merges_overlap(self):
        s = IntervalSet([(0, 5)])
        s.add(3, 8)
        assert s.intervals == [(0, 8)]

    def test_add_merges_adjacent(self):
        s = IntervalSet([(0, 5)])
        s.add(5, 8)
        assert s.intervals == [(0, 8)]

    def test_add_bridges_multiple(self):
        s = IntervalSet([(0, 2), (4, 6), (8, 10)])
        s.add(1, 9)
        assert s.intervals == [(0, 10)]

    def test_add_empty_noop(self):
        s = IntervalSet([(0, 5)])
        s.add(7, 7)
        assert s.intervals == [(0, 5)]

    def test_remove_middle_splits(self):
        s = IntervalSet([(0, 10)])
        s.remove(3, 7)
        assert s.intervals == [(0, 3), (7, 10)]

    def test_remove_edges(self):
        s = IntervalSet([(0, 10)])
        s.remove(0, 3)
        s.remove(8, 12)
        assert s.intervals == [(3, 8)]

    def test_remove_everything(self):
        s = IntervalSet([(0, 10), (20, 30)])
        s.remove(0, 30)
        assert not s

    def test_contains(self):
        s = IntervalSet([(0, 10), (20, 30)])
        assert s.contains(2, 8)
        assert s.contains(0, 10)
        assert not s.contains(5, 25)
        assert s.contains(7, 7)  # empty range always contained

    def test_intersect(self):
        s = IntervalSet([(0, 10), (20, 30)])
        assert s.intersect(5, 25).intervals == [(5, 10), (20, 25)]

    def test_missing(self):
        s = IntervalSet([(0, 10), (20, 30)])
        assert s.missing(5, 25).intervals == [(10, 20)]
        assert s.missing(0, 10).intervals == []
        assert s.missing(40, 50).intervals == [(40, 50)]

    def test_copy_is_independent(self):
        s = IntervalSet([(0, 10)])
        c = s.copy()
        c.add(20, 30)
        assert s.intervals == [(0, 10)]

    def test_equality(self):
        assert IntervalSet([(0, 5), (5, 10)]) == IntervalSet([(0, 10)])
        assert IntervalSet([(0, 5)]) != IntervalSet([(0, 6)])

    def test_clear(self):
        s = IntervalSet([(0, 5)])
        s.clear()
        assert not s and s.total == 0
