"""Property-based tests of the IntervalSet (the coherence directory core)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.runtime.regions import IntervalSet

interval = st.tuples(
    st.integers(0, 200), st.integers(0, 200)
).map(lambda t: (min(t), max(t)))
intervals = st.lists(interval, max_size=12)


def as_set(ivals) -> set[int]:
    out: set[int] = set()
    for lo, hi in ivals:
        out.update(range(lo, hi))
    return out


@given(intervals)
def test_add_matches_set_union(ivals):
    s = IntervalSet()
    model: set[int] = set()
    for lo, hi in ivals:
        s.add(lo, hi)
        model |= set(range(lo, hi))
    assert as_set(s.intervals) == model
    assert s.total == len(model)


@given(intervals, interval)
def test_remove_matches_set_difference(ivals, removal):
    s = IntervalSet(ivals)
    model = as_set(s.intervals)
    lo, hi = removal
    s.remove(lo, hi)
    assert as_set(s.intervals) == model - set(range(lo, hi))


@given(intervals)
def test_normal_form_sorted_disjoint_nonadjacent(ivals):
    s = IntervalSet(ivals)
    result = s.intervals
    for lo, hi in result:
        assert lo < hi
    for (a, b), (c, d) in zip(result, result[1:]):
        assert b < c  # disjoint AND non-adjacent


@given(intervals, interval)
def test_missing_partitions_query(ivals, query):
    s = IntervalSet(ivals)
    lo, hi = query
    covered = as_set(s.intersect(lo, hi).intervals)
    missing = as_set(s.missing(lo, hi).intervals)
    assert covered | missing == set(range(lo, hi))
    assert covered & missing == set()


@given(intervals, interval)
def test_contains_consistent_with_missing(ivals, query):
    s = IntervalSet(ivals)
    lo, hi = query
    assert s.contains(lo, hi) == (not s.missing(lo, hi))


@given(intervals)
def test_add_idempotent(ivals):
    s = IntervalSet(ivals)
    before = s.intervals
    for lo, hi in ivals:
        s.add(lo, hi)
    assert s.intervals == before


@given(intervals, interval)
def test_remove_then_add_restores_superset(ivals, hole):
    s = IntervalSet(ivals)
    before = as_set(s.intervals)
    lo, hi = hole
    s.remove(lo, hi)
    s.add(lo, hi)
    after = as_set(s.intervals)
    assert before <= after


# -- fast paths: every operation against a set-of-ints model -------------

small = st.tuples(st.integers(0, 40), st.integers(0, 40)).map(
    lambda t: (min(t), max(t))
)
#: starts the fast paths branch on: empty, one interval, several
starts = st.one_of(
    st.just([]), st.lists(small, min_size=1, max_size=1),
    st.lists(small, max_size=6),
)
ops = st.lists(
    st.tuples(st.sampled_from(("add", "remove", "missing", "overlap")), small),
    max_size=20,
)


def assert_normal(ivals):
    for lo, hi in ivals:
        assert lo < hi
    for (_, b), (c, _) in zip(ivals, ivals[1:]):
        assert b < c


@given(starts, ops)
def test_operations_match_int_set_model(start, operations):
    s = IntervalSet(start)
    model = as_set(start)
    for op, (lo, hi) in operations:
        query = set(range(lo, hi))
        if op == "add":
            s.add(lo, hi)
            model |= query
        elif op == "remove":
            s.remove(lo, hi)
            model -= query
        elif op == "missing":
            gaps = s.missing(lo, hi).intervals
            assert_normal(gaps)
            assert as_set(gaps) == query - model
        else:
            assert s.overlap(lo, hi) == len(query & model)
            assert s.overlap(lo, hi) == s.intersect(lo, hi).total
        assert_normal(s.intervals)
        assert as_set(s.intervals) == model
