"""Property-based tests of the dependence builder's reader index.

``_ReaderIndex`` keeps the readers-since-last-write of one array as
sorted, disjoint segments, each mapped to the tuple of reader ids
covering it.  After any sequence of ``add``/``subtract`` calls it must
stay sorted, disjoint and coalesced (no two touching segments share a
tuple), and agree element by element with a per-element model.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.runtime.dependence import _ReaderIndex

span = st.tuples(st.integers(0, 16), st.integers(0, 16)).map(
    lambda t: (min(t), max(t))
).filter(lambda t: t[0] < t[1])
calls = st.lists(
    st.one_of(
        st.tuples(st.just("add"), span, st.integers(0, 3)),
        st.tuples(st.just("subtract"), span, st.just(None)),
    ),
    max_size=25,
)


def dedup(ids):
    return list(dict.fromkeys(ids))


@settings(max_examples=300)
@given(calls, st.lists(span, max_size=5))
# touching reads by one reader merge with the left / the right neighbour
@example([("add", (0, 5), 1), ("add", (5, 10), 1)], [(0, 10)])
@example([("add", (5, 10), 1), ("add", (0, 5), 1)], [(0, 10)])
# a reader joining a segment makes it equal to its touching neighbour
@example(
    [("add", (0, 5), 1), ("add", (0, 5), 2), ("add", (5, 10), 1),
     ("add", (5, 10), 2)],
    [(3, 7)],
)
def test_index_matches_per_element_model(sequence, queries):
    index = _ReaderIndex()
    model: dict[int, tuple[int, ...]] = {}
    for op, (start, end), reader in sequence:
        if op == "add":
            index.add(start, end, reader)
            for x in range(start, end):
                owners = model.get(x, ())
                if reader not in owners:
                    model[x] = owners + (reader,)
        else:
            index.subtract(start, end)
            for x in range(start, end):
                model.pop(x, None)

        starts, ends, ids = index.starts, index.ends, index.ids
        assert len(starts) == len(ends) == len(ids)
        for s, e, owner in zip(starts, ends, ids):
            assert s < e
            assert owner and len(set(owner)) == len(owner)
        for i in range(len(starts) - 1):
            assert ends[i] <= starts[i + 1]  # sorted and disjoint
            if ends[i] == starts[i + 1]:
                assert ids[i] != ids[i + 1]  # coalesced
        covered = {
            x: owner
            for s, e, owner in zip(starts, ends, ids)
            for x in range(s, e)
        }
        assert covered == model

    for start, end in queries:
        expected = dedup(
            rid for x in range(start, end) for rid in model.get(x, ())
        )
        assert index.overlapping(start, end) == expected
