"""Packed labels must format exactly like ``template.format(*args)``.

Every trace row enters through a :class:`~repro.sim.tracestore.TraceLane`
whose label template has an optional leading string slot and up to
three integer slots; the store keeps the template code and the packed
arguments, and :meth:`~repro.sim.tracestore.TraceStore.label_at` formats
on demand.  Hypothesis draws templates of that shape and argument rows
for them, feeds the rows through a staging lane one
:meth:`~repro.sim.tracestore.TraceLane.append` at a time and in one
:meth:`~repro.sim.tracestore.TraceLane.extend_rows` call, and demands
``label_at`` equal the eager rendering, character for character — the
packed representation is an encoding, never a lossy one.
"""

import pickle
from array import array

from hypothesis import given
from hypothesis import strategies as st

from repro.sim.tracestore import TraceStore

_text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
                max_size=8)
_literal = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",),
                           blacklist_characters="{}"),
    max_size=4,
)
_int = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)


@st.composite
def labelled_rows(draw):
    """A template and argument rows for it: ``(template, has_str,
    n_ints, rows)`` with each row ``(str_arg or None, ints)``."""
    has_str = draw(st.booleans())
    n_ints = draw(st.integers(0, 3))
    pieces = [draw(_literal)]
    for _ in range(int(has_str) + n_ints):
        pieces += ["{}", draw(_literal)]
    rows = draw(st.lists(
        st.tuples(
            _text if has_str else st.none(),
            st.lists(_int, min_size=n_ints, max_size=n_ints),
        ),
        min_size=1, max_size=6,
    ))
    return "".join(pieces), has_str, n_ints, rows


def _args(str_arg, ints) -> tuple:
    return tuple(ints) if str_arg is None else (str_arg, *ints)


def _appended(template, rows) -> TraceStore:
    store = TraceStore()
    lane = store.lane("r", "compute", template)
    for i, (str_arg, ints) in enumerate(rows):
        lane.append(float(i), float(i + 1), _args(str_arg, ints))
    return store


def _extended(template, has_str, n_ints, rows) -> TraceStore:
    store = TraceStore()
    slots = [
        array("q", [ints[k] for _, ints in rows]) if k < n_ints else None
        for k in range(3)
    ]
    store.lane("r", "compute", template).extend_rows(
        [float(i) for i in range(len(rows))],
        [float(i + 1) for i in range(len(rows))],
        str_args=[s for s, _ in rows] if has_str else None,
        args_a=slots[0], args_b=slots[1], args_c=slots[2],
    )
    return store


@given(labelled_rows())
def test_lazy_label_formats_like_eager(drawn):
    template, has_str, n_ints, rows = drawn
    expected = [template.format(*_args(s, ints)) for s, ints in rows]
    appended = _appended(template, rows)
    extended = _extended(template, has_str, n_ints, rows)
    for store in (appended, extended):
        assert [store.label_at(i) for i in range(len(rows))] == expected
        assert [r.label for r in store.records] == expected
    # the two intakes stage the same bytes
    assert pickle.dumps(appended, 5) == pickle.dumps(extended, 5)


@given(labelled_rows())
def test_packable_shapes_stay_unpooled(drawn):
    """No formatted label is kept: the pools hold the template and the
    distinct string arguments, nothing else."""
    template, has_str, _, rows = drawn
    store = _appended(template, rows)
    assert len(store) == len(rows)
    assert store.label_tmpl_pool.table == [template]
    assert store.label_arg_pool.table == (
        list(dict.fromkeys(s for s, _ in rows)) if has_str else []
    )
