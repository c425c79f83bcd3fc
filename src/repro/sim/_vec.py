"""Optional numpy acceleration for columnar trace analytics.

A sealed :class:`~repro.sim.tracestore.TraceStore` can be converted — once
— into a :class:`VecView`: its ``array``-backed columns become ndarrays
and every aggregate query (``busy_time``, ``busy_by_resource``,
``transfer_time_by_direction``, ``elements_by_device``, the interval
merge and the >=2-device overlap sweep) is answered with sorted-array
operations instead of per-row Python loops.

**Bit-identical contract.**  Every float a view computes must equal the
pure-Python column scan bit for bit, because downstream reports promise
byte-identical figures regardless of whether numpy is installed.  The
rules that make this work:

* element-wise arithmetic (``ends - starts``) is IEEE-identical to the
  per-row expression;
* *sequential* accumulation is reproduced with ``cumsum`` (numpy's cumsum
  is the naive left-to-right recurrence — unlike ``np.sum``, which uses
  pairwise summation and would round differently), taking the last
  element of the running sum of each group's rows in insertion order;
* integer sums (element counts) are exact in any order;
* sorts replicate the scalar code's tuple ordering with ``np.lexsort``
  (last key is primary), so tie-breaking matches.

The differential suites (``tests/sim/test_vec.py``,
``tests/property/test_trace_analytics_properties.py``) enforce the
contract query by query against the pure-Python oracle.

numpy is **optional** here even though other subsystems require it: when
it is missing — or vectorization is disabled with ``REPRO_NO_NUMPY=1``
(how CI exercises the fallback) — ``enabled()`` is false and every store
query falls back to the pure-Python path.
"""

from __future__ import annotations

import os
import weakref
from itertools import accumulate
from typing import TYPE_CHECKING

try:  # pragma: no cover - exercised via the REPRO_NO_NUMPY CI job
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.tracestore import TraceStore

#: stores smaller than this answer queries in pure Python — building a
#: view costs one O(n) conversion pass, which tiny traces never amortize
VEC_MIN_ROWS = 512


def enabled() -> bool:
    """Whether the vectorized path may be used right now.

    Checked per view construction (not cached), so tests and the CI
    fallback job can flip ``REPRO_NO_NUMPY`` at any point.
    """
    if _np is None:
        return False
    return os.environ.get("REPRO_NO_NUMPY", "0") not in ("1", "true", "on")


def lane_bounds(t0: float, durations) -> list[float]:
    """Cumulative completion bounds of a serial occupation chain.

    Returns ``k + 1`` cumulative times ``[t0, t0 + d0, (t0 + d0) + d1,
    ...]`` — row ``i`` of the chain spans ``bounds[i]`` to
    ``bounds[i + 1]``.  This is the sequential recurrence: each partial
    sum *is* the previous occupation's end time, exactly as the
    per-event engines compute it.
    """
    return list(accumulate(durations, initial=t0))


def chain_bounds(t0s, duration_rows) -> list[list[float]]:
    """Per-resource cumulative bounds for a set of serial chains.

    The cross-resource generalization of :func:`lane_bounds`: ``t0s[i]``
    anchors resource ``i``'s chain and ``duration_rows[i]`` holds its
    back-to-back durations.  Returns one bounds list per resource, same
    layout as :func:`lane_bounds`.

    Always the sequential recurrence, with or without numpy: the drain
    hands the bounds to trace lanes as Python floats, and a ``cumsum``
    over a zero-padded 2-D matrix plus its ``tolist`` took about twice
    as long as ``accumulate`` at every width measured (13 chains of 1 to
    3000 links).
    """
    return [lane_bounds(t0, row) for t0, row in zip(t0s, duration_rows)]


def _seq_sum(values) -> float:
    """Left-to-right sequential sum of a 1-D float array.

    ``cumsum`` is numpy's naive recurrence, so the last running total is
    bit-identical to ``total = 0.0; for v in values: total += v``.
    """
    if values.size == 0:
        return 0.0
    return float(values.cumsum()[-1])


def _first_appearance(codes):
    """Distinct codes of a 1-D int array in first-appearance order."""
    uniq, first = _np.unique(codes, return_index=True)
    return [int(c) for c in uniq[_np.argsort(first, kind="stable")]]


class VecView:
    """One-time ndarray conversion of a sealed store.

    The view snapshots the store's columns by copy (a live ``array``
    buffer may reallocate on append), plus per-resource/per-category row
    index arrays derived from the store's group indexes.  A view is only
    valid for the row count it was built at; the store rebuilds it after
    further appends.  It holds its store weakly and is only usable while
    the store lives.
    """

    __slots__ = (
        "n",
        "starts",
        "ends",
        "durations",
        "resource_codes",
        "category_codes",
        "kind_codes",
        "kernel_codes",
        "device_codes",
        "direction_codes",
        "sizes",
        "_store",
        "_resource_rows",
        "_category_rows",
    )

    def __init__(self, store: "TraceStore") -> None:
        np = _np
        self.n = len(store.starts)
        self.starts = np.array(store.starts, dtype=np.float64)
        self.ends = np.array(store.ends, dtype=np.float64)
        self.durations = self.ends - self.starts
        self.resource_codes = np.array(store.resource_codes, dtype=np.intp)
        self.category_codes = np.array(store.category_codes, dtype=np.intp)
        self.kind_codes = np.array(store.kind_codes, dtype=np.intp)
        self.kernel_codes = np.array(store.kernel_codes, dtype=np.intp)
        self.device_codes = np.array(store.device_codes, dtype=np.intp)
        self.direction_codes = np.array(store.direction_codes, dtype=np.intp)
        self.sizes = np.array(store.sizes, dtype=np.int64)
        # weakly: the store caches its view, so a strong reference back
        # would make every queried store cyclic garbage
        self._store = weakref.ref(store)
        self._resource_rows: dict[str, object] = {}
        self._category_rows: dict[str, object] = {}

    # -- row selections --------------------------------------------------

    def rows_of_resource(self, resource_id: str):
        """Row indices on a resource, as an ndarray (insertion order)."""
        rows = self._resource_rows.get(resource_id)
        if rows is None:
            rows = _np.asarray(
                self._store().rows_by_resource(resource_id), dtype=_np.intp
            )
            self._resource_rows[resource_id] = rows
        return rows

    def rows_of_category(self, category: str):
        """Row indices tagged with a category, as an ndarray."""
        rows = self._category_rows.get(category)
        if rows is None:
            rows = _np.asarray(
                self._store().rows_by_category(category), dtype=_np.intp
            )
            self._category_rows[category] = rows
        return rows

    # -- aggregate queries (bit-identical to the Python column scans) ----

    def busy_time(self, resource_id: str, category: str | None = None) -> float:
        rows = self.rows_of_resource(resource_id)
        durations = self.durations[rows]
        if category is not None:
            code = self._store().category_pool.code_of(category)
            if code < 0:
                return 0.0
            durations = durations[self.category_codes[rows] == code]
        return _seq_sum(durations)

    def total_time(self, category: str) -> float:
        return _seq_sum(self.durations[self.rows_of_category(category)])

    def busy_by_resource(self) -> dict[str, dict[str, float]]:
        table = self._store().category_pool.table
        out: dict[str, dict[str, float]] = {}
        for rid in self._store().resource_ids_seen():
            rows = self.rows_of_resource(rid)
            codes = self.category_codes[rows]
            durations = self.durations[rows]
            per_cat: dict[str, float] = {}
            for code in _first_appearance(codes):
                per_cat[table[code]] = _seq_sum(durations[codes == code])
            out[rid] = per_cat
        return out

    def transfer_time_by_direction(self) -> dict[str, float]:
        rows = self.rows_of_category("transfer")
        codes = self.direction_codes[rows]
        durations = self.durations[rows]
        out = {"h2d": 0.0, "d2h": 0.0}
        pool = self._store().direction_pool
        for direction in out:
            code = pool.code_of(direction)
            if code >= 0:
                out[direction] = _seq_sum(durations[codes == code])
        return out

    def elements_by_kind(self, category: str) -> dict[str, int]:
        rows = self.rows_of_category(category)
        kinds = self.kind_codes[rows]
        sizes = self.sizes[rows]
        valid = (kinds >= 0) & (sizes >= 0)
        kinds, sizes = kinds[valid], sizes[valid]
        table = self._store().kind_pool.table
        return {
            table[code]: int(sizes[kinds == code].sum())
            for code in _first_appearance(kinds)
        }

    def instance_count_by_kind(self) -> dict[str, int]:
        rows = self.rows_of_category("compute")
        kinds = self.kind_codes[rows]
        kinds = kinds[kinds >= 0]
        table = self._store().kind_pool.table
        return {
            table[code]: int((kinds == code).sum())
            for code in _first_appearance(kinds)
        }

    def ratio_by_kernel(self, category: str) -> dict[str, dict[str, int]]:
        rows = self.rows_of_category(category)
        kernels = self.kernel_codes[rows]
        kinds = self.kind_codes[rows]
        sizes = self.sizes[rows]
        valid = (kernels >= 0) & (kinds >= 0) & (sizes >= 0)
        kernels, kinds, sizes = kernels[valid], kinds[valid], sizes[valid]
        kernel_table = self._store().kernel_pool.table
        kind_table = self._store().kind_pool.table
        out: dict[str, dict[str, int]] = {}
        for kcode in _first_appearance(kernels):
            sel = kernels == kcode
            sel_kinds, sel_sizes = kinds[sel], sizes[sel]
            out[kernel_table[kcode]] = {
                kind_table[code]: int(sel_sizes[sel_kinds == code].sum())
                for code in _first_appearance(sel_kinds)
            }
        return out

    # -- interval analytics ----------------------------------------------

    def compute_device_intervals(self):
        """Merged compute intervals per device group, or ``None`` if < 2.

        The grouping key is ``meta["device"]`` when present, else the
        resource id.  Devices sharing a grouping *string* must land in
        one group even when the string reaches them through different
        intern pools (a ``device`` tag on one row, a bare resource id on
        another), so the per-row composite codes are canonicalized
        through a small string map before grouping.
        """
        np = _np
        rows = self.rows_of_category("compute")
        if rows.size == 0:
            return None
        device_codes = self.device_codes[rows]
        resource_codes = self.resource_codes[rows]
        device_table = self._store().device_pool.table
        resource_table = self._store().resource_pool.table
        # composite code space: device pool entries >= 0, resource
        # fallbacks mapped below -1
        composite = np.where(device_codes >= 0, device_codes,
                             -resource_codes - 1)
        group_of: dict[int, int] = {}
        group_ids: dict[str, int] = {}
        for code in dict.fromkeys(composite.tolist()):  # appearance order
            name = (
                device_table[code] if code >= 0
                else resource_table[-code - 1]
            )
            group_of[code] = group_ids.setdefault(name, len(group_ids))
        if len(group_ids) < 2:
            return None
        starts = self.starts[rows]
        ends = self.ends[rows]
        groups = np.fromiter(
            (group_of[c] for c in composite.tolist()),
            dtype=np.intp, count=composite.size,
        )
        return [
            self.merged_intervals(starts[groups == gid], ends[groups == gid])
            for gid in range(len(group_ids))
        ]

    def merged_intervals(self, starts, ends):
        """Union of intervals as ``(starts, ends)`` arrays.

        Replicates the scalar merge exactly: sort by ``(start, end)``
        tuples, then fuse any interval whose start does not exceed the
        running maximum end.  All operations are comparisons and maxima —
        no rounding — so the merged endpoints are bit-identical.
        """
        np = _np
        if starts.size == 0:
            return starts, ends
        order = np.lexsort((ends, starts))
        starts, ends = starts[order], ends[order]
        running_end = np.maximum.accumulate(ends)
        new_group = np.empty(starts.size, dtype=bool)
        new_group[0] = True
        new_group[1:] = starts[1:] > running_end[:-1]
        last = np.flatnonzero(
            np.concatenate((new_group[1:], np.array([True])))
        )
        return starts[new_group], running_end[last]

    def overlap_seconds(self, per_device_intervals) -> float:
        """Seconds during which >= 2 devices hold a merged interval.

        ``per_device_intervals`` is a list of ``(starts, ends)`` merged
        interval pairs, one per device.  Runs the same event sweep as the
        scalar path — events sorted by ``(time, delta)``, gap added when
        two or more devices are active — with the accumulation done as a
        sequential ``cumsum`` over the qualifying gaps in time order.
        """
        np = _np
        times = np.concatenate(
            [s for s, _ in per_device_intervals]
            + [e for _, e in per_device_intervals]
        )
        deltas = np.concatenate(
            [np.ones(s.size, dtype=np.int64) for s, _ in per_device_intervals]
            + [-np.ones(e.size, dtype=np.int64) for _, e in per_device_intervals]
        )
        order = np.lexsort((deltas, times))
        times, deltas = times[order], deltas[order]
        active_before = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(deltas)[:-1])
        )
        prev = np.concatenate((np.zeros(1), times[:-1]))
        return _seq_sum((times - prev)[active_before >= 2])
