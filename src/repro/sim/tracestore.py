"""Columnar trace storage: the simulator's flight recorder, indexed.

A run's trace is a :class:`TraceStore`: its rows, plus the queries the
trace's readers ask (:func:`~repro.sim.analysis.analyze_trace`,
:func:`~repro.sim.trace.render_gantt`, the per-device element split).
It keeps the numeric columns in ``array`` buffers (``starts``/``ends``
as ``array('d')``) and **interns** its string columns (resource ids,
categories, the ``device`` tag) as small-int code columns over a
:class:`_StringPool` side table — one machine word per row instead of a
boxed object.  Per-resource and per-category row indexes are built
lazily and extended incrementally.

Display labels are **lazily formatted**: every row carries a label
template plus up to one string and three integer arguments in
fixed-width columns, so per-row-unique labels like ``"copy[0:512)#3"``
never hit an intern pool; :meth:`TraceStore.label_at` formats on demand.

Every row enters through a :class:`TraceLane`, a run's persistent intake
for one fully pre-declared stream (resource, category, label template,
constant hot metadata).  :meth:`TraceLane.append` takes one row per event
(the executor), :meth:`TraceLane.extend_rows` a whole run of rows (the
drain's commits).  Every lane **folds** each row into running aggregates
as it arrives — row count, latest and last end, the ``end - start`` sum
in intake order, element sums per kernel — and
:meth:`repro.artifact.TraceSummary.from_lanes` merges a run's lanes into
its summary.  That fold is the only producer of a run's summary: no
store is read for it, at either detail.  A lane opened with
:meth:`TraceStore.lane` (full detail) additionally *stages* its rows:
its constants are interned once at creation, staged rows go into small
parallel ``array`` buffers with no dict traffic, and they are flushed
into the store's columns in C-speed blocks the first time anything
reads, pickles, or indexes the store.  Staged rows are therefore
*deferred*: they take their row numbers at flush time (lane
registration order), not append time — identical under every engine
and backend, which is what keeps cross-engine artifact pickles
byte-identical.  A lane built without a store (summary detail) only
folds: no row, label or metadata dict is kept.

The store's float queries (:meth:`TraceStore.busy_time`,
:meth:`TraceStore.busy_by_resource`) walk exactly the matching rows and
accumulate in insertion order per group, so they are bit-identical to a
scan over :attr:`TraceStore.records`.  The reference for the store and
for the lanes' fold is the record-scan oracle of
``tests/sim/trace_oracle.py``; ``tests/sim/test_summary_fold.py``,
``tests/sim/test_trace_ingestion.py``,
``tests/property/test_trace_analytics_properties.py`` and
``tests/integration/test_artifact_differential.py`` hold both to it.

Metadata fidelity: the full metadata dict of each row is kept, unchanged,
in the ``metas`` side table; only ``meta["device"]`` is also held in a
column, for the overlap analysis.  It distinguishes absent (falls back
to the resource id in device grouping) from any present value, which is
stringified.

:attr:`TraceStore.records`, :meth:`TraceStore.by_category` and
:meth:`TraceStore.by_resource` build :class:`~repro.sim.trace.TraceRecord`
rows per call for callers that want row objects.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from typing import Any

from repro.sim.trace import TraceRecord

#: distinguishes "key absent" from "key present with value None"
_MISSING = object()


class _StringPool:
    """Interns strings as dense small-int codes over a side table."""

    __slots__ = ("table", "_code")

    def __init__(self) -> None:
        #: code -> string, in first-intern order
        self.table: list[str] = []
        self._code: dict[str, int] = {}

    def intern(self, value: str) -> int:
        """The code of ``value``, assigning the next one on first sight."""
        code = self._code.get(value)
        if code is None:
            code = self._code[value] = len(self.table)
            self.table.append(value)
        return code

    def __len__(self) -> int:
        return len(self.table)


def _const_i(code: int, k: int) -> array:
    """``k`` copies of ``code`` as an ``array('i')`` (C-level repeat)."""
    return array("i", (code,)) * k


def _const_q(value: int, k: int) -> array:
    """``k`` copies of ``value`` as an ``array('q')`` (C-level repeat)."""
    return array("q", (value,)) * k


#: transfer directions the summary reports (``transfer_time_s`` keys)
SUMMARY_DIRECTIONS = ("h2d", "d2h")


class TraceLane:
    """A run's intake for one pre-declared occupation stream.

    A lane is created once per homogeneous ``(resource, category)``
    stream; its resource id, category, label template, and constant hot
    metadata (``device_kind``, ``device``, ``direction``) are fixed at
    creation.  Every row it takes in is **folded** into running
    aggregates on the spot — row count, latest end, last end, the
    ``end - start`` sum in intake order, and element sums per kernel —
    from which :meth:`repro.artifact.TraceSummary.from_lanes` assembles
    the run's summary by merging the lanes in registration order.

    A lane opened through :meth:`TraceStore.lane` additionally *stages*
    each row for its store: the constants are interned exactly once, at
    creation, and :meth:`append` costs a handful of ``array`` pushes per
    row — no interning, no ``dict(meta)`` copy, no per-row branching on
    the metadata shape — while :meth:`extend_rows` ingests a whole run
    of rows with ``array.extend`` bulk copies.  A lane built with
    ``store=None`` only folds: label arguments and metadata are ignored
    and no row is ever kept.

    Contract (checked by the differential ingestion suite, not per
    append): label ``args`` are at most one leading ``str`` plus up to
    three true ``int`` s matching the declared template; ``meta`` dicts
    are **owned** by the store once appended (never mutated by the
    caller afterwards) and any hot keys they carry must agree with the
    lane's declared constants and the explicit ``size``/``kernel``
    arguments.  The runtime executor and the plan evaluator satisfy
    this by construction.

    Staged rows become real store rows — in lane registration order —
    the first time the store is read, indexed, or pickled; see
    ``TraceStore._flush_lanes``.  The fold is never reset by a flush.
    """

    __slots__ = (
        "resource_id",
        "category",
        "device_kind",
        "direction",
        # fold: running aggregates over every row taken in
        "rows",
        "busy",
        "max_end",
        "last_end",
        "elements",
        "durations",
        # staging (store lanes only)
        "staging",
        "_resource_code",
        "_category_code",
        "_tmpl_code",
        "_device_code",
        "starts",
        "ends",
        "str_codes",
        "arg_a",
        "arg_b",
        "arg_c",
        "metas",
        "meta_count",
        # bound intern method (one attribute load per varying string)
        "_intern_arg",
    )

    def __init__(
        self,
        store: "TraceStore | None",
        resource_id: str,
        category: str,
        template: str,
        *,
        device_kind: str | None = None,
        device: Any = _MISSING,
        direction: str | None = None,
        fed: set | None = None,
    ) -> None:
        self.resource_id = resource_id
        self.category = category
        self.device_kind = None if device_kind is None else str(device_kind)
        self.direction = direction if isinstance(direction, str) else None
        self.rows = 0
        #: ``end - start`` summed from 0.0 in intake order
        self.busy = 0.0
        self.max_end = 0.0
        #: end of the row taken in last (drain anchors read this)
        self.last_end = 0.0
        #: kernel name (``None`` for kernel-less rows) -> summed sizes of
        #: the rows carrying a size, in first-appearance order
        self.elements: defaultdict[str | None, int] = defaultdict(int)
        #: per-row durations, kept only when an earlier lane of the run
        #: (``fed`` holds the float groups they feed) already feeds one of
        #: this lane's: the summary must continue that group's one
        #: sequential sum through these rows
        groups = [(resource_id, category)]
        if category == "transfer" and self.direction in SUMMARY_DIRECTIONS:
            groups.append((self.direction,))
        if fed is None:
            fed = set()
        self.durations = None if fed.isdisjoint(groups) else array("d")
        fed.update(groups)
        self.staging = store is not None
        if store is None:
            return
        self._resource_code = store.resource_pool.intern(resource_id)
        self._category_code = store.category_pool.intern(category)
        self._tmpl_code = store.label_tmpl_pool.intern(template)
        self._device_code = (
            -1 if device is _MISSING else store.device_pool.intern(str(device))
        )
        self._intern_arg = store.label_arg_pool.intern
        self._reset_staged()

    def _reset_staged(self) -> None:
        self.starts = array("d")
        self.ends = array("d")
        self.str_codes = array("i")
        self.arg_a = array("q")
        self.arg_b = array("q")
        self.arg_c = array("q")
        self.metas: list[dict[str, Any] | None] = []
        self.meta_count = 0

    def __len__(self) -> int:
        """Rows currently staged (not yet flushed into the store)."""
        return len(self.starts) if self.staging else 0

    def resume(self, total: float) -> float:
        """Continue a group's sequential sum ``total`` through this
        lane's rows; only lanes registered after another feeder of the
        group (``durations`` kept) are ever asked to."""
        for d in self.durations:
            total += d
        return total

    # -- writing ---------------------------------------------------------

    def append(
        self,
        start: float,
        end: float,
        args: tuple = (),
        size: int = -1,
        kernel: str | None = None,
        meta: dict[str, Any] | None = None,
    ) -> None:
        """Take in one occupation row.

        ``size`` and ``kernel`` feed the fold; on a staging lane
        ``args`` are the varying label arguments for the lane's template
        (an optional leading string plus up to three ints) and ``meta``
        is the row's full metadata dict, owned by the store from here on.
        """
        durations = self.durations
        if durations is None:
            self.busy += end - start
        else:
            d = end - start
            self.busy += d
            durations.append(d)
        self.rows += 1
        if end > self.max_end:
            self.max_end = end
        self.last_end = end
        if size >= 0:
            self.elements[kernel] += size
        if not self.staging:
            return
        self.starts.append(start)
        self.ends.append(end)
        if args and type(args[0]) is str:
            self.str_codes.append(self._intern_arg(args[0]))
            ints = args[1:]
        else:
            self.str_codes.append(-1)
            ints = args
        n = len(ints)
        self.arg_a.append(ints[0] if n else 0)
        self.arg_b.append(ints[1] if n > 1 else 0)
        self.arg_c.append(ints[2] if n > 2 else 0)
        if meta:
            self.metas.append(meta)
            self.meta_count += 1
        else:
            self.metas.append(None)

    def extend_rows(
        self,
        starts,
        ends,
        *,
        str_args: list[str] | None = None,
        args_a=None,
        args_b=None,
        args_c=None,
        sizes=None,
        kernels: list[str] | None = None,
        metas: list[dict[str, Any] | None] | None = None,
    ) -> None:
        """Take in ``k`` fully heterogeneous rows in bulk.

        Every label/metadata slot may vary per row.  A ``None`` sequence
        stands for the defaults :meth:`append` would use (``0`` int args,
        ``-1`` size, no kernel, no meta).  Equivalent to ``k``
        :meth:`append` calls with the same payload, fold and staged
        bytes alike.  ``starts`` and ``ends`` are sequences of Python
        floats.

        On a staging lane the numeric columns are extended with
        ``array.extend`` bulk copies; only the genuinely varying string
        arguments (``str_args``) pay a per-row intern lookup.
        """
        k = len(starts)
        if k == 0:
            return
        for name, values in (
            ("ends", ends), ("str_args", str_args), ("args_a", args_a),
            ("args_b", args_b), ("args_c", args_c), ("sizes", sizes),
            ("kernels", kernels), ("metas", metas),
        ):
            if values is not None and len(values) != k:
                raise ValueError(
                    f"extend_rows: {len(values)} {name} for {k} rows"
                )

        busy = self.busy
        durations = self.durations
        if durations is None:
            for s, e in zip(starts, ends):
                busy += e - s
        else:
            for s, e in zip(starts, ends):
                d = e - s
                busy += d
                durations.append(d)
        self.busy = busy
        self.rows += k
        top = max(ends)
        if top > self.max_end:
            self.max_end = top
        self.last_end = ends[-1]
        if sizes is not None:
            elements = self.elements
            for kernel, size in zip(
                kernels if kernels is not None else (None,) * k, sizes
            ):
                if size >= 0:
                    elements[kernel] += size
        if not self.staging:
            return

        def _ext_q(col, values, default):
            if values is None:
                col.extend(_const_q(default, k))
            elif isinstance(values, array) and values.typecode == "q":
                col.extend(values)
            else:
                col.extend(array("q", values))

        self.starts.extend(starts)
        self.ends.extend(ends)
        if str_args is None:
            self.str_codes.extend(_const_i(-1, k))
        else:
            intern = self._intern_arg
            self.str_codes.extend(
                array("i", [intern(s) for s in str_args])
            )
        _ext_q(self.arg_a, args_a, 0)
        _ext_q(self.arg_b, args_b, 0)
        _ext_q(self.arg_c, args_c, 0)
        if metas is None:
            self.metas.extend([None] * k)
        else:
            self.metas.extend(metas)
            self.meta_count += sum(1 for m in metas if m)

    # -- flushing --------------------------------------------------------

    def _flush(self, store: "TraceStore") -> None:
        """Move the staged rows into ``store``'s columns (bulk extends).

        The store is passed in, not held: a lane keeping its store would
        form a store <-> lane cycle that only a full GC pass could free.
        """
        k = len(self.starts)
        if not k:
            return
        store.starts.extend(self.starts)
        store.ends.extend(self.ends)
        store.resource_codes.extend(_const_i(self._resource_code, k))
        store.category_codes.extend(_const_i(self._category_code, k))
        store.device_codes.extend(_const_i(self._device_code, k))
        store.label_tmpl_codes.extend(_const_i(self._tmpl_code, k))
        store.label_arg_strs.extend(self.str_codes)
        store.label_arg_a.extend(self.arg_a)
        store.label_arg_b.extend(self.arg_b)
        store.label_arg_c.extend(self.arg_c)
        metas = self.metas
        if self.meta_count == 0:
            store.meta_idx.extend(_const_q(-1, k))
        elif self.meta_count == k:
            first = len(store.metas)
            store.meta_idx.extend(array("q", range(first, first + k)))
            store.metas.extend(metas)
        else:
            meta_idx, store_metas = store.meta_idx, store.metas
            for meta in metas:
                if meta is None:
                    meta_idx.append(-1)
                else:
                    meta_idx.append(len(store_metas))
                    store_metas.append(meta)
        if self.max_end > store._max_end:
            store._max_end = self.max_end
        self._reset_staged()


class TraceStore:
    """Append-only columnar store of resource occupations.

    Numeric columns are ``array`` buffers; string columns (resource,
    category, ``device`` tag) are int code columns over per-column
    :class:`_StringPool` tables; ``metas`` is a side table holding only
    the rows that actually carry metadata (the ``meta_idx`` column is
    ``-1`` for rows without).  Group indexes map a resource id /
    category tag to the list of row numbers carrying it; they are built
    lazily and extended incrementally, so interleaving appends and
    queries never rescans the whole store.
    """

    __slots__ = (
        # numeric columns
        "starts",
        "ends",
        "meta_idx",
        # interned string columns (codes into the pools below; -1 = absent)
        "resource_codes",
        "category_codes",
        "device_codes",
        # packed lazy-label columns: template code plus its arguments
        "label_tmpl_codes",
        "label_arg_strs",
        "label_arg_a",
        "label_arg_b",
        "label_arg_c",
        # intern side tables
        "resource_pool",
        "category_pool",
        "device_pool",
        "label_tmpl_pool",
        "label_arg_pool",
        # metadata side table
        "metas",
        # staging lanes (flushed lazily, in registration order) and the
        # float summary groups they feed
        "_lanes",
        "_fed",
        # lazy state
        "_by_resource",
        "_by_category",
        "_indexed_rows",
        "_max_end",
    )

    def __init__(self) -> None:
        self.starts = array("d")
        self.ends = array("d")
        self.meta_idx = array("q")
        self.resource_codes = array("i")
        self.category_codes = array("i")
        self.device_codes = array("i")
        self.label_tmpl_codes = array("i")
        self.label_arg_strs = array("i")
        self.label_arg_a = array("q")
        self.label_arg_b = array("q")
        self.label_arg_c = array("q")
        self.resource_pool = _StringPool()
        self.category_pool = _StringPool()
        self.device_pool = _StringPool()
        self.label_tmpl_pool = _StringPool()
        self.label_arg_pool = _StringPool()
        self.metas: list[dict[str, Any]] = []
        self._lanes: list[TraceLane] = []
        self._fed: set = set()
        self._by_resource: dict[str, list[int]] = {}
        self._by_category: dict[str, list[int]] = {}
        self._indexed_rows = 0
        self._max_end = 0.0

    # -- staging lanes ---------------------------------------------------

    def lane(
        self,
        resource_id: str,
        category: str,
        template: str,
        *,
        device_kind: str | None = None,
        device: Any = _MISSING,
        direction: str | None = None,
    ) -> TraceLane:
        """Open a staged ingestion lane for one pre-declared stream.

        All lane-constant codes (resource, category, label template and
        ``device`` tag) are interned here, once; :meth:`TraceLane.append`
        never touches an intern table except for a varying string
        argument.  Staged rows land in the store — in lane registration
        order — the first time it is read, indexed, or pickled.  The
        lane folds every row as well (see :class:`TraceLane`); lanes
        opened here share the store's record of which summary groups
        they feed.
        """
        lane = TraceLane(
            self, resource_id, category, template,
            device_kind=device_kind, device=device, direction=direction,
            fed=self._fed,
        )
        self._lanes.append(lane)
        return lane

    def _flush_lanes(self) -> None:
        """Flush every staged lane row into the columns (idempotent)."""
        for lane in self._lanes:
            lane._flush(self)

    def _ensure_flushed(self) -> None:
        """Land staged lane rows before any read/index/pickle use."""
        if self._lanes:
            self._flush_lanes()

    # -- pickling --------------------------------------------------------
    #
    # Only the columns, pools and metadata travel; the group indexes are
    # caches that rebuild lazily on first query.

    def __getstate__(self):
        self._ensure_flushed()
        return (
            self.starts, self.ends, self.meta_idx,
            self.resource_codes, self.category_codes, self.device_codes,
            self.label_tmpl_codes, self.label_arg_strs,
            self.label_arg_a, self.label_arg_b, self.label_arg_c,
            self.resource_pool, self.category_pool, self.device_pool,
            self.label_tmpl_pool, self.label_arg_pool,
            self.metas, self._max_end,
        )

    def __setstate__(self, state) -> None:
        (
            self.starts, self.ends, self.meta_idx,
            self.resource_codes, self.category_codes, self.device_codes,
            self.label_tmpl_codes, self.label_arg_strs,
            self.label_arg_a, self.label_arg_b, self.label_arg_c,
            self.resource_pool, self.category_pool, self.device_pool,
            self.label_tmpl_pool, self.label_arg_pool,
            self.metas, self._max_end,
        ) = state
        self._lanes = []
        self._fed = set()
        self._by_resource = {}
        self._by_category = {}
        self._indexed_rows = 0

    # -- indexes ---------------------------------------------------------

    def _ensure_indexes(self) -> None:
        """Extend the group indexes to cover rows appended since last use."""
        self._ensure_flushed()
        start = self._indexed_rows
        total = len(self.starts)
        if start == total:
            return
        by_resource = self._by_resource
        by_category = self._by_category
        resource_codes = self.resource_codes
        category_codes = self.category_codes
        resource_table = self.resource_pool.table
        category_table = self.category_pool.table
        for row in range(start, total):
            rid = resource_table[resource_codes[row]]
            rows = by_resource.get(rid)
            if rows is None:
                by_resource[rid] = [row]
            else:
                rows.append(row)
            cat = category_table[category_codes[row]]
            rows = by_category.get(cat)
            if rows is None:
                by_category[cat] = [row]
            else:
                rows.append(row)
        self._indexed_rows = total

    def rows_by_resource(self, resource_id: str) -> list[int]:
        """Row numbers on ``resource_id``, in insertion order."""
        self._ensure_indexes()
        return self._by_resource.get(resource_id, [])

    def rows_by_category(self, category: str) -> list[int]:
        """Row numbers tagged ``category``, in insertion order."""
        self._ensure_indexes()
        return self._by_category.get(category, [])

    def resource_ids_seen(self) -> list[str]:
        """Distinct resource ids in first-appearance order."""
        self._ensure_indexes()
        return list(self._by_resource)

    # -- row access ------------------------------------------------------

    def __len__(self) -> int:
        self._ensure_flushed()
        return len(self.starts)

    def label_at(self, row: int) -> str:
        """The display label of ``row``: its template, formatted with
        the row's packed arguments."""
        self._ensure_flushed()
        return self._label(row)

    def _label(self, row: int) -> str:
        """:meth:`label_at` of a row already flushed (no lane check)."""
        template = self.label_tmpl_pool.table[self.label_tmpl_codes[row]]
        n_args = template.count("{}")
        args: list[Any] = []
        str_code = self.label_arg_strs[row]
        if str_code >= 0:
            args.append(self.label_arg_pool.table[str_code])
        ints = (
            self.label_arg_a[row], self.label_arg_b[row], self.label_arg_c[row]
        )
        args.extend(ints[: n_args - len(args)])
        return template.format(*args)

    def device_key_at(self, row: int) -> str:
        """Device grouping key: ``meta["device"]`` or the resource id.

        This is the per-device identity the overlap analysis groups by;
        CPU threads sharing one ``device`` tag collectively count as one.
        """
        self._ensure_flushed()
        code = self.device_codes[row]
        if code >= 0:
            return self.device_pool.table[code]
        return self.resource_pool.table[self.resource_codes[row]]

    # -- row view ----------------------------------------------------------
    #
    # Row objects are built per call and never cached: the columns stay
    # the trace, and a caller that keeps the list owns it.  Each view
    # lands the staged lane rows once, then formats labels per row.

    def _record_at(self, row: int) -> TraceRecord:
        idx = self.meta_idx[row]
        return TraceRecord(
            resource_id=self.resource_pool.table[self.resource_codes[row]],
            label=self._label(row),
            category=self.category_pool.table[self.category_codes[row]],
            start=self.starts[row],
            end=self.ends[row],
            meta=self.metas[idx] if idx >= 0 else {},
        )

    @property
    def records(self) -> list[TraceRecord]:
        """Every row as a :class:`TraceRecord`, in row order."""
        self._ensure_flushed()
        return [self._record_at(row) for row in range(len(self.starts))]

    def by_category(self, category: str) -> list[TraceRecord]:
        """The rows tagged ``category``, in row order."""
        return [self._record_at(row) for row in self.rows_by_category(category)]

    def by_resource(self, resource_id: str) -> list[TraceRecord]:
        """The rows on ``resource_id``, in row order."""
        return [self._record_at(row) for row in self.rows_by_resource(resource_id)]

    # -- memory accounting ------------------------------------------------

    def column_nbytes(self) -> int:
        """Bytes held by the columns and intern tables (not the metas).

        The comparable figure for the previous list-backed layout is
        estimated by ``benchmarks/bench_pipeline_perf.py``; the ratio is
        tracked in ``BENCH_pipeline.json``.
        """
        import sys

        self._ensure_flushed()
        total = 0
        for name in (
            "starts", "ends", "meta_idx",
            "resource_codes", "category_codes", "device_codes",
            "label_tmpl_codes", "label_arg_strs",
            "label_arg_a", "label_arg_b", "label_arg_c",
        ):
            column = getattr(self, name)
            total += sys.getsizeof(column)
        for name in (
            "resource_pool", "category_pool", "device_pool",
            "label_tmpl_pool", "label_arg_pool",
        ):
            pool = getattr(self, name)
            total += sys.getsizeof(pool.table)
            total += sum(sys.getsizeof(s) for s in pool.table)
        return total

    # -- reader queries -------------------------------------------------
    #
    # Accumulation order matters: each aggregate adds its floats in
    # insertion order per group, as a filtered scan of the records does,
    # so the results are bit-identical to that scan.

    def makespan(self) -> float:
        """Latest end time across all rows (0.0 for an empty store)."""
        self._ensure_flushed()
        return self._max_end if self.starts else 0.0

    def busy_time(self, resource_id: str) -> float:
        """Total occupied seconds on a resource."""
        starts, ends = self.starts, self.ends
        total = 0.0
        for row in self.rows_by_resource(resource_id):
            total += ends[row] - starts[row]
        return total

    def elements_by_device(
        self, *, category: str = "compute", key: str = "device_kind"
    ) -> dict[str, int]:
        """Sum the ``size`` metadata of ``category`` rows grouped by the
        metadata value under ``key`` (rows lacking either are skipped)."""
        out: dict[str, int] = {}
        metas, meta_idx = self.metas, self.meta_idx
        for row in self.rows_by_category(category):
            idx = meta_idx[row]
            if idx < 0:
                continue
            meta = metas[idx]
            group = meta.get(key)
            size = meta.get("size")
            if group is None or size is None:
                continue
            group = str(group)
            out[group] = out.get(group, 0) + int(size)
        return out

    def busy_by_resource(self) -> dict[str, dict[str, float]]:
        """Resource id -> category -> occupied seconds.

        Per (resource, category) pair the durations accumulate in
        insertion order, matching a filtered scan of the records.
        """
        out: dict[str, dict[str, float]] = {}
        starts, ends = self.starts, self.ends
        category_codes = self.category_codes
        category_table = self.category_pool.table
        for rid in self.resource_ids_seen():
            per_cat: dict[str, float] = {}
            for row in self.rows_by_resource(rid):
                cat = category_table[category_codes[row]]
                per_cat[cat] = per_cat.get(cat, 0.0) + (ends[row] - starts[row])
            out[rid] = per_cat
        return out
