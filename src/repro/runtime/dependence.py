"""Region-based task dependence analysis (the OmpSs dependency graph).

Given the expanded task instances in program order, this module adds the
edges the OmpSs runtime would derive from the user's ``in``/``out``/``inout``
annotations:

* **RAW** — a read depends on every earlier overlapping write,
* **WAW** — a write depends on every earlier overlapping write,
* **WAR** — a write depends on every earlier overlapping read.

``taskwait`` barriers join all in-flight instances and anchor everything
after them; analysis state is reset at each barrier.

Chunks of the *same* invocation never conflict: the partitioned write ranges
are disjoint by construction, and FULL-pattern accesses are read-only
(enforced by :class:`~repro.runtime.kernels.AccessSpec`).

Two builders are provided:

* :func:`build_dependences` — the production **frontier** builder.  Per
  array it tracks only the *last writer* of every element (a sorted
  disjoint interval index) plus the *readers since that write* (pruned
  whenever a write lands), so edge construction is near-linear in the
  instance count even inside a single barrier window.  The resulting
  graph is a transitive reduction-compatible subset of the full edge
  set: every omitted edge is implied by a path, so reachability — and
  therefore executor readiness times and makespans — are unchanged.
* :func:`build_dependences_reference` — the original full-history scan
  (O(n²) between barriers), kept as the oracle for differential tests
  (``tests/runtime/test_dependence_fastpath.py``).

See ``docs/performance.md`` for the frontier algorithm and its bounds.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass

from repro.runtime.graph import InstanceKind, Program, TaskGraph
from repro.runtime.regions import AccessMode, Region


@dataclass(slots=True)
class _Access:
    instance_id: int
    invocation_id: int
    region: Region
    mode: AccessMode


def _add_edge(graph: TaskGraph, src: int, dst: int) -> None:
    if src == dst:
        return
    graph.instances[dst].deps.add(src)
    graph.instances[src].succs.add(dst)


def build_dependences_reference(graph: TaskGraph) -> TaskGraph:
    """Populate ``deps``/``succs`` by scanning the full access history.

    This is the original quadratic builder: every new access is checked
    against *every* earlier access of the same array since the last
    barrier.  It adds one direct edge per conflicting pair, which makes it
    the most explicit statement of the dependence semantics — and the
    oracle the frontier builder is differential-tested against.  Returns
    the same graph for chaining; existing edges are preserved.
    """
    # Per-array log of accesses since the last barrier.
    history: dict[str, list[_Access]] = {}
    in_flight: list[int] = []  # compute instances since the last barrier
    after_barrier: int | None = None  # the most recent barrier, if any

    for inst in graph.instances:
        if inst.kind is InstanceKind.BARRIER:
            for prior in in_flight:
                _add_edge(graph, prior, inst.instance_id)
            if after_barrier is not None and not in_flight:
                # chain consecutive barriers so ordering is kept
                _add_edge(graph, after_barrier, inst.instance_id)
            history.clear()
            in_flight.clear()
            after_barrier = inst.instance_id
            continue

        if after_barrier is not None:
            _add_edge(graph, after_barrier, inst.instance_id)

        for region, mode in inst.regions():
            assert isinstance(mode, AccessMode)
            log = history.setdefault(region.array, [])
            for prev in log:
                if prev.invocation_id == inst.invocation.invocation_id:
                    # chunks of one invocation are independent by construction
                    continue
                if not prev.region.overlaps(region):
                    continue
                raw = mode.reads and prev.mode.writes
                waw = mode.writes and prev.mode.writes
                war = mode.writes and prev.mode.reads
                if raw or waw or war:
                    _add_edge(graph, prev.instance_id, inst.instance_id)
            log.append(
                _Access(
                    instance_id=inst.instance_id,
                    invocation_id=inst.invocation.invocation_id,
                    region=region,
                    mode=mode,
                )
            )
        in_flight.append(inst.instance_id)

    return graph


class _ReaderIndex:
    """Interval-indexed readers-since-last-write of one array.

    The original frontier kept readers as a flat ``(start, end, id)``
    list, so every WAR query scanned *all* live readers — linear per
    write, quadratic over a read-heavy many-chunk barrier window.  This
    index keeps a sorted list of disjoint half-open intervals instead,
    each mapped to the tuple of reader ids covering it, so an overlap
    query is a bisect plus a walk over exactly the overlapped run —
    logarithmic in the number of segments plus output size.

    ``add`` splits the covered segments and extends their id tuples
    (coalescing equal neighbours to bound growth); ``subtract`` carves a
    committed write's range out, keeping only reads a future write could
    still WAR-depend on.  Both maintain the disjoint/sorted invariant, so
    ``starts`` and ``ends`` stay parallel bisectable arrays.
    """

    __slots__ = ("starts", "ends", "ids")

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.ids: list[tuple[int, ...]] = []

    def overlapping(self, start: int, end: int) -> list[int]:
        """Reader ids with any live read overlapping ``[start, end)``.

        Deduplicated in first-read order (a reader may span several
        segments), matching the flat list's one-entry-per-commit order.
        """
        starts, ids = self.starts, self.ids
        lo = bisect_right(self.ends, start)
        hi = lo
        count = len(starts)
        while hi < count and starts[hi] < end:
            hi += 1
        if lo == hi:
            return []
        if hi - lo == 1:
            return list(ids[lo])
        seen: dict[int, None] = {}
        for i in range(lo, hi):
            for rid in ids[i]:
                seen.setdefault(rid, None)
        return list(seen)

    def add(self, start: int, end: int, instance_id: int) -> None:
        """Record ``instance_id`` as a live reader of ``[start, end)``."""
        if end <= start:
            return
        starts, ends, ids = self.starts, self.ends, self.ids
        mine = (instance_id,)
        # the overlapped run is segments [lo, hi): the first whose end
        # exceeds ``start`` up to the first that starts at ``end`` or later
        lo = bisect_right(ends, start)
        count = len(starts)
        if lo == count or starts[lo] >= end:
            # nothing live under the read: one new segment
            if (lo and ends[lo - 1] == start and ids[lo - 1] == mine) or (
                lo < count and starts[lo] == end and ids[lo] == mine
            ):
                self._splice(lo, lo, [start], [end], [mine])
            else:
                starts.insert(lo, start)
                ends.insert(lo, end)
                ids.insert(lo, mine)
            return
        hi = lo + 1
        if hi == count or starts[hi] >= end:
            if starts[lo] == start and ends[lo] == end:
                # the read covers exactly one live segment: the reader
                # joins it in place, merging only when that makes it
                # equal to a touching neighbour
                owner = ids[lo]
                if instance_id in owner:
                    return
                joined = owner + mine
                if (lo and ends[lo - 1] == start
                        and ids[lo - 1] == joined) or (
                    hi < count and starts[hi] == end and ids[hi] == joined
                ):
                    self._splice(lo, hi, [start], [end], [joined])
                else:
                    ids[lo] = joined
                return
        else:
            while hi < count and starts[hi] < end:
                hi += 1
        # the replacement run, as flat pieces: gaps before a segment go
        # to the new reader alone, the overlapped part of a segment gains
        # it, the parts of the first and last segment outside the read
        # keep their owners.  Empty pieces are dropped and equal
        # neighbours coalesced when the run is written back.
        pieces: list = []
        cursor = start
        for i in range(lo, hi):
            s, e, owner = starts[i], ends[i], ids[i]
            if cursor < s:
                pieces += (cursor, s, mine)
            split_lo = s if s > start else start
            split_hi = e if e < end else end
            pieces += (s, split_lo, owner)
            pieces += (
                split_lo, split_hi,
                owner if instance_id in owner else owner + mine,
            )
            pieces += (split_hi, e, owner)
            if split_hi > cursor:
                cursor = split_hi
        pieces += (cursor, end, mine)
        run_starts: list[int] = []
        run_ends: list[int] = []
        run_ids: list[tuple[int, ...]] = []
        for k in range(0, len(pieces), 3):
            s, e, owner = pieces[k], pieces[k + 1], pieces[k + 2]
            if s >= e:
                continue
            if run_ids and run_ids[-1] == owner and run_ends[-1] == s:
                run_ends[-1] = e  # coalesce equal neighbours
            else:
                run_starts.append(s)
                run_ends.append(e)
                run_ids.append(owner)
        self._splice(lo, hi, run_starts, run_ends, run_ids)

    def _splice(self, lo: int, hi: int, starts: list, ends: list,
                ids: list) -> None:
        """Replace segments ``[lo, hi)`` by a coalesced run of new ones.

        The run is merged with a touching outer neighbour that has the
        same readers, so no two touching segments ever share a tuple.
        """
        if lo and self.ends[lo - 1] == starts[0] and self.ids[lo - 1] == ids[0]:
            lo -= 1
            starts[0] = self.starts[lo]
        if (
            hi < len(self.starts)
            and self.starts[hi] == ends[-1]
            and self.ids[hi] == ids[-1]
        ):
            ends[-1] = self.ends[hi]
            hi += 1
        self.starts[lo:hi] = starts
        self.ends[lo:hi] = ends
        self.ids[lo:hi] = ids

    def subtract(self, start: int, end: int) -> None:
        """Drop all reads of ``[start, end)`` (a write superseded them)."""
        starts, ends, ids = self.starts, self.ends, self.ids
        lo = bisect_right(ends, start)
        count = len(starts)
        if lo == count or starts[lo] >= end:
            return
        hi = lo + 1
        if hi == count or starts[hi] >= end:
            if starts[lo] >= start and ends[lo] <= end:
                # one segment, wholly superseded: drop it in place
                del starts[lo], ends[lo], ids[lo]
                return
        else:
            while hi < count and starts[hi] < end:
                hi += 1
        run_starts: list[int] = []
        run_ends: list[int] = []
        run_ids: list[tuple[int, ...]] = []
        for i in range(lo, hi):
            s, e, owner = starts[i], ends[i], ids[i]
            if s < start:
                run_starts.append(s)
                run_ends.append(start)
                run_ids.append(owner)
            if e > end:
                run_starts.append(end)
                run_ends.append(e)
                run_ids.append(owner)
        starts[lo:hi] = run_starts
        ends[lo:hi] = run_ends
        ids[lo:hi] = run_ids


class _ArrayFrontier:
    """Last-writer interval index + reader interval index of one array.

    The writer frontier is a sorted list of disjoint half-open intervals,
    each owned by the instance whose write most recently covered it;
    overlap queries are a bisect plus a walk over the overlapped run.
    Readers since the last write live in a :class:`_ReaderIndex` with the
    same interval discipline, so WAR queries are logarithmic too
    (ROADMAP item: interval tree for read-heavy many-chunk programs).
    """

    __slots__ = ("wstarts", "wends", "wids", "readers")

    def __init__(self) -> None:
        self.wstarts: list[int] = []
        self.wends: list[int] = []
        self.wids: list[int] = []
        self.readers = _ReaderIndex()

    def commit_write(self, start: int, end: int, instance_id: int) -> None:
        """Make ``instance_id`` the last writer of ``[start, end)``."""
        readers = self.readers
        if readers.ends:
            readers.subtract(start, end)
        wstarts, wends, wids = self.wstarts, self.wends, self.wids
        # entries are disjoint and sorted, so both starts and ends are
        # sorted: the overlapped run begins at the first entry whose end
        # exceeds ``start`` and continues while entry.start < end.
        lo = bisect_right(wends, start)
        count = len(wstarts)
        if lo < count and wstarts[lo] == start and wends[lo] == end:
            wids[lo] = instance_id  # the same range, rewritten in place
            return
        hi = lo
        while hi < count and wstarts[hi] < end:
            hi += 1
        run_starts: list[int] = []
        run_ends: list[int] = []
        run_ids: list[int] = []
        if lo < hi and wstarts[lo] < start:
            run_starts.append(wstarts[lo])
            run_ends.append(start)
            run_ids.append(wids[lo])
        run_starts.append(start)
        run_ends.append(end)
        run_ids.append(instance_id)
        if lo < hi and wends[hi - 1] > end:
            run_starts.append(end)
            run_ends.append(wends[hi - 1])
            run_ids.append(wids[hi - 1])
        wstarts[lo:hi] = run_starts
        wends[lo:hi] = run_ends
        wids[lo:hi] = run_ids


def build_dependences(graph: TaskGraph) -> TaskGraph:
    """Populate ``deps``/``succs`` of every instance in ``graph`` in place.

    Frontier fast path: equivalent reachability to
    :func:`build_dependences_reference` (hence identical executor
    behaviour), but near-linear in the instance count — a new access only
    consults the last writer(s) of its range and the reads since, never
    the full history.  Regions come from the graph's access-row table.
    Returns the same graph for chaining.  Existing edges are preserved
    (strategies may add explicit edges before calling this).
    """
    # a frontier is made at its array's first commit; queries only get
    frontiers: defaultdict[str, _ArrayFrontier] = defaultdict(_ArrayFrontier)
    in_flight: list[int] = []
    after_barrier: int | None = None

    # edges are added inline (deps first, then succs, as _add_edge
    # does).  No self-edge can arise: every source is a barrier or an
    # instance of an earlier, already committed invocation.
    instances = graph.instances
    rows = graph.access_rows
    total = len(instances)
    i = 0
    while i < total:
        inst = instances[i]
        if inst.kind is InstanceKind.BARRIER:
            barrier_id = inst.instance_id
            deps = inst.deps
            for prior in in_flight:
                deps.add(prior)
                instances[prior].succs.add(barrier_id)
            if after_barrier is not None and not in_flight:
                deps.add(after_barrier)
                instances[after_barrier].succs.add(barrier_id)
            frontiers.clear()
            in_flight.clear()
            after_barrier = barrier_id
            i += 1
            continue

        # Chunks of one invocation never conflict, so the whole batch of
        # consecutive instances of this invocation queries the frontier
        # first and commits its own accesses only afterwards.  No frontier
        # work that cannot produce an edge is done: the batch queries
        # only arrays an earlier batch of this barrier window committed
        # to (none right after a barrier), and it commits only when
        # another invocation of the window follows.
        inv_id = inst.invocation.invocation_id
        j = i
        writes: list[tuple[str, int, int, int]] = []
        reads: list[tuple[str, int, int, int]] = []
        while j < total:
            member = instances[j]
            if (
                member.kind is not InstanceKind.COMPUTE
                or member.invocation.invocation_id != inv_id
            ):
                break
            member_id = member.instance_id
            deps = member.deps
            if after_barrier is not None:
                deps.add(after_barrier)
                instances[after_barrier].succs.add(member_id)
            for region, mode in rows[member_id].regions:
                start, end = region.start, region.end
                if end <= start:  # empty PREFIX chunk
                    continue
                array = region.array
                frontier = frontiers.get(array)
                if frontier is not None:
                    # the overlap queries, inline: most accesses overlap
                    # one segment, whose owner is read directly.  RAW and
                    # WAW both look at the write frontier.
                    wends = frontier.wends
                    lo = bisect_right(wends, start)
                    count = len(wends)
                    wstarts = frontier.wstarts
                    if lo < count and wstarts[lo] < end:
                        hi = lo + 1
                        if hi == count or wstarts[hi] >= end:
                            src = frontier.wids[lo]
                            deps.add(src)
                            instances[src].succs.add(member_id)
                        else:
                            while hi < count and wstarts[hi] < end:
                                hi += 1
                            for src in frontier.wids[lo:hi]:
                                deps.add(src)
                                instances[src].succs.add(member_id)
                    if mode.writes:
                        readers = frontier.readers
                        rends = readers.ends
                        lo = bisect_right(rends, start)
                        count = len(rends)
                        rstarts = readers.starts
                        if lo < count and rstarts[lo] < end:
                            if lo + 1 == count or rstarts[lo + 1] >= end:
                                srcs = readers.ids[lo]
                            else:
                                srcs = readers.overlapping(start, end)
                            for src in srcs:
                                deps.add(src)  # WAR
                                instances[src].succs.add(member_id)
                if mode.writes:
                    writes.append((array, start, end, member_id))
                if mode.reads:
                    reads.append((array, start, end, member_id))
            in_flight.append(member_id)
            j += 1
        if j < total and instances[j].kind is InstanceKind.COMPUTE:
            # writes first, then reads: a read of this invocation survives
            # a sibling chunk's write to the same range, exactly as the
            # reference builder's same-invocation skip behaves.
            for array, start, end, member_id in writes:
                frontiers[array].commit_write(start, end, member_id)
            for array, start, end, member_id in reads:
                frontiers[array].readers.add(start, end, member_id)
        i = j

    return graph


def endpoint_order(
    program: Program, shape: tuple[int, ...], rows: list
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The order of a graph's region endpoints: equal orders, equal edges.

    ``shape`` is the graph's chunk count per invocation of ``program``
    and ``rows`` its :attr:`~repro.runtime.graph.TaskGraph.access_rows`.
    :func:`build_dependences` only *compares* region endpoints, and only
    those of one array within one barrier window (it resets at each
    barrier); it never computes with them.  So two graphs of one program
    with the same shape build the same edges whenever, per window and
    per array, every endpoint has the same rank among that array's
    endpoints (ties stay ties) — which is what this returns, per window
    in program order, per array in first-access order.  A window of one
    invocation contributes nothing: its chunks never query each other,
    so its edges are the barrier edges the shape fixes.
    """
    order = []
    first = end = 0  # row range of the current window
    invocations = 0
    for inv, count in zip(program.invocations, shape):
        end += count
        invocations += 1
        if inv.sync_after:
            if invocations > 1:
                order.append(_window_ranks(rows, first, end))
            first = end = end + 1  # past the barrier's row
            invocations = 0
    if invocations > 1:
        order.append(_window_ranks(rows, first, end))
    return tuple(order)


def _window_ranks(
    rows: list, first: int, end: int
) -> tuple[tuple[int, ...], ...]:
    """Per array, the rank of each region endpoint of rows ``[first, end)``."""
    points: dict[str, list[int]] = {}
    for k in range(first, end):
        for region, _mode in rows[k].regions:
            ends = points.get(region.array)
            if ends is None:
                points[region.array] = [region.start, region.end]
            else:
                ends.append(region.start)
                ends.append(region.end)
    return tuple(
        tuple(map(
            {v: r for r, v in enumerate(sorted(set(ends)))}.__getitem__, ends
        ))
        for ends in points.values()
    )


def dependence_chains(graph: TaskGraph) -> dict[int, int]:
    """Each compute instance's *chain id* for locality scheduling.

    The ``instance id -> chain id`` mapping of :attr:`TaskGraph.chains`
    (see there for how chains form), barriers left out.
    """
    return {
        iid: chain for iid, chain in enumerate(graph.chains)
        if chain is not None
    }
