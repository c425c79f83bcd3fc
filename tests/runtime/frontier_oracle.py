"""Reference copy of the frontier dependence builder.

This is :func:`~repro.runtime.dependence.build_dependences` with its
:class:`_ArrayFrontier` and :class:`_ReaderIndex` in their plain form:
every writer and reader query goes through ``_overlap_range``, and every
commit rebuilds the overlapped run of segments by slice assignment.  The
library's builder answers single-segment queries inline and updates an
exactly matching segment in place; ``test_frontier_oracle.py`` requires
it to build exactly the edges this copy builds.  Keep this as it is: it
is the specification, not code to optimize.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict

from repro.runtime.graph import InstanceKind, TaskGraph


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

    def _overlap_range(self, start: int, end: int) -> tuple[int, int]:
        """Index range of segments overlapping ``[start, end)``."""
        lo = bisect_right(self.ends, start)
        hi = lo
        n = len(self.starts)
        while hi < n and self.starts[hi] < end:
            hi += 1
        return lo, hi

    def overlapping(self, start: int, end: int) -> list[int]:
        """Reader ids with any live read overlapping ``[start, end)``.

        Deduplicated in first-read order (a reader may span several
        segments), matching the flat list's one-entry-per-commit order.
        """
        lo, hi = self._overlap_range(start, end)
        if lo == hi:
            return []
        if hi - lo == 1:
            return list(self.ids[lo])
        seen: dict[int, None] = {}
        for i in range(lo, hi):
            for rid in self.ids[i]:
                seen.setdefault(rid, None)
        return list(seen)

    def add(self, start: int, end: int, instance_id: int) -> None:
        """Record ``instance_id`` as a live reader of ``[start, end)``."""
        if end <= start:
            return
        lo, hi = self._overlap_range(start, end)
        mine = (instance_id,)
        if lo == hi:  # nothing live under the read: one new segment
            starts, ends, ids = self.starts, self.ends, self.ids
            if (lo and ends[lo - 1] == start and ids[lo - 1] == mine) or (
                lo < len(starts) and starts[lo] == end and ids[lo] == mine
            ):
                self._splice(lo, hi, [start], [end], [mine])
            else:
                starts.insert(lo, start)
                ends.insert(lo, end)
                ids.insert(lo, mine)
            return
        # the replacement run, as flat pieces: gaps before a segment go
        # to the new reader alone, the overlapped part of a segment gains
        # it, the parts of the first and last segment outside the read
        # keep their owners.  Empty pieces are dropped and equal
        # neighbours coalesced when the run is written back.
        pieces: list = []
        cursor = start
        for i in range(lo, hi):
            s, e, owner = self.starts[i], self.ends[i], self.ids[i]
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
        starts: list[int] = []
        ends: list[int] = []
        ids: list[tuple[int, ...]] = []
        for k in range(0, len(pieces), 3):
            s, e, owner = pieces[k], pieces[k + 1], pieces[k + 2]
            if s >= e:
                continue
            if ids and ids[-1] == owner and ends[-1] == s:
                ends[-1] = e  # coalesce equal neighbours
            else:
                starts.append(s)
                ends.append(e)
                ids.append(owner)
        self._splice(lo, hi, starts, ends, ids)

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
        lo, hi = self._overlap_range(start, end)
        if lo == hi:
            return
        starts: list[int] = []
        ends: list[int] = []
        ids: list[tuple[int, ...]] = []
        for i in range(lo, hi):
            s, e, owner = self.starts[i], self.ends[i], self.ids[i]
            if s < start:
                starts.append(s)
                ends.append(start)
                ids.append(owner)
            if e > end:
                starts.append(end)
                ends.append(e)
                ids.append(owner)
        self.starts[lo:hi] = starts
        self.ends[lo:hi] = ends
        self.ids[lo:hi] = ids


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

    def _overlap_range(self, start: int, end: int) -> tuple[int, int]:
        """Index range of writer entries overlapping ``[start, end)``."""
        # entries are disjoint and sorted, so both starts and ends are
        # sorted: the overlapped run begins at the first entry whose end
        # exceeds ``start`` and continues while entry.start < end.
        lo = bisect_right(self.wends, start)
        hi = lo
        n = len(self.wstarts)
        while hi < n and self.wstarts[hi] < end:
            hi += 1
        return lo, hi

    def writers_overlapping(self, start: int, end: int) -> list[int]:
        lo, hi = self._overlap_range(start, end)
        return self.wids[lo:hi]

    def commit_write(self, start: int, end: int, instance_id: int) -> None:
        """Make ``instance_id`` the last writer of ``[start, end)``."""
        self.readers.subtract(start, end)
        lo, hi = self._overlap_range(start, end)
        starts: list[int] = []
        ends: list[int] = []
        ids: list[int] = []
        if lo < hi and self.wstarts[lo] < start:
            starts.append(self.wstarts[lo])
            ends.append(start)
            ids.append(self.wids[lo])
        starts.append(start)
        ends.append(end)
        ids.append(instance_id)
        if lo < hi and self.wends[hi - 1] > end:
            starts.append(end)
            ends.append(self.wends[hi - 1])
            ids.append(self.wids[hi - 1])
        self.wstarts[lo:hi] = starts
        self.wends[lo:hi] = ends
        self.wids[lo:hi] = ids

    def commit_read(self, start: int, end: int, instance_id: int) -> None:
        self.readers.add(start, end, instance_id)


def oracle_build_dependences(graph: TaskGraph) -> TaskGraph:
    """Populate ``deps``/``succs`` of every instance in ``graph`` in place.

    The frontier builder as it was before its queries were inlined: the
    same edges, added in the same order, as
    :func:`repro.runtime.dependence.build_dependences`.  Returns the same
    graph for chaining; existing edges are preserved.
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
                    # RAW and WAW both look at the write frontier
                    for src in frontier.writers_overlapping(start, end):
                        deps.add(src)
                        instances[src].succs.add(member_id)
                    if mode.writes:
                        for src in frontier.readers.overlapping(start, end):
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
                frontiers[array].commit_read(start, end, member_id)
        i = j

    return graph
