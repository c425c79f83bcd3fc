"""Arrays, regions and interval arithmetic for dependence & coherence.

The runtime reasons about data at the granularity of *element ranges* of
named 1-D arrays (2-D data is linearized row-wise, matching the paper's
row-wise partitioning).  Two pieces of machinery live here:

* :class:`Region` — a half-open element range ``[start, end)`` of one array,
  used by dependence analysis (overlap tests) and the memory model.
* :class:`IntervalSet` — a set of disjoint sorted intervals with union /
  subtraction / intersection, used by the coherence directory to track which
  parts of an array are valid in which memory space.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import DependenceError


class AccessMode(enum.Enum):
    """Data-access direction of a task on a region (OmpSs in/out/inout)."""

    IN = "in"
    OUT = "out"
    INOUT = "inout"

    def __init__(self, value: str) -> None:
        # plain member attributes, not properties: the dependence builder
        # and the access rows test them once per region access
        #: whether the access reads its region (``in``/``inout``)
        self.reads = value != "out"
        #: whether the access writes its region (``out``/``inout``)
        self.writes = value != "in"


@dataclass(frozen=True)
class ArraySpec:
    """A named data array of ``n_elems`` elements of ``elem_bytes`` bytes."""

    name: str
    n_elems: int
    elem_bytes: int = 4

    def __post_init__(self) -> None:
        if self.n_elems < 0:
            raise DependenceError(f"array {self.name}: n_elems must be >= 0")
        if self.elem_bytes <= 0:
            raise DependenceError(f"array {self.name}: elem_bytes must be > 0")

    @property
    def nbytes(self) -> int:
        return self.n_elems * self.elem_bytes

    def full_region(self) -> "Region":
        """The region covering the whole array."""
        return Region(self.name, 0, self.n_elems)


@dataclass(frozen=True, slots=True, init=False)
class Region:
    """Half-open element range ``[start, end)`` of array ``array``."""

    array: str
    start: int
    end: int

    def __init__(self, array: str, start: int, end: int) -> None:
        # validate, then fill the slots through their descriptors: a
        # frozen dataclass's generated __init__ goes through
        # object.__setattr__ and a __post_init__ call, twice the cost
        if start < 0 or end < start:
            raise DependenceError(
                f"invalid region [{start}, {end}) of {array!r}"
            )
        _set_array(self, array)
        _set_start(self, start)
        _set_end(self, end)

    @property
    def size(self) -> int:
        return self.end - self.start

    @property
    def empty(self) -> bool:
        return self.end <= self.start

    def overlaps(self, other: "Region") -> bool:
        """True when the two regions share at least one element.

        An empty region shares none, so it overlaps nothing.
        """
        return (
            self.array == other.array
            and self.start < other.end
            and other.start < self.end
            and self.start < self.end
            and other.start < other.end
        )

    def intersection(self, other: "Region") -> "Region | None":
        """The overlapping sub-region, or ``None`` when disjoint."""
        if not self.overlaps(other):
            return None
        return Region(self.array, max(self.start, other.start), min(self.end, other.end))

    def nbytes(self, elem_bytes: int) -> int:
        return self.size * elem_bytes


_set_array, _set_start, _set_end = (
    Region.__dict__[name].__set__ for name in ("array", "start", "end")
)


class IntervalSet:
    """A set of disjoint, sorted half-open integer intervals.

    Supports the operations the coherence directory needs.  Intervals are
    normalized on every mutation: sorted, non-empty, non-adjacent (adjacent
    intervals are merged), so equality of contents implies equality of
    representation.
    """

    __slots__ = ("_ivals",)

    def __init__(self, intervals: Iterable[tuple[int, int]] = ()) -> None:
        self._ivals: list[tuple[int, int]] = []
        for lo, hi in intervals:
            self.add(lo, hi)

    # -- basics -----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._ivals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._ivals == other._ivals

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._ivals)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"IntervalSet({self._ivals!r})"

    @property
    def intervals(self) -> list[tuple[int, int]]:
        """The disjoint sorted intervals (copy)."""
        return list(self._ivals)

    @property
    def total(self) -> int:
        """Total number of covered elements."""
        return sum(hi - lo for lo, hi in self._ivals)

    def copy(self) -> "IntervalSet":
        out = IntervalSet()
        out._ivals = list(self._ivals)
        return out

    # -- mutations ---------------------------------------------------------

    def add(self, lo: int, hi: int) -> None:
        """Union ``[lo, hi)`` into the set."""
        if hi <= lo:
            return
        ivals = self._ivals
        # fast paths: most sets the directory and the schedulers touch
        # hold at most one interval
        if not ivals:
            self._ivals = [(lo, hi)]
            return
        if len(ivals) == 1:
            a, b = ivals[0]
            if b < lo:
                self._ivals = [(a, b), (lo, hi)]
            elif a > hi:
                self._ivals = [(lo, hi), (a, b)]
            else:
                self._ivals = [(a if a < lo else lo, b if b > hi else hi)]
            return
        out: list[tuple[int, int]] = []
        placed = False
        for a, b in self._ivals:
            if b < lo or a > hi:  # disjoint and non-adjacent
                if a > hi and not placed:
                    out.append((lo, hi))
                    placed = True
                out.append((a, b))
            else:  # overlapping or adjacent: merge
                lo, hi = min(lo, a), max(hi, b)
        if not placed:
            out.append((lo, hi))
        out.sort()
        self._ivals = out

    def remove(self, lo: int, hi: int) -> None:
        """Subtract ``[lo, hi)`` from the set."""
        ivals = self._ivals
        if hi <= lo or not ivals:
            return
        if len(ivals) == 1:
            a, b = ivals[0]
            if b <= lo or a >= hi:
                return
            out = []
            if a < lo:
                out.append((a, lo))
            if b > hi:
                out.append((hi, b))
            self._ivals = out
            return
        out: list[tuple[int, int]] = []
        for a, b in self._ivals:
            if b <= lo or a >= hi:
                out.append((a, b))
                continue
            if a < lo:
                out.append((a, lo))
            if b > hi:
                out.append((hi, b))
        self._ivals = out

    def clear(self) -> None:
        self._ivals = []

    # -- queries ------------------------------------------------------------

    def contains(self, lo: int, hi: int) -> bool:
        """True when ``[lo, hi)`` is fully covered."""
        if hi <= lo:
            return True
        for a, b in self._ivals:
            if a <= lo and hi <= b:
                return True
        return False

    def overlap(self, lo: int, hi: int) -> int:
        """Covered elements of ``[lo, hi)``: ``intersect(lo, hi).total``.

        Allocation-free; the affinity scheduler scores every ready
        instance against every device with it.
        """
        total = 0
        for a, b in self._ivals:
            if a >= hi:
                break
            if b > lo:
                total += (b if b < hi else hi) - (a if a > lo else lo)
        return total

    def intersect(self, lo: int, hi: int) -> "IntervalSet":
        """The covered portions of ``[lo, hi)``."""
        out = IntervalSet()
        for a, b in self._ivals:
            x, y = max(a, lo), min(b, hi)
            if x < y:
                out.add(x, y)
        return out

    def missing(self, lo: int, hi: int) -> "IntervalSet":
        """The portions of ``[lo, hi)`` NOT covered by the set."""
        out = IntervalSet()
        if hi <= lo:
            return out
        # one sweep over the sorted intervals; they are disjoint and
        # non-adjacent, so the gaps come out normalized
        gaps = out._ivals
        cursor = lo
        for a, b in self._ivals:
            if b <= cursor:
                continue
            if a >= hi:
                break
            if a > cursor:
                gaps.append((cursor, a))
            cursor = b
            if cursor >= hi:
                return out
        gaps.append((cursor, hi))
        return out
