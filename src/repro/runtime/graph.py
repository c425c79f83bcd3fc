"""Programs, kernel invocations, task instances and the task graph.

A data-parallel application is represented at two levels:

* **Program level** — an ordered list of :class:`KernelInvocation` (one per
  kernel execution in the unrolled execution flow: loops are unrolled into
  one invocation per iteration) interleaved with ``taskwait`` markers.
* **Task level** — each invocation is *chunked* into one or more
  :class:`TaskInstance` (the OmpSs task instances the paper schedules).
  Static strategies pin instances to devices/resources; dynamic strategies
  leave them unpinned for the scheduler.

The :class:`TaskGraph` holds the instances plus the dependence edges added
by :func:`repro.runtime.dependence.build_dependences`, and its
:attr:`TaskGraph.access_rows` table — the one source of what each
instance reads and writes, for every consumer of regions — and its
:attr:`TaskGraph.succs_sorted` table, the order completions release
successors in.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

from repro.errors import ConfigurationError, DependenceError
from repro.platform.device import Device
from repro.runtime.kernels import AccessPattern, Kernel
from repro.runtime.regions import AccessMode, ArraySpec, Region


class InstanceKind(enum.Enum):
    """Kind of node in the task graph."""

    COMPUTE = "compute"
    #: ``taskwait``: waits for all prior instances and flushes device data
    #: to host memory.
    BARRIER = "barrier"


@dataclass(frozen=True)
class KernelInvocation:
    """One execution of a kernel in the (unrolled) program flow.

    Parameters
    ----------
    invocation_id:
        Unique id within the program, in program order.
    kernel:
        The invoked kernel.
    n:
        Problem size — number of kernel indices of this invocation.
    iteration:
        Loop iteration this invocation belongs to (0 for non-loop code).
    sync_after:
        Whether a ``taskwait`` follows this invocation.
    """

    invocation_id: int
    kernel: Kernel
    n: int
    iteration: int = 0
    sync_after: bool = False

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ConfigurationError(
                f"invocation {self.invocation_id} of {self.kernel.name!r}: "
                f"problem size must be positive, got {self.n}"
            )


def _class_memo(memos: list, device: Device, share: float) -> dict:
    """The memo in ``memos`` for ``(device, share)``, added when missing.

    Devices are matched by identity, and ``memos`` holds them, so a memo
    is never read for another device.
    """
    for held, held_share, memo in memos:
        if held is device and held_share == share:
            return memo
    memo = {}
    memos.append((device, share, memo))
    return memo


@dataclass
class Program:
    """An ordered sequence of kernel invocations plus the data arrays."""

    invocations: list[KernelInvocation]
    arrays: dict[str, ArraySpec]
    _chunk_times: list | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        ids = [inv.invocation_id for inv in self.invocations]
        if ids != sorted(set(ids)):
            raise ConfigurationError("invocation ids must be unique and ordered")
        for inv in self.invocations:
            for acc in inv.kernel.accesses:
                known = self.arrays.get(acc.array.name)
                if known is None or known != acc.array:
                    raise ConfigurationError(
                        f"kernel {inv.kernel.name!r} accesses array "
                        f"{acc.array.name!r} not declared (or mismatched) in "
                        "the program"
                    )

    @property
    def kernels(self) -> list[Kernel]:
        """Distinct kernels in first-appearance order."""
        seen: dict[str, Kernel] = {}
        for inv in self.invocations:
            seen.setdefault(inv.kernel.name, inv.kernel)
        return list(seen.values())

    def total_indices(self) -> int:
        """Sum of problem sizes over all invocations (workload proxy)."""
        return sum(inv.n for inv in self.invocations)

    def chunk_times(self, device: Device, share: float) -> dict:
        """The memo of compute times of this program's chunks on ``device``.

        Maps ``(id(kernel), work units, n)`` to :meth:`Kernel.chunk_time`
        on ``device`` at ``share``, without the task-creation overhead.
        It backs :meth:`TaskGraph.chunk_times`: every graph built from
        the program — the static candidates of a sweep each pin their
        own — reads one memo per ``(device, share)``.  The program keeps
        its kernels alive, so their ids stay theirs; ``Kernel`` itself
        is unhashable (its ``params`` is a dict).
        """
        if self._chunk_times is None:
            self._chunk_times = []
        return _class_memo(self._chunk_times, device, share)

    def __getstate__(self) -> dict:
        # kernel ids do not survive a copy or a pickle: drop the memo
        state = dict(self.__dict__)
        state["_chunk_times"] = None
        return state


@dataclass
class TaskInstance:
    """One schedulable chunk of one kernel invocation.

    ``pinned_device``/``pinned_resource`` implement static partitioning:
    a device pin restricts the instance to any resource of that device, a
    resource pin nails it to one specific resource (one CPU thread).
    Unpinned instances are the dynamic scheduler's to place.
    """

    instance_id: int
    kind: InstanceKind
    invocation: KernelInvocation | None = None
    lo: int = 0
    hi: int = 0
    pinned_device: str | None = None
    pinned_resource: str | None = None
    #: instance ids this instance depends on (filled by dependence analysis)
    deps: set[int] = field(default_factory=set)
    #: instance ids depending on this instance
    succs: set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        if self.kind is InstanceKind.COMPUTE:
            if self.invocation is None:
                raise ConfigurationError("compute instance needs an invocation")
            if not (0 <= self.lo < self.hi <= self.invocation.n):
                raise ConfigurationError(
                    f"instance {self.instance_id}: chunk [{self.lo}, {self.hi}) "
                    f"outside invocation size {self.invocation.n}"
                )

    @property
    def size(self) -> int:
        """Number of kernel indices in this chunk (0 for barriers)."""
        return self.hi - self.lo if self.kind is InstanceKind.COMPUTE else 0

    @property
    def kernel(self) -> Kernel:
        if self.invocation is None:
            raise ConfigurationError(f"instance {self.instance_id} has no kernel")
        return self.invocation.kernel

    @property
    def is_barrier(self) -> bool:
        return self.kind is InstanceKind.BARRIER

    def regions(self) -> list[tuple[Region, "object"]]:
        """``(region, mode)`` pairs this instance touches (compute only)."""
        if self.kind is not InstanceKind.COMPUTE:
            return []
        return [
            (acc.region(self.lo, self.hi), acc.mode)
            for acc in self.kernel.accesses
        ]

    def label(self) -> str:
        """Short display label for traces."""
        if self.is_barrier:
            return f"taskwait#{self.instance_id}"
        return f"{self.kernel.name}[{self.lo}:{self.hi})#{self.instance_id}"


class AccessRow(NamedTuple):
    """The regions one compute instance touches, in every form consumers read.

    ``regions`` equals ``inst.regions()`` (kernel access order); ``reads``
    and ``writes`` split it by direction; ``partial_reads`` holds the
    non-FULL reads with their element size, and ``in_bytes``/
    ``out_bytes`` total the non-FULL reads/writes — FULL accesses are
    fetched once per device, not per chunk, so schedulers leave them out.

    A row is a tuple, so it is immutable and costs one allocation to
    build, but it compares and hashes by identity, as the plan compiler's
    wave classes and the schedulers' per-row memos need: two rows with
    equal regions may still belong to different kernels.
    """

    regions: list[tuple[Region, AccessMode]]
    reads: tuple[Region, ...]
    writes: tuple[Region, ...]
    partial_reads: tuple[tuple[Region, int], ...]
    in_bytes: int
    out_bytes: int

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__


#: builds an :class:`AccessRow` from its field tuple, skipping the
#: keyword-capable ``__new__`` a NamedTuple call goes through
_new_row = tuple.__new__


def _compile_accesses(
    kernel: Kernel, regions: dict[tuple, Region]
) -> tuple[tuple, ...]:
    """Per-access descriptors of ``kernel``, resolved once per row table.

    Each is ``(array, mode, FULL region or None, prefix, halo,
    elems_per_index, n_elems, elem_bytes)``.  ``regions`` is the
    table's region objects by ``(array, start, end)``; a FULL access
    takes its array's whole region from there, once.
    """
    descs = []
    for acc in kernel.accesses:
        spec = acc.array
        full = None
        if acc.pattern is AccessPattern.FULL:
            key = (spec.name, 0, spec.n_elems)
            full = regions.get(key)
            if full is None:
                full = regions[key] = spec.full_region()
        descs.append((
            spec.name, acc.mode, full, acc.prefix, acc.halo,
            acc.elems_per_index, spec.n_elems, spec.elem_bytes,
        ))
    return tuple(descs)


def _access_row(
    descs: tuple[tuple, ...], lo: int, hi: int, regions: dict[tuple, Region]
) -> AccessRow:
    """The :class:`AccessRow` of chunk ``[lo, hi)`` of a compiled kernel.

    Regions come from :meth:`~repro.runtime.kernels.AccessSpec.region`'s
    arithmetic, and one object per ``(array, start, end)`` is made per
    table: the kernels of a program read and write the same chunk ranges.
    """
    row_regions = []
    reads = []
    writes = []
    partial_reads = []
    in_bytes = out_bytes = 0
    for name, mode, region, prefix, halo, epi, n_elems, elem_bytes in descs:
        if region is None:  # PARTITIONED or PREFIX: scales with the chunk
            if prefix is not None:
                start, end = int(prefix[lo]), int(prefix[hi])
            else:
                start = max(0, lo - halo) * epi
                end = min((hi + halo) * epi, n_elems)
            key = (name, start, end)
            region = regions.get(key)
            if region is None:
                region = regions[key] = Region(name, start, end)
            nbytes = (end - start) * elem_bytes
            if mode.reads:
                partial_reads.append((region, elem_bytes))
                in_bytes += nbytes
            if mode.writes:
                out_bytes += nbytes
        row_regions.append((region, mode))
        if mode.reads:
            reads.append(region)
        if mode.writes:
            writes.append(region)
    return _new_row(AccessRow, (
        row_regions, tuple(reads), tuple(writes), tuple(partial_reads),
        in_bytes, out_bytes,
    ))


@dataclass
class TaskGraph:
    """The fully expanded, dependence-annotated set of task instances."""

    program: Program
    instances: list[TaskInstance] = field(default_factory=list)
    _access_rows: list | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _succs_sorted: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _chains: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _chunk_times: list | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def access_rows(self) -> list[AccessRow | None]:
        """Per-instance :class:`AccessRow`, indexed by ``instance_id``.

        Built on first use; barriers get ``None``.  Instances with the
        same ``(kernel object, lo, hi)`` signature share one row object —
        looped programs re-issue the same chunk every iteration, and the
        plan compiler's wave classes key on row identity.  The kernel
        *object* keys the signature: DAG apps emit distinct same-named
        kernels over different arrays (Cholesky's per-tile gemms).  Each
        kernel's accesses are compiled once per table
        (:func:`_compile_accesses`), and the table makes one region
        object per ``(array, start, end)`` — one per array for all FULL
        accesses.
        """
        rows = self._access_rows
        if rows is None:
            shared: dict[tuple, AccessRow] = {}
            compiled: dict[int, tuple] = {}
            regions: dict[tuple, Region] = {}
            rows = self._access_rows = []
            for inst in self.instances:
                if inst.kind is not InstanceKind.COMPUTE:
                    rows.append(None)
                    continue
                kernel = inst.invocation.kernel
                key = (id(kernel), inst.lo, inst.hi)
                row = shared.get(key)
                if row is None:
                    descs = compiled.get(key[0])
                    if descs is None:
                        descs = compiled[key[0]] = _compile_accesses(
                            kernel, regions
                        )
                    row = shared[key] = _access_row(
                        descs, inst.lo, inst.hi, regions
                    )
                rows.append(row)
        return rows

    @property
    def succs_sorted(self) -> tuple[tuple[int, ...], ...]:
        """Per-instance successor ids in ascending order, by ``instance_id``.

        The order in which a completion releases its successors — the
        engine, the plan evaluator and the plan compiler all read it.
        Built on first use, so only after the dependences are in place.
        Immutable, so graphs with the same edges may share one table
        (:meth:`adopt_edges`).
        """
        table = self._succs_sorted
        if table is None:
            table = self._succs_sorted = tuple(
                [tuple(sorted(inst.succs)) for inst in self.instances]
            )
        return table

    @property
    def chains(self) -> tuple[int | None, ...]:
        """Per-instance dependence-chain id, by ``instance_id``.

        DP-Dep and DP-Perf keep the instances of one chain on one device
        to minimize transfers.  A compute instance joins the chain of its
        lowest-id compute dependence; one without compute dependences
        starts a new chain.  Barriers get ``None``.  Built on first use,
        like :attr:`succs_sorted`, so only after the dependences are in
        place, and once per graph however many runs schedule it.
        """
        table = self._chains
        if table is None:
            chains: list[int | None] = []
            next_chain = 0
            for inst in self.instances:
                if inst.kind is not InstanceKind.COMPUTE:
                    chains.append(None)
                    continue
                # only the minimum earlier compute dep matters, so the
                # set is scanned once, not sorted
                here = len(chains)
                best = -1
                for dep in inst.deps:
                    if (best < 0 or dep < best) and dep < here \
                            and chains[dep] is not None:
                        best = dep
                if best < 0:
                    chains.append(next_chain)
                    next_chain += 1
                else:
                    chains.append(chains[best])
            table = self._chains = tuple(chains)
        return table

    def chunk_times(self, device: Device, share: float) -> dict:
        """The memo of compute times of this graph's chunks on ``device``.

        Maps ``(access row, n)`` to :meth:`Kernel.chunk_time` of the
        row's chunk of an ``n``-index invocation on ``device`` at
        ``share``, without the task-creation overhead, which each run's
        config adds.  The times are pure roofline arithmetic, so every
        run of the graph reads one memo per ``(device, share)``: the
        cells of a sweep that share the graph
        (:class:`~repro.partition.base.SweepScope`) compute each time
        once.  A miss here is filled from the program's memo
        (:meth:`Program.chunk_times`), which graphs with other rows
        share.
        """
        if self._chunk_times is None:
            self._chunk_times = []
        return _class_memo(self._chunk_times, device, share)

    def adopt_edges(self, succs_sorted: tuple[tuple[int, ...], ...]) -> None:
        """Give this edge-free graph the edges of a ``succs_sorted`` table.

        The table, from another graph of the same instance structure, is
        shared as it is; each instance gets its own ``deps``/``succs``
        sets, so no mutable set is shared between graphs.
        """
        instances = self.instances
        for inst, succs in zip(instances, succs_sorted):
            if succs:
                inst.succs.update(succs)
                src = inst.instance_id
                for dst in succs:
                    instances[dst].deps.add(src)
        self._succs_sorted = succs_sorted

    def instance(self, instance_id: int) -> TaskInstance:
        inst = self.instances[instance_id]
        if inst.instance_id != instance_id:
            raise DependenceError("task graph instance ids out of order")
        return inst

    @property
    def n_edges(self) -> int:
        return sum(len(i.deps) for i in self.instances)

    def roots(self) -> list[TaskInstance]:
        """Instances with no dependences (ready at time zero)."""
        return [i for i in self.instances if not i.deps]

    def validate_acyclic(self) -> None:
        """Raise :class:`DependenceError` when the graph has a cycle.

        Dependences are built from program order so cycles indicate a bug;
        the integration tests call this on every constructed graph.  A
        graph whose every edge runs from a lower to a higher instance id,
        as every edge :func:`~repro.runtime.dependence.build_dependences`
        adds does, is acyclic by that order and passes in one pass; any
        other is searched depth-first.
        """
        for iid, inst in enumerate(self.instances):
            succs = inst.succs
            if succs and min(succs) <= iid:
                break
        else:
            return
        state = [0] * len(self.instances)  # 0 new, 1 visiting, 2 done
        for start in range(len(self.instances)):
            if state[start]:
                continue
            stack: list[tuple[int, Iterable[int]]] = [
                (start, iter(self.instances[start].succs))
            ]
            state[start] = 1
            while stack:
                node, it = stack[-1]
                advanced = False
                for succ in it:
                    if state[succ] == 1:
                        raise DependenceError(
                            f"dependence cycle through instances {node} -> {succ}"
                        )
                    if state[succ] == 0:
                        state[succ] = 1
                        stack.append((succ, iter(self.instances[succ].succs)))
                        advanced = True
                        break
                if not advanced:
                    state[node] = 2
                    stack.pop()


def chunk_ranges(n: int, n_chunks: int) -> list[tuple[int, int]]:
    """Split ``[0, n)`` into ``n_chunks`` contiguous near-equal ranges.

    The first ``n % n_chunks`` chunks get one extra index.  When
    ``n_chunks > n`` only ``n`` single-index chunks are produced (a task
    instance cannot be empty).
    """
    if n <= 0:
        raise ConfigurationError(f"n must be positive, got {n}")
    if n_chunks <= 0:
        raise ConfigurationError(f"n_chunks must be positive, got {n_chunks}")
    n_chunks = min(n_chunks, n)
    base, extra = divmod(n, n_chunks)
    ranges = []
    lo = 0
    for i in range(n_chunks):
        hi = lo + base + (1 if i < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def split_sizes(n: int, sizes: Sequence[int]) -> list[tuple[int, int]]:
    """Split ``[0, n)`` into contiguous ranges of the given ``sizes``.

    Zero sizes are skipped (producing no range); sizes must sum to ``n``.
    """
    if sum(sizes) != n:
        raise ConfigurationError(
            f"split sizes {list(sizes)} do not sum to problem size {n}"
        )
    ranges = []
    lo = 0
    for size in sizes:
        if size < 0:
            raise ConfigurationError("split sizes must be >= 0")
        if size:
            ranges.append((lo, lo + size))
            lo += size
    return ranges


def expand_program(
    program: Program,
    chunker,
) -> TaskGraph:
    """Expand a program into a :class:`TaskGraph` (without dependences).

    ``chunker(invocation)`` returns a list of
    ``(lo, hi, pinned_device, pinned_resource)`` tuples describing this
    invocation's task instances.  A barrier instance is appended after
    every invocation whose ``sync_after`` flag is set.
    """
    graph = TaskGraph(program=program)
    next_id = 0
    for inv in program.invocations:
        for lo, hi, dev, res in chunker(inv):
            graph.instances.append(
                TaskInstance(
                    instance_id=next_id,
                    kind=InstanceKind.COMPUTE,
                    invocation=inv,
                    lo=lo,
                    hi=hi,
                    pinned_device=dev,
                    pinned_resource=res,
                )
            )
            next_id += 1
        if inv.sync_after:
            graph.instances.append(
                TaskInstance(instance_id=next_id, kind=InstanceKind.BARRIER)
            )
            next_id += 1
    return graph
