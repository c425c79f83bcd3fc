"""Compiled run-plans: static-plan lowering + one vectorized epoch drain.

The schedule×partition search engine (:mod:`repro.partition.search`) needs
orders of magnitude more simulated runs per second than the general
event-driven executor delivers, without giving up its exactness.  This
module gets there in two steps:

* :func:`compile_plan` lowers one static :class:`ExecutionPlan` into a
  :class:`CompiledPlan` of flat per-instance arrays — compute durations
  (signature-memoized roofline arithmetic), statically-known resource ids,
  and eager-writeback flags.  Plans that cannot be lowered (dynamic
  scheduler, unpinned instances) raise
  :class:`~repro.errors.PlanCompileError` and callers fall back to the
  general engine.

* :class:`PlanEvaluator` runs the compiled plan through the **real**
  engine — ``_EvalRun`` subclasses the executor's ``_Run``, so memory
  coherence, transfers, barriers and trace lanes are exact by
  construction — and adds one *drain*.  Barriers split a static plan
  into epochs: every instance up to the next barrier (the epoch's
  *fence*), or up to the end of the program once no barrier is left (an
  unfenced final epoch — a sync-free tail is just a final wave without a
  closing barrier).  At every quiet point — no transfer on the wire, no
  pending write-back, empty ready queue: after the first dispatch, when
  a barrier completes (before its successors dispatch), and when the
  wire count drops to zero — the evaluator tries to prove the rest of
  the current epoch and commit it analytically.

Exactness contract (enforced by
``tests/integration/test_plan_eval_differential.py``): in ``summary``
detail the evaluated artifact's makespan, per-resource busy times and
every other summary aggregate equal the general engine's bit-for-bit; in
``full`` detail the drain is disabled entirely, so artifacts are
byte-identical trivially.  The drain only commits when three gates —
all pure, nothing is mutated until every one passes — prove the engine
would have produced the same timeline:

* **G1 — FIFO chains**: every epoch instance has a static resource, its
  unmet dependences are the opening barrier or instances on its own
  resource, and its successors are on its own resource or are the
  fence.  A Kahn walk in the engine's release order, seeded from each
  resource's running head (or its ready roots when nothing runs), must
  cover the epoch: each resource's future is then an independent chain
  running back to back;
* **G2 — residency**: a shadow-directory walk finds every read already
  resident in its space, so no transfer would be issued.  One
  exception: a chain with no running head and a single root that is
  alone in its device space may fetch the missing ranges of its first
  link, by plain host-to-device copies of host-valid data (its chain
  then starts where those copies land);
* **G3 — disjoint writes**: written regions are disjoint across chains
  (chains sharing a memory space may overlap: their writes commute) and
  write-back regions pairwise disjoint, so committing writes and
  write-backs chain by chain commutes with the engine's completion
  order.

On success the commit replays the engine's exact arithmetic: the first
links' fetches through real ``ensure`` calls, compute chains bounded by
one :func:`repro.sim._vec.chain_bounds` cumsum across all chain anchors
(a running head's end, the landing time of the chain's fetches, or
``now``), rows bulk-appended with ``extend_rows``, the shadow directory
swapped in, eager write-backs (a running head's included) and the
fence's flush timed on per-link cursors, and one closure-free anchor
event (``FastSimulator.schedule_call``).  With a fence the anchor fires
at the modeled barrier completion — ``max(last chain end + quiescence
overhead, flush lands, write-backs land)`` — and re-enters the drain
for the next epoch, so a synced loop costs O(1) events per barrier.
Without one it fires at ``max(last chain end, last write-back
landing)``, so the final flush starts where the event loop would start
it.  On top sits the steady-wave template: the first commit of each
canonical wave class records its resolved transfer ops, and later waves
of the class replay as a pure float recurrence (``_replay_waves``).

When a gate fails nothing has been mutated and the run continues on the
ordinary event loop — still exact, just slower; the next quiet point
tries again.  Under ``REPRO_NO_NUMPY=1`` the chain bounds come from the
bit-identical sequential fallback.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, replace

from repro.artifact import RunArtifact, check_detail
from repro.errors import PlanCompileError, SimulationError
from repro.platform.topology import HOST_SPACE, Platform
from repro.runtime.executor import RuntimeConfig, _Run
from repro.runtime.schedulers.base import StaticScheduler
from repro.sim import _vec
from repro.sim.engine import PRIORITY_COMPLETION

#: process-wide drain telemetry.  The search driver snapshots this around
#: a sweep to surface silent engine fallbacks (a compile-failed or
#: gate-failed plan still runs, identically, just slower) instead of
#: letting them masquerade as slow candidates.  ``waves_drained`` counts
#: fenced epoch commits, ``terminal_drains`` unfenced ones, and
#: ``wave_fallbacks`` fenced epochs refused when their opening barrier
#: completed.
_STATS = {
    "evaluations": 0,
    "waves_drained": 0,
    "waves_replayed": 0,
    "wave_fallbacks": 0,
    "terminal_drains": 0,
    "compile_errors": 0,
}


def drain_stats() -> dict[str, int]:
    """Snapshot of the process-wide drain counters."""
    return dict(_STATS)


def reset_drain_stats() -> None:
    """Zero the drain counters (test isolation)."""
    for key in _STATS:
        _STATS[key] = 0


def record_compile_error() -> None:
    """Count one :class:`~repro.errors.PlanCompileError` engine fallback."""
    _STATS["compile_errors"] += 1


@dataclass(frozen=True)
class CompiledPlan:
    """One static plan lowered to flat per-instance arrays.

    ``durations``/``resource_ids``/``writeback_flags`` are indexed by
    ``instance_id`` (barrier slots hold ``0.0``/``None``/``False``).
    ``drainable`` is precomputed: every compute instance's resource is
    statically known, so the drain may even be attempted.

    ``succs_sorted``/``reads_of``/``writes_of``/``cross_deps`` are the
    drain walk's per-instance lookups hoisted to compile time: successor
    ids in the engine's release order (the graph's
    :attr:`~repro.runtime.graph.TaskGraph.succs_sorted`), the regions
    read and written, and the dependences that live on a *different*
    resource (barriers included) — the only ones gate G1 must re-check
    at runtime.
    ``kernel_names``/``sizes`` are the columns the drain commit folds into
    its lanes, precomputed so the bulk lane extend never touches instance
    property descriptors.

    ``epochs[k]`` holds the compute instances of epoch ``k`` in program
    order (= id order) and ``fences[k]`` the id of the barrier closing
    it; epoch 0 runs up to the first barrier and the last epoch is
    unfenced (``fences[-1] is None``).

    ``epoch_sig`` maps an epoch to its wave's *isomorphism class*: two
    waves share a signature id exactly when their members agree
    position-by-position on resource, duration, read and write regions
    (by shared identity), write-back flag, and trace columns, and every
    member is canonically fenced (sole dep = the opening barrier, sole
    successor = the fence).  Consecutive same-signature waves resolve to
    identical transfer programs once the directory state is periodic
    (see ``_EvalRun._replay_waves``), which is what lets the steady part
    of a synced loop commit without re-running the gates.  Only epochs
    with both an opening barrier and a fence can get an entry.
    """

    graph: object
    scheduler: StaticScheduler
    config: RuntimeConfig
    durations: array
    resource_ids: tuple
    writeback_flags: tuple
    drainable: bool
    n_compute: int
    n_barriers: int
    succs_sorted: list
    reads_of: tuple
    writes_of: tuple
    cross_deps: tuple
    kernel_names: tuple
    sizes: tuple
    epochs: tuple
    fences: tuple
    epoch_sig: dict


def compile_plan(
    plan, platform: Platform, runtime_config: RuntimeConfig | None = None
) -> CompiledPlan:
    """Lower ``plan`` for :class:`PlanEvaluator`, or raise.

    Raises :class:`~repro.errors.PlanCompileError` when the plan is not
    statically lowerable: the scheduler takes runtime decisions, or an
    instance carries no resource/device pin.  ``plan.runtime_overrides``
    are applied to ``runtime_config`` here, exactly as ``run_plan`` does.
    """
    scheduler = plan.scheduler
    if type(scheduler) is not StaticScheduler:
        raise PlanCompileError(
            f"plan uses scheduler {scheduler.name!r}; only purely static "
            "plans compile"
        )
    config = runtime_config or RuntimeConfig()
    if plan.runtime_overrides:
        config = replace(config, **plan.runtime_overrides)

    graph = plan.graph
    resources = platform.compute_resources(cpu_threads=config.cpu_threads)
    by_id = {r.resource_id: r for r in resources}
    by_device: dict[str, list] = {}
    for r in resources:
        by_device.setdefault(r.device.device_id, []).append(r)
    host_id = platform.host.device_id

    invocations = graph.program.invocations
    last_invocation_id = (
        invocations[-1].invocation_id if invocations else -1
    )

    n = len(graph.instances)
    durations = array("d", bytes(8 * n))
    resource_ids: list = [None] * n
    writeback_flags = [False] * n
    duration_memo: dict[tuple, float] = {}
    rows = graph.access_rows
    drainable = True
    n_compute = 0
    n_barriers = 0

    for inst in graph.instances:
        if inst.is_barrier:
            n_barriers += 1
            continue
        n_compute += 1
        i = inst.instance_id
        if inst.pinned_resource is not None:
            resource = by_id.get(inst.pinned_resource)
            if resource is None:
                raise PlanCompileError(
                    f"instance {i} pinned to unknown resource "
                    f"{inst.pinned_resource!r}"
                )
            resource_ids[i] = resource.resource_id
        elif inst.pinned_device is not None:
            device_resources = by_device.get(inst.pinned_device)
            if not device_resources:
                raise PlanCompileError(
                    f"instance {i} pinned to unknown device "
                    f"{inst.pinned_device!r}"
                )
            resource = device_resources[0]
            if len(device_resources) == 1:
                resource_ids[i] = resource.resource_id
            else:
                # the static scheduler round-robins multi-resource
                # devices by runtime load; not statically known
                drainable = False
        else:
            raise PlanCompileError(
                f"instance {i} is unpinned; static plans pin every instance"
            )

        kernel = inst.kernel
        key = (id(kernel), resource.resource_id, inst.lo, inst.hi,
               inst.invocation.n)
        duration = duration_memo.get(key)
        if duration is None:
            # must match _Run._start_compute's arithmetic exactly: the
            # drain's chained ends have to be bit-identical to the floats
            # the engine would have produced event by event
            duration = kernel.chunk_time(
                resource.device,
                kernel.work_units(inst.lo, inst.hi),
                inst.invocation.n,
                share=resource.share,
            ) + config.task_creation_overhead_s
            duration_memo[key] = duration
        durations[i] = duration

        if config.eager_writeback and resource_ids[i] is not None:
            space = (
                HOST_SPACE
                if resource.device.device_id == host_id
                else resource.device.device_id
            )
            if space != HOST_SPACE:
                faces_sync = inst.invocation.sync_after or (
                    config.final_flush
                    and inst.invocation.invocation_id == last_invocation_id
                )
                if faces_sync:
                    writeback_flags[i] = bool(rows[i].writes)

    # hoist the drain walk's per-instance lookups: regions read and
    # written (the graph's access rows, shared per signature), and the
    # statically-known cross-resource dependences; the release order is
    # the graph's own successor table
    succs_sorted = graph.succs_sorted
    reads_of: list = [()] * n
    writes_of: list = [()] * n
    cross_deps: list = [()] * n
    kernel_names: list = [None] * n
    los: list = [0] * n
    his: list = [0] * n
    sizes: list = [0] * n
    for inst in graph.instances:
        if inst.is_barrier:
            continue
        i = inst.instance_id
        kernel_names[i] = inst.kernel.name
        los[i] = inst.lo
        his[i] = inst.hi
        sizes[i] = inst.size
        reads_of[i] = rows[i].reads
        writes_of[i] = rows[i].writes
        rid = resource_ids[i]
        crossing = tuple(
            dep for dep in inst.deps if resource_ids[dep] != rid
        )
        if crossing:
            cross_deps[i] = crossing

    # epoch tables: one pass over program order splits it at every
    # barrier; the final epoch runs to the end of the program unfenced
    epochs: list[tuple] = []
    fences: list = []
    epoch: list[int] = []
    for inst in graph.instances:
        if inst.is_barrier:
            epochs.append(tuple(epoch))
            fences.append(inst.instance_id)
            epoch = []
        else:
            epoch.append(inst.instance_id)
    epochs.append(tuple(epoch))
    fences.append(None)

    # wave isomorphism classes: fenced waves whose members agree on
    # every compiled column get one signature id, keyed so the steady
    # interior of a synced loop (identical iterations) collapses to a
    # single class the runtime can template
    epoch_sig: dict[int, int] = {}
    sig_ids: dict[tuple, int] = {}
    inst_by_id = graph.instances
    for k in range(1, len(epochs) - 1):
        members = epochs[k]
        if not members:
            continue
        opening = fences[k - 1]
        fence_only = (fences[k],)
        canonical = True
        cols = []
        for i in members:
            deps = inst_by_id[i].deps
            if len(deps) != 1 or tuple(deps)[0] != opening:
                canonical = False
                break
            if succs_sorted[i] != fence_only:
                canonical = False
                break
            cols.append((
                resource_ids[i], durations[i], id(reads_of[i]),
                id(writes_of[i]), writeback_flags[i], kernel_names[i],
                los[i], his[i], sizes[i],
            ))
        if not canonical:
            continue
        key = tuple(cols)
        sig = sig_ids.get(key)
        if sig is None:
            sig = sig_ids[key] = len(sig_ids)
        epoch_sig[k] = sig

    return CompiledPlan(
        graph=graph,
        scheduler=scheduler,
        config=config,
        durations=durations,
        resource_ids=tuple(resource_ids),
        writeback_flags=tuple(writeback_flags),
        drainable=drainable,
        n_compute=n_compute,
        n_barriers=n_barriers,
        succs_sorted=succs_sorted,
        reads_of=tuple(reads_of),
        writes_of=tuple(writes_of),
        cross_deps=tuple(cross_deps),
        kernel_names=tuple(kernel_names),
        sizes=tuple(sizes),
        epochs=tuple(epochs),
        fences=tuple(fences),
        epoch_sig=epoch_sig,
    )


def evaluate_plan(
    plan,
    platform: Platform,
    *,
    runtime_config: RuntimeConfig | None = None,
    detail: str = "summary",
    compiled: CompiledPlan | None = None,
) -> RunArtifact:
    """Compile (unless precompiled) and evaluate one plan.

    Raises :class:`~repro.errors.PlanCompileError` for plans the compiler
    rejects; callers needing a universal entry point catch it and fall
    back to :class:`~repro.runtime.executor.RuntimeEngine`.
    """
    if compiled is None:
        compiled = compile_plan(plan, platform, runtime_config)
    return PlanEvaluator(platform, compiled).evaluate(detail=detail)


class PlanEvaluator:
    """Evaluates one compiled plan; reusable across calls."""

    def __init__(self, platform: Platform, compiled: CompiledPlan) -> None:
        self.platform = platform
        self.compiled = compiled

    def evaluate(self, *, detail: str = "summary") -> RunArtifact:
        detail = check_detail(detail)
        _STATS["evaluations"] += 1
        run = _EvalRun(self.platform, self.compiled, detail)
        return run.go()


class _EpochAnchor:
    """Oracle-engine drain anchor: closes one committed epoch.

    The fast engine schedules the anchor through its closure-free
    ``schedule_call``; the oracle :class:`~repro.sim.engine.Simulator`
    gets this slotted equivalent so both consume exactly one sequence
    number per commit.
    """

    __slots__ = ("run", "fence")

    def __init__(self, run, fence):
        self.run = run
        self.fence = fence

    def __call__(self) -> None:
        self.run._close_epoch(self.fence)


def _any_overlap(rows: list) -> bool:
    """Whether two ``(array, start, end)`` rows overlap
    (``Region.overlaps`` semantics): one sort, then a sweep per array."""
    rows.sort()
    array_name = None
    reach = 0
    for arr, start, end in rows:
        if arr != array_name:
            array_name, reach = arr, end
            continue
        if start < reach:
            return True
        if end > reach:
            reach = end
    return False


class _EvalRun(_Run):
    """The executor's ``_Run`` plus compiled durations and the drain."""

    def __init__(self, platform: Platform, compiled: CompiledPlan,
                 detail: str) -> None:
        super().__init__(platform, compiled.config, compiled.graph,
                         compiled.scheduler, detail=detail)
        self._compiled = compiled
        # full-detail runs stay on the pure event loop: per-row metadata
        # dicts and exact event interleaving make the artifact
        # byte-identical to the general engine with zero special cases.
        # The drain therefore only ever feeds fold-only lanes, and hands
        # them just what the fold reads: bounds, kernels and sizes
        self._drain_enabled = detail == "summary" and compiled.drainable
        self._wires = 0
        #: the current epoch and how many of its compute instances the
        #: engine has not completed yet (0 once a drain committed it)
        self._epoch = 0
        self._epoch_undone = len(compiled.epochs[0])
        #: steady-wave templates, keyed by signature: after one
        #: fully-gated commit of a wave, later waves of the same
        #: isomorphism class replay as a pure float recurrence (see
        #: _replay_waves); keyed per class because ping-pong loops
        #: alternate between two classes every iteration
        self._tmpls: dict[int, tuple] = {}
        #: per-resource dispatch-order queues of not-yet-completed
        #: instances (head = currently running occupation)
        self._res_dispatched: dict[str, deque] = {
            r.resource_id: deque() for r in self.resources
        }

    # -- engine hooks: exact behavior preserved, quiet points added ------

    def go(self) -> RunArtifact:
        # mirrors _Run.go with one extra quiet point once the initial
        # dispatch has settled (all-host plans never transfer, so no wire
        # transition would ever offer one)
        self.scheduler.start(self.graph, self._ctx)
        for inst in self.graph.instances:
            if self.remaining[inst.instance_id] == 0:
                self.ready.append(inst)
        self._pump()
        self._drain_if_quiet()
        self.sim.run(max_events=self.config.max_events)
        if len(self.done) != len(self.graph.instances):
            stuck = [
                i.label() for i in self.graph.instances
                if i.instance_id not in self.done
            ]
            raise SimulationError(
                f"deadlock: {len(stuck)} instances never ran, "
                f"e.g. {stuck[:5]}"
            )
        if self.config.final_flush:
            self._final_flush()
            self.sim.run(max_events=self.config.max_events)
        return self._result()

    def _start_compute(self, inst, resource, space, transfer_total):
        self._res_dispatched[resource.resource_id].append(inst)
        super()._start_compute(inst, resource, space, transfer_total,
                               self._compiled.durations[inst.instance_id])

    def _complete_compute(self, args):
        inst = args[0]
        if inst.instance_id in self.done:
            # a running head a drain absorbed: its writes, write-back and
            # bookkeeping were committed with its epoch
            return
        self._res_dispatched[args[1].resource_id].popleft()
        self._complete(*args)

    def _issue_transfer(self, op, *, on_complete=None) -> None:
        self._wires += 1
        super()._issue_transfer(op, on_complete=on_complete)

    def _transfer_done(self, xfer) -> None:
        self._wires -= 1
        super()._transfer_done(xfer)
        if not self._wires:
            self._drain_if_quiet()

    def _mark_done(self, inst) -> None:
        if not inst.is_barrier:
            self._epoch_undone -= 1
            super()._mark_done(inst)
            return
        # a completing barrier opens the next epoch: book it done, then
        # give the drain its chance before the successors dispatch
        self.done.add(inst.instance_id)
        remaining = self.remaining
        succs = self._succs[inst.instance_id]
        for succ in succs:
            remaining[succ] -= 1
        compiled = self._compiled
        self._epoch += 1
        k = self._epoch
        self._epoch_undone = len(compiled.epochs[k])
        if self._drain_enabled and self._epoch_undone:
            fence = compiled.fences[k]
            if self._quiet():
                # steady state: a recorded template replays the whole
                # stretch of isomorphic waves, no gates, no directory
                if compiled.epoch_sig.get(k) in self._tmpls:
                    self._replay_waves()
                    return
                if self._try_drain(fence):
                    return
            if fence is not None:
                # the engine replays this wave exactly, just slower
                _STATS["wave_fallbacks"] += 1
        instances = self.graph.instances
        for succ in succs:
            if not remaining[succ]:
                self.ready.append(instances[succ])
        self._pump()

    # -- the drain ---------------------------------------------------------

    def _quiet(self) -> bool:
        """No transfer on the wire, no pending write-back, nothing ready."""
        return not (self._wires or self._pending_writebacks or self.ready)

    def _drain_if_quiet(self) -> None:
        if self._drain_enabled and self._epoch_undone and self._quiet():
            self._try_drain(self._compiled.fences[self._epoch])

    def _try_drain(self, fence) -> bool:
        """Commit the rest of the current epoch analytically, or refuse.

        ``fence`` is the id of the barrier closing the epoch, or ``None``
        for the unfenced final epoch.  Called at quiet points only.  On
        success every undone epoch instance — running heads included —
        is committed as trace rows, directory state, modeled write-backs
        and (with a fence) the fence's modeled flush, plus one anchor
        event; with a fence the anchor completes it, re-entering the
        drain for the next epoch.  On refusal nothing has been mutated
        and the engine carries on.
        """
        compiled = self._compiled
        done = self.done
        remaining = self.remaining
        rids = compiled.resource_ids
        cross_deps = compiled.cross_deps
        succs_sorted = compiled.succs_sorted
        res_dispatched = self._res_dispatched

        # G1 — FIFO chains.  Static resources are guaranteed by
        # ``drainable``; the cross-resource dependence set is static, so
        # only those need the done check (the opening barrier is done)
        dispatched: set[int] = set()
        for dq in res_dispatched.values():
            for inst in dq:
                dispatched.add(inst.instance_id)
        indeg: dict[int, int] = {}
        roots: dict[str, list] = {}
        for i in compiled.epochs[self._epoch]:
            if i in done or i in dispatched:
                continue
            for dep in cross_deps[i]:
                if dep not in done:
                    return False
            left = remaining[i]
            indeg[i] = left
            if not left:
                roots.setdefault(rids[i], []).append(i)
        # per-resource Kahn walk in FIFO readiness order — the exact
        # order the engine dispatches: a completion releases successors
        # in sorted id order behind whatever already queues there
        chains: dict[str, list] = {}
        chained = 0
        for rid, dq in res_dispatched.items():
            work = deque(inst.instance_id for inst in dq)
            work.extend(roots.get(rid, ()))
            if not work:
                continue
            chain: list = []
            while work:
                i = work.popleft()
                chain.append(i)
                for succ in succs_sorted[i]:
                    left = indeg.get(succ)
                    if left is None:
                        if succ != fence:
                            return False  # successor beyond the epoch
                        continue
                    left -= 1
                    indeg[succ] = left
                    if not left:
                        work.append(succ)
            chains[rid] = chain
            chained += len(chain)
        if chained != len(indeg) + len(dispatched):
            return False

        # G2 — residency: shadow-directory walk, chain by chain; writes
        # are applied along the way so later links see earlier results
        memory = self.memory
        real = memory._valid
        spaces = tuple(memory._spaces)
        space_of = self._space_of
        reads_of = compiled.reads_of
        writes_of = compiled.writes_of
        flags = compiled.writeback_flags
        shadow: dict[tuple, object] = {}
        shadow_get = shadow.get

        def shadow_entry(arr, sp):
            key = (arr, sp)
            entry = shadow_get(key)
            if entry is None:
                entry = shadow[key] = real[arr][sp].copy()
            return entry

        device_spaces: set[str] = set()
        fetchers: set[str] = set()
        #: (chain, per-array shadow ops) of every device chain, for G3
        device_walks: list = []
        wb_rows: list = []
        # device chains walk first: a later write in another space then
        # evicts an overlapping device write from its shadow, which G3
        # detects (writes within one space commute, so host chains may
        # overlap each other)
        for rid in sorted(chains, key=lambda r: space_of[r] == HOST_SPACE):
            chain = chains[rid]
            space = space_of[rid]
            may_fetch = False
            if space != HOST_SPACE:
                # one chain per device space: its link channels carry no
                # other chain's transfers, so per-link cursors are exact
                if space in device_spaces:
                    return False
                device_spaces.add(space)
                may_fetch = (
                    not res_dispatched[rid] and len(roots[rid]) == 1
                )
            others = tuple(sp for sp in spaces if sp != space)
            # per-array bound methods of this chain's shadow entries:
            # one dict hit per region instead of tuple-keyed lookups
            readers: dict = {}
            writers: dict = {}
            for i in chain:
                # dispatch already ensured the reads of running heads
                if i not in dispatched:
                    for region in reads_of[i]:
                        arr = region.array
                        entry = readers.get(arr)
                        if entry is None:
                            entry = readers[arr] = shadow_entry(arr, space)
                        if entry.contains(region.start, region.end):
                            continue
                        if not may_fetch or i != chain[0]:
                            return False
                        # the first link's fetch: plain h2d copies, at
                        # dispatch, of ranges the pre-epoch host holds
                        # (no d2h staging), exactly what ensure() issues
                        host = real[arr][HOST_SPACE]
                        for lo, hi in entry.missing(region.start,
                                                    region.end):
                            if not host.contains(lo, hi):
                                return False
                        entry.add(region.start, region.end)
                        fetchers.add(rid)
                for region in writes_of[i]:
                    arr = region.array
                    ops = writers.get(arr)
                    if ops is None:
                        entry = shadow_entry(arr, space)
                        ops = writers[arr] = (
                            entry.add,
                            tuple(
                                shadow_entry(arr, sp).remove
                                for sp in others
                            ),
                            entry.contains,
                        )
                    start, end = region.start, region.end
                    ops[0](start, end)
                    for remove in ops[1]:
                        remove(start, end)
                    if flags[i]:
                        wb_rows.append((arr, start, end))
            if space != HOST_SPACE:
                device_walks.append((chain, writers))

        # G3 — disjoint writes: every device write survived the walk, so
        # no chain in another space wrote over it; write-backs pairwise
        # disjoint
        for chain, writers in device_walks:
            for i in chain:
                for region in writes_of[i]:
                    if not writers[region.array][2](region.start,
                                                    region.end):
                        return False
        if _any_overlap(wb_rows):
            return False

        # -- commit: the engine provably produces these chains ------------
        sim = self.sim
        now = sim.now
        k = self._epoch
        sig = compiled.epoch_sig.get(k)
        # steady-wave capture (see _build_template): only a wave
        # committed whole from its opening barrier resolves the ops a
        # later isomorphic wave will resolve again
        record = (
            sig is not None
            and not dispatched
            and self.config.barrier_invalidates_devices
        )
        p1_ops: dict = {}
        wb_log: list = []
        durations = compiled.durations
        links = self.links
        lanes = self.transfer_lanes
        transfer_bytes = self.transfer_bytes
        #: per-link-channel busy cursor (keyed by SimResource object, so
        #: a half-duplex link's shared channel serializes both directions)
        link_busy: dict = {}

        def model_ops(ops, ready_time):
            # serial occupation on each op's link channel: start at the
            # later of the issue time and the link cursor, end after the
            # link's transfer time — the exact floats the engine's
            # occupy/_finish chain produces event by event
            land = ready_time
            for op in ops:
                direction = "h2d" if op.is_h2d else "d2h"
                key = f"{op.device_space}:{direction}"
                link = links[key]
                cursor = link_busy.get(link, ready_time)
                start = cursor if cursor > ready_time else ready_time
                end = start + self._transfer_duration(op)
                link_busy[link] = end
                transfer_bytes[direction] += op.nbytes
                lanes[key].append(start, end)
                if end > land:
                    land = end
            return land

        # chain anchors: a running head's row is the last its lane took
        # in, so the lane's ``last_end`` is the exact float the pending
        # completion carries; a fetching chain starts where its copies
        # land (real ensure() calls for the ops — the shadow already
        # holds their effect); anything else starts now
        heads: list[int] = []
        t0s: list[float] = []
        rows: list[array] = []
        for rid, chain in chains.items():
            head = 1 if res_dispatched[rid] else 0
            heads.append(head)
            if head:
                t0s.append(self.compute_lanes[rid].last_end)
            elif rid in fetchers:
                space = space_of[rid]
                ops = []
                for region in reads_of[chain[0]]:
                    ops.extend(memory.ensure(region, space))
                t0s.append(model_ops(ops, now))
                if record:
                    p1_ops[rid] = tuple(ops)
            else:
                t0s.append(now)
            rows.append(array("d", [durations[i] for i in chain[head:]]))

        # compute chains: one cumsum across every chain anchor,
        # bulk-appended per lane (bit-identical scalar fallback inside)
        bounds = _vec.chain_bounds(t0s, rows)

        # every drained write lands at once; write-backs then resolve
        # against the final state, which equals the state at each
        # writer's completion: flagged writers belong to the epoch's last
        # invocation, and G3 keeps their regions disjoint
        for (arr, sp), entry in shadow.items():
            real[arr][sp] = entry

        kernel_names = compiled.kernel_names
        sizes = compiled.sizes
        t_ready = now
        wb_land = now
        for (rid, chain), head, b in zip(chains.items(), heads, bounds):
            ids = chain[head:]
            if ids:
                self.compute_lanes[rid].extend_rows(
                    b[:-1],
                    b[1:],
                    sizes=[sizes[i] for i in ids],
                    kernels=[kernel_names[i] for i in ids],
                )
            last = float(b[-1])
            if last > t_ready:
                t_ready = last
            # eager write-backs go on the wire when their link's compute
            # ends (chain order = issue order on this space's channels)
            space = space_of[rid]
            for idx, i in enumerate(chain):
                if not flags[i]:
                    continue
                end_i = float(b[idx + 1 - head])
                for region in writes_of[i]:
                    ops = memory.writeback(region, space)
                    if ops:
                        if record:
                            wb_log.append((i, tuple(ops)))
                        land = model_ops(ops, end_i)
                        if land > wb_land:
                            wb_land = land

        # the modeled fence: flush at the last compute's end, overhead in
        # parallel, completion once write-backs have landed too — exactly
        # the engine's _BarrierArm + _wb_waiters semantics
        flush_ops: list = []
        t_done = t_ready
        if fence is not None:
            flush_ops = memory.flush_to_host(
                invalidate=self.config.barrier_invalidates_devices
            )
            t_done += self._barrier_overhead(self.graph.instances[fence])
            if flush_ops:
                land = model_ops(flush_ops, t_ready)
                if land > t_done:
                    t_done = land
            _STATS["waves_drained"] += 1
        else:
            _STATS["terminal_drains"] += 1
        if wb_land > t_done:
            t_done = wb_land

        # bookkeeping: every chain member is done; a running head still
        # completes through its own pending event (see _complete_compute)
        # and the occupations queued behind it are the bulk rows above
        for rid, chain in chains.items():
            done.update(chain)
            dq = res_dispatched[rid]
            if dq:
                self.inflight[rid] -= len(dq)
                dq.clear()
                self.sim_resources[rid]._queue.clear()
        self._epoch_undone = 0

        self._schedule_anchor(t_done, fence)
        if record:
            self._build_template(sig, compiled.epochs[k], chains, p1_ops,
                                 wb_log, flush_ops)
        return True

    def _schedule_anchor(self, time: float, fence) -> None:
        """One closure-free event closing a committed epoch at ``time``;
        both engines consume exactly one sequence number here."""
        schedule_call = getattr(self.sim, "schedule_call", None)
        if schedule_call is not None:
            schedule_call(time, self._close_epoch, fence)
        else:
            self.sim.at(time, _EpochAnchor(self, fence),
                        priority=PRIORITY_COMPLETION)

    def _close_epoch(self, fence) -> None:
        """Anchor target: the modeled fence completes.  The unfenced
        final epoch has none; its anchor only advances the clock."""
        if fence is not None:
            self._mark_done(self.graph.instances[fence])

    def _build_template(self, sig, members, chains, p1_ops, wb_log,
                        flush_ops) -> None:
        """Freeze this wave's resolved commit into a replayable template.

        Everything a wave commit touches is reduced to plain tuples:
        per-chain member positions, duration chains, and the kernel and
        size columns the lanes fold, plus the resolved transfer ops as
        ``(lane_key, link, duration, nbytes, direction)`` rows.  Validity
        rests on the canonical post-flush state: an invalidating barrier
        wipes device residency and revalidates the host, so an
        isomorphic wave resolves ensure, write-back, and flush ops to
        exactly these rows again.
        """
        compiled = self._compiled
        durations = compiled.durations
        kernel_names = compiled.kernel_names
        sizes = compiled.sizes
        links = self.links
        pos_of = {i: p for p, i in enumerate(members)}

        def op_rows(ops):
            rows = []
            for op in ops:
                direction = "h2d" if op.is_h2d else "d2h"
                key = f"{op.device_space}:{direction}"
                rows.append((
                    key, links[key], self._transfer_duration(op),
                    op.nbytes, direction,
                ))
            return tuple(rows)

        groups = tuple(
            (
                rid,
                tuple(durations[i] for i in chain),
                op_rows(p1_ops.get(rid, ())),
                [kernel_names[i] for i in chain],
                [sizes[i] for i in chain],
                tuple(pos_of[i] for i in chain),
            )
            for rid, chain in chains.items()
        )
        wbs = tuple((pos_of[i], op_rows(ops)) for i, ops in wb_log)
        flush = op_rows(flush_ops)
        nbytes = {"h2d": 0, "d2h": 0}
        for _, _, ops, _, _, _ in groups:
            for row in ops:
                nbytes[row[4]] += row[3]
        for _, ops in wbs:
            for row in ops:
                nbytes[row[4]] += row[3]
        for row in flush:
            nbytes[row[4]] += row[3]
        self._tmpls[sig] = (groups, wbs, flush, nbytes["h2d"], nbytes["d2h"])

    def _replay_waves(self) -> None:
        """Commit every remaining templated wave as a float recurrence.

        The float arithmetic below is op-for-op the commit sequence of
        ``_try_drain`` (which itself mirrors the engine event by event):
        per-link cursors rooted at the wave's barrier time, scalar
        left-to-right duration chains (``_vec.chain_bounds``'s contract
        is bit-identity with exactly this recurrence), write-backs timed
        from their member's end, flush and overhead folded into the
        fence's completion.  The stretch runs as long as each wave's
        signature has a recorded template — ping-pong loops alternate
        between two classes, so the lookup is per wave, not one class
        for the whole stretch.  Trace rows accumulate per lane across
        the stretch and land in bulk ``extend_rows`` calls — per-lane
        row order is exactly the per-wave order, which is all the
        summary's group-ordered accumulations observe.  The directory is
        never touched: replayed waves would leave it exactly where the
        template wave's invalidating flush already put it.  One anchor
        event resumes the ordinary path at the last fence.
        """
        compiled = self._compiled
        tmpls = self._tmpls
        epoch_sig = compiled.epoch_sig
        epochs = compiled.epochs
        fences = compiled.fences
        instances = self.graph.instances
        done = self.done
        #: lane_key -> (starts, ends)
        xfer_acc: dict[str, tuple] = {}
        #: rid -> (starts, ends, kernels, sizes)
        comp_acc: dict[str, tuple] = {}
        nb_h2d_total = 0
        nb_d2h_total = 0

        def on_links(ops, t0, link_busy):
            # serial occupation on each op's link channel from ``t0``;
            # returns the last landing (``t0`` without ops)
            land = t0
            for key, link, dur, _nb, _d in ops:
                cursor = link_busy.get(link, t0)
                start = cursor if cursor > t0 else t0
                end = start + dur
                link_busy[link] = end
                acc = xfer_acc.get(key)
                if acc is None:
                    acc = xfer_acc[key] = ([], [])
                acc[0].append(start)
                acc[1].append(end)
                if end > land:
                    land = end
            return land

        t_prev = self.sim.now
        k = self._epoch
        tmpl = tmpls[epoch_sig[k]]
        waves = 0
        while True:
            groups, wbs, flush, nb_h2d, nb_d2h = tmpl
            members = epochs[k]
            fence = fences[k]
            t0 = t_prev
            link_busy: dict = {}
            t_ready = t0
            member_end = [0.0] * len(members)
            for rid, durs, ops, names, gszs, positions in groups:
                anchor = on_links(ops, t0, link_busy)
                acc = comp_acc.get(rid)
                if acc is None:
                    acc = comp_acc[rid] = ([], [], [], [])
                starts, ends, kernels, szs = acc
                kernels.extend(names)
                szs.extend(gszs)
                bprev = anchor
                for pos, dur in zip(positions, durs):
                    bend = bprev + dur
                    starts.append(bprev)
                    ends.append(bend)
                    member_end[pos] = bend
                    bprev = bend
                if bprev > t_ready:
                    t_ready = bprev
            wb_land = t0
            for pos, ops in wbs:
                land = on_links(ops, member_end[pos], link_busy)
                if land > wb_land:
                    wb_land = land
            t_done = t_ready + self._barrier_overhead(instances[fence])
            if flush:
                land = on_links(flush, t_ready, link_busy)
                if land > t_done:
                    t_done = land
            if wb_land > t_done:
                t_done = wb_land
            nb_h2d_total += nb_h2d
            nb_d2h_total += nb_d2h

            done.update(members)
            waves += 1
            t_prev = t_done
            tmpl = tmpls.get(epoch_sig.get(k + 1))
            if tmpl is None:
                break
            # the next wave replays too: its opening fence closes inline
            done.add(fence)
            k += 1
        self._epoch = k
        self._epoch_undone = 0

        compute_lanes = self.compute_lanes
        for rid, (starts, ends, kernels, szs) in comp_acc.items():
            compute_lanes[rid].extend_rows(
                starts, ends, sizes=szs, kernels=kernels,
            )
        lanes = self.transfer_lanes
        for key, (starts, ends) in xfer_acc.items():
            lanes[key].extend_rows(starts, ends)
        if nb_h2d_total:
            self.transfer_bytes["h2d"] += nb_h2d_total
        if nb_d2h_total:
            self.transfer_bytes["d2h"] += nb_d2h_total

        _STATS["waves_drained"] += waves
        _STATS["waves_replayed"] += waves

        # one anchor for the whole stretch; the last fence resumes the
        # ordinary path (the drain or the event loop) from t_prev
        self._schedule_anchor(t_prev, fence)
