"""The run loop's analytic epoch drain: lazy tables, gates and commit.

Barriers split a static plan into epochs: every instance up to the next
barrier (the epoch's *fence*), or up to the end of the program once no
barrier is left (an unfenced final epoch — a sync-free tail is just a
final wave without a closing barrier).  The executor's ``_Run`` is the
only run loop; a run that may drain holds a :class:`PlanEvaluator`
(decided once, when the run is built — see :func:`drain_for`) and
offers it every *quiet point*: no transfer on the wire, no pending
write-back, empty ready queue.  Quiet points come after the first
dispatch, when a barrier completes (before its successors dispatch),
and when the wire count drops to zero.  At each one with work left in
the current epoch, :meth:`PlanEvaluator.evaluate` tries to prove the
rest of the epoch and commit it analytically.

A run may drain when it is at ``summary`` detail, its config leaves
``RuntimeConfig.drain`` on, its scheduler takes no runtime decisions,
and every compute instance has a statically known resource.  Full
detail, dynamic and drain-refused runs hold no evaluator and never pay
for one: their per-row metadata and exact event interleaving stay the
event loop's alone.  The drain's tables are built lazily, at the first
quiet point that can drain, by :func:`compile_plan` — from the graph's
access rows and successor order and the run's own memoized durations.

Exactness contract (enforced by
``tests/integration/test_plan_eval_differential.py``): a drained
artifact's makespan, per-resource busy times and every other summary
aggregate equal the drain-refused run's bit-for-bit.  The drain only
commits when three gates — all pure, nothing is mutated until every one
passes — prove the event loop would have produced the same timeline:

* **G1 — FIFO chains**: every epoch instance has a static resource, its
  unmet dependences are the opening barrier or instances on its own
  resource, and its successors are on its own resource or are the
  fence.  A Kahn walk in the engine's release order, seeded from each
  resource's dispatched instances (running head first) or its ready
  roots when nothing runs, must cover the epoch: each resource's future
  is then an independent chain running back to back;
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

On success the commit resolves, then times.  Resolving makes the real
directory calls in the engine's order — the first links' ``ensure``
fetches, the shadow directory swapped in, eager ``writeback`` calls in
chain order (a running head's included), the fence's ``flush_to_host``
— and turns the epoch into a *wave* of plain rows.  Timing is one
function, :func:`_commit`, which replays the engine's float arithmetic
on those rows and takes them into the lanes in bulk; one anchor event
(``sim.schedule_call``) then closes the epoch.  With a fence the anchor
fires at the modeled barrier completion and re-enters the drain for the
next epoch, so a synced loop costs O(1) events per barrier.  Without one
it fires when the last chain or write-back ends, so the final flush
starts where the event loop would start it.  A steady-wave template is
a resolved wave itself: the first commit of each canonical wave class
keeps its wave, and later waves of the class skip gates and directory
and go straight to :func:`_commit`, a whole stretch at a time
(``_replay_waves``).

When a gate fails nothing has been mutated and the run continues on the
ordinary event loop — still exact, just slower; the next quiet point
tries again.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import accumulate

from repro.platform.topology import HOST_SPACE
from repro.runtime.graph import InstanceKind

#: process-wide drain telemetry.  The search driver snapshots this around
#: a sweep to surface silent engine fallbacks (a run that cannot drain,
#: or a gate-failed epoch, still runs identically, just slower) instead
#: of letting them masquerade as slow candidates.  ``evaluations`` counts
#: runs that built drain tables, ``compile_errors`` summary-detail runs
#: that cannot drain (a dynamic scheduler, or an instance without a
#: statically known resource), ``waves_drained`` fenced epoch commits,
#: ``terminal_drains`` unfenced ones, and ``wave_fallbacks`` fenced
#: epochs refused when their opening barrier completed.
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


def drain_for(run) -> PlanEvaluator | None:
    """The drain state of a summary-detail ``run``, or ``None``.

    A run may drain only when its scheduler takes no runtime decisions
    and every compute instance has a statically known resource: a
    resource pin, or a device pin on a single-resource device (the
    static scheduler balances multi-resource devices by runtime load).
    A run that cannot drain counts one ``compile_errors``.
    """
    resource_ids = None if run.scheduler.dynamic else _static_resources(run)
    if resource_ids is None:
        _STATS["compile_errors"] += 1
        return None
    return PlanEvaluator(resource_ids)


def _static_resources(run) -> list | None:
    """Per-instance resource ids (``None`` for barriers), or ``None``
    when some compute instance's resource is not statically known."""
    known = run._resource_by_id
    by_device: dict[str, list] = {}
    for r in run.resources:
        by_device.setdefault(r.device.device_id, []).append(r.resource_id)
    barrier = InstanceKind.BARRIER
    resource_ids: list = [None] * len(run.graph.instances)
    for inst in run.graph.instances:
        if inst.kind is barrier:
            continue
        rid = inst.pinned_resource
        if rid is None:
            on_device = by_device.get(inst.pinned_device, ())
            if len(on_device) != 1:
                return None
            rid = on_device[0]
        elif rid not in known:
            return None
        resource_ids[inst.instance_id] = rid
    return resource_ids


class CompiledPlan:
    """The drain tables of one run.

    ``writeback_flags[i]`` says whether compute instance ``i`` issues
    eager write-backs.  Durations are not tabled: the drain reads them
    from the run's own memo (``_Run._duration``) for the instances it
    commits.

    ``epochs[k]`` is the id range of epoch ``k``'s compute instances
    (program order is id order) and ``fences[k]`` the id of the barrier
    closing it; epoch 0 runs up to the first barrier and the last epoch is
    unfenced (``fences[-1] is None``).

    ``epoch_sig`` maps an epoch to its wave's *isomorphism class*: two
    waves share a signature id exactly when their members agree
    position-by-position on resource, access row (by identity: regions,
    kernel and range), invocation size — so on duration — and write-back
    flag, and every member is canonically fenced (sole dep = the opening
    barrier, sole successor = the fence).  Consecutive same-signature waves resolve to
    identical transfer programs once the directory state is periodic
    (see :meth:`PlanEvaluator._replay_waves`), which is what lets the
    steady part of a synced loop commit without re-running the gates.
    Only epochs with both an opening barrier and a fence, of a class met
    at least twice, get an entry.
    """

    __slots__ = ("writeback_flags", "epochs", "fences", "epoch_sig")

    def __init__(self, writeback_flags: list, epochs: list, fences: list,
                 epoch_sig: dict) -> None:
        self.writeback_flags = writeback_flags
        self.epochs = epochs
        self.fences = fences
        self.epoch_sig = epoch_sig


def compile_plan(run, resource_ids: list) -> CompiledPlan:
    """Build the drain tables of a drainable ``run``.

    ``resource_ids`` are the run's static resources (see
    :func:`drain_for`).  Counts one ``evaluations``.
    """
    _STATS["evaluations"] += 1
    graph = run.graph
    config = run.config
    instances = graph.instances
    rows = graph.access_rows
    succs_sorted = graph.succs_sorted
    space_of = run._space_of
    last_invocation_id = run._last_invocation_id
    eager = config.eager_writeback
    final_flush = config.final_flush

    n = len(instances)
    writeback_flags = [False] * n
    fences: list = []
    for inst, rid, row in zip(instances, resource_ids, rows):
        if rid is None:  # a barrier
            fences.append(inst.instance_id)
        elif eager and space_of[rid] != HOST_SPACE:
            invocation = inst.invocation
            if invocation.sync_after or (
                final_flush
                and invocation.invocation_id == last_invocation_id
            ):
                writeback_flags[inst.instance_id] = bool(row.writes)
    # program order is id order, so the barriers split it into id
    # ranges; the final epoch runs to the end of the program unfenced
    starts = [0] + [fence + 1 for fence in fences]
    epochs = [range(a, b) for a, b in zip(starts, fences + [n])]
    fences.append(None)

    # wave isomorphism classes: fenced waves whose members agree on
    # every table column get one signature id, keyed so the steady
    # interior of a synced loop (identical iterations) collapses to a
    # single class the drain can template.  An access row is shared per
    # (kernel object, range), so its identity stands for the regions,
    # the kernel name and the size, and with the resource and the
    # invocation size for the duration
    epoch_sig: dict[int, int] = {}
    sig_ids: dict[tuple, int] = {}
    for k in range(1, len(epochs) - 1):
        a, b = epochs[k].start, epochs[k].stop
        if a == b or succs_sorted[a:b] != ((fences[k],),) * (b - a):
            continue
        opening_only = {fences[k - 1]}
        members = instances[a:b]
        if any(inst.deps != opening_only for inst in members):
            continue
        key = (tuple(resource_ids[a:b]), tuple(rows[a:b]),
               tuple([inst.invocation.n for inst in members]),
               tuple(writeback_flags[a:b]))
        sig = sig_ids.get(key)
        if sig is None:
            sig = sig_ids[key] = len(sig_ids)
        epoch_sig[k] = sig
    # a class met once never replays, so no template is recorded for it
    met = Counter(epoch_sig.values())
    epoch_sig = {k: sig for k, sig in epoch_sig.items() if met[sig] > 1}

    return CompiledPlan(
        writeback_flags=writeback_flags,
        epochs=epochs,
        fences=fences,
        epoch_sig=epoch_sig,
    )


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


def _quiet(run) -> bool:
    """No transfer on the wire, no pending write-back, nothing ready."""
    return not (
        run._pending_writebacks or run.has_ready()
        or run._live_transfers
    )


class PlanEvaluator:
    """The drain state one drainable run holds (see :func:`drain_for`).

    The run passes itself to every call, so the evaluator holds no
    reference back to it and a finished run is still freed by reference
    counting alone.
    """

    __slots__ = ("resource_ids", "plan", "epoch", "tmpls")

    def __init__(self, resource_ids: list) -> None:
        self.resource_ids = resource_ids
        #: the drain tables, built at the first quiet point that can drain
        self.plan: CompiledPlan | None = None
        #: the current epoch: how many barriers have completed
        self.epoch = 0
        #: steady-wave templates, keyed by signature: the resolved wave
        #: of one fully-gated commit, which later waves of the same
        #: isomorphism class time again (see _replay_waves); keyed per
        #: class because ping-pong loops alternate between two classes
        self.tmpls: dict[int, tuple] = {}

    # -- the run's quiet points -------------------------------------------

    def quiet_point(self, run) -> None:
        """The first dispatch settled, or the last transfer on the wire
        landed: drain when the run is quiet and some compute of the
        epoch is still running or queued."""
        if _quiet(run) and any(run.inflight.values()):
            self.evaluate(run)

    def open_epoch(self, run, barrier) -> None:
        """``barrier`` completed: book it, then give the drain the epoch
        it opens before any successor dispatches."""
        iid = barrier.instance_id
        run.done.add(iid)
        remaining = run.remaining
        succs = run._succs[iid]
        for succ in succs:
            remaining[succ] -= 1
        self.epoch += 1
        if _quiet(run) and self.evaluate(run, opening=True):
            return
        instances = run.graph.instances
        for succ in succs:
            if not remaining[succ]:
                run._release(instances[succ])
        run._pump()

    def evaluate(self, run, *, opening: bool = False) -> bool:
        """Quiet-point entry: commit the rest of the current epoch
        analytically, or refuse.

        ``opening`` marks the quiet point of a barrier that just
        completed.  There a recorded template replays the whole stretch
        of isomorphic waves with no gates and no directory, and a
        refused fenced epoch counts as a wave fallback (the engine
        replays it exactly, just slower).
        """
        plan = self.plan
        if plan is None:
            plan = self.plan = compile_plan(run, self.resource_ids)
        k = self.epoch
        fence = plan.fences[k]
        if opening:
            if not plan.epochs[k]:
                return False
            if plan.epoch_sig.get(k) in self.tmpls:
                self._replay_waves(run, plan)
                return True
        if self._try_drain(run, plan, fence):
            return True
        if opening and fence is not None:
            _STATS["wave_fallbacks"] += 1
        return False

    # -- the drain ---------------------------------------------------------

    def _try_drain(self, run, plan: CompiledPlan, fence) -> bool:
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
        done = run.done
        remaining = run.remaining
        inflight = run.inflight
        instances = run.graph.instances
        rids = self.resource_ids
        succs_sorted = run._succs

        # G1 — FIFO chains.  Static resources are guaranteed by
        # ``drain_for``; only dependences on another resource need the
        # done check (barriers included: the opening one is done).
        # At a quiet point every released, undone instance on a busy
        # resource has been dispatched and holds it (running head) or
        # waits in its FIFO queue
        indeg: dict[int, int] = {}
        roots: dict[str, list] = {}
        held: dict[str, list] = {}
        for i in plan.epochs[self.epoch]:
            if i in done:
                continue
            rid = rids[i]
            left = remaining[i]
            if not left and inflight[rid]:
                held.setdefault(rid, []).append(i)
                continue
            for dep in instances[i].deps:
                if dep not in done and rids[dep] != rid:
                    return False
            indeg[i] = left
            if not left:
                roots.setdefault(rid, []).append(i)
        # per-resource dispatch order: the running head, then the queue
        # (a queued compute occupation's completion args lead with its
        # instance; the running head is the one held instance not queued)
        dispatched: dict[str, list] = {}
        for rid, ids in held.items():
            queued = [
                occ.on_complete[1][0].instance_id
                for occ in run.sim_resources[rid]._queue
            ]
            head = set(ids).difference(queued)
            if len(head) != 1 or len(ids) != inflight[rid]:
                return False
            dispatched[rid] = [*head, *queued]
        # per-resource Kahn walk in FIFO readiness order — the exact
        # order the engine dispatches: a completion releases successors
        # in sorted id order behind whatever already queues there
        chains: dict[str, list] = {}
        chained = 0
        n_dispatched = 0
        for rid in inflight:
            if rid not in dispatched and rid not in roots:
                continue
            work = deque(dispatched.get(rid, ()))
            n_dispatched += len(work)
            work.extend(roots.get(rid, ()))
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
        if chained != len(indeg) + n_dispatched:
            return False

        # G2 — residency: shadow-directory walk, chain by chain; writes
        # are applied along the way so later links see earlier results
        memory = run.memory
        real = memory._valid
        spaces = tuple(memory._spaces)
        space_of = run._space_of
        rows_of = run._rows
        flags = plan.writeback_flags
        shadow: dict[tuple, object] = {}
        shadow_get = shadow.get

        def shadow_entry(arr, sp):
            key = (arr, sp)
            entry = shadow_get(key)
            if entry is None:
                entry = shadow[key] = real[arr][sp].copy()
            return entry

        fetchers: set[str] = set()
        #: (chain, per-array shadow ops) of every device chain, for G3
        device_walks: list = []
        wb_rows: list = []
        #: per space, per array: the shadow entry reads check, and the
        #: bound ``(add, removes in the other spaces, contains)`` writes
        #: apply — one dict hit per region instead of tuple-keyed lookups
        readers_in: dict[str, dict] = {}
        writers_in: dict[str, dict] = {}
        # device chains walk first: a later write in another space then
        # evicts an overlapping device write from its shadow, which G3
        # detects (writes within one space commute, so host chains may
        # overlap each other)
        walk = [r for r in chains if space_of[r] != HOST_SPACE]
        walk += [r for r in chains if space_of[r] == HOST_SPACE]
        for rid in walk:
            chain = chains[rid]
            space = space_of[rid]
            running = set(dispatched.get(rid, ()))
            may_fetch = False
            if space != HOST_SPACE:
                # one chain per device space: its link channels carry no
                # other chain's transfers, so per-link cursors are exact
                if space in readers_in:
                    return False
                may_fetch = not running and len(roots[rid]) == 1
            readers = readers_in.get(space)
            if readers is None:
                readers = readers_in[space] = {}
                writers_in[space] = {}
            writers = writers_in[space]
            for i in chain:
                row = rows_of[i]
                # dispatch already ensured the reads of held instances
                if i not in running:
                    for region in row.reads:
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
                for region in row.writes:
                    arr = region.array
                    ops = writers.get(arr)
                    if ops is None:
                        entry = shadow_entry(arr, space)
                        ops = writers[arr] = (
                            entry.add,
                            tuple(
                                shadow_entry(arr, sp).remove
                                for sp in spaces if sp != space
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
                for region in rows_of[i].writes:
                    if not writers[region.array][2](region.start,
                                                    region.end):
                        return False
        if _any_overlap(wb_rows):
            return False

        # -- resolve: the engine's directory calls, in its order, into
        # one wave.  A running head's row is the last its lane took in,
        # so the lane's ``last_end`` is the exact float its pending
        # completion carries; a fetching chain's first link makes real
        # ensure() calls (the shadow already holds their effect)
        k = self.epoch
        base = plan.epochs[k].start
        duration = run._duration
        resource_of = run._resource_by_id
        compute_lanes = run.compute_lanes
        wave_chains = []
        for rid, chain in chains.items():
            ids = chain
            fetch = ()
            head_end = None
            if rid in dispatched:
                head_end = compute_lanes[rid].last_end
                ids = chain[1:]
            elif rid in fetchers:
                ops = []
                for region in rows_of[chain[0]].reads:
                    ops.extend(memory.ensure(region, space_of[rid]))
                fetch = _transfer_rows(run, ops)
            resource = resource_of[rid]
            wave_chains.append((
                rid,
                tuple([duration(instances[i], resource) for i in ids]),
                fetch,
                [instances[i].invocation.kernel.name for i in ids],
                [instances[i].hi - instances[i].lo for i in ids],
                tuple([i - base for i in chain]),
                head_end,
            ))
        # every drained write lands at once; write-backs then resolve
        # against the final state, which equals the state at each
        # writer's completion: flagged writers belong to the epoch's last
        # invocation, and G3 keeps their regions disjoint
        for (arr, sp), entry in shadow.items():
            real[arr][sp] = entry
        # eager write-backs (a running head's included), chain order =
        # issue order on this space's channels
        wbs = []
        for rid, chain in chains.items():
            space = space_of[rid]
            for i in chain:
                if flags[i]:
                    for region in rows_of[i].writes:
                        ops = memory.writeback(region, space)
                        if ops:
                            wbs.append((i - base, _transfer_rows(run, ops)))
        flush = ()
        if fence is not None:
            flush = _transfer_rows(run, memory.flush_to_host(
                invalidate=run.config.barrier_invalidates_devices
            ))
        wave = (tuple(wave_chains), tuple(wbs), flush)
        t_done = _commit(run, [(wave, fence)], run.sim.now)
        if fence is not None:
            _STATS["waves_drained"] += 1
        else:
            _STATS["terminal_drains"] += 1

        # bookkeeping: every chain member is done; a running head still
        # completes through its own pending event (the run skips it) and
        # the occupations queued behind it are the bulk rows above
        for rid, chain in chains.items():
            done.update(chain)
            if rid in dispatched:
                inflight[rid] = 0
                run.sim_resources[rid]._queue.clear()

        self._schedule_anchor(run, t_done, fence)
        # steady-wave template: a wave committed whole from its opening
        # barrier, with an invalidating flush, resolves to the rows every
        # later wave of its class resolves again
        sig = plan.epoch_sig.get(k)
        if (sig is not None and not dispatched
                and run.config.barrier_invalidates_devices):
            self.tmpls[sig] = wave
        return True

    def _schedule_anchor(self, run, time: float, fence) -> None:
        """One event closing a committed epoch at ``time``; it consumes
        exactly one sequence number on either engine."""
        run.sim.schedule_call(time, self._close_epoch, (run, fence))

    def _close_epoch(self, args) -> None:
        """Anchor target: the modeled fence completes.  The unfenced
        final epoch has none; its anchor only advances the clock."""
        run, fence = args
        if fence is not None:
            self.open_epoch(run, run.graph.instances[fence])

    def _replay_waves(self, run, plan: CompiledPlan) -> None:
        """Commit every remaining templated wave with no gates and no
        directory.

        The stretch runs as long as each wave's signature has a recorded
        template — ping-pong loops alternate between two classes, so the
        lookup is per wave, not one class for the whole stretch.  The
        directory is never touched: replayed waves would leave it
        exactly where the template wave's invalidating flush already put
        it.  One anchor event resumes the ordinary path at the last
        fence.
        """
        tmpls = self.tmpls
        epoch_sig = plan.epoch_sig
        epochs = plan.epochs
        fences = plan.fences
        done = run.done
        k = self.epoch
        stretch = []
        while True:
            done.update(epochs[k])
            stretch.append((tmpls[epoch_sig[k]], fences[k]))
            if epoch_sig.get(k + 1) not in tmpls:
                break
            # the next wave replays too: its opening fence closes inline
            done.add(fences[k])
            k += 1
        self.epoch = k
        t_done = _commit(run, stretch, run.sim.now)
        _STATS["waves_drained"] += len(stretch)
        _STATS["waves_replayed"] += len(stretch)
        self._schedule_anchor(run, t_done, fences[k])


def _transfer_rows(run, ops) -> tuple:
    """Resolved transfer ops as ``(lane key, link, duration, nbytes,
    direction)`` rows."""
    links = run.links
    rows = []
    for op in ops:
        direction = "h2d" if op.is_h2d else "d2h"
        key = f"{op.device_space}:{direction}"
        rows.append((key, links[key], run._transfer_duration(op), op.nbytes,
                     direction))
    return tuple(rows)


def _commit(run, stretch: list, t0: float) -> float:
    """Time ``stretch`` from ``t0``, take its rows in, and return the
    last completion time.

    ``stretch`` holds ``(wave, fence)`` pairs, each wave opening where
    the previous one's fence completes.  A wave is ``(chains,
    write-backs, flush)``: each chain ``(rid, durations, fetch rows,
    kernels, sizes, member positions, running-head end or None)`` — the
    durations, kernels and sizes of the rows the commit takes in (a
    running head's row is already in its lane), the epoch-relative
    positions of every member, running head first; each write-back
    ``(member position, rows)``; ``flush`` the fence's rows.

    The float arithmetic is op for op the engine's, event by event:
    serial occupation on per-link-channel cursors rooted at each wave's
    start (keyed by ``SimResource`` object, so a half-duplex link's
    shared channel serializes both directions), each chain's sequential
    recurrence from its anchor (a running head's end, the landing of its
    fetches, or the wave's start), write-backs on the wire when their
    member's compute ends, and the fence's completion at ``max(last
    chain end + quiescence overhead, flush lands, write-backs land)`` —
    the engine's ``_BarrierArm`` + ``_wb_waiters`` semantics.  An
    unfenced wave ends at ``max(last chain end, last write-back
    landing)``.  Rows accumulate per lane across the stretch and land in
    one bulk call per lane: per-lane row order is exactly the per-wave
    order, which is all the summary's group-ordered accumulations
    observe.
    """
    instances = run.graph.instances
    transfer_bytes = run.transfer_bytes
    #: lane key -> (starts, ends)
    xfer_acc: dict = {}
    #: rid -> (starts, ends, kernels, sizes)
    comp_acc: dict = {}

    def on_links(rows, t, link_busy):
        # serial occupation on each row's link channel from ``t``;
        # returns the last landing (``t`` without rows)
        land = t
        for key, link, dur, nbytes, direction in rows:
            cursor = link_busy.get(link, t)
            start = cursor if cursor > t else t
            end = start + dur
            link_busy[link] = end
            acc = xfer_acc.get(key)
            if acc is None:
                acc = xfer_acc[key] = ([], [])
            acc[0].append(start)
            acc[1].append(end)
            transfer_bytes[direction] += nbytes
            if end > land:
                land = end
        return land

    for (chains, wbs, flush), fence in stretch:
        link_busy: dict = {}
        t_ready = t0
        #: member position -> compute end
        member_end: dict = {}
        for rid, durs, fetch, kernels, sizes, positions, head_end in chains:
            acc = comp_acc.get(rid)
            if acc is None:
                acc = comp_acc[rid] = ([], [], [], [])
            starts, ends, kernel_col, size_col = acc
            kernel_col.extend(kernels)
            size_col.extend(sizes)
            if head_end is not None:
                anchor = head_end
                if wbs:
                    member_end[positions[0]] = head_end
                    positions = positions[1:]
            elif fetch:
                anchor = on_links(fetch, t0, link_busy)
            else:
                anchor = t0
            if len(durs) == 1:  # one link: no chain to walk
                end = anchor + durs[0]
                starts.append(anchor)
                ends.append(end)
                if wbs:
                    member_end[positions[0]] = end
            elif durs:
                # the left-to-right chain: bound k+1 = bound k + dur k
                bounds = list(accumulate(durs, initial=anchor))
                chain_ends = bounds[1:]
                starts.extend(bounds[:-1])
                ends.extend(chain_ends)
                if wbs:
                    member_end.update(zip(positions, chain_ends))
                end = bounds[-1]
            else:  # only the running head
                end = anchor
            if end > t_ready:
                t_ready = end
        wb_land = t0
        for pos, rows in wbs:
            land = on_links(rows, member_end[pos], link_busy)
            if land > wb_land:
                wb_land = land
        t_done = t_ready
        if fence is not None:
            t_done += run._barrier_overhead(instances[fence])
            if flush:
                land = on_links(flush, t_ready, link_busy)
                if land > t_done:
                    t_done = land
        if wb_land > t_done:
            t_done = wb_land
        t0 = t_done

    compute_lanes = run.compute_lanes
    for rid, (starts, ends, kernels, sizes) in comp_acc.items():
        if len(starts) == 1:
            compute_lanes[rid].append(starts[0], ends[0], (), sizes[0],
                                      kernels[0])
        elif starts:
            compute_lanes[rid].extend_rows(starts, ends, sizes=sizes,
                                           kernels=kernels)
    transfer_lanes = run.transfer_lanes
    for key, (starts, ends) in xfer_acc.items():
        transfer_lanes[key].extend_rows(starts, ends)
    return t0
