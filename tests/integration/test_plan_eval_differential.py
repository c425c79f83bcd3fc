"""Differential suite: the run loop with its drain vs with the drain refused.

The drain's contract mirrors the fast event core's: a summary-detail
run of a static plan that commits epochs analytically
(:mod:`repro.sim.plan`) must be *indistinguishable* from the same run
with ``RuntimeConfig.drain=False`` — summary artifacts agree on makespan
and every per-resource busy time bit for bit, and pickle to identical
bytes.  Full-detail runs never drain, so byte identity there covers the
quiet-point plumbing while the summary matrix covers the drain itself.

Dynamic strategies cannot drain and run event by event either way: a
DP-* cell with the drain on runs identically.

In-process comparisons use structural equality on cache-cold artifacts;
byte identity is checked across fresh subprocesses for the same
``sys.intern`` reason as ``test_fast_engine_differential``.
"""

import os
import pickle
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench.harness import SweepCell, _run_cell
from repro.cache import clear_all
from repro.errors import StrategyInapplicableError
from repro.runtime.executor import RuntimeConfig, _Run
from repro.sim.plan import PlanEvaluator, drain_stats

#: static strategies (may drain) + dynamic ones (never drain)
STRATEGIES = ("Only-CPU", "Only-GPU", "SP-Single", "SP-Unified", "SP-Varied")
FALLBACK_STRATEGIES = ("DP-Perf", "DP-Dep")

#: (app, n, iterations) — small instances spanning the app classes,
#: including sync-free loops (which drain) and synced ones (which don't)
APPS = [
    ("STREAM-Loop", 2048, 4),
    ("MatrixMul", 128, 1),
    ("BlackScholes", 2048, 1),
    ("Cholesky", 6, 1),  # n counts tiles, not elements
    ("SpMV", 2048, 1),
]

#: (app, n, iterations) — per-iteration-sync scenarios: every loop body
#: ends at a barrier, so parity rides on fenced epoch commits (or their
#: per-wave fallback to the event loop)
SYNCED_APPS = [
    ("HotSpot", 1024, 4),
    ("Nbody", 512, 3),
    ("FDTD", 512, 3),
]

#: dynamic schedulers exercised on synced cells (never drain)
SYNCED_FALLBACK_STRATEGIES = ("HYB-Static", "DP-Perf")


def _cell(platform, app, n, iterations, strategy, *, sync=False):
    return SweepCell(app=app, strategy=strategy, platform=platform,
                     n=n, iterations=iterations, sync=sync)


def _run(cell, *, drain, detail="summary"):
    clear_all()
    cell = replace(cell, runtime_config=RuntimeConfig(drain=drain))
    try:
        return _run_cell(cell, detail)
    except StrategyInapplicableError:
        return StrategyInapplicableError


def _static_run(platform, app, n, iterations, strategy, *, sync, drain):
    """A fresh summary-detail ``_Run`` of one plan (runs are single-use),
    or None when the strategy does not cover the program."""
    from repro.apps import get_application
    from repro.partition.base import get_strategy

    clear_all()
    prog = get_application(app).program(n, iterations=iterations, sync=sync)
    try:
        plan = get_strategy(strategy).plan(prog, platform)
    except StrategyInapplicableError:
        return None
    config = replace(RuntimeConfig(drain=drain), **plan.runtime_overrides)
    return _Run(platform, config, plan.graph, plan.scheduler,
                detail="summary")


@pytest.mark.parametrize("app,n,iterations", APPS)
def test_summary_identical_across_static_strategies(paper_platform, app, n,
                                                    iterations):
    for strategy in STRATEGIES:
        cell = _cell(paper_platform, app, n, iterations, strategy)
        ref = _run(cell, drain=False)
        ev = _run(cell, drain=True)
        if ref is StrategyInapplicableError:
            assert ev is StrategyInapplicableError
            continue
        assert ev.makespan_ms == ref.makespan_ms, strategy
        assert ev.summary == ref.summary, strategy
        assert ev == ref, strategy


@pytest.mark.parametrize("strategy", FALLBACK_STRATEGIES)
def test_dynamic_strategies_fall_back_identically(paper_platform, strategy):
    cell = _cell(paper_platform, "STREAM-Loop", 2048, 2, strategy)
    ref = _run(cell, drain=False)
    ev = _run(cell, drain=True)
    assert ev == ref


def test_full_detail_identical(paper_platform):
    """Full-trace runs never drain and match structurally in-process."""
    cell = _cell(paper_platform, "STREAM-Loop", 2048, 4, "SP-Unified")
    ref = _run(cell, drain=False, detail="full")
    ev = _run(cell, drain=True, detail="full")
    assert ev.trace.records == ref.trace.records
    assert ev == ref


def test_forced_fraction_cells_identical(paper_platform):
    """The search's forced-split cells hold parity too."""
    from repro.partition.base import PlanConfig

    for frac in (0.0, 0.5, 1.0):
        cell = SweepCell(
            app="STREAM-Loop", strategy="SP-Unified",
            platform=paper_platform, n=2048, iterations=4, sync=False,
            config=PlanConfig(gpu_fraction=frac),
        )
        ref = _run(cell, drain=False)
        ev = _run(cell, drain=True)
        assert ev == ref, frac


SUBPROCESS_SCRIPT = (
    "import pickle, sys\n"
    "from repro.bench.harness import SweepCell, _run_cell\n"
    "from repro.platform import shen_icpp15_platform\n"
    "from repro.runtime.executor import RuntimeConfig\n"
    "cell = SweepCell(app='STREAM-Loop', strategy='SP-Unified',\n"
    "                 platform=shen_icpp15_platform(), n=2048,\n"
    "                 iterations=4, sync=False,\n"
    "                 runtime_config=RuntimeConfig(drain=sys.argv[2] == '1'))\n"
    "artifact = _run_cell(cell, sys.argv[1])\n"
    "sys.stdout.buffer.write(pickle.dumps(artifact, 5))\n"
)


@pytest.mark.parametrize("detail", ("summary", "full"))
def test_pickle_bytes_identical_in_fresh_processes(detail):
    """Byte identity across (drain × engine) in fresh interpreters."""
    src = str(Path(__file__).resolve().parents[2] / "src")

    def dump(drain, no_fast):
        env = dict(os.environ, PYTHONPATH=src,
                   REPRO_NO_FAST_ENGINE="1" if no_fast else "0")
        proc = subprocess.run(
            [sys.executable, "-c", SUBPROCESS_SCRIPT, detail,
             "1" if drain else "0"],
            env=env, capture_output=True, check=True,
        )
        return proc.stdout

    ref = dump(drain=False, no_fast=False)
    assert len(ref) > 500
    for drain, no_fast in ((True, False), (True, True), (False, True)):
        assert dump(drain, no_fast) == ref, (drain, no_fast)
    artifact = pickle.loads(ref)
    assert artifact.makespan_ms > 0


@pytest.mark.parametrize("strategy", ("Only-CPU", "SP-Unified"))
def test_drain_engages_on_sync_free_loop(paper_platform, strategy,
                                         monkeypatch):
    """Guards against silent regressions to the pure event loop.

    The unfenced final epoch commits at the first quiet point: Only-CPU
    never transfers, so it commits at t=0 from the running heads;
    SP-Unified first waits for its initial device fetches to land.
    """
    commits = []
    try_drain = PlanEvaluator._try_drain

    def spy(evaluator, run, plan, fence):
        committed = try_drain(evaluator, run, plan, fence)
        if committed:
            commits.append((run.sim.now, fence))
        return committed

    monkeypatch.setattr(PlanEvaluator, "_try_drain", spy)

    def build(drain):
        return _static_run(paper_platform, "STREAM-Loop", 2048, 4, strategy,
                           sync=False, drain=drain)

    run = build(drain=True)
    assert run._drain is not None
    before = drain_stats()["terminal_drains"]
    ev = run.go()
    assert drain_stats()["terminal_drains"] == before + 1
    assert len(commits) == 1 and commits[0][1] is None
    if strategy == "Only-CPU":
        assert commits[0][0] == 0.0
    else:
        assert commits[0][0] > 0.0

    run = build(drain=False)
    assert run._drain is None
    ref = run.go()
    assert ev.makespan_ms == ref.makespan_ms
    assert ev.summary == ref.summary


def test_tournament_identical_with_drain_refused(paper_platform):
    """Static matches drain; every match and ranking is unchanged."""
    from repro.core.tournament import run_tournament

    def play(drain):
        clear_all()  # no match replays from the memo store
        before = drain_stats()
        result = run_tournament(paper_platform, scale=0.02,
                                runtime_config=RuntimeConfig(drain=drain))
        after = drain_stats()
        commits = sum(after[k] - before[k]
                      for k in ("waves_drained", "terminal_drains"))
        matches = [(m.scenario.label, m.strategy, m.makespan_s)
                   for m in result.matches]
        return matches, result.rankings, commits

    on, on_rankings, on_commits = play(True)
    off, off_rankings, off_commits = play(False)
    assert on == off
    assert on_rankings == off_rankings
    assert on_commits > 0 and off_commits == 0


# -- per-iteration-sync apps: fenced epochs -----------------------------------


@pytest.mark.parametrize("app,n,iterations", SYNCED_APPS)
def test_summary_identical_across_synced_apps(paper_platform, app, n,
                                              iterations):
    """Every applicable strategy holds parity on barrier-fenced loops."""
    for strategy in STRATEGIES + SYNCED_FALLBACK_STRATEGIES:
        cell = _cell(paper_platform, app, n, iterations, strategy, sync=True)
        ref = _run(cell, drain=False)
        ev = _run(cell, drain=True)
        if ref is StrategyInapplicableError:
            assert ev is StrategyInapplicableError, strategy
            continue
        assert ev.makespan_ms == ref.makespan_ms, strategy
        assert ev.summary == ref.summary, strategy
        assert ev == ref, strategy


def test_synced_full_detail_identical(paper_platform):
    """Full-trace synced runs never drain and match structurally."""
    cell = _cell(paper_platform, "HotSpot", 1024, 4, "SP-Single", sync=True)
    ref = _run(cell, drain=False, detail="full")
    ev = _run(cell, drain=True, detail="full")
    assert ev.trace.records == ref.trace.records
    assert ev == ref


def test_wave_drain_engages_on_synced_loop(paper_platform):
    """Waves must actually drain — not silently fall back per barrier."""
    run = _static_run(paper_platform, "HotSpot", 1024, 4, "SP-Single",
                      sync=True, drain=True)
    before = drain_stats()
    run.go()
    after = drain_stats()
    assert run._drain.plan.fences[0] is not None  # barriers split epochs
    assert after["evaluations"] == before["evaluations"] + 1
    assert after["waves_drained"] > before["waves_drained"]
    assert after["wave_fallbacks"] == before["wave_fallbacks"]


def test_synced_loop_replays_pinned_wave_counts(paper_platform):
    """Templates must keep replaying, not just waves keep draining.

    A drain that gated every wave would stay exact, so every parity
    test would still pass; this pins the counter deltas of one synced
    run instead.  HotSpot's ping-pong loop alternates two wave classes:
    wave 0 commits from its running heads, waves 1 and 2 pass the gates
    and record one template per class, and waves 3–7 replay as one
    stretch.  The empty epoch after the last barrier commits nothing.
    """
    run = _static_run(paper_platform, "HotSpot", 1024, 8, "SP-Single",
                      sync=True, drain=True)
    before = drain_stats()
    run.go()
    after = drain_stats()
    delta = {key: after[key] - before[key] for key in
             ("waves_drained", "waves_replayed", "terminal_drains",
              "wave_fallbacks")}
    assert delta == {"waves_drained": 8, "waves_replayed": 5,
                     "terminal_drains": 0, "wave_fallbacks": 0}


@contextmanager
def _lane_intake(monkeypatch):
    """Log every row the trace lanes take in, per lane, in intake order.

    Keys are ``(resource_id, category, direction)``; rows are ``(start,
    end, kernel, size)`` — everything a summary-detail lane receives, for
    per-event appends and bulk ``extend_rows`` alike.
    """
    from repro.sim.tracestore import TraceLane

    log = {}
    append = TraceLane.append
    extend_rows = TraceLane.extend_rows

    def rows_of(lane):
        return log.setdefault(
            (lane.resource_id, lane.category, lane.direction), []
        )

    def logged_append(lane, start, end, args=(), size=-1, kernel=None,
                      meta=None):
        rows_of(lane).append((start, end, kernel, size))
        append(lane, start, end, args, size, kernel, meta)

    def logged_extend(lane, starts, ends, **cols):
        k = len(starts)
        sizes = cols.get("sizes") or [-1] * k
        kernels = cols.get("kernels") or [None] * k
        rows_of(lane).extend(
            zip(_as_floats(starts), _as_floats(ends), kernels, sizes)
        )
        extend_rows(lane, starts, ends, **cols)

    with monkeypatch.context() as m:
        m.setattr(TraceLane, "append", logged_append)
        m.setattr(TraceLane, "extend_rows", logged_extend)
        yield log


def _as_floats(values):
    return [float(v) for v in values]


#: (app, n, iterations, sync) cells of the lane-intake property: the
#: synced apps' fenced waves, plus sync-free STREAM-Loop, where
#: SP-Unified ends in a terminal drain that absorbs a running head per
#: resource and SP-Varied's per-kernel fences open waves whose first
#: links fetch
LANE_CELLS = [(*row, True) for row in SYNCED_APPS] + [
    ("STREAM-Loop", 2048, 4, False),
]


@pytest.mark.parametrize(
    "app,n,iterations,sync", LANE_CELLS,
    ids=[f"{app}-{n}-{iterations}" + ("" if sync else "-sync-free")
         for app, n, iterations, sync in LANE_CELLS],
)
@pytest.mark.parametrize("strategy", ("SP-Single", "SP-Unified", "SP-Varied"))
def test_wave_commits_never_reorder_lanes(paper_platform, app, n, iterations,
                                          sync, strategy, monkeypatch):
    """Property: drain commits feed rows in the oracle's firing order.

    A commit feeds each lane in one bulk intake; this checks row-by-row
    (start, end, kernel, size) equality of every lane's intake against
    the drain-refused event loop's, which is stronger than the summary
    equality the matrix tests assert (summaries aggregate, so they could
    mask two reorderings that cancel).
    """
    def build(drain):
        return _static_run(paper_platform, app, n, iterations, strategy,
                           sync=sync, drain=drain)

    run = build(drain=False)
    if run is None:
        pytest.skip(f"{strategy} inapplicable to {app}")
    with _lane_intake(monkeypatch) as ref_lanes:
        run.go()

    run = build(drain=True)
    with _lane_intake(monkeypatch) as ev_lanes:
        run.go()

    assert set(ev_lanes) == set(ref_lanes)
    for key in ref_lanes:
        assert ev_lanes[key] == ref_lanes[key], key


SYNCED_SUBPROCESS_SCRIPT = (
    "import pickle, sys\n"
    "from repro.bench.harness import SweepCell, _run_cell\n"
    "from repro.platform import shen_icpp15_platform\n"
    "from repro.runtime.executor import RuntimeConfig\n"
    "cell = SweepCell(app='HotSpot', strategy='SP-Single',\n"
    "                 platform=shen_icpp15_platform(), n=1024,\n"
    "                 iterations=4, sync=True,\n"
    "                 runtime_config=RuntimeConfig(drain=sys.argv[2] == '1'))\n"
    "artifact = _run_cell(cell, sys.argv[1])\n"
    "sys.stdout.buffer.write(pickle.dumps(artifact, 5))\n"
)


@pytest.mark.parametrize("detail", ("summary", "full"))
def test_synced_pickle_bytes_identical_in_fresh_processes(detail):
    """Wave-drained artifacts are byte-identical across every engine tier."""
    src = str(Path(__file__).resolve().parents[2] / "src")

    def dump(drain, no_fast):
        env = dict(os.environ, PYTHONPATH=src,
                   REPRO_NO_FAST_ENGINE="1" if no_fast else "0")
        proc = subprocess.run(
            [sys.executable, "-c", SYNCED_SUBPROCESS_SCRIPT, detail,
             "1" if drain else "0"],
            env=env, capture_output=True, check=True,
        )
        return proc.stdout

    ref = dump(drain=False, no_fast=False)
    assert len(ref) > 500
    for drain, no_fast in ((True, False), (True, True), (False, True)):
        assert dump(drain, no_fast) == ref, (drain, no_fast)
    artifact = pickle.loads(ref)
    assert artifact.makespan_ms > 0
