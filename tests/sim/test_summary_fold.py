"""Differential suite: the lane fold vs the stored trace.

A run's :class:`~repro.artifact.TraceSummary` is folded row by row in its
trace lanes and merged by :meth:`TraceSummary.from_lanes`; no store is
read.  The fold must be indistinguishable from condensing the full
trace's records by the scans of the oracle in ``tests/sim/trace_oracle.py``
(:func:`summary_of`): equal and pickle-equal summaries
for every application under every paper strategy — on the paper
platform, on two accelerators (two lanes per transfer direction) and
over a half-duplex link (two lanes on one link resource) — for the
event loop alone (``RuntimeConfig(drain=False)``) and for summary runs
whose drain commits or refuses at every quiet point.  Summary-detail
runs must not build a trace store at all.

CI runs this file under ``REPRO_NO_FAST_ENGINE=1`` (oracle engine) too.
"""

import pickle
from dataclasses import fields, replace

import pytest

from repro.apps import get_application
from repro.artifact import TraceSummary
from repro.cache import clear_all
from repro.errors import PlatformError, StrategyInapplicableError
from repro.partition import PlanConfig, get_strategy
from repro.platform import Device, Platform, dual_gpu_platform
from repro.platform.presets import PCIE2_X16, TESLA_K20M, XEON_E5_2620
from repro.runtime.executor import RuntimeConfig, RuntimeEngine
from repro.sim import plan as plan_mod
from repro.sim.plan import drain_stats
from repro.sim.tracestore import TraceLane, TraceStore
from tests.sim.trace_oracle import summary_of

#: the paper's eight strategies
STRATEGIES = (
    "Only-CPU", "Only-GPU", "SP-Single", "SP-Unified", "SP-Varied",
    "DP-Perf", "DP-Dep", "DP-Aff",
)

#: (app, n, iterations) — every application at a small size
APPS = [
    ("MatrixMul", 128, None),
    ("BlackScholes", 2048, None),
    ("Nbody", 512, 2),
    ("HotSpot", 256, 3),
    ("STREAM-Seq", 4096, None),
    ("STREAM-Loop", 2048, 3),
    ("Cholesky", 6, None),  # n counts tiles, not elements
    ("SpMV", 2048, None),
    ("FDTD", 256, 2),
]



def half_duplex_platform() -> Platform:
    """The paper machine with its PCIe link shared by both directions."""
    return Platform(
        host=Device("cpu", XEON_E5_2620),
        accelerators=[Device("gpu0", TESLA_K20M)],
        links={"gpu0": replace(PCIE2_X16, duplex=False)},
    )


@pytest.fixture(params=["paper", "dual-gpu", "half-duplex"])
def platform(request, paper_platform):
    return {
        "paper": lambda: paper_platform,
        "dual-gpu": dual_gpu_platform,
        "half-duplex": half_duplex_platform,
    }[request.param]()


def _plan(app, n, iterations, strategy, platform):
    """A fresh plan (graphs and schedulers are single-use), or None when
    the strategy does not cover the program or the platform."""
    clear_all()
    program = get_application(app).program(n, iterations=iterations)
    cfg = PlanConfig()
    try:
        plan = get_strategy(strategy).plan(program, platform, cfg)
    except (StrategyInapplicableError, PlatformError):
        return None, None
    return plan, RuntimeConfig(cpu_threads=cfg.threads(platform))


def _engine(plan, platform, rt, detail, *, drain=True):
    config = replace(rt, drain=drain, **plan.runtime_overrides)
    return RuntimeEngine(platform, config=config).execute(
        plan.graph, plan.scheduler, detail=detail
    )


def _floats_are_floats(summary: TraceSummary) -> None:
    def walk(value, where):
        if isinstance(value, dict):
            for key, item in value.items():
                walk(item, f"{where}[{key!r}]")
        elif isinstance(value, float):
            assert type(value) is float, (where, type(value))
        else:
            assert type(value) is int, (where, type(value))

    for f in fields(summary):
        walk(getattr(summary, f.name), f.name)


@pytest.mark.parametrize("app,n,iterations", APPS)
def test_fold_equals_stored_trace(platform, app, n, iterations):
    """Full-detail runs: the folded summary is the trace, condensed."""
    ran = 0
    for strategy in STRATEGIES:
        plan, rt = _plan(app, n, iterations, strategy, platform)
        if plan is None:
            continue
        ran += 1
        artifact = _engine(plan, platform, rt, "full")
        stored = summary_of(artifact.trace)
        assert artifact.summary == stored, strategy
        assert pickle.dumps(artifact.summary, 5) == pickle.dumps(stored, 5), \
            strategy
        _floats_are_floats(artifact.summary)
    assert ran >= 3


@pytest.mark.parametrize("app,n,iterations", APPS)
def test_summary_detail_engine_pickles_like_full(platform, app, n,
                                                 iterations):
    for strategy in STRATEGIES:
        plan, rt = _plan(app, n, iterations, strategy, platform)
        if plan is None:
            continue
        slim = _engine(plan, platform, rt, "summary", drain=False)
        plan, rt = _plan(app, n, iterations, strategy, platform)
        full = _engine(plan, platform, rt, "full")
        assert slim.trace is None
        assert slim.makespan_s == full.makespan_s, strategy
        assert pickle.dumps(slim.summary, 5) == pickle.dumps(
            full.summary, 5
        ), strategy
        _floats_are_floats(slim.summary)


@pytest.mark.parametrize("refuse", [False, True], ids=["drain", "refused"])
@pytest.mark.parametrize("app,n,iterations", APPS)
def test_summary_detail_evaluator_pickles_like_full(
    platform, app, n, iterations, refuse, monkeypatch
):
    """The drain's bulk rows fold exactly, and so do runs whose drain
    refuses at every quiet point."""
    if refuse:
        monkeypatch.setattr(plan_mod.PlanEvaluator, "_try_drain",
                            lambda *args: False)
    before = drain_stats()
    evaluated = 0
    for strategy in STRATEGIES:
        plan, rt = _plan(app, n, iterations, strategy, platform)
        if plan is None:
            continue
        builds = drain_stats()["evaluations"]
        slim = _engine(plan, platform, rt, "summary")
        if drain_stats()["evaluations"] == builds:
            continue  # dynamic strategies never hold a drain
        plan, rt = _plan(app, n, iterations, strategy, platform)
        full = _engine(plan, platform, rt, "full")
        evaluated += 1
        assert slim.makespan_s == full.makespan_s, strategy
        assert pickle.dumps(slim.summary, 5) == pickle.dumps(
            full.summary, 5
        ), strategy
        _floats_are_floats(slim.summary)
    assert evaluated
    after = drain_stats()
    commits = (after["waves_drained"] + after["terminal_drains"]
               - before["waves_drained"] - before["terminal_drains"])
    assert (commits == 0) if refuse else (commits > 0)


@pytest.fixture
def store_traffic(monkeypatch):
    """Counts trace stores built and rows taken in by staging and by
    fold-only lanes."""
    counts = {"stores": 0, "staged": 0, "folded": 0}
    init = TraceStore.__init__
    append, extend_rows = TraceLane.append, TraceLane.extend_rows

    def counting_init(self, *a, **kw):
        counts["stores"] += 1
        init(self, *a, **kw)

    def counting_append(lane, *a, **kw):
        counts["staged" if lane.staging else "folded"] += 1
        append(lane, *a, **kw)

    def counting_extend(lane, starts, *a, **kw):
        counts["staged" if lane.staging else "folded"] += len(starts)
        extend_rows(lane, starts, *a, **kw)

    monkeypatch.setattr(TraceStore, "__init__", counting_init)
    monkeypatch.setattr(TraceLane, "append", counting_append)
    monkeypatch.setattr(TraceLane, "extend_rows", counting_extend)
    return counts


@pytest.mark.parametrize("strategy,app,n,iterations", [
    ("DP-Perf", "STREAM-Loop", 2048, 3),  # engine, dynamic
    ("SP-Single", "HotSpot", 256, 3),  # wave drain
    ("SP-Unified", "STREAM-Loop", 2048, 3),  # terminal drain
])
def test_summary_detail_stages_no_row(paper_platform, store_traffic,
                                      strategy, app, n, iterations):
    plan, rt = _plan(app, n, iterations, strategy, paper_platform)
    before = drain_stats()
    artifact = _engine(plan, paper_platform, rt, "summary")
    after = drain_stats()
    commits = (after["waves_drained"] + after["terminal_drains"]
               - before["waves_drained"] - before["terminal_drains"])
    assert (commits > 0) == (not plan.scheduler.dynamic)
    assert artifact.summary.record_count == store_traffic["folded"] > 0
    assert store_traffic["stores"] == 0
    assert store_traffic["staged"] == 0


def test_full_detail_stages_every_folded_row(paper_platform, store_traffic):
    plan, rt = _plan("STREAM-Loop", 2048, 3, "DP-Perf", paper_platform)
    artifact = _engine(plan, paper_platform, rt, "full")
    assert store_traffic["folded"] == 0
    assert artifact.summary.record_count == store_traffic["staged"] \
        == len(artifact.trace)


class TestMultiLaneGroups:
    """Groups fed by several lanes continue one sequential sum."""

    #: per-lane totals added together round differently from the
    #: sequential sum: 1e16 + 1.0 + 1.0 == 1e16, but 1e16 + 2.0 is not
    ROWS = [[(0.0, 1e16)], [(0.0, 1.0), (1.0, 2.0)]]

    def _lanes(self, store, specs):
        lanes = [store.lane(rid, cat, "", **consts)
                 for rid, cat, consts in specs]
        # each row carries its lane's constants, as the executor's do
        for lane, rows, (_, _, consts) in zip(lanes, self.ROWS, specs):
            for start, end in rows:
                lane.append(start, end, meta=dict(consts))
        return lanes

    def _check(self, specs):
        store = TraceStore()
        lanes = self._lanes(store, specs)
        folded = TraceSummary.from_lanes(lanes)
        assert folded == summary_of(store)
        assert pickle.dumps(folded, 5) == pickle.dumps(summary_of(store), 5)
        assert lanes[0].busy + lanes[1].busy != lanes[1].resume(lanes[0].busy)
        return folded

    def test_one_resource_two_lanes(self):
        # a half-duplex link: both directions on one resource
        folded = self._check([
            ("link:gpu0", "transfer", {"direction": "h2d"}),
            ("link:gpu0", "transfer", {"direction": "d2h"}),
        ])
        assert folded.busy_by_resource["link:gpu0"]["transfer"] == 1e16

    def test_one_direction_two_lanes(self):
        # two accelerators: one direction on two link resources
        folded = self._check([
            ("link:gpu0:h2d", "transfer", {"direction": "h2d"}),
            ("link:gpu1:h2d", "transfer", {"direction": "h2d"}),
        ])
        assert folded.transfer_time_s["h2d"] == 1e16

    def test_only_later_feeders_keep_durations(self):
        store = TraceStore()
        first = store.lane("r", "transfer", "", direction="h2d")
        second = store.lane("r", "transfer", "", direction="d2h")
        other = store.lane("s", "compute", "", device_kind="cpu")
        assert first.durations is None and other.durations is None
        assert second.durations is not None


class TestFoldOnlyLane:
    def test_extend_rows_matches_appends(self):
        rows = [(0.0, 0.1, "k1", 3), (0.1, 0.30000000000000004, "k2", 5),
                (0.30000000000000004, 0.7, "k1", -1)]
        one = TraceLane(None, "r", "compute", "", device_kind="gpu")
        for start, end, kernel, size in rows:
            one.append(start, end, size=size, kernel=kernel)
        bulk = TraceLane(None, "r", "compute", "", device_kind="gpu")
        bounds = [0.0, 0.1, 0.30000000000000004, 0.7]
        bulk.extend_rows(bounds[:-1], bounds[1:],
                         sizes=[r[3] for r in rows],
                         kernels=[r[2] for r in rows])
        assert len(one) == len(bulk) == 0  # nothing staged
        folded = [TraceSummary.from_lanes([lane]) for lane in (one, bulk)]
        assert folded[0] == folded[1]
        assert pickle.dumps(folded[0], 5) == pickle.dumps(folded[1], 5)
        assert type(bulk.max_end) is float and type(bulk.last_end) is float
        assert bulk.last_end == 0.7
        _floats_are_floats(folded[1])
