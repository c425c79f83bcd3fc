"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Applications, strategies, platform presets, experiment keys.
``platform [--preset P]``
    Describe a platform preset (default: the paper's Table III machine).
``analyze APP [--sync|--no-sync] [-n N] [--ranker table|measured]``
    Run the application analyzer and print the class/ranking report.
``rank [--scale F] [--compare] [--jobs N]``
    Play the strategy tournament on a platform preset and print the
    measured per-class rankings (``--compare``: against Table I).
``run APP [--strategy S] [--sync|--no-sync] [-n N] [-i I] [--gantt] ...``
    Execute one application under one strategy (default: the matchmade
    best) and print the outcome, optionally with a Gantt chart and trace
    statistics.
``experiment KEY [--scale F] [-o FILE.csv|.json]``
    Regenerate one paper table/figure and print (or export) its data.
``speedup [-o FILE]``
    Regenerate Figure 12.
``validate``
    Run the full shape validation (49 paper claims); exit 1 on failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from repro.apps.registry import all_applications, get_application
from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.bench.export import (
    scenario_rows,
    speedup_rows,
    write_records,
)
from repro.bench.speedup import figure12, format_figure12
from repro.bench.tables import format_ratio_table, format_time_table
from repro.bench.validation import validate_platform
from repro.core.analyzer import analyze
from repro.core.matchmaker import match
from repro.core.ranking import resolve_ranker
from repro.errors import ConfigurationError, PartitioningError
from repro.core.report import format_analysis, format_match
from repro.partition import PlanConfig, all_strategy_info, get_strategy
from repro.runtime.executor import RuntimeConfig
from repro.platform import (
    balanced_platform,
    dual_gpu_platform,
    fusion_platform,
    phi_platform,
    shen_icpp15_platform,
)
from repro.sim import analyze_trace, format_stats, render_gantt
from repro.sim.trace import GANTT_MIN_WIDTH

PRESETS: dict[str, Callable] = {
    "shen": shen_icpp15_platform,
    "dual-gpu": dual_gpu_platform,
    "fusion": fusion_platform,
    "balanced": balanced_platform,
    "phi": phi_platform,
}


def _platform(args) -> "Platform":
    return PRESETS[args.preset]()


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse ``type`` accepting integers no smaller than ``low``,
    so out-of-range values die at parse time (exit 2, no traceback)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}"
            ) from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _scale(text: str) -> float:
    """An argparse ``type`` for a problem-size scale factor in (0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}"
        ) from None
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {text}")
    return value


def _add_cache_dir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="warm-start the probe/plan memo stores from DIR and save "
             "them back on exit, so repeated invocations skip probes "
             "already computed (stale snapshots are ignored)",
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--preset", choices=sorted(PRESETS), default="shen",
        help="platform preset (default: the paper's Table III machine)",
    )
    _add_cache_dir(parser)


def _add_ranker(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ranker", choices=["table", "measured"], default="table",
        help="ranking provider: the paper's Table I (default) or a "
             "tournament measured on the selected platform preset",
    )


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the sweep (1 = serial, 0 = all cores); "
             "results are identical regardless of N",
    )
    parser.add_argument(
        "--workers", action="append", default=None, metavar="HOST:PORT",
        help="shard the sweep over remote worker servers (repeat the "
             "flag or comma-separate; start one with `python -m "
             "repro.distrib.worker --listen HOST:PORT`); --jobs then "
             "sets each worker's intra-batch parallelism and results "
             "stay identical to a serial run",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="print completed/total cell counts to stderr as sweep "
             "results stream in (works with serial, --jobs, and "
             "--workers runs alike)",
    )


def _workers(args) -> list[str] | None:
    """Validated ``--workers`` endpoints (normalized strings) or None.

    Malformed values abort before any sweep work starts, with the
    offending value named — never a socket traceback mid-experiment.
    """
    if not getattr(args, "workers", None):
        return None
    from repro.distrib import format_endpoint, parse_endpoints

    return [format_endpoint(ep) for ep in parse_endpoints(args.workers)]


def cmd_list(args) -> int:
    print("applications:")
    for app in all_applications():
        print(f"  {app.name:<14} {app.paper_class:<8} {app.origin}")
    print("strategies:")
    for info in all_strategy_info():
        classes = ", ".join(
            c for c in ("SK-One", "SK-Loop", "MK-Seq", "MK-Loop", "MK-DAG")
            if c in info.applies_to
        )
        ranked = "" if info.ranked else "  (baseline, unranked)"
        print(f"  {info.name:<11} {info.family:<9} [{classes}]{ranked}")
    print("platform presets:")
    for name in sorted(PRESETS):
        print(f"  {name}")
    print("experiments:")
    for key, exp in EXPERIMENTS.items():
        print(f"  {key:<8} {exp.label()}")
    return 0


def cmd_platform(args) -> int:
    print(_platform(args).describe())
    return 0


def cmd_analyze(args) -> int:
    app = get_application(args.app)
    ranker = resolve_ranker(args.ranker, _platform(args))
    report = analyze(app, n=args.n, sync=args.sync, ranker=ranker)
    print(format_analysis(report))
    return 0


def cmd_rank(args) -> int:
    from repro.core.tournament import format_tournament, run_tournament

    platform = _platform(args)
    result = run_tournament(
        platform, scale=args.scale, jobs=args.jobs, workers=_workers(args),
    )
    if args.compare:
        from repro.bench.matchup import compare_to_table, format_matchup

        print(format_matchup(compare_to_table(result)))
    else:
        print(format_tournament(result))
    return 0


def cmd_run(args) -> int:
    platform = _platform(args)
    app = get_application(args.app)
    config = PlanConfig(cpu_threads=args.threads, task_count=args.tasks)
    if args.detail == "summary" and (args.stats or args.gantt):
        print("--stats/--gantt need the raw trace; drop --detail summary",
              file=sys.stderr)
        return 2
    runtime_config = None
    if args.max_events is not None:
        runtime_config = RuntimeConfig(
            cpu_threads=config.threads(platform),
            max_events=args.max_events,
        )
    profiler = None
    if args.profile is not None:
        # profile exactly the simulate call (serial, in-process), not
        # argument parsing or report rendering — hot-path work should
        # start from a clean .pstats of the run itself
        import cProfile

        profiler = cProfile.Profile()
    if args.strategy is None:
        if profiler is not None:
            profiler.enable()
        try:
            outcome = match(
                app, platform, n=args.n, iterations=args.iterations,
                sync=args.sync, config=config, runtime_config=runtime_config,
                detail=args.detail, ranker=args.ranker,
            )
        finally:
            if profiler is not None:
                profiler.disable()
        result = outcome.result
        print(format_match(outcome))
    else:
        sync = app.needs_sync if args.sync is None else args.sync
        program = app.program(args.n, iterations=args.iterations, sync=sync)
        try:
            strategy = get_strategy(args.strategy)
        except PartitioningError as exc:
            # typo'd --strategy gets the did-you-mean one-liner, no traceback
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if profiler is not None:
            profiler.enable()
        try:
            result = strategy.run(
                program, platform, config=config,
                runtime_config=runtime_config, detail=args.detail,
            )
        finally:
            if profiler is not None:
                profiler.disable()
        print(f"{app.name} under {strategy.name}: "
              f"{result.makespan_ms:.2f} ms "
              f"(GPU {result.gpu_fraction:.1%} / CPU {result.cpu_fraction:.1%})")
    if profiler is not None:
        profiler.dump_stats(args.profile)
        print(f"profile written to {args.profile}", file=sys.stderr)
    if args.stats:
        print()
        print(format_stats(analyze_trace(result.require_trace())))
    if args.gantt:
        print()
        print(render_gantt(result.require_trace(), width=args.gantt_width))
    return 0


def cmd_experiment(args) -> int:
    platform = _platform(args)
    results = run_experiment(
        args.key, platform, scale=args.scale, jobs=args.jobs,
        workers=_workers(args), progress=args.progress,
    )
    if args.key in ("fig6", "fig8", "fig10"):
        print(format_ratio_table(
            results, title=EXPERIMENTS[args.key].label(),
            per_kernel=args.key == "fig10",
        ))
    else:
        print(format_time_table(results, title=EXPERIMENTS[args.key].label()))
    if args.output:
        path = write_records(scenario_rows(results), args.output)
        print(f"\nwrote {path}")
    return 0


def cmd_speedup(args) -> int:
    platform = _platform(args)
    rows = figure12(platform, scale=args.scale)
    print(format_figure12(rows))
    if args.output:
        path = write_records(speedup_rows(rows), args.output)
        print(f"\nwrote {path}")
    return 0


def cmd_validate(args) -> int:
    report = validate_platform(_platform(args))
    print(report.summary())
    return 0 if report.ok else 1


def cmd_regenerate(args) -> int:
    """Dump every table/figure's data to a results directory."""
    from pathlib import Path

    platform = _platform(args)
    workers = _workers(args)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for key in sorted(EXPERIMENTS):
        results = run_experiment(
            key, platform, scale=args.scale, jobs=args.jobs, workers=workers,
            progress=args.progress,
        )
        path = write_records(scenario_rows(results), out / f"{key}.csv")
        written.append(path)
    rows = figure12(platform, scale=args.scale)
    written.append(write_records(speedup_rows(rows), out / "fig12.csv"))
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_characterize(args) -> int:
    from repro.apps.characterize import characterize, format_characterization
    from repro.apps.registry import all_applications

    platform = _platform(args)
    chars = []
    for app in all_applications():
        if app.name == "Cholesky":
            continue  # tile-granular; the table is per index-space kernel
        chars.append(characterize(app, platform))
    print(format_characterization(chars))
    return 0


def cmd_crossover(args) -> int:
    from repro.bench.crossover import (
        format_crossover,
        hotspot_bandwidth_crossover,
        stream_iteration_crossover,
    )

    platform = _platform(args)
    workers = _workers(args)
    if args.sweep == "stream-iterations":
        point = stream_iteration_crossover(
            platform, jobs=args.jobs, workers=workers,
            progress=args.progress,
        )
    else:
        point = hotspot_bandwidth_crossover(
            platform, jobs=args.jobs, workers=workers,
            progress=args.progress,
        )
    print(format_crossover(point))
    return 0


def cmd_report(args) -> int:
    from repro.bench.report import write_report

    path = write_report(_platform(args), args.output)
    print(f"wrote {path}")
    return 0


def cmd_search(args) -> int:
    from repro.partition.search import format_search, search_plan

    platform = _platform(args)
    config = PlanConfig(cpu_threads=args.threads)
    result = search_plan(
        args.app, platform, n=args.n, iterations=args.iterations,
        sync=args.sync, config=config, grid=args.grid, beam=args.beam,
        rounds=args.rounds, jobs=args.jobs, workers=_workers(args),
        progress=args.progress,
    )
    print(format_search(result, top=args.top))
    if args.output:
        import json
        from pathlib import Path

        path = Path(args.output)
        path.write_text(json.dumps(result.to_record(), indent=2) + "\n")
        print(f"\nwrote {path}")
    if args.min_plans_per_sec is not None and (
        result.plans_per_sec < args.min_plans_per_sec
    ):
        print(
            f"error: {result.plans_per_sec:.1f} plans/s below the "
            f"--min-plans-per-sec floor {args.min_plans_per_sec:g}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_baseline(args) -> int:
    from repro.bench.baseline import check_baseline, save_baseline

    platform = _platform(args)
    if args.save:
        path = save_baseline(platform, args.save)
        print(f"wrote baseline {path}")
        return 0
    diff = check_baseline(platform, args.check, rtol=args.rtol)
    print(diff.summary())
    return 0 if diff.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Matchmaking applications and partitioning strategies "
                    "(ICPP 2015 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="list applications/strategies/experiments")
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("platform", help="describe a platform preset")
    _add_common(p)
    p.set_defaults(func=cmd_platform)

    p = sub.add_parser("analyze", help="classify an application")
    _add_common(p)
    p.add_argument("app")
    p.add_argument("-n", type=int, default=None, help="problem size")
    sync = p.add_mutually_exclusive_group()
    sync.add_argument("--sync", dest="sync", action="store_true", default=None)
    sync.add_argument("--no-sync", dest="sync", action="store_false")
    _add_ranker(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "rank", help="play the strategy tournament (measured rankings)"
    )
    _add_common(p)
    _add_jobs(p)
    p.add_argument("--scale", type=_scale, default=1.0,
                   help="problem-size scale factor (0, 1]")
    p.add_argument("--compare", action="store_true",
                   help="compare the measured ordering against Table I and "
                        "flag cells where the paper's propositions break")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("run", help="execute an application")
    _add_common(p)
    p.add_argument("app")
    p.add_argument("--strategy", default=None,
                   help="strategy name (default: matchmade best)")
    _add_ranker(p)
    p.add_argument("-n", type=int, default=None)
    p.add_argument("-i", "--iterations", type=int, default=None)
    p.add_argument("--threads", type=int, default=None,
                   help="SMP thread count m")
    p.add_argument("--tasks", type=int, default=None,
                   help="dynamic task count per kernel")
    sync = p.add_mutually_exclusive_group()
    sync.add_argument("--sync", dest="sync", action="store_true", default=None)
    sync.add_argument("--no-sync", dest="sync", action="store_false")
    p.add_argument("--stats", action="store_true",
                   help="print trace statistics")
    p.add_argument("--gantt", action="store_true", help="print a Gantt chart")
    p.add_argument("--gantt-width", type=_int_at_least(GANTT_MIN_WIDTH),
                   default=80)
    p.add_argument("--detail", choices=["summary", "full"], default="full",
                   help="keep the raw trace (full) or only the summary")
    p.add_argument("--max-events", type=_int_at_least(1), default=None,
                   metavar="N",
                   help="event budget per simulator drain (safety valve "
                        "against runaway loops; default 50M)")
    p.add_argument("--profile", default=None, metavar="OUT.pstats",
                   help="cProfile the simulate call and write the stats "
                        "to this file (serial backend)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    _add_common(p)
    _add_jobs(p)
    p.add_argument("key", choices=sorted(EXPERIMENTS))
    p.add_argument("--scale", type=_scale, default=1.0,
                   help="problem-size scale factor (0, 1]")
    p.add_argument("-o", "--output", default=None,
                   help="export data to FILE.csv or FILE.json")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("speedup", help="regenerate Figure 12")
    _add_common(p)
    p.add_argument("--scale", type=_scale, default=1.0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_speedup)

    p = sub.add_parser("validate", help="run the paper-shape validation")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "regenerate",
        help="export every table/figure's data to a directory",
    )
    _add_common(p)
    _add_jobs(p)
    p.add_argument("-o", "--output", default="results")
    p.add_argument("--scale", type=_scale, default=1.0)
    p.set_defaults(func=cmd_regenerate)

    p = sub.add_parser("characterize", help="print the workload table")
    _add_common(p)
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("crossover", help="run a crossover sweep")
    _add_common(p)
    _add_jobs(p)
    p.add_argument("sweep", choices=["stream-iterations", "hotspot-bandwidth"])
    p.set_defaults(func=cmd_crossover)

    p = sub.add_parser(
        "report", help="run the full evaluation and write a markdown report"
    )
    _add_common(p)
    p.add_argument("-o", "--output", default="REPORT.md")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "search",
        help="search (strategy x split ratio x chunking) for one scenario",
    )
    _add_common(p)
    _add_jobs(p)
    p.add_argument("app")
    p.add_argument("-n", type=int, default=None, help="problem size")
    p.add_argument("-i", "--iterations", type=int, default=None)
    p.add_argument("--threads", type=int, default=None,
                   help="SMP thread count m")
    sync = p.add_mutually_exclusive_group()
    sync.add_argument("--sync", dest="sync", action="store_true", default=None)
    sync.add_argument("--no-sync", dest="sync", action="store_false")
    p.add_argument("--grid", type=_int_at_least(2), default=9,
                   help="coarse GPU-fraction grid points in [0, 1]")
    p.add_argument("--beam", type=_int_at_least(1), default=3,
                   help="fraction candidates each refinement round expands")
    p.add_argument("--rounds", type=_int_at_least(0), default=2,
                   help="halving refinement rounds after the coarse grid")
    p.add_argument("--top", type=_int_at_least(0), default=10,
                   help="candidates shown in the report")
    p.add_argument("-o", "--output", default=None, metavar="FILE.json",
                   help="write the SearchResult record to FILE.json")
    p.add_argument("--min-plans-per-sec", type=float, default=None,
                   metavar="X",
                   help="exit 1 if the search evaluated fewer than X "
                        "candidates per second (CI throughput gate)")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser(
        "baseline", help="save or check a regression baseline snapshot"
    )
    _add_common(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--save", metavar="FILE", default=None)
    mode.add_argument("--check", metavar="FILE", default=None)
    p.add_argument("--rtol", type=float, default=0.01)
    p.set_defaults(func=cmd_baseline)

    return parser


#: snapshot file name inside ``--cache-dir``
CACHE_SNAPSHOT_NAME = "memo_snapshot.pkl"


def _cache_report(loaded: int, before) -> None:
    """Print this run's per-store hit rates to stderr (``--cache-dir``)."""
    import repro.cache as cache

    deltas = cache.stats_delta(before)
    parts = [
        f"{name} {d['hits']}/{d['hits'] + d['misses']} hits"
        for name, d in deltas.items()
    ]
    print(
        f"[cache] warm-started with {loaded} entries; "
        + (", ".join(parts) if parts else "no cache traffic"),
        file=sys.stderr,
    )
    _remote_cache_report()


def _remote_cache_report() -> None:
    """Per-remote-worker memo hit rates, when a distributed sweep ran."""
    distrib = sys.modules.get("repro.distrib.executor")
    if distrib is None:  # no --workers sweep this invocation
        return
    for report in distrib.last_sweep_reports():
        if not report.alive and report.cells == 0:
            line = f"dead ({report.error})"
        else:
            total = report.cache_hits + report.cache_misses
            line = (
                f"{report.cells} cells in {report.batches} batches, "
                f"{report.cache_hits}/{total} cache hits "
                f"({report.cache_hit_rate:.0%}), "
                f"{report.wire_bytes} wire bytes"
            )
            if not report.alive:
                line += f" — died mid-sweep ({report.error})"
        print(f"[cache] worker {report.endpoint}: {line}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cache_dir = getattr(args, "cache_dir", None)
    snapshot_path = None
    before = None
    if cache_dir:
        import repro.cache as cache
        from pathlib import Path

        snapshot_path = Path(cache_dir) / CACHE_SNAPSHOT_NAME
        loaded = cache.load_snapshot(snapshot_path)
        before = cache.counters()
    try:
        rc = args.func(args)
    except BrokenPipeError:  # output piped into head & co.
        return 0
    except ConfigurationError as exc:
        # bad flag values (malformed --workers ...) get an argparse-style
        # one-liner, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if snapshot_path is not None:
        import repro.cache as cache

        saved = cache.save_snapshot(snapshot_path)
        _cache_report(loaded, before)
        print(f"[cache] saved {saved} entries to {snapshot_path}",
              file=sys.stderr)
    return rc


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
