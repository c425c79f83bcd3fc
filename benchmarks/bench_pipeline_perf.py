"""Pipeline fast-path performance: dependence analysis, memo hit rates,
sweep return sizes, trace memory, and the event core.

Times the frontier dependence builder against the reference full-history
scan on a 5000+-instance single-barrier-window program (the shape the
O(n^2) scan is worst at), measures the probe/plan cache hit rates across a
repeated sweep (in-process and through a disk snapshot round-trip), sizes
the default summarized ``run_sweep`` returns against full-trace artifacts,
measures the array-backed trace columns against the old list-backed
layout, checks that parallel workers reproduce the serial
hit rates from the shipped cache snapshot, shards a warm sweep over two
real socket-connected worker processes (``sweep_distributed``: cells/sec,
bytes-on-wire per cell, byte-identity with the serial run), streams a
sweep over a skewed pool — one worker deterministically delayed — to
measure time-to-first-result, inter-arrival gaps, the adaptive
dispatcher's work split, and its elapsed-time edge over fixed batching
(``sweep_streaming``), embeds the event-core engine comparison from
``bench_event_core.py`` (``sim_core``: events/sec of the slot-dispatched
fast engine vs the closure oracle, end-to-end run speedup, cross-engine
artifact byte parity, the epoch drain vs drain-refused runs), plays the measured-ranking
tournament on the Table III machine (``matchmaking``: tournament
matches/sec cold and replayed, and the fraction of (class, sync) cells
where the measured ordering agrees with Table I).  ``--output FILE``
writes the record there as JSON (CI passes ``BENCH_pipeline.json`` and
uploads it to track the numbers over time); without it nothing is
written.

``--check-baseline [FILE]`` additionally compares the fresh record against
the committed ``benchmarks/BENCH_pipeline.baseline.json`` with a tolerance
band and exits non-zero on regression (hardware-robust metrics only:
ratios, byte sizes, hit rates, parity — not absolute wall-clock).

Runs both under pytest (``pytest benchmarks/bench_pipeline_perf.py``) and
as a plain script (``python benchmarks/bench_pipeline_perf.py``) for the
CI perf-smoke job.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from pathlib import Path

from repro.apps import get_application
from repro.artifact import artifact_nbytes
from repro.bench.harness import SweepCell, run_sweep
from repro.cache import (
    cache_stats,
    clear_all,
    counters,
    load_snapshot,
    save_snapshot,
    stats_delta,
)
from repro.platform import shen_icpp15_platform
from repro.runtime.dependence import (
    build_dependences,
    build_dependences_reference,
)
from repro.runtime.graph import chunk_ranges, expand_program

import bench_event_core

#: the committed reference record CI compares fresh runs against
BASELINE = Path(__file__).resolve().parent / "BENCH_pipeline.baseline.json"

#: acceptance floor: the frontier builder must beat the reference by this
SPEEDUP_FLOOR = 10.0
#: generous CI floor on the fast builder's throughput (measured ~85k/s)
INSTANCES_PER_SEC_FLOOR = 2_000.0
#: summarized sweep returns must pickle at least this much smaller
SWEEP_BYTES_RATIO_FLOOR = 10.0
#: whole-store floor: label text dominates both layouts (labels are
#: near-unique), so the end-to-end shrink is modest even though the
#: numeric columns shrink ~4x
TRACE_SHRINK_FLOOR = 1.25
#: the array('d') start/end columns vs pointer lists + boxed floats
NUMERIC_SHRINK_FLOOR = 3.0

#: the adversarial shape: one long barrier-free window of many instances
N = 1 << 16
ITERATIONS = 79
CHUNKS = 16

#: the sweep-return sizing cell: a 5000+-instance STREAM-Loop execution
SWEEP_ITERATIONS = 110


def _graph():
    app = get_application("STREAM-Loop")
    program = app.program(N, iterations=ITERATIONS, sync=False)
    return expand_program(
        program,
        lambda inv: [
            (lo, hi, None, None) for lo, hi in chunk_ranges(inv.n, CHUNKS)
        ],
    )


def measure_dependence_perf() -> dict:
    """Time both builders on the same expansion; returns the record."""
    fast_times = []
    for _ in range(3):
        graph = _graph()
        t0 = time.perf_counter()
        build_dependences(graph)
        fast_times.append(time.perf_counter() - t0)
    instances = len(graph.instances)

    graph = _graph()
    t0 = time.perf_counter()
    build_dependences_reference(graph)
    ref_time = time.perf_counter() - t0

    fast_time = min(fast_times)
    return {
        "instances": instances,
        "fast_s": fast_time,
        "reference_s": ref_time,
        "fast_instances_per_sec": instances / fast_time,
        "reference_instances_per_sec": instances / ref_time,
        "speedup": ref_time / fast_time,
    }


def _hit_rate_cells():
    platform = shen_icpp15_platform()
    return [
        SweepCell(
            app=app, strategy=strategy, platform=platform,
            n=4096, iterations=2,
        )
        for app in ("STREAM-Loop", "HotSpot")
        for strategy in ("DP-Perf", "SP-Single" if app == "HotSpot" else "SP-Unified")
    ]


def measure_cache_hit_rates() -> dict:
    """Run the same sweep twice; the second pass should replay the memos."""
    cells = _hit_rate_cells()
    clear_all()
    run_sweep(cells)  # cold pass populates the stores
    cold = {name: s.as_dict() for name, s in cache_stats().items()}
    run_sweep(cells)  # warm pass should be mostly hits
    warm = {name: s.as_dict() for name, s in cache_stats().items()}
    return {"cold": cold, "warm": warm}


def measure_disk_cache() -> dict:
    """A disk snapshot round-trip must reproduce the in-process warm rates.

    This is the cross-invocation warm start (`--cache-dir` on the CLI)
    measured in-process: warm the stores, snapshot to disk, clear, reload,
    and re-run — the reloaded pass must observe exactly the hit/miss
    deltas the in-process warm pass did.
    """
    cells = _hit_rate_cells()
    clear_all()
    run_sweep(cells)  # cold pass populates the stores
    before = counters()
    run_sweep(cells)
    warm = stats_delta(before)  # in-process warm reference
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "memo_snapshot.pkl"
        entries = save_snapshot(path)
        clear_all()  # simulate a fresh CLI invocation
        loaded = load_snapshot(path)
        before = counters()
        run_sweep(cells)
        reloaded = stats_delta(before)
    return {
        "entries_saved": entries,
        "entries_loaded": loaded,
        "warm": warm,
        "reloaded": reloaded,
        "match": warm == reloaded,
    }


def measure_sweep_return_bytes() -> dict:
    """Pickled size of a 5000+-instance sweep return: summary vs full."""
    platform = shen_icpp15_platform()
    cell = SweepCell(
        app="STREAM-Loop", strategy="DP-Perf", platform=platform,
        n=N, iterations=SWEEP_ITERATIONS, sync=False,
    )
    clear_all()
    [full] = run_sweep([cell], detail="full")
    clear_all()
    [summary] = run_sweep([cell])  # the default is detail="summary"
    full_bytes = artifact_nbytes(full)
    summary_bytes = artifact_nbytes(summary)
    return {
        "instances": full.instance_count,
        "full_bytes": full_bytes,
        "summary_bytes": summary_bytes,
        "bytes_ratio": full_bytes / summary_bytes,
    }


def _full_trace_store():
    """One full-detail 5000+-instance STREAM-Loop trace store."""
    platform = shen_icpp15_platform()
    cell = SweepCell(
        app="STREAM-Loop", strategy="DP-Perf", platform=platform,
        n=N, iterations=SWEEP_ITERATIONS, sync=False,
    )
    clear_all()
    [result] = run_sweep([cell], detail="full")
    return result.trace


def _list_layout_nbytes(store) -> int:
    """Estimated bytes of the same columns in the PR 2 list-backed layout.

    Reconstructs what the old storage held: five object-pointer list
    columns plus a meta-index list, fresh float objects per row (the
    simulator computed a new float per append), one string object per
    label (f-string built per occupation), shared string objects for
    resource ids and categories, and boxed ints for meta indexes beyond
    the small-int cache.
    """
    n = len(store)
    floats = [float(x) for x in store.starts]
    pointer_list = sys.getsizeof(floats)  # same length => same list size
    total = 6 * pointer_list  # resource_ids/labels/categories/starts/ends/meta_idx
    total += 2 * n * sys.getsizeof(1.0)  # starts + ends float objects
    total += sum(
        sys.getsizeof(store.label_at(row)) for row in range(n)
    )
    total += sum(sys.getsizeof(s) for s in store.resource_pool.table)
    total += sum(sys.getsizeof(s) for s in store.category_pool.table)
    total += sum(sys.getsizeof(257) for idx in store.meta_idx if idx > 256)
    return total


def measure_trace_memory() -> dict:
    """Array-backed column bytes vs the old list-backed layout.

    ``shrink_ratio`` is the whole-store comparison (including the shared
    label/resource/category string payload, identical in both layouts);
    ``numeric_shrink_ratio`` isolates the start/end columns, where two
    pointer lists plus two boxed floats per row (64 B) collapse to two
    raw doubles (16 B).
    """
    store = _full_trace_store()
    column_bytes = store.column_nbytes()
    list_bytes = _list_layout_nbytes(store)
    records = len(store)
    numeric_column_bytes = sys.getsizeof(store.starts) + sys.getsizeof(store.ends)
    pointer_list = sys.getsizeof([0.0] * records)
    numeric_list_bytes = 2 * pointer_list + 2 * records * sys.getsizeof(1.0)
    # lazy labels: every row carries a packed (template, args) label
    # instead of an interned formatted string; what those strings would
    # cost
    label_packed_bytes = sum(
        sys.getsizeof(getattr(store, name))
        for name in (
            "label_tmpl_codes", "label_arg_strs",
            "label_arg_a", "label_arg_b", "label_arg_c",
        )
    )
    for pool in (store.label_tmpl_pool, store.label_arg_pool):
        label_packed_bytes += sys.getsizeof(pool.table)
        label_packed_bytes += sum(sys.getsizeof(s) for s in pool.table)
    unique_labels = {store.label_at(row) for row in range(records)}
    label_eager_bytes = sys.getsizeof(list(unique_labels)) + sum(
        sys.getsizeof(s) for s in unique_labels
    )
    return {
        "records": records,
        "column_bytes": column_bytes,
        "list_layout_bytes": list_bytes,
        "bytes_per_record": column_bytes / records,
        "shrink_ratio": list_bytes / column_bytes,
        "numeric_column_bytes": numeric_column_bytes,
        "numeric_list_bytes": numeric_list_bytes,
        "numeric_shrink_ratio": numeric_list_bytes / numeric_column_bytes,
        "label_packed_bytes": label_packed_bytes,
        "label_eager_bytes": label_eager_bytes,
        "label_shrink_ratio": (
            label_eager_bytes / label_packed_bytes if label_packed_bytes else 0.0
        ),
    }


def _aggregate_cache_deltas(results) -> dict:
    """Sum the per-artifact cache stats a sweep's runs observed."""
    total: dict[str, dict[str, int]] = {}
    for r in results:
        for store, delta in r.cache_stats.items():
            t = total.setdefault(store, {"hits": 0, "misses": 0})
            t["hits"] += delta["hits"]
            t["misses"] += delta["misses"]
    for t in total.values():
        seen = t["hits"] + t["misses"]
        t["hit_rate"] = t["hits"] / seen if seen else 0.0
    return {name: total[name] for name in sorted(total)}


def measure_worker_parity() -> dict:
    """Parallel workers must reproduce the serial hit rates.

    The parent's memo stores are snapshotted into each worker, so a warm
    parallel sweep sees exactly the hits a warm serial sweep does.
    """
    platform = shen_icpp15_platform()
    cells = [
        SweepCell(
            app=app, strategy=strategy, platform=platform,
            n=4096, iterations=2,
        )
        for app in ("STREAM-Loop", "HotSpot")
        for strategy in ("DP-Perf", "SP-Unified" if app == "STREAM-Loop" else "SP-Single")
    ]
    clear_all()
    run_sweep(cells)  # warm the parent stores
    serial = _aggregate_cache_deltas(run_sweep(cells, jobs=1))
    parallel = _aggregate_cache_deltas(run_sweep(cells, jobs=2))
    return {
        "serial": serial,
        "parallel": parallel,
        "match": serial == parallel,
    }


def _spawn_bench_worker(tmp: Path, name: str, extra: tuple[str, ...] = ()):
    """Start ``python -m repro.distrib.worker`` on an ephemeral loopback
    port; returns ``(process, endpoint)`` once the ready-file handshake
    lands."""
    import subprocess

    src = Path(__file__).resolve().parent.parent / "src"
    ready = tmp / f"{name}.ready"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.distrib.worker",
         "--listen", "127.0.0.1:0", "--ready-file", str(ready), *extra],
        env=env, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if ready.exists():
            endpoint = ready.read_text().strip()
            if endpoint:
                return proc, endpoint
        if proc.poll() is not None:
            raise RuntimeError(f"bench worker {name} exited at startup")
        time.sleep(0.05)
    proc.kill()
    raise RuntimeError(f"bench worker {name} never became ready")


def measure_sweep_distributed() -> dict:
    """Shard a warm sweep over two real worker processes.

    Records throughput (cells/sec) and the wire cost per cell, and — the
    number the baseline actually guards — whether the distributed
    artifacts are *byte-identical* (equal pickles) to the serial run.
    """
    import pickle

    from repro.distrib import last_sweep_reports

    platform = shen_icpp15_platform()
    cells = [
        SweepCell(
            app=app, strategy=strategy, platform=platform,
            n=4096, iterations=2,
        )
        for app in ("STREAM-Loop", "HotSpot")
        for strategy in (
            "Only-CPU", "Only-GPU", "DP-Perf",
            "SP-Unified" if app == "STREAM-Loop" else "SP-Single",
        )
    ]
    clear_all()
    run_sweep(cells)  # warm the memo stores
    serial = run_sweep(cells)
    with tempfile.TemporaryDirectory() as tmp:
        workers = [_spawn_bench_worker(Path(tmp), f"w{i}") for i in range(2)]
        try:
            t0 = time.perf_counter()
            dist = run_sweep(cells, workers=[ep for _, ep in workers])
            elapsed = time.perf_counter() - t0
        finally:
            for proc, _ in workers:
                proc.terminate()
    reports = last_sweep_reports()
    wire_bytes = sum(r.wire_bytes for r in reports)
    parity = all(
        pickle.dumps(a, 5) == pickle.dumps(b, 5)
        for a, b in zip(serial, dist)
    )
    return {
        "workers": len(workers),
        "cells": len(cells),
        "elapsed_s": elapsed,
        "cells_per_sec": len(cells) / elapsed,
        "wire_bytes": wire_bytes,
        "wire_bytes_per_cell": wire_bytes / len(cells),
        "cells_per_worker": [r.cells for r in reports],
        "remote_hit_rate": (
            sum(r.cache_hits for r in reports)
            / max(1, sum(r.cache_hits + r.cache_misses for r in reports))
        ),
        "parity": parity,
    }


#: skewed-pool streaming bench: injected per-cell delay on the slow
#: worker (dominates the ~5 ms cell cost, so the ratios below are
#: hardware-robust) and the cell count the pool shares
STREAMING_DELAY_S = 0.08
STREAMING_CELLS = 20
#: adaptive dispatch must beat fixed half-the-sweep batches at least this
#: much on the skewed pool (sleep math alone guarantees ~2x)
ADAPTIVE_SPEEDUP_FLOOR = 1.2


def measure_sweep_streaming() -> dict:
    """Stream a sweep over a skewed two-worker pool (one delayed).

    Measures how quickly the first result lands relative to the whole
    sweep (``time_to_first_cell_s`` / ``first_cell_fraction``), the mean
    inter-arrival gap between streamed results, how the adaptive
    dispatcher splits a skewed pool (``cells_per_worker``), and its
    elapsed-time edge over fixed half-the-sweep batches
    (``adaptive_vs_fixed_speedup``) — plus byte-parity of the streamed
    results against the serial run.
    """
    import pickle

    from repro.bench.harness import run_sweep_iter
    from repro.distrib import last_sweep_reports

    platform = shen_icpp15_platform()
    strategies = ("Only-CPU", "Only-GPU", "DP-Perf", "SP-Unified", "DP-Dep")
    cells = [
        SweepCell(
            app="STREAM-Loop", strategy=strategies[i % len(strategies)],
            platform=platform, n=256, iterations=1, sync=False,
        )
        for i in range(STREAMING_CELLS)
    ]
    clear_all()
    run_sweep(cells)  # warm the memo stores
    serial = run_sweep(cells)
    delay = ("--delay-per-cell", str(STREAMING_DELAY_S))
    with tempfile.TemporaryDirectory() as tmp:
        fast_proc, fast_ep = _spawn_bench_worker(Path(tmp), "fast")
        slow_proc, slow_ep = _spawn_bench_worker(Path(tmp), "slow", delay)
        try:
            results = [None] * len(cells)
            arrivals = []
            t0 = time.perf_counter()
            for index, artifact in run_sweep_iter(
                cells, workers=[fast_ep, slow_ep]
            ):
                arrivals.append(time.perf_counter() - t0)
                results[index] = artifact
            adaptive_s = arrivals[-1]
            by_endpoint = {r.endpoint: r for r in last_sweep_reports()}

            t0 = time.perf_counter()
            fixed = run_sweep(
                cells, workers=[fast_ep, slow_ep],
                batch_size=len(cells) // 2,
            )
            fixed_s = time.perf_counter() - t0
        finally:
            fast_proc.terminate()
            slow_proc.terminate()
    parity = all(
        pickle.dumps(a, 5) == pickle.dumps(b, 5)
        for a, b in zip(serial, results)
    ) and all(
        pickle.dumps(a, 5) == pickle.dumps(b, 5)
        for a, b in zip(serial, fixed)
    )
    gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
    return {
        "cells": len(cells),
        "slow_delay_s": STREAMING_DELAY_S,
        "elapsed_s": adaptive_s,
        "time_to_first_cell_s": arrivals[0],
        "first_cell_fraction": arrivals[0] / adaptive_s,
        "mean_interarrival_s": sum(gaps) / len(gaps),
        "cells_per_worker": {
            "fast": by_endpoint[fast_ep].cells,
            "slow": by_endpoint[slow_ep].cells,
        },
        "fast_largest_batch": by_endpoint[fast_ep].largest_batch,
        "fixed_batch_size": len(cells) // 2,
        "fixed_elapsed_s": fixed_s,
        "adaptive_vs_fixed_speedup": fixed_s / adaptive_s,
        "parity": parity,
    }


def measure_matchmaking() -> dict:
    """Tournament throughput and measured-vs-Table-I agreement.

    Plays the full round-robin on the paper's Table III machine cold
    (every match simulated), replays it warm (every match a memo hit),
    and scores the measured per-class orderings against Table I with the
    standard tie tolerance.
    """
    from repro.bench.matchup import compare_to_table
    from repro.cache import get_cache
    from repro.core.tournament import run_tournament

    platform = shen_icpp15_platform()
    clear_all()
    get_cache("tournament").clear()
    t0 = time.perf_counter()
    cold = run_tournament(platform)
    cold_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm = run_tournament(platform)
    warm_s = time.perf_counter() - t0
    report = compare_to_table(cold)
    return {
        "matches": len(cold.matches),
        "simulated": cold.simulated,
        "cold_s": cold_s,
        "matches_per_sec": cold.simulated / cold_s,
        "warm_replay_s": warm_s,
        "warm_simulated": warm.simulated,
        "warm_matches_per_sec": len(warm.matches) / warm_s,
        "table_agreement": report.agreement,
        "divergent_cells": [cell.label for cell in report.divergent],
    }


def record(output: Path | None = None) -> dict:
    """Measure everything; write the record to ``output`` when given."""
    payload = {
        "benchmark": "pipeline_perf",
        "scenario": {
            "app": "STREAM-Loop",
            "n": N,
            "iterations": ITERATIONS,
            "chunks": CHUNKS,
        },
        "dependence": measure_dependence_perf(),
        "caches": measure_cache_hit_rates(),
        "disk_cache": measure_disk_cache(),
        "sweep_returns": measure_sweep_return_bytes(),
        "trace_memory": measure_trace_memory(),
        "worker_parity": measure_worker_parity(),
        "sweep_distributed": measure_sweep_distributed(),
        "sweep_streaming": measure_sweep_streaming(),
        "sim_core": bench_event_core.measure_sim_core(),
        "matchmaking": measure_matchmaking(),
    }
    if output is not None:
        output.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def check(payload: dict) -> None:
    dep = payload["dependence"]
    assert dep["instances"] >= 5000, dep
    assert dep["speedup"] >= SPEEDUP_FLOOR, dep
    assert dep["fast_instances_per_sec"] >= INSTANCES_PER_SEC_FLOOR, dep
    warm = payload["caches"]["warm"]
    # the repeated sweep replays probes and predictions from the memos
    for store in ("probe", "profile", "glinda"):
        assert warm[store]["hits"] > 0, warm
    sweep = payload["sweep_returns"]
    assert sweep["instances"] >= 5000, sweep
    assert sweep["bytes_ratio"] >= SWEEP_BYTES_RATIO_FLOOR, sweep
    assert payload["worker_parity"]["match"], payload["worker_parity"]
    assert payload["disk_cache"]["match"], payload["disk_cache"]
    memory = payload["trace_memory"]
    assert memory["shrink_ratio"] >= TRACE_SHRINK_FLOOR, memory
    assert memory["numeric_shrink_ratio"] >= NUMERIC_SHRINK_FLOOR, memory
    distributed = payload["sweep_distributed"]
    assert distributed["parity"], distributed
    assert sum(distributed["cells_per_worker"]) == distributed["cells"], distributed
    streaming = payload["sweep_streaming"]
    assert streaming["parity"], streaming
    # the first streamed result lands well before the sweep finishes
    assert streaming["time_to_first_cell_s"] < streaming["elapsed_s"], streaming
    assert streaming["first_cell_fraction"] < 0.75, streaming
    # the adaptive dispatcher starves the delayed worker, not the fast one
    cpw = streaming["cells_per_worker"]
    assert cpw["fast"] > cpw["slow"], streaming
    assert cpw["fast"] + cpw["slow"] == streaming["cells"], streaming
    assert streaming["adaptive_vs_fixed_speedup"] >= ADAPTIVE_SPEEDUP_FLOOR, \
        streaming
    matchmaking = payload["matchmaking"]
    assert matchmaking["simulated"] > 0, matchmaking
    # the warm replay must resolve every match from the memo store
    assert matchmaking["warm_simulated"] == 0, matchmaking
    assert 0.0 <= matchmaking["table_agreement"] <= 1.0, matchmaking
    bench_event_core.check(payload["sim_core"])


#: baseline comparisons: (json path, direction, relative tolerance).
#: Only hardware-robust metrics — ratios, sizes, hit rates — never raw
#: wall-clock, so the committed baseline holds across CI machines.
BASELINE_CHECKS = [
    ("dependence.speedup", "min", 0.5),
    ("sweep_returns.bytes_ratio", "min", 0.2),
    ("sweep_returns.summary_bytes", "max", 0.5),
    ("caches.warm.probe.hit_rate", "min", 0.05),
    ("caches.warm.profile.hit_rate", "min", 0.05),
    ("caches.warm.glinda.hit_rate", "min", 0.05),
    ("trace_memory.shrink_ratio", "min", 0.3),
    ("trace_memory.numeric_shrink_ratio", "min", 0.2),
    ("trace_memory.bytes_per_record", "max", 0.3),
    ("trace_memory.label_shrink_ratio", "min", 0.3),
    ("sweep_distributed.wire_bytes_per_cell", "max", 0.5),
    ("sweep_distributed.remote_hit_rate", "min", 0.05),
    ("sweep_streaming.adaptive_vs_fixed_speedup", "min", 0.5),
    ("sweep_streaming.first_cell_fraction", "max", 1.5),
    ("sim_core.traced_speedup", "min", 0.5),
    ("sim_core.drain.drain_vs_refused_speedup", "min", 0.5),
    ("sim_core.wave_drain.drain_vs_refused_speedup", "min", 0.5),
    ("matchmaking.table_agreement", "min", 0.05),
]


def _lookup(payload: dict, dotted: str):
    node = payload
    for key in dotted.split("."):
        node = node[key]
    return node


def compare_to_baseline(payload: dict, baseline_path: Path | None = None) -> list[str]:
    """Tolerance-banded regression check; returns failure messages."""
    path = baseline_path or BASELINE
    baseline = json.loads(path.read_text())
    failures = []
    for dotted, direction, tol in BASELINE_CHECKS:
        try:
            base = _lookup(baseline, dotted)
        except KeyError:
            continue  # metric added after the baseline was frozen
        got = _lookup(payload, dotted)
        if direction == "min":
            floor = base * (1.0 - tol)
            if got < floor:
                failures.append(
                    f"{dotted}: {got:.4g} below baseline band "
                    f"(>= {floor:.4g}, baseline {base:.4g})"
                )
        else:
            ceiling = base * (1.0 + tol)
            if got > ceiling:
                failures.append(
                    f"{dotted}: {got:.4g} above baseline band "
                    f"(<= {ceiling:.4g}, baseline {base:.4g})"
                )
    if not payload["worker_parity"]["match"]:
        failures.append("worker_parity: parallel hit rates diverge from serial")
    if not payload["disk_cache"]["match"]:
        failures.append(
            "disk_cache: snapshot-reloaded hit rates diverge from warm in-process"
        )
    if not payload["sweep_distributed"]["parity"]:
        failures.append(
            "sweep_distributed: artifacts not byte-identical to the serial run"
        )
    if not payload["sweep_streaming"]["parity"]:
        failures.append(
            "sweep_streaming: streamed artifacts not byte-identical to the "
            "serial run"
        )
    if not payload["sim_core"]["parity"]:
        failures.append(
            "sim_core: fast-engine artifacts not byte-identical to the oracle"
        )
    return failures


def test_pipeline_perf(benchmark):
    payload = benchmark.pedantic(record, rounds=1, iterations=1)
    check(payload)
    dep = payload["dependence"]
    sweep = payload["sweep_returns"]
    memory = payload["trace_memory"]
    from conftest import emit

    emit(
        "Pipeline fast path — dependences, memos, columns, event core",
        f"instances:            {dep['instances']}\n"
        f"fast builder:         {dep['fast_s'] * 1e3:9.1f} ms "
        f"({dep['fast_instances_per_sec']:,.0f} inst/s)\n"
        f"reference builder:    {dep['reference_s'] * 1e3:9.1f} ms "
        f"({dep['reference_instances_per_sec']:,.0f} inst/s)\n"
        f"speedup:              {dep['speedup']:9.1f}x (floor {SPEEDUP_FLOOR:g}x)\n"
        f"warm probe hit rate:  "
        f"{payload['caches']['warm']['probe']['hit_rate']:9.1%}\n"
        f"disk cache round-trip: "
        f"{'ok' if payload['disk_cache']['match'] else 'DIVERGED'} "
        f"({payload['disk_cache']['entries_loaded']} entries reloaded)\n"
        f"sweep return:         {sweep['summary_bytes']:,} B summarized vs "
        f"{sweep['full_bytes']:,} B full ({sweep['bytes_ratio']:.0f}x)\n"
        f"trace memory:         {memory['column_bytes']:,} B columnar vs "
        f"{memory['list_layout_bytes']:,} B list layout "
        f"({memory['shrink_ratio']:.1f}x, "
        f"{memory['bytes_per_record']:.1f} B/record)\n"
        f"worker parity:        "
        f"{'ok' if payload['worker_parity']['match'] else 'DIVERGED'}\n"
        f"distributed sweep:    "
        f"{payload['sweep_distributed']['cells_per_sec']:,.1f} cells/s over "
        f"{payload['sweep_distributed']['workers']} workers, "
        f"{payload['sweep_distributed']['wire_bytes_per_cell']:,.0f} B/cell "
        f"on the wire, parity "
        f"{'ok' if payload['sweep_distributed']['parity'] else 'DIVERGED'}\n"
        f"streaming sweep:      first cell "
        f"{payload['sweep_streaming']['time_to_first_cell_s'] * 1e3:.0f} ms "
        f"of {payload['sweep_streaming']['elapsed_s'] * 1e3:.0f} ms, "
        f"adaptive {payload['sweep_streaming']['adaptive_vs_fixed_speedup']:.1f}x "
        f"vs fixed on a skewed pool, split "
        f"{payload['sweep_streaming']['cells_per_worker']['fast']}/"
        f"{payload['sweep_streaming']['cells_per_worker']['slow']}, parity "
        f"{'ok' if payload['sweep_streaming']['parity'] else 'DIVERGED'}\n"
        f"lazy labels:          "
        f"{memory['label_shrink_ratio']:.1f}x vs formatted strings\n"
        f"event core:           "
        f"{payload['sim_core']['fast_traced_events_per_sec']:,.0f} ev/s "
        f"traced vs "
        f"{payload['sim_core']['oracle_traced_events_per_sec']:,.0f} ev/s "
        f"oracle ({payload['sim_core']['traced_speedup']:.1f}x), "
        f"run {payload['sim_core']['run_speedup']:.2f}x, parity "
        f"{'ok' if payload['sim_core']['parity'] else 'DIVERGED'}\n"
        f"matchmaking:          "
        f"{payload['matchmaking']['simulated']} matches at "
        f"{payload['matchmaking']['matches_per_sec']:,.1f}/s cold "
        f"({payload['matchmaking']['warm_matches_per_sec']:,.0f}/s replayed), "
        f"Table I agreement "
        f"{payload['matchmaking']['table_agreement']:.0%}",
    )


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check-baseline", nargs="?", const=str(BASELINE), default=None,
        metavar="FILE",
        help="compare the fresh record against a committed baseline "
             "(default: benchmarks/BENCH_pipeline.baseline.json) and exit "
             "non-zero on regression",
    )
    parser.add_argument(
        "--output", metavar="FILE", type=Path, default=None,
        help="write the record to FILE as JSON (default: write nothing)",
    )
    args = parser.parse_args(argv)

    payload = record(args.output)
    check(payload)
    dep = payload["dependence"]
    sweep = payload["sweep_returns"]
    memory = payload["trace_memory"]
    print(
        f"pipeline perf: {dep['instances']} instances, "
        f"fast {dep['fast_instances_per_sec']:,.0f} inst/s, "
        f"speedup {dep['speedup']:.1f}x, "
        f"sweep return {sweep['bytes_ratio']:.0f}x smaller summarized, "
        f"trace columns {memory['shrink_ratio']:.1f}x smaller, "
        f"distributed {payload['sweep_distributed']['cells_per_sec']:,.1f} "
        f"cells/s over {payload['sweep_distributed']['workers']} workers "
        f"(parity {'ok' if payload['sweep_distributed']['parity'] else 'DIVERGED'}), "
        f"streaming first cell at "
        f"{payload['sweep_streaming']['time_to_first_cell_s'] * 1e3:.0f} ms "
        f"(adaptive {payload['sweep_streaming']['adaptive_vs_fixed_speedup']:.1f}x "
        f"vs fixed), "
        f"event core {payload['sim_core']['traced_speedup']:.1f}x "
        f"(parity {'ok' if payload['sim_core']['parity'] else 'DIVERGED'}), "
        f"matchmaking {payload['matchmaking']['matches_per_sec']:,.1f} "
        f"matches/s with "
        f"{payload['matchmaking']['table_agreement']:.0%} Table I agreement"
        + (f" -> {args.output}" if args.output is not None else "")
    )
    if args.check_baseline is not None:
        failures = compare_to_baseline(payload, Path(args.check_baseline))
        if failures:
            for failure in failures:
                print(f"BASELINE REGRESSION: {failure}")
            return 1
        print(f"baseline check passed against {args.check_baseline}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
