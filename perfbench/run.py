"""End-to-end benchmark of the matchmaker: search, tournament, matchmake.

Run from the root of a checkout::

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0

One process, one thread, serial backends only.  ``--trace 0`` times ops
untraced and prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced ops and prints the per-layer metrics.  Every timed
step is scaled to a reference host speed (see calibrate.py); the
unscaled figures are in the details.  The last stdout line is the result
object; the line before it holds the details (seed, scenario, samples,
exact counts).  Exits 1 when any op raised, simulated a different output
than the reference, or repeated different exact counts.  See README.md
in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import spans
import workloads as wl
from calibrate import SpeedGauge

HERE = Path(__file__).resolve().parent
#: where traced runs write their spans (inside the checkout)
OUT = HERE.parent / ".perfbench"
#: fresh interpreters timed per run for setup_s
SETUP_SAMPLES = 9
#: the tail rule needs eleven samples for its lowest percentile
MIN_OPS = 11
#: traced plus untraced ops at least in a traced run
TRACE_MIN_OPS = 6
#: memo stores whose hit rate the traced run reports
STORES = ("probe", "profile", "profile-table", "glinda", "tournament")
#: drain counters the traced run reports
DRAIN_COUNTERS = ("evaluations", "compile_errors", "wave_fallbacks",
                  "waves_replayed", "terminal_drains")


def tail(samples: list[float]) -> tuple[float, float] | None:
    """``(value, percentile)`` of the highest percentile with at least ten
    samples above it, or ``None`` with fewer than eleven samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return None
    return ordered[n - 11], 100.0 * (n - 10) / n


def setup_samples(workload: str, seed: int, gauge: SpeedGauge) -> list[tuple]:
    """``(wall_s, scale)`` of ``SETUP_SAMPLES`` set-ups, each in a fresh
    interpreter with bytecode compiled."""
    compileall.compile_dir(str(wl.SRC), quiet=1)
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    samples = []
    gauge.start()
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, check=True)
        wall = float(proc.stdout.split()[-1])
        samples.append((wall, gauge.step("setup")))
    return samples


@dataclass
class Op:
    op_id: int
    wall_s: float | None = None
    scale: float = 1.0
    work: int = 0
    counts: dict | None = None
    problems: list[str] = field(default_factory=list)


class Runner:
    """Runs ops of one workload, each from cleared memo stores."""

    def __init__(self, workload, platform, scenario, gauge: SpeedGauge) -> None:
        from repro import cache
        from repro.sim import plan

        self.workload = workload
        self.platform = platform
        self.scenario = scenario
        self.gauge = gauge
        self._cache = cache
        self._plan = plan
        self.reference: dict = {}
        self.expected: dict | None = None

    def _fresh(self) -> None:
        gc.collect()
        self._cache.clear_all()
        self._plan.reset_drain_stats()

    def compute_reference(self) -> None:
        self._fresh()
        result = self.workload.reference(self.platform, self.scenario)
        self.reference = self.workload.outputs(result)

    def op(self, op_id: int, tracer: spans.Tracer | None = None) -> Op:
        """One op; its outputs and exact counts are checked afterwards."""
        self._fresh()
        try:
            if tracer is None:
                t0 = perf_counter()
                result = self.workload.run(self.platform, self.scenario)
                wall = perf_counter() - t0
            else:
                with tracer.op(op_id) as root:
                    result = self.workload.run(self.platform, self.scenario)
                wall = root[2] - root[1]
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return Op(op_id, problems=["op raised"])
        counts = {
            **self.workload.counts(result),
            "drain": self._plan.drain_stats(),
            "cache": {name: list(hm) for name, hm in
                      sorted(self._cache.counters().items()) if any(hm)},
        }
        problems = wl.check(self.workload, self.workload.outputs(result),
                            self.reference)
        if self.expected is None:
            self.expected = counts
        elif counts != self.expected:
            problems.append("exact counts differ from the first op")
        return Op(op_id, wall, work=self.workload.work(result), counts=counts,
                  problems=problems)

    def phase(self, seconds: float, min_ops: int, first_id: int,
              tracer: spans.Tracer | None = None) -> list[Op]:
        """Ops for ``seconds`` and at least ``min_ops`` of them, each scaled
        by the calibrations around it; with a tracer, every second op runs
        traced, so host drift hits traced and untraced ops alike."""
        ops: list[Op] = []
        start = perf_counter()
        self.gauge.start()
        while len(ops) < min_ops or perf_counter() - start < seconds:
            op_id = first_id + len(ops)
            if tracer is not None and len(ops) % 2:
                with tracer:
                    op = self.op(op_id, tracer)
            else:
                op = self.op(op_id)
            op.scale = self.gauge.step(self.workload.name)
            ops.append(op)
        return ops


def rate(ops: list[Op], scaled: bool = True) -> float:
    """Work per second of op time."""
    seconds = sum(op.wall_s * (op.scale if scaled else 1.0) for op in ops)
    return sum(op.work for op in ops) / seconds


def end_to_end(setup: list[tuple], ops: list[Op], details: dict,
               scaled: bool = True) -> dict:
    """The end-to-end metrics (times unscaled when ``scaled`` is false)."""
    times = [op.wall_s * (op.scale if scaled else 1.0) for op in ops]
    value, percentile = tail(times)
    details["op_tail"] = {"percentile": percentile, "samples": len(times)}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(w * (s if scaled else 1.0)
                                      for w, s in setup), "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (value, "s"),
        "plans_per_s": (rate(ops, scaled), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(untraced: list[Op], traced: list[Op], tracer: spans.Tracer,
              counts: dict, details: dict) -> dict:
    """The per-layer metrics of a traced run (self times scaled per op)."""
    scale = {op.op_id: op.scale for op in traced}
    totals = []
    worst = 0.0
    for op_id, op_spans in sorted(spans.split_ops(tracer.spans).items()):
        if op_id not in scale:
            continue
        layers = spans.layer_totals(op_spans)
        wall = op_spans[0][2] - op_spans[0][1]
        worst = max(worst, abs(sum(s for s, _ in layers.values()) - wall) / wall)
        totals.append({name: (self_s * scale[op_id], calls)
                       for name, (self_s, calls) in layers.items()})
    details["self_time_residual"] = worst
    if worst > 1e-6:
        details["problems"].append("layer self times do not add up to op wall time")

    def med(layer: str, i: int) -> float:
        return statistics.median(t.get(layer, (0.0, 0))[i] for t in totals)

    metrics = {}
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_s"] = (med(layer, 0), "s")
        metrics[f"{layer}.calls"] = (med(layer, 1), "count")
    metrics["unattributed.self_s"] = (med(spans.OP, 0), "s")
    cache = counts["cache"]
    for store in STORES:
        hits, misses = cache.get(store, (0, 0))
        lookups = hits + misses
        metrics[f"cache.{store}.hit_rate"] = (hits / lookups if lookups else 0.0,
                                              "ratio")
    metrics["cache.misses"] = (sum(m for _, m in cache.values()), "count")
    for key in DRAIN_COUNTERS:
        metrics[f"sim.plan.{key}"] = (counts["drain"][key], "count")
    metrics["trace.overhead_ratio"] = (rate(traced) / rate(untraced), "ratio")
    return metrics


def write_spans(tracer: spans.Tracer, name: str, seed: int) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{name}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps(["name", "start", "end", "parent", "op"]) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl.use_checkout_src()
    gauge = SpeedGauge()
    setup = setup_samples(args.workload, args.seed, gauge)
    workload, platform, scenario = wl.prepare(args.workload, args.seed)
    runner = Runner(workload, platform, scenario, gauge)
    runner.compute_reference()
    details = {
        "workload": workload.name, "seed": args.seed,
        "scenario": wl.describe(scenario), "rate_unit": f"{workload.unit}/s",
        "setup_samples_s": [w for w, _ in setup], "problems": [],
    }
    # untimed warm-up: finishes lazy imports and fixes the exact counts
    ops = [runner.op(0)]
    tracer = spans.Tracer() if args.trace else None
    timed = runner.phase(args.seconds, TRACE_MIN_OPS if tracer else MIN_OPS,
                         len(ops), tracer)
    ops += timed
    metrics = {}
    if any(op.wall_s is None for op in ops):
        pass  # an op raised: no metric is computed from a partial sample
    elif tracer is not None:
        metrics = per_layer(timed[0::2], timed[1::2], tracer, runner.expected,
                            details)
        details["spans"] = str(write_spans(tracer, workload.name, args.seed))
    else:
        metrics = end_to_end(setup, timed, details)
        details["unscaled"] = {name: value for name, (value, _) in
                               end_to_end(setup, timed, {}, scaled=False).items()}
        details["op_samples_s"] = [op.wall_s for op in timed]
    details["calibration_samples_s"] = gauge.samples

    failed = sum(1 for op in ops if op.problems)
    details["error_rate"] = failed / len(ops)
    details["counts"] = runner.expected
    details["problems"] += sorted({p for op in ops for p in op.problems})
    correct = not details["problems"]
    print(json.dumps(details))
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
