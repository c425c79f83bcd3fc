"""The three benchmark workloads: scenario drawing, ops and references.

Each workload turns ``--seed`` into one scenario, runs that scenario as
one homogeneous op through a public entry point of the program, and
checks every op's simulated outputs against a reference computed once
per run by a different path of the program:

* ``search``     -- ``repro.partition.search.search_plan`` (compiled-plan
  evaluator) over HotSpot (SK-Loop, synced) then STREAM-Loop (MK-Loop,
  sync-free); reference: the same search on the engine path
  (``plan_eval=False``).
* ``tournament`` -- ``repro.core.tournament.run_tournament`` (56 matches,
  summary detail, engine path); reference: the same tournament on the
  oracle ``Simulator`` instead of ``FastSimulator``.
* ``matchmake``  -- ``repro.match(app, platform, detail="full")`` for the
  nine registered applications in a fixed order; reference: the same
  matches on the oracle ``Simulator``.

The op itself never sees the seed: it receives only the drawn sizes.
"""

from __future__ import annotations

import os
import random
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

#: the checkout's source tree; the benchmark never imports an installed copy
SRC = Path(__file__).resolve().parents[1] / "src"

#: environment toggles that would silently switch the measured code path
PINNED_ENV = ("REPRO_CACHE", "REPRO_PLAN_EVAL", "REPRO_NO_FAST_ENGINE", "REPRO_NO_NUMPY")

#: matchmake's application order (the registry's, frozen here so a registry
#: reorder cannot change the op)
MATCH_APPS = (
    "MatrixMul", "BlackScholes", "Nbody", "HotSpot", "STREAM-Seq",
    "STREAM-Loop", "Cholesky", "SpMV", "FDTD",
)

# Size bands.  Every seed must cost about the same, because the run-to-run
# spread over ten seeds has to stay well inside each metric's bound: n moves
# within a few percent, and iteration counts are fixed (one more iteration
# moves a search op by 10-30%).
SEARCH_SCENARIOS = (
    # app, scale band, iterations, sync
    ("HotSpot", (0.94, 1.0), 4, True),
    ("STREAM-Loop", (0.94, 1.0), 2, False),
)
TOURNAMENT_SCALE = (0.03, 0.07)
MATCH_SCALE = (0.94, 1.0)
#: SpMV's kernel fingerprint repr()s its whole row-pointer prefix, so its
#: match costs ~linearly in n; a quarter of the paper size keeps the op
#: under a second while fingerprinting still dominates it
SPMV_SCALE = (0.245, 0.255)


def use_checkout_src() -> None:
    """Import ``repro`` from this checkout's ``src``, pinned to its defaults."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    for name in PINNED_ENV:
        os.environ.pop(name, None)


@dataclass(frozen=True)
class Item:
    """One simulated scenario inside an op."""

    app: str
    n: int
    iterations: int | None = None
    sync: bool | None = None


def _scale(rng: random.Random, band: tuple[float, float]) -> float:
    lo, hi = band
    return round(lo + (hi - lo) * rng.random(), 4)


class Search:
    name = "search"
    unit = "candidates"

    def draw(self, seed: int) -> dict:
        from repro.bench.experiments import scaled_size

        rng = random.Random(seed)
        items = [
            Item(app, scaled_size(app, _scale(rng, band)), iters, sync)
            for app, band, iters, sync in SEARCH_SCENARIOS
        ]
        return {"items": items}

    def load(self) -> None:
        import repro.partition.search  # noqa: F401

    def run(self, platform, scenario: dict, *, reference: bool = False):
        from repro.partition.search import search_plan

        return [
            search_plan(
                it.app, platform, n=it.n, iterations=it.iterations,
                sync=it.sync, plan_eval=not reference,
            )
            for it in scenario["items"]
        ]

    def reference(self, platform, scenario: dict):
        return self.run(platform, scenario, reference=True)

    def outputs(self, results) -> dict:
        return {
            r.app: {
                "candidates": [(c.candidate.label(), c.makespan_ms)
                               for c in r.evaluated],
                "best_le_baseline": r.best.makespan_ms <= r.baseline.makespan_ms,
            }
            for r in results
        }

    def invariants(self, outputs: dict) -> list[str]:
        return [f"{app}: best > baseline" for app, out in outputs.items()
                if not out["best_le_baseline"]]

    def counts(self, results) -> dict:
        return {
            "candidates": {r.app: len(r.evaluated) for r in results},
            "makespan_ms_sum": sum(c.makespan_ms for r in results
                                   for c in r.evaluated),
        }

    def work(self, results) -> int:
        return sum(len(r.evaluated) for r in results)


class Tournament:
    name = "tournament"
    unit = "matches"

    def draw(self, seed: int) -> dict:
        return {"scale": _scale(random.Random(seed), TOURNAMENT_SCALE)}

    def load(self) -> None:
        import repro.core.tournament  # noqa: F401

    def run(self, platform, scenario: dict):
        from repro.core.tournament import run_tournament

        return run_tournament(platform, scale=scenario["scale"])

    def reference(self, platform, scenario: dict):
        with _oracle_engine():
            return self.run(platform, scenario)

    def outputs(self, result) -> dict:
        return {
            "matches": [(m.scenario.label, m.strategy, m.makespan_s)
                        for m in result.matches],
            "rankings": {f"{cls}|sync={sync}": list(r.ranking)
                         for (cls, sync), r in sorted(result.rankings.items())},
        }

    def invariants(self, outputs: dict) -> list[str]:
        return []

    def counts(self, result) -> dict:
        return {
            "matches": len(result.matches),
            "simulated": result.simulated,
            "makespan_s_sum": sum(m.makespan_s for m in result.matches),
        }

    def work(self, result) -> int:
        return len(result.matches)


class Matchmake:
    name = "matchmake"
    unit = "runs"

    def draw(self, seed: int) -> dict:
        from repro.bench.experiments import scaled_size

        rng = random.Random(seed)
        items = []
        for app in MATCH_APPS:
            band = SPMV_SCALE if app == "SpMV" else MATCH_SCALE
            items.append(Item(app, scaled_size(app, _scale(rng, band))))
        return {"items": items}

    def load(self) -> None:
        import repro  # noqa: F401

    def run(self, platform, scenario: dict):
        from repro import get_application, match

        return [
            match(get_application(it.app), platform, n=it.n, detail="full")
            for it in scenario["items"]
        ]

    def reference(self, platform, scenario: dict):
        with _oracle_engine():
            return self.run(platform, scenario)

    def outputs(self, results) -> dict:
        return {r.report.application: (r.strategy, r.makespan_ms)
                for r in results}

    def invariants(self, outputs: dict) -> list[str]:
        return []

    def counts(self, results) -> dict:
        return {
            "runs": len(results),
            "makespan_ms_sum": sum(r.makespan_ms for r in results),
        }

    def work(self, results) -> int:
        return len(results)


WORKLOADS = {w.name: w for w in (Search(), Tournament(), Matchmake())}


@contextmanager
def _oracle_engine():
    """Run the block on the oracle ``Simulator`` instead of ``FastSimulator``."""
    os.environ["REPRO_NO_FAST_ENGINE"] = "1"
    try:
        yield
    finally:
        os.environ.pop("REPRO_NO_FAST_ENGINE", None)


def prepare(name: str, seed: int):
    """Set-up: import the entry point, build the platform, draw the inputs."""
    from repro import shen_icpp15_platform

    workload = WORKLOADS[name]
    workload.load()
    platform = shen_icpp15_platform()
    return workload, platform, workload.draw(seed)


def describe(scenario: dict) -> dict:
    """The scenario in JSON form (recorded in the benchmark's output)."""
    return {k: [asdict(it) for it in v] if k == "items" else v
            for k, v in scenario.items()}


def check(workload, outputs: dict, reference: dict) -> list[str]:
    """Every way ``outputs`` differs from ``reference`` (empty = correct)."""
    problems = list(workload.invariants(outputs))
    for key in sorted(set(outputs) | set(reference)):
        if outputs.get(key) != reference.get(key):
            problems.append(f"{key}: output differs from reference")
    return problems
