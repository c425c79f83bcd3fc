"""Differential suite: the fast event core vs the oracle engine.

The fast engine's contract is *indistinguishability*: a run under
``FastSimulator`` must produce the same :class:`RunArtifact` as the
oracle ``Simulator`` — same makespan, same trace rows, same summary,
same decision — across every strategy, application, and sweep backend.

In-process comparisons use structural equality on cache-cold artifacts.
Byte identity of the pickles is checked across *fresh subprocesses*, one
per engine: within a single process the first run's ``sys.intern`` calls
register its trace strings, which changes pickle memo sharing (not
content) for the second run, so whole-pickle comparison is only
meaningful between processes that each ran exactly one engine.
"""

import os
import pickle
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.bench.harness import SweepCell, _run_cell, run_sweep
from repro.cache import clear_all
from repro.distrib import WorkerServer
from repro.errors import StrategyInapplicableError

STRATEGIES = ("Only-CPU", "Only-GPU", "SP-Single", "DP-Perf", "DP-Dep")

#: (app, n, iterations) — small instances of the paper's app suite,
#: mixing single-kernel, multi-kernel, and imbalanced workloads
APPS = [
    ("STREAM-Loop", 2048, 2),
    ("MatrixMul", 128, 1),
    ("BlackScholes", 2048, 1),
    ("Cholesky", 6, 1),  # n counts tiles, not elements
    ("SpMV", 2048, 1),
]


@contextmanager
def engine(oracle: bool):
    """Pin the engine selection for the duration of the block."""
    prior = os.environ.get("REPRO_NO_FAST_ENGINE")
    os.environ["REPRO_NO_FAST_ENGINE"] = "1" if oracle else "0"
    try:
        yield
    finally:
        if prior is None:
            os.environ.pop("REPRO_NO_FAST_ENGINE", None)
        else:
            os.environ["REPRO_NO_FAST_ENGINE"] = prior


def _cell(platform, app, n, iterations, strategy):
    return SweepCell(app=app, strategy=strategy, platform=platform,
                     n=n, iterations=iterations, sync=False)


def _run(cell, *, oracle, detail="full"):
    """One cache-cold artifact under the chosen engine, or an error type."""
    with engine(oracle):
        clear_all()
        try:
            return _run_cell(cell, detail)
        except StrategyInapplicableError:
            return StrategyInapplicableError


@pytest.mark.parametrize("app,n,iterations", APPS)
def test_artifacts_identical_across_strategies(paper_platform, app, n,
                                               iterations):
    for strategy in STRATEGIES:
        cell = _cell(paper_platform, app, n, iterations, strategy)
        fast = _run(cell, oracle=False)
        oracle = _run(cell, oracle=True)
        if fast is StrategyInapplicableError:
            # both engines must agree the combo is inapplicable
            assert oracle is StrategyInapplicableError
            continue
        assert fast.makespan_ms == oracle.makespan_ms, strategy
        assert fast.summary == oracle.summary, strategy
        assert list(fast.trace) == list(oracle.trace), strategy
        assert fast == oracle, strategy


def test_pickle_bytes_identical_in_fresh_processes(paper_platform, tmp_path):
    """Byte identity, each engine in its own interpreter (see module doc)."""
    script = (
        "import pickle, sys\n"
        "from repro.bench.harness import SweepCell, _run_cell\n"
        "from repro.platform import shen_icpp15_platform\n"
        "cell = SweepCell(app='STREAM-Loop', strategy='DP-Perf',\n"
        "                 platform=shen_icpp15_platform(), n=2048,\n"
        "                 iterations=2, sync=False)\n"
        "artifact = _run_cell(cell, 'full')\n"
        "sys.stdout.buffer.write(pickle.dumps(artifact, 5))\n"
    )
    src = str(Path(__file__).resolve().parents[2] / "src")

    def dump(oracle):
        env = dict(os.environ, PYTHONPATH=src,
                   REPRO_NO_FAST_ENGINE="1" if oracle else "0")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, check=True)
        return proc.stdout

    fast_bytes = dump(oracle=False)
    oracle_bytes = dump(oracle=True)
    assert len(fast_bytes) > 1000
    assert fast_bytes == oracle_bytes
    # and the engines did diverge in implementation, not just in name
    artifact = pickle.loads(fast_bytes)
    assert artifact.makespan_ms > 0


class TestBackends:
    """Every sweep backend yields the same numbers under either engine."""

    def _cells(self, platform):
        return [
            _cell(platform, "STREAM-Loop", 2048, 2, strategy)
            for strategy in ("Only-CPU", "Only-GPU", "DP-Perf")
        ]

    @staticmethod
    def _key(artifact):
        return (artifact.makespan_ms, artifact.summary,
                artifact.elements_by_device, artifact.transfer_bytes)

    def _compare(self, run):
        with engine(oracle=False):
            clear_all()
            fast = run()
        with engine(oracle=True):
            clear_all()
            oracle = run()
        assert [self._key(a) for a in fast] == [self._key(a) for a in oracle]

    def test_pool_backend(self, paper_platform):
        cells = self._cells(paper_platform)
        # pool children inherit os.environ, so the pin reaches them
        self._compare(lambda: run_sweep(cells, jobs=2))

    def test_worker_backend(self, paper_platform):
        cells = self._cells(paper_platform)
        server = WorkerServer().start()
        try:
            # the in-thread worker reads the engine pin per simulation
            self._compare(lambda: run_sweep(cells,
                                            workers=[server.endpoint]))
        finally:
            server.stop()

