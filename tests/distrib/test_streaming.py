"""Streaming sweeps: incremental yields, parity, dedupe, adaptive sizing.

``run_sweep_iter`` must genuinely stream on every backend (the first
completed cell arrives before the last one finishes), and collecting its
``(index, artifact)`` pairs must reproduce the buffered ``run_sweep``
output byte-for-byte — including when a worker dies after streaming part
of a batch (re-dispatch must dedupe the already-streamed cells) and when
the pool is skewed (the adaptive dispatcher must shift cells to the fast
worker and beat fixed batching on elapsed time).
"""

import pickle
import time
from dataclasses import replace

import repro.bench.harness as harness
from repro.bench.harness import SweepCell, run_sweep, run_sweep_iter
from repro.distrib import DistributedSweepExecutor, WorkerServer, last_sweep_reports

from tests.distrib.test_distributed import _cells, _spawn_worker, _warm_serial

#: minimum wall time of one cell in the arrival-spread test: warm cells
#: take a few ms, too little for arrival gaps to outgrow timer noise
CELL_FLOOR_S = 0.02

_run_cell = harness._run_cell


def _floored_run_cell(cell, detail="summary"):
    """``harness._run_cell`` that takes at least :data:`CELL_FLOOR_S`.

    Module-level, so pool workers unpickle it by name (forked workers
    inherit it) — the ``WorkerServer(delay_per_cell=...)`` idiom for the
    local process pool.
    """
    time.sleep(CELL_FLOOR_S)
    return _run_cell(cell, detail)


def _light_cells(platform, count=20):
    """Cheap cells (a few ms each) so injected worker delays dominate."""
    strategies = ("Only-CPU", "Only-GPU", "DP-Perf", "SP-Unified", "DP-Dep")
    return [
        SweepCell(
            app="STREAM-Loop", strategy=strategies[i % len(strategies)],
            platform=platform, n=256, iterations=1, sync=False,
        )
        for i in range(count)
    ]


def _collect(pairs, total):
    """Reorder completion-ordered pairs into cell order (no cell lost)."""
    results = [None] * total
    for index, artifact in pairs:
        assert results[index] is None, f"cell {index} yielded twice"
        results[index] = artifact
    assert all(r is not None for r in results)
    return results


def _pickles(artifacts):
    return [pickle.dumps(a, 5) for a in artifacts]


class TestStreamedParity:
    """Streamed-then-reordered output is byte-identical to buffered."""

    def test_serial_backend(self, paper_platform):
        cells = _cells(paper_platform)
        buffered = _warm_serial(cells)
        streamed = _collect(run_sweep_iter(cells), len(cells))
        assert _pickles(streamed) == _pickles(buffered)

    def test_jobs_backend(self, paper_platform):
        cells = _cells(paper_platform)
        serial = _warm_serial(cells)
        streamed = _collect(run_sweep_iter(cells, jobs=2), len(cells))
        buffered = run_sweep(cells, jobs=2)
        assert _pickles(streamed) == _pickles(buffered)
        # canonicalization makes the pool backend match serial bytes too
        assert _pickles(streamed) == _pickles(serial)

    def test_distributed_backend(self, paper_platform):
        cells = _cells(paper_platform)
        serial = _warm_serial(cells)
        server = WorkerServer().start()
        try:
            streamed = _collect(
                run_sweep_iter(cells, workers=[server.endpoint]), len(cells)
            )
            buffered = run_sweep(cells, workers=[server.endpoint])
        finally:
            server.stop()
        assert _pickles(streamed) == _pickles(buffered)
        assert _pickles(streamed) == _pickles(serial)


class TestFirstCellBeforeLast:
    """The generator yields while later cells are still executing."""

    def test_serial_yields_after_each_cell(self, paper_platform, monkeypatch):
        cells = _cells(paper_platform)
        _warm_serial(cells)
        executed = []
        real = harness._run_cell

        def counting(cell, detail):
            executed.append(cell.strategy)
            return real(cell, detail)

        monkeypatch.setattr(harness, "_run_cell", counting)
        iterator = run_sweep_iter(cells)
        next(iterator)
        # exactly one cell has executed when the first pair arrives
        assert len(executed) == 1
        list(iterator)
        assert len(executed) == len(cells)

    def test_jobs_arrivals_are_spread(self, paper_platform, monkeypatch):
        cells = _cells(paper_platform) * 2  # 10 cells over 2 workers
        _warm_serial(cells)
        # 5 rounds of >= 20 ms cells per worker: a streaming pool spreads
        # arrivals over >= 80 ms
        monkeypatch.setattr(harness, "_run_cell", _floored_run_cell)
        arrivals = []
        for _ in run_sweep_iter(cells, jobs=2):
            arrivals.append(time.monotonic())
        # a collect-then-yield implementation would deliver every pair in
        # one burst; genuine streaming spreads arrivals over the rounds
        assert arrivals[-1] - arrivals[0] > 0.05

    def test_distributed_arrivals_follow_cell_cadence(self, paper_platform):
        cells = _cells(paper_platform)
        _warm_serial(cells)
        server = WorkerServer(delay_per_cell=0.05).start()
        try:
            arrivals = []
            for _ in run_sweep_iter(cells, workers=[server.endpoint]):
                arrivals.append(time.monotonic())
        finally:
            server.stop()
        assert len(arrivals) == len(cells)
        # 0.05 s per cell: the first result must land at least 3 cell
        # delays before the last one (buffered batches would land at once)
        assert arrivals[-1] - arrivals[0] >= 0.15


class TestMidStreamDeath:
    """Dying after streaming part of a batch must not double-yield."""

    def test_partial_batch_dedupes_and_stays_byte_identical(
        self, paper_platform
    ):
        cells = _cells(paper_platform)
        serial = _warm_serial(cells)
        # fail_after=1 with a 3-cell batch: the first batch streams one
        # cell, then the worker drops dead mid-batch — the two unstreamed
        # cells must be re-dispatched, the streamed one must not be
        dying = WorkerServer(fail_after=1, delay_per_cell=0.02).start()
        healthy = WorkerServer().start()
        try:
            executor = DistributedSweepExecutor(
                [dying.endpoint, healthy.endpoint], batch_size=3
            )
            streamed = _collect(executor.run_iter(cells), len(cells))
        finally:
            dying.stop()
            healthy.stop()
        # in-process workers share this process's global cache counters,
        # so concurrent cells race on the per-run cache_stats delta;
        # normalize it out here (the subprocess test below asserts full
        # byte-identity across real process boundaries)
        normalize = [replace(a, cache_stats={}) for a in streamed]
        reference = [replace(a, cache_stats={}) for a in serial]
        assert _pickles(normalize) == _pickles(reference)
        dead = [r for r in executor.reports if not r.alive]
        assert len(dead) == 1 and dead[0].endpoint == dying.endpoint
        # the dead worker really streamed part of its batch before dying,
        # so the dedupe path (not just whole-batch re-dispatch) ran
        assert dead[0].cells == 1
        assert sum(r.redispatched_batches for r in executor.reports) >= 1
        survivor = next(r for r in executor.reports if r.alive)
        assert survivor.cells == len(cells) - 1

    def test_subprocess_worker_killed_mid_stream(
        self, paper_platform, tmp_path
    ):
        cells = _cells(paper_platform)
        serial = _warm_serial(cells)
        p1, e1 = _spawn_worker(
            tmp_path, "dying",
            extra=("--fail-after", "1", "--delay-per-cell", "0.02"),
        )
        p2, e2 = _spawn_worker(tmp_path, "healthy")
        try:
            streamed = _collect(
                run_sweep_iter(cells, workers=[e1, e2], batch_size=3),
                len(cells),
            )
        finally:
            p1.terminate()
            p2.terminate()
        assert _pickles(streamed) == _pickles(serial)
        dead = [r for r in last_sweep_reports() if not r.alive]
        assert len(dead) == 1 and dead[0].endpoint == e1


class TestAdaptiveSkewedPool:
    """One delayed worker: adaptive sizing shifts work and beats fixed."""

    def _run_pool(self, cells, delay, **executor_kwargs):
        fast = WorkerServer().start()
        slow = WorkerServer(delay_per_cell=delay).start()
        try:
            executor = DistributedSweepExecutor(
                [fast.endpoint, slow.endpoint], **executor_kwargs
            )
            start = time.monotonic()
            results = executor.run(cells)
            elapsed = time.monotonic() - start
        finally:
            fast.stop()
            slow.stop()
        by_endpoint = {r.endpoint: r for r in executor.reports}
        return results, elapsed, by_endpoint[fast.endpoint], \
            by_endpoint[slow.endpoint]

    def test_adaptive_beats_fixed_batching(self, paper_platform):
        cells = _light_cells(paper_platform)
        serial = _warm_serial(cells)

        adaptive, adaptive_s, fast, slow = self._run_pool(cells, 0.08)
        # the fast worker must take strictly more of the queue
        assert fast.cells > slow.cells
        assert fast.cells + slow.cells == len(cells)
        # adaptive sizing: the fast worker's dispatches grew past the probe
        assert fast.largest_batch > 1
        assert fast.ewma_cell_s is not None and slow.ewma_cell_s is not None
        assert slow.ewma_cell_s > fast.ewma_cell_s

        # fixed half-the-sweep batches strand half the cells behind the
        # slow worker's injected delays; adaptive must finish sooner
        fixed, fixed_s, _, _ = self._run_pool(
            cells, 0.08, batch_size=len(cells) // 2
        )
        assert adaptive_s < fixed_s

        # two in-process workers race on this process's global cache
        # counters (see TestMidStreamDeath), so compare with the per-run
        # cache_stats delta normalized out
        reference = _pickles([replace(a, cache_stats={}) for a in serial])
        assert _pickles([replace(a, cache_stats={}) for a in adaptive]) == \
            reference
        assert _pickles([replace(a, cache_stats={}) for a in fixed]) == \
            reference


class TestProgress:
    """`progress=True` reports completed/total to stderr as cells land."""

    def test_serial_progress_lines(self, paper_platform, capsys):
        cells = _cells(paper_platform, strategies=("Only-CPU", "Only-GPU"))
        _warm_serial(cells)
        capsys.readouterr()
        run_sweep(cells, progress=True)
        err = capsys.readouterr().err
        lines = [l for l in err.splitlines() if l.startswith("[sweep]")]
        assert lines == ["[sweep] 1/2 cells", "[sweep] 2/2 cells"]

    def test_distributed_progress_counts_every_cell(
        self, paper_platform, capsys
    ):
        cells = _cells(paper_platform)
        _warm_serial(cells)
        server = WorkerServer().start()
        try:
            capsys.readouterr()
            run_sweep(cells, workers=[server.endpoint], progress=True)
        finally:
            server.stop()
        err = capsys.readouterr().err
        lines = [l for l in err.splitlines() if l.startswith("[sweep]")]
        assert len(lines) == len(cells)
        assert lines[-1] == f"[sweep] {len(cells)}/{len(cells)} cells"
