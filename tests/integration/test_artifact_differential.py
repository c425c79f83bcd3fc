"""Differential suite: summarized artifacts vs the raw-trace seed path.

The ``RunArtifact`` pipeline replaced every report/export consumer's trace
scans with pre-aggregated ``TraceSummary`` numbers.  The refactor's
contract is *byte identity*: a figure/table regenerated from summarized
sweep returns must match the one regenerated with full traces exactly —
same floats, same JSON bytes — because the summary accumulates in the
same order the old filtered scans did.
"""

import pickle

import pytest

from repro.apps import get_application
from repro.artifact import RunArtifact, artifact_nbytes
from repro.bench.crossover import stream_iteration_crossover
from repro.bench.experiments import run_experiment
from repro.bench.export import scenario_rows, to_csv, to_json
from repro.bench.harness import run_scenario
from repro.cache import clear_all
from repro.partition import get_strategy
from tests.sim.trace_oracle import row_key, summary_of


SCALE = 0.05  # shrink the paper problem sizes; identity must hold anyway


def _experiment_rows(key, platform, detail):
    clear_all()  # same cold-cache state for both paths
    return scenario_rows(run_experiment(key, platform, scale=SCALE, detail=detail))


@pytest.mark.parametrize("key", ["fig5", "fig6", "fig10"])
def test_experiment_export_byte_identical(key, paper_platform):
    summary = _experiment_rows(key, paper_platform, "summary")
    full = _experiment_rows(key, paper_platform, "full")
    assert summary == full
    assert to_json(summary) == to_json(full)
    assert to_csv(summary) == to_csv(full)


def test_scenario_numbers_identical(paper_platform):
    kwargs = dict(n=4096, iterations=2, sync=False)
    strategies = ("Only-CPU", "Only-GPU", "DP-Perf")
    app = get_application("STREAM-Loop")
    clear_all()
    summarized = run_scenario(app, paper_platform, strategies, **kwargs)
    clear_all()
    full = run_scenario(app, paper_platform, strategies, detail="full", **kwargs)
    for a, b in zip(summarized.outcomes, full.outcomes):
        assert a.result.makespan_ms == b.result.makespan_ms
        assert a.result.summary == b.result.summary
        assert a.result.gpu_fraction == b.result.gpu_fraction
        assert a.result.ratio_by_kernel() == b.result.ratio_by_kernel()


def test_crossover_identical(paper_platform):
    clear_all()
    summarized = stream_iteration_crossover(paper_platform, n=4096)
    clear_all()
    again = stream_iteration_crossover(paper_platform, n=4096)
    assert summarized == again  # frozen dataclass: full float equality


def test_summary_matches_trace_recomputation(paper_platform):
    """A full-detail artifact's summary is exactly its trace, re-derived."""
    app = get_application("STREAM-Loop")
    program = app.program(4096, iterations=2, sync=False)
    result = get_strategy("DP-Perf").run(program, paper_platform, detail="full")
    recomputed = summary_of(result.trace)
    assert recomputed == result.summary
    assert result.makespan_s >= result.summary.trace_makespan_s


class TestArtifactPickle:
    def _artifact(self, platform, detail="summary"):
        app = get_application("STREAM-Loop")
        program = app.program(4096, iterations=2, sync=False)
        return get_strategy("DP-Perf").run(program, platform, detail=detail)

    def test_round_trip_equality(self, paper_platform):
        artifact = self._artifact(paper_platform)
        clone = pickle.loads(pickle.dumps(artifact))
        assert isinstance(clone, RunArtifact)
        assert clone == artifact
        assert clone.summary == artifact.summary
        assert clone.cache_stats == artifact.cache_stats

    def test_summarized_size_bound(self, paper_platform):
        artifact = self._artifact(paper_platform)
        assert artifact.trace is None
        # the cross-process unit stays small no matter the trace length
        assert artifact_nbytes(artifact) < 8_192

    def test_full_detail_round_trips_trace(self, paper_platform):
        artifact = self._artifact(paper_platform, detail="full")
        clone = pickle.loads(pickle.dumps(artifact))
        assert clone.trace.records == artifact.trace.records
        # TraceRecord equality skips meta: compare every field
        assert [row_key(r) for r in clone.trace.records] == [
            row_key(r) for r in artifact.trace.records
        ]

    def test_summarized_view_of_full_artifact(self, paper_platform):
        artifact = self._artifact(paper_platform, detail="full")
        slim = artifact.summarized()
        assert slim.trace is None and slim.detail == "summary"
        assert slim.summary == artifact.summary
        assert slim.makespan_ms == artifact.makespan_ms
        with pytest.raises(ValueError, match="summary"):
            slim.require_trace()
