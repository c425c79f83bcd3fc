"""End-to-end matchmaking: classify, plan, execute."""

import pytest

from repro.apps import all_applications, get_application
from repro.bench.experiments import scaled_size
from repro.core.analyzer import analyze
from repro.core.matchmaker import match, run_best
from repro.partition import PlanConfig


class TestMatch:
    def test_matrixmul_matches_sp_single(self, paper_platform):
        outcome = match(get_application("MatrixMul"), paper_platform, n=1024)
        assert outcome.strategy == "SP-Single"
        assert outcome.result is not None
        assert outcome.makespan_ms > 0

    def test_stream_sync_matches_sp_varied(self, paper_platform):
        outcome = match(
            get_application("STREAM-Seq"), paper_platform,
            n=65536, sync=True,
        )
        assert outcome.strategy == "SP-Varied"

    def test_plan_only_mode(self, paper_platform):
        outcome = match(
            get_application("BlackScholes"), paper_platform,
            n=65536, execute=False,
        )
        assert outcome.result is None
        with pytest.raises(ValueError):
            outcome.makespan_ms

    def test_config_threads_respected(self, paper_platform):
        outcome = match(
            get_application("MatrixMul"), paper_platform, n=1024,
            config=PlanConfig(cpu_threads=6),
        )
        cpu_instances = [
            i for i in outcome.plan.graph.instances
            if i.pinned_resource is not None
        ]
        assert len(cpu_instances) == 6

    def test_cholesky_matches_dynamic(self, paper_platform):
        from repro.apps.cholesky import Cholesky

        outcome = match(Cholesky(tile_size=64), paper_platform, n=4)
        assert outcome.strategy == "DP-Perf"
        assert outcome.result is not None

    def test_run_best_returns_result(self, paper_platform):
        result = run_best(get_application("HotSpot"), paper_platform,
                          n=256, iterations=2)
        assert result.makespan_s > 0
        assert result.instance_count > 0

    def test_matched_beats_mismatched(self, paper_platform):
        """Matchmaking pays: the chosen strategy beats the wrong one."""
        from repro.partition import get_strategy

        app = get_application("MatrixMul")
        program = app.program(2048)
        best = match(app, paper_platform, n=2048).result
        wrong = get_strategy("DP-Dep").run(program, paper_platform)
        assert best.makespan_s < wrong.makespan_s


@pytest.mark.parametrize("app", all_applications(), ids=lambda app: app.name)
def test_match_builds_one_program(app, paper_platform, monkeypatch):
    """``match`` analyzes, plans and runs one program, built once."""
    n = scaled_size(app.name, 0.01)
    built = []
    program = type(app).program

    def counting(self, *args, **kwargs):
        built.append(args)
        return program(self, *args, **kwargs)

    monkeypatch.setattr(type(app), "program", counting)
    outcome = match(app, paper_platform, n=n)
    assert len(built) == 1
    assert outcome.result is not None
    assert outcome.report == analyze(app, n=n)
