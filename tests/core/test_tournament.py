"""Tournament engine: measured rankings, persistence, provider seam."""

import pytest

from repro.cache import get_cache, load_snapshot, save_snapshot
from repro.core.classes import AppClass
from repro.core.ranking import (
    RankingProvider,
    TableRankingProvider,
    resolve_ranker,
)
from repro.core.tournament import (
    MeasuredRankingProvider,
    TournamentResult,
    default_scenarios,
    format_tournament,
    run_tournament,
)
from repro.bench.matchup import (
    check_propositions,
    compare_to_table,
    format_matchup,
)
from repro.errors import ClassificationError, ConfigurationError
from repro.partition.base import list_strategies, strategy_info
from repro.platform.presets import shen_icpp15_platform


@pytest.fixture(scope="module")
def paper_tournament():
    """One tournament on the Table III machine, shared by the module."""
    return run_tournament(shen_icpp15_platform())


@pytest.fixture
def empty_tournament_store():
    """The ``"tournament"`` store, emptied for one test and then restored."""
    store = get_cache("tournament")
    saved = store.entries()
    store.clear()
    yield store
    store.clear()
    store.preload(saved)


class TestScenarios:
    def test_mk_apps_play_both_sync_variants(self):
        scenarios = default_scenarios()
        stream_seq = [s for s in scenarios if s.app == "STREAM-Seq"]
        assert sorted(s.needs_sync for s in stream_seq) == [False, True]

    def test_sk_apps_play_once(self):
        scenarios = default_scenarios()
        assert len([s for s in scenarios if s.app == "MatrixMul"]) == 1


class TestTournament:
    def test_covers_every_class_and_sync_case(self, paper_tournament):
        assert set(paper_tournament.rankings) == {
            ("SK-One", False), ("SK-Loop", False),
            ("MK-Seq", False), ("MK-Seq", True),
            ("MK-Loop", False), ("MK-Loop", True),
            ("MK-DAG", False),
        }

    def test_rankings_are_well_formed(self, paper_tournament):
        registered = set(list_strategies())
        for (app_class, sync), cell in paper_tournament.rankings.items():
            names = cell.ranking
            assert set(names) <= registered
            assert len(names) == len(set(names)), f"duplicates in {names}"
            for name in names:
                info = strategy_info(name)
                assert info.ranked, f"baseline {name} ranked in {app_class}"
                assert info.applicable(app_class), (
                    f"{name} ranked for {app_class} but not applicable"
                )

    def test_scores_are_ratios_to_winner(self, paper_tournament):
        for cell in paper_tournament.rankings.values():
            ordered = [cell.scores[n] for n in cell.ranking]
            assert ordered == sorted(ordered)
            # per-scenario ratios are to the scenario winner, so every
            # geometric mean is >= 1 (== 1 only for an all-scenario winner)
            assert all(score >= 1.0 for score in ordered)

    def test_reproduces_table_one_on_paper_platform(self, paper_tournament):
        """The acceptance check: Table I holds cell by cell — and any cell
        that diverges must carry makespan evidence for the broken
        proposition."""
        report = compare_to_table(paper_tournament)
        for cell in report.cells:
            assert cell.agrees or cell.violations, (
                f"{cell.label} diverges without evidence: {cell.scores}"
            )
        assert report.agreement == 1.0

    def test_warm_replay_simulates_nothing(self, paper_tournament):
        replay = run_tournament(shen_icpp15_platform())
        assert replay.simulated == 0
        assert {k: v.ranking for k, v in replay.rankings.items()} == {
            k: v.ranking for k, v in paper_tournament.rankings.items()
        }

    def test_process_pool_matches_serial(self, empty_tournament_store):
        """The pool builds every cell's program and graph on its own (no
        sweep scope); its matches and rankings must equal the serial
        run's, which shares them."""
        platform = shen_icpp15_platform()
        serial = run_tournament(platform, scale=0.02)
        empty_tournament_store.clear()
        pooled = run_tournament(platform, scale=0.02, jobs=2)
        for result in (serial, pooled):
            assert result.simulated == len(result.matches) > 0
        key = lambda r: [
            (m.scenario, m.strategy, m.makespan_s.hex()) for m in r.matches
        ]
        assert key(pooled) == key(serial)
        assert pooled.rankings == serial.rankings

    def test_snapshot_round_trip(self, paper_tournament, tmp_path):
        path = tmp_path / "memo.pkl"
        save_snapshot(path)
        get_cache("tournament").clear()
        assert run_tournament(shen_icpp15_platform()).simulated > 0
        get_cache("tournament").clear()
        load_snapshot(path)
        assert run_tournament(shen_icpp15_platform()).simulated == 0

    def test_ranking_for_missing_class_raises(self, paper_tournament):
        empty = TournamentResult(
            platform="x", scale=1.0, matches=(), rankings={}
        )
        with pytest.raises(ClassificationError):
            empty.ranking_for(AppClass.SK_ONE)

    def test_format_lists_every_cell(self, paper_tournament):
        text = format_tournament(paper_tournament)
        for label in ("SK-One", "SK-Loop", "MK-Seq", "MK-Loop", "MK-DAG"):
            assert label in text
        assert "geomean ratio" in text


class TestMeasuredProvider:
    def test_is_a_ranking_provider(self):
        assert issubclass(MeasuredRankingProvider, RankingProvider)

    def test_lazily_plays_and_answers(self, paper_tournament):
        provider = MeasuredRankingProvider()  # Table III default platform
        ranked = provider.ranking(AppClass.SK_ONE)
        assert set(ranked) <= set(list_strategies())
        assert ranked == paper_tournament.ranking_for(AppClass.SK_ONE)

    def test_sync_selects_the_sub_case(self, paper_tournament):
        provider = MeasuredRankingProvider()
        nosync = provider.ranking(AppClass.MK_SEQ, needs_sync=False)
        sync = provider.ranking(AppClass.MK_SEQ, needs_sync=True)
        assert nosync != sync
        assert nosync[0] == "SP-Unified"
        assert sync[0] == "SP-Varied"


class TestResolveRanker:
    def test_default_is_the_table(self):
        assert resolve_ranker(None) is resolve_ranker("table")
        assert isinstance(resolve_ranker("table"), TableRankingProvider)

    def test_measured_builds_a_provider(self):
        provider = resolve_ranker("measured")
        assert isinstance(provider, MeasuredRankingProvider)

    def test_instances_pass_through(self):
        provider = MeasuredRankingProvider()
        assert resolve_ranker(provider) is provider

    def test_unknown_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_ranker("vibes")


class TestMatchup:
    def test_prop1_violation_carries_evidence(self):
        scores = {"DP-Perf": 2.0, "DP-Dep": 1.0}
        violations = check_propositions("MK-DAG", False, scores)
        assert len(violations) == 1
        assert "Prop 1" in violations[0]
        assert "DP-Perf 2.000" in violations[0]
        assert "DP-Dep 1.000" in violations[0]

    def test_ties_within_tolerance_hold(self):
        scores = {"DP-Perf": 1.05, "DP-Dep": 1.0}
        assert check_propositions("MK-DAG", False, scores) == ()

    def test_prop3_selects_the_sync_chain(self):
        scores = {
            "SP-Varied": 1.0, "DP-Perf": 1.2, "DP-Dep": 1.3,
            "SP-Unified": 5.0,
        }
        assert check_propositions("MK-Seq", True, scores) == ()
        broken = check_propositions("MK-Seq", False, scores)
        assert broken and "w/o sync" in broken[0]

    def test_upsets_name_the_new_family(self, paper_tournament):
        report = compare_to_table(paper_tournament)
        sk_one = next(c for c in report.cells if c.app_class == "SK-One")
        assert any("HYB-Static" in u for u in sk_one.upsets)

    def test_format_names_divergent_cells(self, paper_tournament):
        text = format_matchup(compare_to_table(paper_tournament))
        assert "measured vs Table I" in text
        assert "table:" in text and "measured:" in text
