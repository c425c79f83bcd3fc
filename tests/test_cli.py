"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.errors import SimulationError


class TestList:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for expected in ("MatrixMul", "SP-Single", "shen", "fig5"):
            assert expected in out

    def test_strategies_show_family_and_classes(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        sp_single = next(l for l in out.splitlines() if "SP-Single" in l)
        assert "static" in sp_single and "SK-One" in sp_single
        hyb = next(l for l in out.splitlines() if "HYB-Static" in l)
        assert "hybrid" in hyb and "MK-DAG" not in hyb
        only_cpu = next(l for l in out.splitlines() if "Only-CPU" in l)
        assert "unranked" in only_cpu


class TestPlatform:
    def test_default_preset(self, capsys):
        assert main(["platform"]) == 0
        assert "Xeon E5-2620" in capsys.readouterr().out

    def test_other_preset(self, capsys):
        assert main(["platform", "--preset", "dual-gpu"]) == 0
        out = capsys.readouterr().out
        assert "GTX 680" in out

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            main(["platform", "--preset", "laptop"])


class TestAnalyze:
    def test_analyze_app(self, capsys):
        assert main(["analyze", "HotSpot", "-n", "256"]) == 0
        out = capsys.readouterr().out
        assert "SK-Loop" in out and "SP-Single" in out

    def test_sync_flag_changes_ranking(self, capsys):
        main(["analyze", "STREAM-Seq", "-n", "4096", "--sync"])
        assert "SP-Varied" in capsys.readouterr().out.splitlines()[-1]
        main(["analyze", "STREAM-Seq", "-n", "4096", "--no-sync"])
        assert "SP-Unified" in capsys.readouterr().out.splitlines()[-1]

    def test_measured_ranker(self, capsys):
        assert main(["analyze", "HotSpot", "--ranker", "measured"]) == 0
        out = capsys.readouterr().out
        assert "(measured)" in out
        assert "best strategy:" in out.splitlines()[-1]


class TestRank:
    def test_prints_measured_rankings(self, capsys):
        assert main(["rank"]) == 0
        out = capsys.readouterr().out
        assert "tournament on" in out
        assert "SK-One" in out and "MK-DAG" in out
        assert "geomean ratio" in out

    def test_compare_confronts_table_one(self, capsys):
        assert main(["rank", "--compare"]) == 0
        out = capsys.readouterr().out
        assert "measured vs Table I" in out
        assert "table:" in out and "measured:" in out


class TestRun:
    def test_matchmade_run(self, capsys):
        assert main(["run", "MatrixMul", "-n", "512"]) == 0
        out = capsys.readouterr().out
        assert "best strategy: SP-Single" in out
        assert "simulated makespan" in out

    def test_explicit_strategy(self, capsys):
        assert main(
            ["run", "MatrixMul", "-n", "512", "--strategy", "Only-CPU"]
        ) == 0
        assert "Only-CPU" in capsys.readouterr().out

    def test_profile_writes_pstats(self, capsys, tmp_path):
        out_file = tmp_path / "run.pstats"
        assert main(
            ["run", "MatrixMul", "-n", "512", "--strategy", "Only-CPU",
             "--profile", str(out_file)]
        ) == 0
        assert "Only-CPU" in capsys.readouterr().out
        import pstats

        stats = pstats.Stats(str(out_file))
        # the profile covers the simulate call: the engine's run loop
        # must appear in the recorded functions
        functions = {fn for _, _, fn in stats.stats}
        assert any("run" in fn for fn in functions)
        assert stats.total_calls > 100

    def test_profile_matchmade_run(self, tmp_path):
        out_file = tmp_path / "match.pstats"
        assert main(
            ["run", "MatrixMul", "-n", "512", "--profile", str(out_file)]
        ) == 0
        assert out_file.exists()

    def test_stats_and_gantt(self, capsys):
        assert main(
            ["run", "BlackScholes", "-n", "65536", "--stats", "--gantt"]
        ) == 0
        out = capsys.readouterr().out
        assert "compute overlap" in out
        assert "|" in out  # gantt rows

    #: sha256 of the ``--detail full --stats --gantt`` report of two runs;
    #: the dual-GPU FDTD overlap groups compute rows by device tag
    STATS_GANTT_PINS = {
        "HotSpot -n 1024 -i 2 --sync --strategy SP-Single": (
            "5725c65a764a93b81c39396798d08fe045afe7e1ebc29b43114fde683360f533"
        ),
        "FDTD --preset dual-gpu --strategy DP-Perf -n 256 -i 2": (
            "71c19affa6b08163f1bc1558c1c77dd077b9c96846066590603b3fecc0df6b75"
        ),
    }

    @pytest.mark.parametrize("argv", list(STATS_GANTT_PINS),
                             ids=lambda argv: argv.split()[0])
    def test_stats_and_gantt_pinned(self, capsys, argv):
        import hashlib

        assert main(["run", *argv.split(), "--detail", "full", "--stats",
                     "--gantt"]) == 0
        out = capsys.readouterr().out
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == self.STATS_GANTT_PINS[argv]

    def test_thread_override(self, capsys):
        assert main(
            ["run", "MatrixMul", "-n", "512", "--strategy", "Only-CPU",
             "--threads", "3"]
        ) == 0

    def test_summary_detail_drains_like_full(self, capsys):
        """--detail summary drains a static plan and prints the full
        report; the drain has no flag of its own."""
        from repro.sim.plan import drain_stats

        argv = ["run", "HotSpot", "-n", "1024", "-i", "4", "--sync",
                "--strategy", "SP-Single"]
        assert main(argv + ["--detail", "full"]) == 0
        ref = capsys.readouterr().out

        before = drain_stats()
        assert main(argv + ["--detail", "summary"]) == 0
        assert capsys.readouterr().out == ref
        after = drain_stats()
        assert after["evaluations"] == before["evaluations"] + 1
        assert after["waves_drained"] > before["waves_drained"]
        with pytest.raises(SystemExit):
            main(argv + ["--plan-eval"])

    def test_strategy_typo_suggests_and_exits_cleanly(self, capsys):
        assert main(
            ["run", "MatrixMul", "-n", "512", "--strategy", "DP-Prf"]
        ) == 2
        err = capsys.readouterr().err
        assert "did you mean 'DP-Perf'?" in err


class TestCacheDir:
    def test_second_run_warm_starts_from_snapshot(self, tmp_path, capsys):
        from repro.cache import clear_all

        cache_dir = tmp_path / "memo"
        clear_all()
        assert main(
            ["run", "MatrixMul", "-n", "512", "--cache-dir", str(cache_dir)]
        ) == 0
        first = capsys.readouterr().err
        assert "warm-started with 0 entries" in first
        assert "saved" in first and str(cache_dir) in first
        assert (cache_dir / "memo_snapshot.pkl").exists()

        clear_all()  # simulate a fresh process
        assert main(
            ["run", "MatrixMul", "-n", "512", "--cache-dir", str(cache_dir)]
        ) == 0
        second = capsys.readouterr().err
        # the snapshot replays the first run's memos as hits
        assert "warm-started with 0 entries" not in second
        assert "hits" in second
        clear_all()

    def test_without_cache_dir_no_report(self, capsys):
        assert main(["analyze", "HotSpot", "-n", "256"]) == 0
        assert "[cache]" not in capsys.readouterr().err

    def test_missing_snapshot_dir_is_created(self, tmp_path, capsys):
        from repro.cache import clear_all

        clear_all()
        nested = tmp_path / "a" / "b"
        assert main(
            ["run", "MatrixMul", "-n", "512", "--cache-dir", str(nested)]
        ) == 0
        capsys.readouterr()
        assert (nested / "memo_snapshot.pkl").exists()
        clear_all()


class TestMaxEvents:
    def test_exhausted_budget_names_both_knobs(self):
        with pytest.raises(SimulationError) as exc:
            main(["run", "MatrixMul", "-n", "512", "--strategy", "Only-CPU",
                  "--max-events", "5"])
        assert "max_events=5" in str(exc.value)
        assert "RuntimeConfig" in str(exc.value)
        assert "--max-events" in str(exc.value)

    def test_generous_budget_completes(self, capsys):
        assert main(
            ["run", "MatrixMul", "-n", "512", "--strategy", "Only-CPU",
             "--max-events", "1000000"]
        ) == 0
        assert "Only-CPU" in capsys.readouterr().out


class TestIntBounds:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["run", "STREAM-Loop", "--gantt", "--gantt-width", "0"],
             "--gantt-width"),
            (["run", "STREAM-Loop", "--gantt", "--gantt-width", "11"],
             "--gantt-width"),
            (["run", "STREAM-Loop", "--max-events", "0"], "--max-events"),
            (["search", "HotSpot", "--grid", "0"], "--grid"),
            (["search", "HotSpot", "--grid", "1"], "--grid"),
            (["search", "HotSpot", "--beam", "0"], "--beam"),
            (["search", "HotSpot", "--beam", "-2"], "--beam"),
            (["search", "HotSpot", "--top", "-1"], "--top"),
            (["search", "HotSpot", "--rounds", "-1"], "--rounds"),
        ],
    )
    def test_out_of_range_value_is_a_usage_error(self, argv, flag, capsys):
        # rejected while parsing: nothing runs, argparse exits 2 with a
        # one-line message naming the flag
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument {flag}: must be >= " in captured.err
        assert "Traceback" not in captured.err


class TestScaleBounds:
    @pytest.mark.parametrize("command", [
        ["rank"], ["experiment", "fig5"], ["speedup"], ["regenerate"],
    ])
    @pytest.mark.parametrize("value", ["0", "2", "-0.5", "nan", "abc"])
    def test_scale_outside_unit_interval_is_a_usage_error(
        self, command, value, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--scale", value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument --scale: " in captured.err
        assert "Traceback" not in captured.err

    def test_scale_of_one_is_accepted(self):
        args = build_parser().parse_args(["rank", "--scale", "1"])
        assert args.scale == 1.0


class TestExperiment:
    def test_time_experiment(self, capsys):
        assert main(["experiment", "fig5", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out and "SP-Single" in out

    def test_ratio_experiment(self, capsys):
        assert main(["experiment", "fig8", "--scale", "0.02"]) == 0
        assert "%" in capsys.readouterr().out

    def test_progress_reports_cells_on_stderr(self, capsys):
        assert main(
            ["experiment", "fig5", "--scale", "0.02", "--progress"]
        ) == 0
        captured = capsys.readouterr()
        lines = [l for l in captured.err.splitlines()
                 if l.startswith("[sweep]")]
        assert lines, "no progress lines on stderr"
        total = len(lines)
        assert lines[-1] == f"[sweep] {total}/{total} cells"
        assert "Figure 5" in captured.out

    def test_csv_export(self, tmp_path, capsys):
        target = tmp_path / "fig5.csv"
        assert main(
            ["experiment", "fig5", "--scale", "0.02", "-o", str(target)]
        ) == 0
        text = target.read_text()
        assert text.startswith("scenario,application")
        assert "SP-Single" in text

    def test_json_export(self, tmp_path, capsys):
        target = tmp_path / "fig5.json"
        main(["experiment", "fig5", "--scale", "0.02", "-o", str(target)])
        records = json.loads(target.read_text())
        assert records[0]["application"] == "MatrixMul"

    def test_unknown_key_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestRegenerate:
    def test_writes_all_experiment_files(self, tmp_path, capsys):
        assert main(
            ["regenerate", "-o", str(tmp_path), "--scale", "0.02"]
        ) == 0
        names = {p.name for p in tmp_path.glob("*.csv")}
        for key in ("fig5", "fig9", "fig12", "mkdag", "spmv", "fdtd"):
            assert f"{key}.csv" in names


class TestCharacterize:
    def test_prints_table(self, capsys):
        assert main(["characterize"]) == 0
        out = capsys.readouterr().out
        assert "MatrixMul" in out and "AI F/B" in out
        assert "SP-Unified" in out  # STREAM row


class TestCrossover:
    def test_stream_sweep(self, capsys):
        assert main(["crossover", "stream-iterations"]) == 0
        out = capsys.readouterr().out
        assert "Only-GPU wins" in out

    def test_invalid_sweep_rejected(self):
        with pytest.raises(SystemExit):
            main(["crossover", "nope"])


class TestBaseline:
    def test_save_then_check(self, tmp_path, capsys):
        path = tmp_path / "base.json"
        assert main(["baseline", "--save", str(path)]) == 0
        assert path.exists()
        assert main(["baseline", "--check", str(path)]) == 0
        assert "no drift" in capsys.readouterr().out

    def test_requires_mode(self):
        with pytest.raises(SystemExit):
            main(["baseline"])


class TestSpeedup:
    def test_speedup_scaled(self, capsys, tmp_path):
        target = tmp_path / "fig12.json"
        assert main(
            ["speedup", "--scale", "0.02", "-o", str(target)]
        ) == 0
        out = capsys.readouterr().out
        assert "average" in out
        assert json.loads(target.read_text())
