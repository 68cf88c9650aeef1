"""Tests for the prebake-bench command-line interface."""

import pytest

from repro.bench.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.experiment == "all"
        assert args.repetitions == 200
        assert args.seed == 42

    def test_explicit_experiment(self):
        args = build_parser().parse_args(["fig3", "-r", "10", "-s", "7"])
        assert args.experiment == "fig3"
        assert args.repetitions == 10
        assert args.seed == 7


class TestMain:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_unknown_experiment(self, capsys):
        assert main(["bogus"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_single_experiment(self, capsys):
        assert main(["fig5", "-r", "5"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "synthetic-big" in out

    def test_run_sec5(self, capsys):
        assert main(["sec5"]) == 0
        assert "OpenFaaS" in capsys.readouterr().out

    def test_run_chaos_is_deterministic(self, capsys):
        assert main(["chaos", "-r", "10"]) == 0
        first = capsys.readouterr().out
        assert "Chaos recovery" in first
        assert "fault schedule digest" in first
        assert main(["chaos", "-r", "10"]) == 0
        assert capsys.readouterr().out == first

    def test_run_prewarm_reports_the_policy_ladder(self, capsys):
        assert main(["prewarm", "-r", "1", "--requests", "8000"]) == 0
        out = capsys.readouterr().out
        assert "X13" in out
        for policy in ("reactive", "fixed", "histogram", "learned", "oracle"):
            assert policy in out
        assert "predictive beats fixed keep-alive:" in out
        assert "oracle bounds the gap:" in out

    def test_fleet_study_report_ignores_the_worker_count(self, capsys):
        # --workers fans fig3 repetitions out; it must not reach the
        # fleet model (it once divided the shard retry-hop charge).
        reports = []
        for workers in ("1", "2"):
            assert main(["fleet-study", "-r", "1", "-s", "42",
                         "--requests", "20000", "-w", workers]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    def test_all_known_experiments_have_runners(self):
        for name, runner in EXPERIMENTS.items():
            assert callable(runner), name


class TestArgumentValidation:
    @pytest.mark.parametrize("argv,flag", [
        (["fig3", "-r", "0"], "--repetitions"),
        (["fig3", "-r", "-5"], "--repetitions"),
        (["fig3", "-s", "0"], "--seed"),
        (["fig3", "-s", "-1"], "--seed"),
        (["fig3", "-w", "0"], "--workers"),
        (["fig3", "-w", "-2"], "--workers"),
        (["fleet-study", "-r", "0"], "--repetitions"),
        (["fleet-study", "-s", "-1"], "--seed"),
        (["fleet-study", "-w", "0"], "--workers"),
        (["fleet-study", "--requests", "0"], "--requests"),
        (["fleet-study", "--requests", "-3"], "--requests"),
        (["prewarm", "-r", "0"], "--repetitions"),
        (["prewarm", "-r", "-2"], "--repetitions"),
        (["prewarm", "-s", "0"], "--seed"),
        (["prewarm", "-s", "-7"], "--seed"),
        (["prewarm", "--requests", "0"], "--requests"),
        (["prewarm", "--requests", "-1"], "--requests"),
        (["prewarm", "--horizon", "0"], "--horizon"),
        (["prewarm", "--horizon", "-4"], "--horizon"),
        (["prewarm", "--horizon", "1"], "--horizon"),
    ])
    def test_non_positive_knobs_exit_2_with_a_clear_message(
            self, capsys, argv, flag):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert flag in err
        assert "positive" in err

    def test_fleet_report_requires_an_artifact(self, capsys):
        assert main(["fleet-report"]) == 2
        assert "--fleet-in" in capsys.readouterr().err

    def test_validation_runs_before_the_experiment(self, capsys):
        # Even a bogus experiment name with a bad knob reports the
        # knob (exit 2 either way, but the message must be the knob's).
        assert main(["bogus", "-r", "0"]) == 2
        assert "--repetitions" in capsys.readouterr().err
