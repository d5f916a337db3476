"""Tests for the command-line interface."""

import json
import pathlib

import pytest

from repro.cli import build_parser, main
from repro.experiments.registry import all_specs, experiment_names


class TestParser:
    def test_every_experiment_registered(self):
        parser = build_parser()
        for name in experiment_names():
            args = parser.parse_args([name, "--pairs", "3"])
            assert args.command == name
            assert args.pairs == 3

    def test_runtime_flags(self):
        parser = build_parser()
        args = parser.parse_args(["fig7", "--workers", "4", "--timings"])
        assert args.workers == 4
        assert args.timings is True
        args = parser.parse_args(["fig7"])
        assert args.workers == 1
        assert args.timings is False
        assert args.profile is None

    def test_profile_flag(self):
        parser = build_parser()
        assert parser.parse_args(["fig7", "--profile"]).profile == 25
        assert parser.parse_args(["fig7", "--profile", "10"]).profile == 10

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in experiment_names():
            assert name in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])


class TestExecution:
    def test_runs_small_experiment(self, capsys):
        assert main(["bandwidth", "--pairs", "2", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "Bandwidth" in out

    def test_writes_output_file(self, tmp_path, capsys):
        assert main(["bandwidth", "--pairs", "2", "--seed", "5",
                     "--output", str(tmp_path)]) == 0
        saved = tmp_path / "bandwidth.txt"
        assert saved.exists()
        assert "Bandwidth" in saved.read_text()

    def test_timings_report_printed(self, capsys):
        assert main(["dataset-stats", "--pairs", "2", "--timings"]) == 0
        out = capsys.readouterr().out
        assert "Sweep timings" in out

    def test_multi_timings_count_every_recovery(self, tmp_path, capsys):
        """The multi-vehicle study's unit is a candidate-pair recovery:
        its timings report counts one per recovery the trace records."""
        trace = tmp_path / "trace.jsonl"
        assert main(["multi", "--vehicles", "4", "--pairs", "2",
                     "--workers", "2", "--timings",
                     "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        header = next(line for line in out.splitlines()
                      if line.startswith("Sweep timings"))
        pairs = int(header.split("—")[1].split()[0])
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        metrics = next(event for event in events
                       if event["type"] == "metrics")
        assert pairs > 0
        assert pairs == metrics["counters"]["pipeline/recoveries"]

    def test_profile_report_printed(self, capsys):
        assert main(["bandwidth", "--pairs", "2", "--profile", "5"]) == 0
        out = capsys.readouterr().out
        assert "cumulative" in out
        assert "ncalls" in out

    def test_every_runner_accepts_standard_kwargs(self):
        """All registered runners share the uniform
        (num_pairs, seed, *, workers) contract the CLI relies on."""
        import inspect
        for spec in all_specs():
            params = inspect.signature(spec.runner).parameters
            assert "num_pairs" in params, spec.name
            assert "seed" in params, spec.name
            assert "workers" in params, spec.name
            assert params["workers"].kind is \
                inspect.Parameter.KEYWORD_ONLY, spec.name


class TestRemovedAlias:
    def test_experiments_table_gone(self):
        """The PR-1 ``cli.EXPERIMENTS`` shim is removed; the registry
        is the one lookup surface."""
        import repro.cli as cli
        with pytest.raises(AttributeError):
            cli.EXPERIMENTS

    def test_unknown_attribute_raises(self):
        import repro.cli as cli
        with pytest.raises(AttributeError):
            cli.NOPE


class TestExperimentOptions:
    def test_tier_flag_parses(self):
        parser = build_parser()
        args = parser.parse_args(["bandwidth", "--tier", "keypoints",
                                  "--adaptive"])
        assert args.tier == "keypoints"
        assert args.adaptive is True

    def test_tier_flag_scoped_to_bandwidth(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["fig7", "--tier", "keypoints"])

    def test_rejects_unknown_tier(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["bandwidth", "--tier", "hologram"])

    def test_grid_path_via_cli(self, capsys):
        assert main(["bandwidth", "--pairs", "2", "--seed", "5",
                     "--tier", "boxes-only"]) == 0
        out = capsys.readouterr().out
        assert "Comms grid" in out
        assert "boxes-only" in out
