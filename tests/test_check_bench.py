"""Tests for the benchmark-regression gate (tools/check_bench.py)."""

import importlib.util
import json
import pathlib
import sys

import pytest

_TOOL = (pathlib.Path(__file__).resolve().parent.parent
         / "tools" / "check_bench.py")
_spec = importlib.util.spec_from_file_location("check_bench", _TOOL)
check_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench)


BENCH = {
    "schema_version": 1,
    "config": {"rng_seed": 7, "strict": False},
    "kernels": {
        "log_gabor_bank": {"before_ms": 200.0, "after_ms": 90.0,
                           "speedup": 2.2},
        "ransac_rigid_2d": {"before_ms": 4.4, "after_ms": 1.5,
                            "speedup": 2.9, "num_matches": 47},
    },
    "end_to_end": {"before_ms": 900.0, "after_ms": 300.0, "speedup": 3.0,
                   "inliers_bv": 23, "strict": False},
    "service": {"responded": 80, "sustained_rps": 10.0, "p99_ms": 500.0,
                "peak_rss_mb": 900.0},
}


@pytest.fixture()
def layout(tmp_path, monkeypatch):
    """A bench file and its identical committed baseline."""
    baselines = tmp_path / "baselines"
    baselines.mkdir()
    bench = tmp_path / "BENCH_x.json"
    bench.write_text(json.dumps(BENCH))
    (baselines / "BENCH_x.json").write_text(json.dumps(BENCH))
    monkeypatch.delenv("REPRO_BENCH_STRICT", raising=False)
    return bench, baselines


def run(bench, baselines, *extra):
    return check_bench.main([str(bench), "--baselines-dir",
                             str(baselines), *extra])


def rewrite(bench, **overrides):
    data = json.loads(bench.read_text())
    for dotted, value in overrides.items():
        node = data
        *parents, leaf = dotted.split(".")
        for key in parents:
            node = node[key]
        node[leaf] = value
    bench.write_text(json.dumps(data))


class TestExitCodes:
    def test_identical_passes(self, layout, capsys):
        bench, baselines = layout
        assert run(bench, baselines) == 0
        assert "within budget" in capsys.readouterr().out

    def test_metric_drift_fails(self, layout, capsys):
        bench, baselines = layout
        rewrite(bench, **{"end_to_end.inliers_bv": 9})
        assert run(bench, baselines) == 2
        out = capsys.readouterr().out
        assert "FAIL" in out and "inliers_bv" in out

    def test_timing_drift_warns_by_default(self, layout, capsys):
        bench, baselines = layout
        rewrite(bench, **{"end_to_end.after_ms": 900.0})
        assert run(bench, baselines) == 0
        assert "WARN" in capsys.readouterr().out

    def test_timing_drift_fails_under_strict_flag(self, layout):
        bench, baselines = layout
        rewrite(bench, **{"end_to_end.after_ms": 900.0})
        assert run(bench, baselines, "--strict") == 2

    def test_timing_drift_fails_under_strict_env(self, layout, monkeypatch):
        bench, baselines = layout
        rewrite(bench, **{"end_to_end.after_ms": 900.0})
        monkeypatch.setenv("REPRO_BENCH_STRICT", "1")
        assert run(bench, baselines) == 2

    def test_timing_within_budget_passes(self, layout):
        bench, baselines = layout
        rewrite(bench, **{"end_to_end.after_ms": 360.0})  # 1.2x < 1.5x
        assert run(bench, baselines) == 0

    def test_speedup_drop_warns(self, layout, capsys):
        bench, baselines = layout
        rewrite(bench, **{"kernels.log_gabor_bank.speedup": 1.0})
        assert run(bench, baselines) == 0
        assert "speedup" in capsys.readouterr().out

    def test_missing_bench_file_is_usage_error(self, layout):
        _bench, baselines = layout
        assert run(baselines / "nope.json", baselines) == 1

    def test_missing_baseline_warns_and_passes(self, layout, capsys):
        bench, baselines = layout
        (baselines / "BENCH_x.json").unlink()
        assert run(bench, baselines) == 0
        assert "no baseline" in capsys.readouterr().out

    def test_schema_drift_fails(self, layout, capsys):
        bench, baselines = layout
        data = json.loads(bench.read_text())
        del data["kernels"]["ransac_rigid_2d"]
        bench.write_text(json.dumps(data))
        assert run(bench, baselines) == 2
        assert "missing from current" in capsys.readouterr().out

    def test_strict_flag_never_masks_metric_drift(self, layout):
        bench, baselines = layout
        rewrite(bench, **{"end_to_end.inliers_bv": 9})
        assert run(bench, baselines, "--strict") == 2


class TestServiceFields:
    def test_throughput_drop_warns_inverted(self, layout, capsys):
        """``*_rps`` is larger-is-better: halving it is a 2x slowdown."""
        bench, baselines = layout
        rewrite(bench, **{"service.sustained_rps": 5.0})
        assert run(bench, baselines) == 0
        assert "sustained_rps" in capsys.readouterr().out

    def test_throughput_gain_passes_clean(self, layout, capsys):
        bench, baselines = layout
        rewrite(bench, **{"service.sustained_rps": 20.0})
        assert run(bench, baselines) == 0
        assert "WARN" not in capsys.readouterr().out

    def test_memory_ceiling_growth_warns(self, layout, capsys):
        bench, baselines = layout
        rewrite(bench, **{"service.peak_rss_mb": 2000.0})
        assert run(bench, baselines) == 0
        assert "peak_rss_mb" in capsys.readouterr().out

    def test_memory_growth_fails_under_strict(self, layout):
        bench, baselines = layout
        rewrite(bench, **{"service.peak_rss_mb": 2000.0})
        assert run(bench, baselines, "--strict") == 2

    def test_response_count_is_deterministic(self, layout):
        bench, baselines = layout
        rewrite(bench, **{"service.responded": 79})
        assert run(bench, baselines) == 2


class TestClassification:
    def test_strict_field_is_ignored(self, layout):
        bench, baselines = layout
        rewrite(bench, **{"end_to_end.strict": True,
                          "config.strict": True})
        assert run(bench, baselines) == 0

    def test_config_drift_is_metric_drift(self, layout):
        bench, baselines = layout
        rewrite(bench, **{"config.rng_seed": 8})
        assert run(bench, baselines) == 2

    def test_real_baselines_gate_their_own_bench_outputs(self, capsys):
        """The committed baselines pass when gated against themselves: a
        bench output is a copy of its baseline right after make
        bench-baseline.  Only committed files are read; bench outputs
        are untracked, so a clean checkout has none."""
        baselines = (_TOOL.parent.parent / "benchmarks" / "results"
                     / "baselines")
        code = check_bench.main(
            [str(baselines / "BENCH_stage1.json"),
             str(baselines / "BENCH_pipeline.json"),
             "--baselines-dir", str(baselines)])
        assert code == 0, capsys.readouterr().out
