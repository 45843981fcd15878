"""Unit tests for the CI perf-regression gate (``benchmarks/regress.py``).

The acceptance criterion from the PR: the gate must demonstrably fail on
an injected 30% throughput regression (and on >2x p99 growth), pass on
identical reports, and fail when a required report is missing.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

_REGRESS_PATH = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "regress.py"
)
_spec = importlib.util.spec_from_file_location("chisel_regress",
                                               _REGRESS_PATH)
regress = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regress)


def healthy_reports():
    return {
        "serve_bench.json": {
            "snapshot_klookups_per_sec": 400.0,
            "scalar_klookups_per_sec": 30.0,
            "update_lock_hold_p99_ms": 1.5,
        },
        "metrics_smoke.json": {
            "noop_us_per_lookup": 20.0,
            "instrumented_us_per_lookup": 21.0,
        },
        "shard_bench.json": {
            "runs": [
                {"workers": 1, "aggregate_klookups_per_sec": 400.0},
                {"workers": 2, "aggregate_klookups_per_sec": 700.0},
                {"workers": 4, "aggregate_klookups_per_sec": 1100.0},
            ],
        },
        "backend_ablation.json": {
            "backends": {
                "bloomier": {"batch_klookups_per_sec": 900.0},
                "fuse": {"batch_klookups_per_sec": 880.0},
            },
        },
        "flat_bench.json": {
            "flat_klookups_per_sec": 2000.0,
            "flat_vs_scalar": 38.0,
        },
        "store_bench.json": {
            "coldstart_speedup": 2.3,
            "first_batch_ok": 1.0,
        },
        "replicate.json": {
            "traffic_advantage": 24.5,
            "converged_ok": 1.0,
        },
    }


class TestCompare:
    def test_identical_reports_pass(self):
        baselines = healthy_reports()
        report = regress.compare_reports(baselines,
                                         copy.deepcopy(baselines))
        assert report["passed"], report["failures"]
        assert len(report["checked"]) == len(regress.CHECKS)
        assert not report["skipped"]

    def test_injected_30_percent_throughput_drop_fails(self):
        """The acceptance criterion: a 30% drop must trip the gate."""
        baselines = healthy_reports()
        currents = copy.deepcopy(baselines)
        currents["serve_bench.json"]["snapshot_klookups_per_sec"] = 280.0
        report = regress.compare_reports(baselines, currents)
        assert not report["passed"]
        assert any("snapshot_klookups_per_sec" in failure
                   and "throughput dropped 30.0%" in failure
                   for failure in report["failures"]), report["failures"]

    def test_24_percent_drop_is_within_tolerance(self):
        baselines = healthy_reports()
        currents = copy.deepcopy(baselines)
        currents["serve_bench.json"]["snapshot_klookups_per_sec"] = 304.0
        assert regress.compare_reports(baselines, currents)["passed"]

    def test_p99_growth_over_2x_fails(self):
        baselines = healthy_reports()
        currents = copy.deepcopy(baselines)
        currents["serve_bench.json"]["update_lock_hold_p99_ms"] = 3.2
        report = regress.compare_reports(baselines, currents)
        assert not report["passed"]
        assert any("update_lock_hold_p99_ms" in failure
                   and "latency grew" in failure
                   for failure in report["failures"])

    def test_sub_floor_latency_noise_is_ignored(self):
        """Microsecond-scale jitter below the absolute floor must not
        trip the 2x rule even when the ratio is huge."""
        baselines = healthy_reports()
        baselines["serve_bench.json"]["update_lock_hold_p99_ms"] = 0.01
        currents = copy.deepcopy(baselines)
        currents["serve_bench.json"]["update_lock_hold_p99_ms"] = 0.04
        assert regress.compare_reports(baselines, currents)["passed"]

    def test_sharded_throughput_regression_fails(self):
        baselines = healthy_reports()
        currents = copy.deepcopy(baselines)
        currents["shard_bench.json"]["runs"][2][
            "aggregate_klookups_per_sec"] = 500.0
        report = regress.compare_reports(baselines, currents)
        assert not report["passed"]
        assert any("runs[workers=4]" in failure
                   for failure in report["failures"])

    def test_missing_required_current_file_fails(self):
        baselines = healthy_reports()
        currents = copy.deepcopy(baselines)
        del currents["shard_bench.json"]
        report = regress.compare_reports(baselines, currents)
        assert not report["passed"]
        assert any("shard_bench.json" in failure and "missing" in failure
                   for failure in report["failures"])

    def test_absent_file_checks_are_named_in_skips(self):
        """Checks on a missing current file must be listed by metric
        name, never silently dropped from the summary."""
        baselines = healthy_reports()
        currents = copy.deepcopy(baselines)
        del currents["shard_bench.json"]
        report = regress.compare_reports(baselines, currents)
        for workers in (1, 2, 4):
            metric = f"runs[workers={workers}].aggregate_klookups_per_sec"
            assert any(metric in note and "absent" in note
                       for note in report["skipped"]), report["skipped"]

    def test_missing_baseline_metric_is_skipped_not_failed(self):
        """A 4-worker run recorded on CI must not fail against a baseline
        written on a smaller box (and vice versa)."""
        baselines = healthy_reports()
        baselines["shard_bench.json"]["runs"] = baselines[
            "shard_bench.json"]["runs"][:2]
        currents = healthy_reports()
        report = regress.compare_reports(baselines, currents)
        assert report["passed"]
        assert any("runs[workers=4]" in note for note in report["skipped"])

    def test_current_metric_not_measured_is_skipped(self):
        baselines = healthy_reports()
        currents = healthy_reports()
        currents["shard_bench.json"]["runs"] = currents[
            "shard_bench.json"]["runs"][:2]
        report = regress.compare_reports(baselines, currents)
        assert report["passed"]
        assert any("not measured" in note for note in report["skipped"])


class TestFloorChecks:
    """The flat-datapath speedup bar (a baseline-independent ratio)."""

    def test_ratio_below_floor_fails(self):
        currents = healthy_reports()
        currents["flat_bench.json"]["flat_vs_scalar"] = 20.0
        report = regress.compare_reports(healthy_reports(), currents)
        assert not report["passed"]
        assert any("flat_vs_scalar" in failure and "floor" in failure
                   for failure in report["failures"]), report["failures"]

    def test_ratio_at_floor_passes(self):
        currents = healthy_reports()
        currents["flat_bench.json"]["flat_vs_scalar"] = \
            regress.FLAT_VS_SCALAR_FLOOR
        assert regress.compare_reports(healthy_reports(),
                                       currents)["passed"]

    def test_missing_floor_metric_fails(self):
        """Every floor metric is always emitted, so one missing from a
        report that is present means the bench broke: fail, not skip."""
        currents = healthy_reports()
        del currents["flat_bench.json"]["flat_vs_scalar"]
        report = regress.compare_reports(healthy_reports(), currents)
        assert not report["passed"]
        assert any("flat_vs_scalar" in failure and "missing" in failure
                   for failure in report["failures"]), report["failures"]

    def test_floor_ignores_baseline_value(self):
        """Committing a weaker baseline must not weaken the bar."""
        baselines = healthy_reports()
        baselines["flat_bench.json"]["flat_vs_scalar"] = 1.0
        currents = healthy_reports()
        currents["flat_bench.json"]["flat_vs_scalar"] = 20.0
        report = regress.compare_reports(baselines, currents)
        assert not report["passed"]

    def test_replication_floors(self):
        """traffic_advantage >= 2 and converged_ok == 1 are the bars."""
        currents = healthy_reports()
        currents["replicate.json"]["traffic_advantage"] = 1.5
        report = regress.compare_reports(healthy_reports(), currents)
        assert not report["passed"]
        assert any("traffic_advantage" in failure
                   for failure in report["failures"])

        currents = healthy_reports()
        currents["replicate.json"]["converged_ok"] = 0.0
        report = regress.compare_reports(healthy_reports(), currents)
        assert not report["passed"]
        assert any("converged_ok" in failure
                   for failure in report["failures"])


class TestResolve:
    def test_dotted_and_selector_paths(self):
        document = {"a": {"b": 2.5},
                    "runs": [{"workers": 2, "rate": 7.0}]}
        assert regress.resolve(document, "a.b") == 2.5
        assert regress.resolve(document, "runs[workers=2].rate") == 7.0
        assert regress.resolve(document, "runs[workers=4].rate") is None
        assert regress.resolve(document, "a.missing") is None
        assert regress.resolve(None, "a.b") is None

    def test_non_numeric_values_are_not_metrics(self):
        assert regress.resolve({"flag": True}, "flag") is None
        assert regress.resolve({"name": "x"}, "name") is None


class TestMainEntryPoint:
    def test_end_to_end_against_directories(self, tmp_path):
        baselines_dir = tmp_path / "baselines"
        results_dir = tmp_path / "results"
        baselines_dir.mkdir()
        results_dir.mkdir()
        for name, payload in healthy_reports().items():
            (baselines_dir / name).write_text(json.dumps(payload))
            (results_dir / name).write_text(json.dumps(payload))
        report_path = tmp_path / "regress.json"
        assert regress.main([
            "--results", str(results_dir),
            "--baselines", str(baselines_dir),
            "--report", str(report_path),
        ]) == 0
        assert json.loads(report_path.read_text())["passed"]

        # Inject the 30% regression and the exit code must flip.
        broken = healthy_reports()
        broken["serve_bench.json"]["snapshot_klookups_per_sec"] = 280.0
        (results_dir / "serve_bench.json").write_text(
            json.dumps(broken["serve_bench.json"]))
        assert regress.main([
            "--results", str(results_dir),
            "--baselines", str(baselines_dir),
        ]) == 1

    def test_report_written_even_on_failure(self, tmp_path):
        """The CI artifact must exist (and say why) when the gate fails."""
        baselines_dir = tmp_path / "baselines"
        results_dir = tmp_path / "results"
        baselines_dir.mkdir()
        results_dir.mkdir()
        broken = healthy_reports()
        broken["serve_bench.json"]["snapshot_klookups_per_sec"] = 1.0
        for name, payload in healthy_reports().items():
            (baselines_dir / name).write_text(json.dumps(payload))
        for name, payload in broken.items():
            (results_dir / name).write_text(json.dumps(payload))
        report_path = tmp_path / "regress.json"
        assert regress.main([
            "--results", str(results_dir),
            "--baselines", str(baselines_dir),
            "--report", str(report_path),
        ]) == 1
        written = json.loads(report_path.read_text())
        assert not written["passed"]
        assert written["failures"]

    def test_report_written_even_on_crash(self, tmp_path, monkeypatch):
        """An internal error must still leave a report artifact."""
        def boom(*_args, **_kwargs):
            raise RuntimeError("synthetic gate crash")

        monkeypatch.setattr(regress, "compare_reports", boom)
        report_path = tmp_path / "regress.json"
        assert regress.main([
            "--results", str(tmp_path),
            "--baselines", str(tmp_path),
            "--report", str(report_path),
        ]) == 2
        written = json.loads(report_path.read_text())
        assert not written["passed"]
        assert "synthetic gate crash" in written["error"]

    def test_github_error_annotations(self, tmp_path, monkeypatch, capsys):
        """Failures emit ::error:: annotations naming the metric and the
        baseline-refresh command when running under GitHub Actions."""
        monkeypatch.setenv("GITHUB_ACTIONS", "true")
        baselines_dir = tmp_path / "baselines"
        results_dir = tmp_path / "results"
        baselines_dir.mkdir()
        results_dir.mkdir()
        broken = healthy_reports()
        broken["serve_bench.json"]["snapshot_klookups_per_sec"] = 1.0
        for name, payload in healthy_reports().items():
            (baselines_dir / name).write_text(json.dumps(payload))
        for name, payload in broken.items():
            (results_dir / name).write_text(json.dumps(payload))
        assert regress.main([
            "--results", str(results_dir),
            "--baselines", str(baselines_dir),
        ]) == 1
        out = capsys.readouterr().out
        assert "::error title=perf regression: " in out
        assert "serve_bench.json:snapshot_klookups_per_sec" in out
        assert "serve-bench --smoke --json" in out

    def test_no_annotations_outside_actions(self, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.delenv("GITHUB_ACTIONS", raising=False)
        regress._annotate_failures(["x.json:metric: broke"])
        assert "::error" not in capsys.readouterr().out
