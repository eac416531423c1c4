"""Tests for the experiment runner, reports, and CLI <-> spec equivalence.

The load-bearing contract of the experiment layer: a flag invocation and an
experiment file carrying the mapping those flags compile into are *the same
program*.  Each sub-command is pinned by running both paths and comparing the
stdout and the canonical report byte for byte (only wall-clock timing lines
and the run-varying ``timing`` / ``environment`` report sections may differ).

The golden corpus under ``tests/golden/experiments/`` then freezes one
canonical report per experiment kind; regenerate (after an intentional
behaviour change) with::

    PYTHONPATH=src python tests/golden_scheduler.py --write-experiments
"""

import json
import re

import pytest

import repro
from repro.cli import main
from repro.exceptions import SpecError
from repro.experiment import (
    BaselineDelta,
    canonical_report,
    compare_reports,
    load_report,
    metric_direction,
    write_report,
)

from golden_scheduler import (
    experiment_report_file,
    experiment_spec_files,
    run_experiment_report,
)


_ELAPSED = re.compile(r"\b\d+(?:\.\d+)? s\b")


def _strip_timing_lines(output: str) -> str:
    """Drop or mask the wall-clock fragments that legitimately vary per run:
    the scheduler's ``scheduling time:`` line and the elapsed seconds the DSE
    header embeds inline (``... (228 points, 0.1 s)``)."""
    lines = (line for line in output.splitlines()
             if not line.startswith("scheduling time:"))
    return "\n".join(_ELAPSED.sub("<elapsed>", line) for line in lines)


def _write_spec(tmp_path, mapping) -> str:
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(mapping) + "\n", encoding="utf-8")
    return str(path)


def _canonical(path: str):
    report = load_report(path)
    assert report["herald_version"] == repro.__version__
    return canonical_report(report)


class TestCliSpecEquivalence:
    """`herald <cmd> --flags` == `herald run file.json` for the same mapping."""

    def _run_both(self, tmp_path, capsys, flag_argv, mapping):
        flag_report = str(tmp_path / "flags.report.json")
        file_report = str(tmp_path / "file.report.json")
        assert main(flag_argv + ["--report", flag_report]) == 0
        flag_output = capsys.readouterr().out
        spec_file = _write_spec(tmp_path, mapping)
        assert main(["run", spec_file, "--report", file_report]) == 0
        file_output = capsys.readouterr().out
        assert _strip_timing_lines(flag_output) == _strip_timing_lines(file_output)
        assert _canonical(flag_report) == _canonical(file_report)
        return _canonical(flag_report)

    def test_schedule(self, tmp_path, capsys):
        report = self._run_both(
            tmp_path, capsys,
            ["schedule", "--workload", "mlperf", "--design", "rda"],
            {"kind": "schedule", "workload": "mlperf", "chip": "edge",
             "design": "rda", "metric": "edp"})
        assert report["kind"] == "schedule"
        assert set(report["metrics"]) == {"latency_s", "energy_mj", "edp_js",
                                          "load_imbalance"}

    def test_dse(self, tmp_path, capsys):
        report = self._run_both(
            tmp_path, capsys,
            ["dse", "--workload", "arvr-a", "--pe-steps", "4",
             "--bw-steps", "1"],
            {"kind": "dse", "workload": "arvr-a", "chip": "edge",
             "search": {"pe_steps": 4, "bw_steps": 1}, "exec": {"jobs": 1}})
        assert report["details"]["best_designs"]
        assert any(name.endswith("_edp_js") for name in report["metrics"])

    def test_serve(self, tmp_path, capsys):
        report = self._run_both(
            tmp_path, capsys,
            ["serve", "--design", "fda-nvdla", "--frames", "2",
             "--sustained-probes", "3"],
            {"kind": "serve", "workload": "arvr-a", "chip": "edge",
             "design": "fda-nvdla", "metric": "edp",
             "streaming": {"frames": 2, "fps_scale": 1.0, "jitter_ms": 0.0,
                           "seed": 0},
             "sustained": {"enabled": True, "lo": 1.0 / 256.0, "hi": 8.0,
                           "probes": 3, "tolerance": 0.0},
             "optimize_sla": False})
        assert "sustained_fps_factor" in report["metrics"]

    def test_fleet(self, tmp_path, capsys):
        report = self._run_both(
            tmp_path, capsys,
            ["fleet", "--design", "rda", "--chips", "2", "--policy",
             "round-robin", "--frames", "2", "--fps-scale", "2.0"],
            {"kind": "fleet", "workload": "arvr-a", "chip": "edge",
             "design": "rda", "metric": "edp",
             "streaming": {"frames": 2, "fps_scale": 2.0, "jitter_ms": 0.0,
                           "seed": 0},
             "fleet": {"chips": 2, "policy": "round-robin"},
             "min_chips": {"enabled": False, "max_chips": 8},
             "exec": {"jobs": 1}})
        assert report["details"]["policy"] == "round-robin"

    def test_closed_loop_with_fault(self, tmp_path, capsys):
        report = self._run_both(
            tmp_path, capsys,
            ["fleet", "--design", "rda", "--chips", "2", "--frames", "2",
             "--fps-scale", "2.0", "--online", "--fault", "die:0@0.02"],
            {"kind": "closed-loop", "workload": "arvr-a", "chip": "edge",
             "design": "rda", "metric": "edp",
             "streaming": {"frames": 2, "fps_scale": 2.0, "jitter_ms": 0.0,
                           "seed": 0},
             "fleet": {"chips": 2, "policy": "earliest-completion"},
             "min_chips": {"enabled": False, "max_chips": 8},
             "exec": {"jobs": 1},
             "faults": ["die:0@0.02"]})
        assert "redispatched_frames" in report["metrics"]


class TestGoldenExperimentCorpus:
    """Every corpus spec reproduces its frozen report bit for bit."""

    @pytest.mark.parametrize("spec_path", experiment_spec_files(),
                             ids=lambda path: path.rsplit("/", 1)[-1])
    def test_frozen_report(self, spec_path):
        with open(experiment_report_file(spec_path), "r",
                  encoding="utf-8") as handle:
            frozen = json.load(handle)
        current = run_experiment_report(spec_path)
        # The version stamp tracks releases, not behaviour: normalise it so
        # a version bump alone never invalidates the corpus.
        current.pop("herald_version"), frozen.pop("herald_version")
        assert current == frozen

    def test_corpus_spans_every_kind(self):
        kinds = set()
        for spec_path in experiment_spec_files():
            with open(experiment_report_file(spec_path), "r",
                      encoding="utf-8") as handle:
                kinds.add(json.load(handle)["kind"])
        assert kinds == {"schedule", "dse", "serve", "fleet", "closed-loop"}


class TestReports:
    def test_write_load_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "r.json")
        assert main(["schedule", "--design", "rda", "--report", path]) == 0
        capsys.readouterr()
        report = load_report(path)
        assert report["schema"] == "herald-report/1"
        assert report["herald_version"] == repro.__version__
        assert report["environment"]["python"]
        assert "scheduling_time_s" in report["timing"]
        assert "scheduling_time_s" not in report["metrics"]

    def test_load_rejects_non_report(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"schema": "other/9"}', encoding="utf-8")
        with pytest.raises(SpecError, match="not a herald-report/1 report"):
            load_report(str(path))

    def test_metric_direction(self):
        assert metric_direction("p99_latency_s") == "lower"
        assert metric_direction("deadline_miss_rate") == "lower"
        assert metric_direction("sustained_fps_factor") == "higher"
        assert metric_direction("chip_utilisation") == "higher"

    def test_delta_regression_respects_direction(self):
        worse_latency = BaselineDelta("p99_latency_s", 1.0, 1.2, "lower")
        better_latency = BaselineDelta("p99_latency_s", 1.0, 0.8, "lower")
        worse_fps = BaselineDelta("sustained_fps_factor", 2.0, 1.5, "higher")
        assert worse_latency.regressed()
        assert not better_latency.regressed()
        assert worse_fps.regressed()
        assert not worse_latency.regressed(tolerance=0.5)

    def test_compare_reports_missing_and_added(self):
        current = {"metrics": {"a": 1.0, "c": 3.0}}
        baseline = {"metrics": {"a": 1.0, "b": 2.0}}
        result = compare_reports(current, baseline)
        assert result.missing == ["b"]
        assert result.added == ["c"]
        assert not result.ok  # a vanished baseline metric fails the gate


class TestRunCommand:
    def test_baseline_regression_exit_code(self, tmp_path, capsys):
        spec_file = _write_spec(tmp_path, {"kind": "schedule",
                                           "design": "rda"})
        report_path = str(tmp_path / "run.report.json")
        assert main(["run", spec_file, "--report", report_path]) == 0
        capsys.readouterr()

        # Identical baseline: clean pass.
        assert main(["run", spec_file, "--baseline", report_path]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

        # A baseline claiming better latency: this run regresses -> exit 1.
        baseline = load_report(report_path)
        baseline["metrics"]["latency_s"] *= 0.5
        better_path = str(tmp_path / "better.report.json")
        write_report(baseline, better_path)
        assert main(["run", spec_file, "--baseline", better_path]) == 1
        output = capsys.readouterr().out
        assert "REGRESSED" in output and "latency_s" in output

        # A generous tolerance absorbs the same delta.
        assert main(["run", spec_file, "--baseline", better_path,
                     "--tolerance", "2.0"]) == 0
        capsys.readouterr()

    def test_malformed_baseline_metric_is_exit_2(self, tmp_path, capsys):
        spec_file = _write_spec(tmp_path, {"kind": "schedule",
                                           "design": "rda"})
        report_path = str(tmp_path / "run.report.json")
        assert main(["run", spec_file, "--report", report_path]) == 0
        capsys.readouterr()
        baseline = load_report(report_path)
        baseline["metrics"]["latency_s"] = "fast"
        bad_path = str(tmp_path / "bad.report.json")
        write_report(baseline, bad_path)
        assert main(["run", spec_file, "--baseline", bad_path]) == 2
        error = capsys.readouterr().err
        assert bad_path in error
        assert "metric 'latency_s' is not a number ('fast')" in error

    def test_missing_file_is_exit_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.yaml")]) == 2
        assert "cannot read experiment file" in capsys.readouterr().err

    def test_malformed_spec_is_exit_2(self, tmp_path, capsys):
        spec_file = _write_spec(tmp_path, {"kind": "schedule", "frames": 2})
        assert main(["run", spec_file]) == 2
        assert "frames: unknown key" in capsys.readouterr().err

    def test_yaml_experiment_end_to_end(self, tmp_path, capsys):
        path = tmp_path / "exp.yaml"
        path.write_text("kind: schedule\ndesign: rda\nworkload: mlperf\n",
                        encoding="utf-8")
        assert main(["run", str(path)]) == 0
        assert "rda-edge" in capsys.readouterr().out


class TestReportDiffCommand:
    def test_identical_reports_pass(self, tmp_path, capsys):
        path = str(tmp_path / "r.json")
        assert main(["schedule", "--design", "rda", "--report", path]) == 0
        capsys.readouterr()
        assert main(["report-diff", path, path]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_regressed_report_fails(self, tmp_path, capsys):
        path = str(tmp_path / "r.json")
        assert main(["schedule", "--design", "rda", "--report", path]) == 0
        capsys.readouterr()
        baseline = load_report(path)
        baseline["metrics"]["energy_mj"] *= 0.5
        baseline_path = str(tmp_path / "b.json")
        write_report(baseline, baseline_path)
        assert main(["report-diff", path, baseline_path]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    @pytest.mark.parametrize("metrics, named", [
        ({"energy_mj": "fast"}, "metric 'energy_mj' is not a number"),
        ({"energy_mj": True}, "metric 'energy_mj' is not a number"),
        ({"energy_mj": None}, "metric 'energy_mj' is not a number"),
        ([1.0, 2.0], "metrics must be a mapping"),
    ])
    def test_malformed_baseline_metrics_are_exit_2(self, tmp_path, capsys,
                                                   metrics, named):
        path = str(tmp_path / "r.json")
        assert main(["schedule", "--design", "rda", "--report", path]) == 0
        capsys.readouterr()
        baseline = load_report(path)
        baseline["metrics"] = (dict(baseline["metrics"], **metrics)
                               if isinstance(metrics, dict) else metrics)
        bad_path = str(tmp_path / "bad.json")
        write_report(baseline, bad_path)
        assert main(["report-diff", path, bad_path]) == 2
        error = capsys.readouterr().err
        assert bad_path in error and named in error

    def test_missing_report_is_exit_2(self, tmp_path, capsys):
        assert main(["report-diff", str(tmp_path / "a.json"),
                     str(tmp_path / "b.json")]) == 2
        assert "cannot read report" in capsys.readouterr().err


class TestDescribeRegistries:
    def test_describe_lists_new_registries(self, capsys):
        assert main(["describe"]) == 0
        output = capsys.readouterr().out
        for expected in ("earliest-completion", "poisson", "die:CHIP@T",
                         "closed-loop"):
            assert expected in output
