"""Self-tests of the benchmark: smoke runs, the output check, the contract.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import harness

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def _run(workload, *extra, cwd=ROOT, run=RUN):
    completed = subprocess.run(
        [sys.executable, run, "--workload", workload, "--seconds", "1"]
        + list(extra), cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        universal_newlines=True, timeout=170, check=False)
    return completed


def _result(completed):
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_smoke_run_checks_outputs_and_reports_every_end_to_end_metric(workload):
    result = _result(_run(workload, "--smoke", "--seed", "1", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"]
                for metric in _benchmark_spec()["end_to_end"]}
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} \
        == expected
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_traced_smoke_run_reports_every_per_layer_metric(workload):
    # A seed held out from every recorded figure checks cleanly too.
    result = _result(_run(workload, "--smoke", "--seed", "982451653",
                          "--trace", "1"))
    assert result["correct"] is True
    expected = {metric["name"]: metric["unit"]
                for metric in _benchmark_spec()["per_layer"]}
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} \
        == expected
    if workload == "fig11-sweep":
        assert result["metrics"]["trace.unattributed_share"]["value"] <= 0.10
        assert result["metrics"]["scheduler.calls"]["value"] > 0
    trace = os.path.join(HERE, "out", f"trace-{workload}-seed982451653.json")
    with open(trace, "r", encoding="utf-8") as handle:
        events = json.load(handle)["traceEvents"]
    assert events and all(event["ph"] == "X" for event in events)


def test_perturbed_reference_entry_is_reported_as_a_failure():
    args = harness.parse_args(["--workload", "fleet-serve", "--smoke",
                               "--seed", "5", "--seconds", "1"])
    workload, setup = harness.set_up(args)
    reference = harness.load_reference()
    clean = harness.measure(args, workload, setup, reference)
    assert clean["failed"] == 0 and clean["attempted"] == 3

    perturbed = copy.deepcopy(reference)
    for key, entry in perturbed.items():
        if key.startswith("fleet/"):
            entry["summary"]["p99_latency_s"] *= 1.0 + 1e-12
    dirty = harness.measure(args, workload, setup, perturbed)
    assert dirty["failed"] == dirty["attempted"] == 3


def test_missing_reference_entry_is_a_failure():
    assert harness.check({}, "dse/nowhere/none", {"points": 1}) is not None
    assert harness.check({"dse/nowhere/none": {"points": 1}}, "dse/nowhere/none",
                         {"points": 1}) is None


def test_without_a_source_tree_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = _run("fig11-sweep", "--seed", "1", "--trace", "0",
                     cwd=str(tmp_path),
                     run=str(tmp_path / "perfbench" / "run.py"))
    assert completed.returncode != 0
    assert not completed.stdout.strip()


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    samples = [float(value) for value in range(1, 41)]
    value, percentile, count = harness.tail(samples)
    assert count == 40 and value == 30.0 and percentile == 75.0
    assert sum(sample > value for sample in samples) == 10
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
