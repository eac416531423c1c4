"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload fig11-sweep --seed 1 --seconds 30 --trace 0

It starts ``harness.py`` in fresh interpreters with ``src`` on ``PYTHONPATH``:
a few set-up-only processes, then one process that sets up, runs the
workload's ops for ``--seconds`` and checks every output against
``reference.json``.  The last line of standard output is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (and writes a Chrome trace under ``perfbench/out``).
``--smoke`` runs one minimal unit of the workload through the same path.
See ``perfbench/README.md`` for what each workload and metric means.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARNESS = os.path.join(HERE, "harness.py")
WORKLOADS = ("fig11-sweep", "dse-pool", "fleet-serve")
#: Set-up time is the median over this many fresh interpreters.
SETUP_SAMPLES = 5
#: The whole run, every process included, ends within this many seconds.
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {"items_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def run_harness(args, extra, deadline):
    """Run one harness process to completion and return its JSON line."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    command = [sys.executable, HARNESS, "--workload", args.workload,
               "--seed", str(args.seed)] + extra
    timeout_s = max(1.0, deadline - time.monotonic())
    try:
        completed = subprocess.run(command, cwd=ROOT, env=env,
                                   stdout=subprocess.PIPE, timeout=timeout_s,
                                   universal_newlines=True, check=False)
    except subprocess.TimeoutExpired as error:
        raise BenchmarkError(f"harness timed out after {timeout_s:.0f} s") from error
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise BenchmarkError(f"harness exited with code {completed.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one minimal unit of the workload, one set-up")
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 120:
        parser.error("--seconds must be from 1 to 120, so the run fits its budget")
    return args


def benchmark(args):
    """Run the workload and return the result object of the last line."""
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        raise BenchmarkError(f"no source tree at {os.path.join(ROOT, 'src')}; "
                             "run from the root of a checkout")
    deadline = time.monotonic() + RUN_BUDGET_S
    probes = []
    if not args.trace and not args.smoke:
        for _ in range(SETUP_SAMPLES - 1):
            probes.append(run_harness(args, ["--setup-only"], deadline)["setup"])
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        extra.append("--smoke")
    out = run_harness(args, extra, deadline)
    if not out["e2e"]:
        raise BenchmarkError("every op failed; nothing was measured")
    probes.append(out["setup"])
    setups = [probe["setup_s"] for probe in probes]
    host_setups = [probe["host_setup_s"] for probe in probes]

    e2e = dict(out["e2e"], setup_s=statistics.median(setups))
    tail = out["tail"]
    print(f"{args.workload} seed {args.seed}: {out['units']} units, "
          f"{out['attempted']} ops, {out['failed']} failed "
          f"(error_rate {out['failed'] / out['attempted']:.4g}); "
          f"op_tail_s is p{tail['percentile']:.1f} of {tail['samples']} ops; "
          f"setup_s is the median of {len(setups)} fresh interpreters")
    rates = sorted(out["unit_rates"])
    print(f"items_per_s per unit: min {rates[0]:.6g}, median "
          f"{statistics.median(rates):.6g}, max {rates[-1]:.6g}")
    host = out["host"]
    print(f"unscaled host time: items_per_s {host['items_per_s']:.6g}, "
          f"op_p50_s {host['op_p50_s']:.6g}, op_tail_s {host['op_tail_s']:.6g}, "
          f"setup_s {statistics.median(host_setups):.6g}; "
          f"median speed factor {host['speed_factor']:.4g}")
    if args.trace:
        metrics = out["layers"]
        print(f"trace written to {out['trace_file']}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    for name, metric in metrics.items():
        print(f"  {name:<28} {metric['value']:.6g} {metric['unit']}")
    return {"correct": out["failed"] == 0, "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


def main(argv=None):
    args = parse_args(argv)
    try:
        result = benchmark(args)
    except BenchmarkError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
