#!/usr/bin/env python
"""CI chaos gate: seeded fault injection must not change any result.

Runs one category-diverse bag of evaluation tasks through every resilient
execution configuration under a deterministic :class:`ChaosSpec` — serial
with simulated faults, the process pool with simulated faults, and the
process pool with *real* faults (workers ``os._exit``, over-budget sleeps
tripping the stall watchdog) — and requires the design metrics of every run
to be bit-identical to an undisturbed :class:`SerialBackend` baseline.

Also pins the degraded mode: with permanently doomed tasks and
``partial_ok``, exactly the doomed tasks are reported as failures and every
survivor matches the baseline.

Usage: ``PYTHONPATH=src python scripts/chaos_check.py --seed 7``
Exit code 0 on bit-identity, 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import sys

from repro.accel.builders import enumerate_fdas, make_hda, make_rda
from repro.accel.classes import ACCELERATOR_CLASSES
from repro.dataflow.styles import NVDLA, SHIDIANNAO
from repro.exec import (
    ChaosSpec,
    EvaluationTask,
    ProcessPoolBackend,
    RetryPolicy,
    SerialBackend,
)
from repro.maestro.cost import CostModel
from repro.workloads import workload_by_name


def _metrics(results):
    return [(r.design.name, r.latency_s, r.energy_mj, r.edp) for r in results]


def _task_bag(chip_name: str, workload_name: str):
    chip = ACCELERATOR_CLASSES[chip_name]
    workload = workload_by_name(workload_name)
    designs = list(enumerate_fdas(chip))
    designs.append(make_rda(chip))
    designs.append(make_hda(chip, [NVDLA, SHIDIANNAO]))
    return [EvaluationTask(i, design, workload, category=design.kind.value)
            for i, design in enumerate(designs)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="chaos seed")
    parser.add_argument("--chip", default="edge",
                        choices=sorted(ACCELERATOR_CLASSES))
    parser.add_argument("--workload", default="arvr-a")
    args = parser.parse_args(argv)

    tasks = _task_bag(args.chip, args.workload)
    baseline = _metrics(SerialBackend(cost_model=CostModel()).run(tasks))
    print(f"baseline: {len(tasks)} tasks on {args.chip}/{args.workload}")

    simulated = ChaosSpec(seed=args.seed, crash_rate=0.3, hang_rate=0.2,
                          error_rate=0.2, max_faults_per_task=2)
    real = ChaosSpec(seed=args.seed, crash_rate=0.35, hang_rate=0.15,
                     max_faults_per_task=1, real_faults=True,
                     hang_sleep_s=20.0)
    runs = [
        ("serial+simulated-chaos",
         SerialBackend(cost_model=CostModel(),
                       retry_policy=RetryPolicy(max_retries=2),
                       chaos=simulated)),
        ("pool+simulated-chaos",
         ProcessPoolBackend(jobs=2, cost_model=CostModel(),
                            retry_policy=RetryPolicy(max_retries=2),
                            chaos=simulated)),
        ("pool+real-faults",
         ProcessPoolBackend(
             jobs=2, cost_model=CostModel(),
             retry_policy=RetryPolicy(max_retries=1, task_timeout_s=2.0),
             chaos=real)),
    ]

    failed = False
    for label, backend in runs:
        got = _metrics(backend.run(tasks))
        ok = got == baseline
        rebuilds = getattr(backend, "pool_rebuilds", 0)
        note = f", {rebuilds} pool rebuild(s)" if rebuilds else ""
        print(f"  {'ok  ' if ok else 'FAIL'} {label}: "
              f"{backend.describe()}{note}")
        if not ok:
            for ours, theirs in zip(got, baseline):
                if ours != theirs:
                    print(f"       mismatch: {ours} != {theirs}")
            failed = True

    # Degraded mode: doomed tasks are casualties, survivors bit-identical.
    doomed = frozenset({tasks[0].task_id, tasks[-1].task_id})
    spec = ChaosSpec(seed=args.seed, doomed_task_ids=doomed)
    backend = SerialBackend(cost_model=CostModel(), chaos=spec)
    outcome = backend.run_resilient(tasks, partial_ok=True)
    survivors = _metrics([r for _, r in outcome.completed(tasks)])
    expected = [row for task, row in zip(tasks, baseline)
                if task.task_id not in doomed]
    if set(outcome.failed_task_ids) == doomed and survivors == expected:
        print(f"  ok   partial_ok: {len(doomed)} doomed, "
              f"{len(survivors)} survivors bit-identical")
    else:
        print(f"  FAIL partial_ok: failed={outcome.failed_task_ids} "
              f"(expected {sorted(doomed)})")
        failed = True

    if failed:
        print("chaos check FAILED: fault injection changed results",
              file=sys.stderr)
        return 1
    print(f"chaos check passed (seed {args.seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
