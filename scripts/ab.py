#!/usr/bin/env python
"""Same-run A/B of the repository benchmark against a git revision.

Checks ``REV`` out into a temporary detached ``git worktree`` and runs each
tree's own ``perfbench/run.py --trace 0`` in pairs whose order alternates
(``REV`` first, then this tree first, and so on), so a drifting host hits
both sides alike.  For every end-to-end metric of ``BENCHMARK.json`` it
prints the median [q1, q3] of each side and how many pairs this tree won;
a tie counts for neither side.  Nothing under ``perfbench/`` is edited.

Usage::

    python3 scripts/ab.py REV [--workload W ...] [--pairs 10] [--seconds S]

``--workload`` defaults to every workload of ``BENCHMARK.json`` and
``--seconds`` to its ``run_seconds``.  Exit code 0 when every run checked
its outputs correct, 2 when ``REV`` cannot be checked out or a run failed,
reported wrong outputs or produced no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class RunError(Exception):
    """A checkout or a benchmark run failed, or a run reported wrong outputs."""


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` of ``values`` (inclusive method)."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(base: Sequence[Dict[str, float]],
              change: Sequence[Dict[str, float]],
              metrics: Sequence[Dict[str, str]]) -> List[Dict[str, object]]:
    """One row per metric over paired runs of the two sides.

    ``base[i]`` and ``change[i]`` are the metric values of pair ``i``;
    ``metrics`` are ``BENCHMARK.json``'s ``end_to_end`` entries (``name``
    and ``better``).  A pair is a win for the side whose value is better;
    equal values win for neither.
    """
    rows = []
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        pairs = [(b[name], c[name]) for b, c in zip(base, change)]
        base_wins = sum((b > c) if higher else (b < c) for b, c in pairs)
        change_wins = sum((c > b) if higher else (c < b) for b, c in pairs)
        rows.append({
            "metric": name,
            "base": quartiles([b for b, _ in pairs]),
            "change": quartiles([c for _, c in pairs]),
            "base_wins": base_wins,
            "change_wins": change_wins,
            "pairs": len(pairs),
        })
    return rows


def format_table(workload: str, rows: Sequence[Dict[str, object]]) -> str:
    """Markdown table rows: median [q1, q3] per side and this tree's wins."""
    def cell(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    lines = []
    for row in rows:
        base, change = row["base"], row["change"]
        ratio = (f" ({change[1] / base[1]:.3g}×)" if base[1] else "")
        ties = row["pairs"] - row["base_wins"] - row["change_wins"]
        wins = f"{row['change_wins']}/{row['pairs']}"
        if ties:
            wins += f" ({ties} tied)"
        lines.append(f"| {workload} | {row['metric']} | {cell(base)} | "
                     f"{cell(change)}{ratio} | {wins} |")
    return "\n".join(lines)


def run_once(tree: str, workload: str, seconds: int) -> Dict[str, float]:
    """One ``perfbench/run.py --trace 0`` run of ``tree``; metric values."""
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    command = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
               "--workload", workload, "--seconds", str(seconds),
               "--trace", "0"]
    completed = subprocess.run(command, cwd=tree, env=env,
                               stdout=subprocess.PIPE,
                               universal_newlines=True, check=False)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RunError(f"{tree}: {workload} exited with code "
                       f"{completed.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RunError(f"{tree}: {workload} failed {result['failed']} of "
                       f"{result['attempted']} ops")
    return {name: metric["value"]
            for name, metric in result["metrics"].items()}


def ab(base_tree: str, workload: str, pairs: int, seconds: int
       ) -> List[List[Dict[str, float]]]:
    """Paired runs, alternating which tree goes first; ``[base, change]``."""
    sides: List[List[Dict[str, float]]] = [[], []]
    trees = (base_tree, ROOT)
    for pair in range(pairs):
        order = (0, 1) if pair % 2 == 0 else (1, 0)
        for side in order:
            sides[side].append(run_once(trees[side], workload, seconds))
        print(f"  {workload}: pair {pair + 1}/{pairs} done", file=sys.stderr)
    return sides


def parse_args(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    workloads = [entry["name"] for entry in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", metavar="REV",
                        help="git revision to compare this tree against")
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int,
                        default=benchmark["run_seconds"])
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    args.workload = args.workload or workloads
    args.metrics = benchmark["end_to_end"]
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    scratch = tempfile.mkdtemp(prefix="ab-")
    base_tree = os.path.join(scratch, "base")
    try:
        checkout = subprocess.run(["git", "-C", ROOT, "worktree", "add",
                                   "--detach", "--quiet", base_tree,
                                   args.rev], check=False)
        if checkout.returncode != 0:
            raise RunError(f"cannot check out {args.rev!r}")
        tables = []
        for workload in args.workload:
            base, change = ab(base_tree, workload, args.pairs, args.seconds)
            tables.append(format_table(
                workload, summarize(base, change, args.metrics)))
    except RunError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force",
                        base_tree], stderr=subprocess.DEVNULL, check=False)
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"| workload | metric | {args.rev} | this tree | this tree wins |")
    print("|---|---|---|---|---|")
    for table in tables:
        print(table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
