"""Smoke test: every example script under ``examples/`` runs to completion.

The examples drive the public API end to end (schedules, their records and
per-sub-accelerator counts, DSE sweeps, workload studies), so an API change
that breaks one of them fails here instead of at a user's first run.  Each
script runs in its own interpreter, as a user would start it.
"""

import os
import subprocess
import sys

import pytest

EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "examples")
SCRIPTS = sorted(name for name in os.listdir(EXAMPLES) if name.endswith(".py"))


def test_every_example_is_covered():
    assert SCRIPTS == ["arvr_design_space.py", "quickstart.py",
                       "scheduler_comparison.py", "workload_change_study.py"]


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_runs(script):
    completed = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, script)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        universal_newlines=True, timeout=300, check=False)
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip()
