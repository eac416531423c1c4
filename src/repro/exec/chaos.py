"""Deterministic fault injection for the execution engine.

Recovery code that only runs when a worker actually dies is recovery code
that never runs in CI.  :class:`ChaosSpec` turns faults into a pure function
of ``(seed, task_id, attempt)`` — the same SHA-256 keyed-stream idiom the
serving layer uses for traffic and fault traces — so a test can inject worker
crashes, hangs, and transient errors into any backend and still assert
*bit-for-bit* equality with an undisturbed :class:`SerialBackend` run:

* the fault schedule is platform- and scheduling-independent (no RNG state,
  no wall clock — each decision is hashed independently);
* ``max_faults_per_task`` bounds how many attempts of one task can fault, so
  any retry budget with ``max_retries >= max_faults_per_task`` provably
  converges: every task completes, and since evaluations are pure functions
  of ``(design, workload)``, the surviving results are identical to serial;
* ``doomed_task_ids`` opts specific tasks out of that guarantee — they fault
  on *every* attempt — which is how the ``partial_ok`` degraded-mode paths
  are pinned.

Both backends take a spec as their ``chaos`` constructor argument, so chaos
composes with checkpoints and both execution strategies.

By default faults are *simulated*: the backend records a faulted attempt
(``crash`` / ``timeout`` / ``error``) instead of running it, which exercises
the classification/retry/charge machinery without sleeping or killing
processes.  ``real_faults=True`` makes process-pool workers misbehave for
real — ``os._exit`` for crashes (the parent sees a broken pool and rebuilds
it), an over-budget sleep for hangs (the parent's stall watchdog fires) —
for integration tests of the genuine recovery paths.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional

from repro.exceptions import SearchError

#: Fault kinds a chaos decision can produce, in threshold order.
CHAOS_KINDS = ("crash", "hang", "error")


@dataclass(frozen=True)
class ChaosSpec:
    """A deterministic fault schedule.

    Parameters
    ----------
    seed:
        Stream seed.  Two specs with the same seed and rates produce the
        same fault schedule on any platform.
    crash_rate / hang_rate / error_rate:
        Per-attempt probability of each fault kind (their sum must be <= 1).
    max_faults_per_task:
        Attempts numbered ``>= max_faults_per_task`` never fault (except for
        doomed tasks), so retries converge whenever
        ``max_retries >= max_faults_per_task``.
    doomed_task_ids:
        Tasks that fault on **every** attempt — permanent casualties used to
        pin the ``partial_ok`` degraded paths.  The fault kind is still drawn
        deterministically from the rates (``"error"`` when all rates are 0).
    real_faults:
        When true, process-pool workers actually misbehave (``os._exit``,
        over-budget sleep, raised exception) instead of the parent simulating
        the fault at dispatch.  Serial backends always simulate.
    hang_sleep_s:
        How long a real hang sleeps in the worker.  Must comfortably exceed
        the retry policy's ``task_timeout_s`` so the stall watchdog, not the
        sleep, ends the attempt.
    """

    seed: int = 0
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    error_rate: float = 0.0
    max_faults_per_task: int = 2
    doomed_task_ids: FrozenSet[int] = field(default_factory=frozenset)
    real_faults: bool = False
    hang_sleep_s: float = 30.0

    def __post_init__(self) -> None:
        for name in ("crash_rate", "hang_rate", "error_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise SearchError(f"{name} must be in [0, 1] (got {rate})")
        total = self.crash_rate + self.hang_rate + self.error_rate
        if total > 1.0:
            raise SearchError(
                f"fault rates must sum to <= 1 (got {total:g})")
        if self.max_faults_per_task < 0:
            raise SearchError(
                f"max_faults_per_task must be >= 0 "
                f"(got {self.max_faults_per_task})")
        if self.hang_sleep_s <= 0.0:
            raise SearchError(
                f"hang_sleep_s must be positive (got {self.hang_sleep_s})")
        # Normalise to a frozenset so specs hash and pickle consistently.
        object.__setattr__(self, "doomed_task_ids",
                           frozenset(self.doomed_task_ids))

    def _draw(self, task_id: int, attempt: int) -> float:
        """Uniform [0, 1) value for one ``(task, attempt)`` decision.

        Hashing each decision independently (rather than advancing shared RNG
        state) makes the schedule independent of evaluation order, which is
        what lets pool and serial runs see the same faults.
        """
        token = f"{self.seed}:{task_id}:{attempt}".encode("utf-8")
        digest = hashlib.sha256(token).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    def fault_for(self, task_id: int, attempt: int) -> Optional[str]:
        """The fault this attempt suffers, or ``None`` for a clean run.

        ``attempt`` is zero-based (0 = first try).
        """
        doomed = task_id in self.doomed_task_ids
        if attempt >= self.max_faults_per_task and not doomed:
            return None
        value = self._draw(task_id, attempt)
        if doomed:
            # Always fault; apportion the kind by the configured rates so a
            # doomed task still exercises the kind mix (default: error).
            total = self.crash_rate + self.hang_rate + self.error_rate
            if total <= 0.0:
                return "error"
            value *= total
        if value < self.crash_rate:
            return "crash"
        if value < self.crash_rate + self.hang_rate:
            return "hang"
        if value < self.crash_rate + self.hang_rate + self.error_rate:
            return "error"
        return None if not doomed else "error"

    def fault_schedule(self, task_id: int, attempts: int) -> List[Optional[str]]:
        """The first ``attempts`` decisions for one task (test introspection)."""
        return [self.fault_for(task_id, attempt) for attempt in range(attempts)]

    def describe(self) -> str:
        """One-line summary used by backend descriptions."""
        doomed = (f", {len(self.doomed_task_ids)} doomed"
                  if self.doomed_task_ids else "")
        mode = "real" if self.real_faults else "simulated"
        return (f"chaos seed={self.seed} crash={self.crash_rate:g} "
                f"hang={self.hang_rate:g} error={self.error_rate:g} "
                f"maxfaults={self.max_faults_per_task}{doomed} ({mode})")

