"""Execution backends: where and how evaluation tasks run.

The engine is deliberately small: a backend takes a list of
:class:`~repro.exec.tasks.EvaluationTask` and returns one
:class:`~repro.core.evaluator.EvaluationResult` per task, in submission order.
Two implementations ship with the library:

* :class:`SerialBackend` — evaluate in-process against one shared cost model.
  This is the default everywhere.
* :class:`ProcessPoolBackend` — fan the tasks out across worker processes.
  Each worker holds its own cost model, warm-started from the parent's
  memo; newly computed memo entries flow back with the results and are merged
  into the parent, so warmth is never lost to process boundaries.

Because every evaluation is a pure function of ``(design, workload)``, the two
backends produce identical design metrics; only wall-clock-derived fields
(``scheduling_time_s``) differ.

Fault tolerance
---------------

Both backends dispatch every run through one retry loop, budgeted by an
optional :class:`~repro.exec.resilience.RetryPolicy` (none means one attempt
per task).  A faulting task — a crashed worker, a hung attempt caught by the
stall watchdog, a library error — costs one *attempt*, is retried up to
``max_retries`` times with deterministic backoff, and only then becomes a
structured :class:`~repro.exec.resilience.TaskFailure`.  :meth:`run` raises
:class:`~repro.exceptions.TaskExecutionError` carrying those records;
:meth:`run_resilient` with ``partial_ok=True`` returns them alongside the
surviving results so a sweep can rank what completed.  Errors that are not
:class:`~repro.exceptions.ReproError` are programming errors and propagate
unwrapped.  :meth:`run_resilient` also threads an optional
:class:`~repro.exec.checkpoint.SweepCheckpoint`: completed results are
recorded as they arrive (resumable after a SIGKILL) and previously recorded
tasks are served from the checkpoint without re-execution.

A backend constructed with a :class:`~repro.exec.chaos.ChaosSpec` injects
deterministic faults into this loop.  Simulated faults replace the attempt
with the fault's record — one function decides them for both backends, which
is what makes chaos + retries reproduce the undisturbed serial results
bit-for-bit.  With ``real_faults=True`` the pool's workers misbehave for real
(``os._exit``, over-budget sleeps), exercising the broken-pool rebuild and
stall-watchdog recovery instead; the parent replays the same fault schedule
to attribute the wreckage, charging attempts only to the tasks chaos actually
targeted.
"""

from __future__ import annotations

import collections
import concurrent.futures
import os
import time
from concurrent.futures.process import BrokenProcessPool
from typing import (Callable, Deque, Dict, List, Optional, Protocol, Sequence,
                    Set, Tuple)

from repro.exceptions import ReproError, SearchError, TaskExecutionError
from repro.core.evaluator import EvaluationResult
from repro.core.scheduler import HeraldScheduler
from repro.maestro.cost import CostModel, LayerCost
from repro.exec.chaos import ChaosSpec
from repro.exec.checkpoint import DEFAULT_SCOPE, SweepCheckpoint
from repro.exec.resilience import (
    ExecutionOutcome,
    RetryPolicy,
    TaskFailure,
    classify_failure,
)
from repro.exec.tasks import EvaluationTask, run_evaluation_task

#: ``(result, None, "")`` for a completed attempt, ``(None, kind, message)``
#: for a faulted one.
Attempt = Tuple[Optional[EvaluationResult], Optional[str], str]


class ExecutionBackend(Protocol):
    """Protocol every execution backend implements."""

    #: The backend's shared cost model.  Part of the contract because
    #: consumers co-locate derived estimation with execution — e.g. the fleet
    #: router warms its dispatch estimates on the same memo the backend's
    #: workers are shipped — so a backend must expose which model that is.
    cost_model: CostModel

    def run(self, tasks: Sequence[EvaluationTask]) -> List[EvaluationResult]:
        """Execute ``tasks`` and return results in submission order."""
        ...

    def run_resilient(self, tasks: Sequence[EvaluationTask],
                      partial_ok: bool = False,
                      checkpoint: Optional[SweepCheckpoint] = None,
                      scope: str = DEFAULT_SCOPE) -> ExecutionOutcome:
        """Execute ``tasks`` and return the full outcome, failures included."""
        ...

    def describe(self) -> str:
        """One-line human-readable description."""
        ...


def _ensure_unique_task_ids(tasks: Sequence[EvaluationTask]) -> None:
    """Reject submissions where two tasks share a ``task_id``.

    Backends re-order results through a task_id -> result map, so duplicate
    ids would silently collapse two tasks into one result.  Both backends
    validate so they stay interchangeable on the same input.
    """
    seen_ids = set()
    for task in tasks:
        if task.task_id in seen_ids:
            raise SearchError(
                f"duplicate task_id {task.task_id} in submission; task ids "
                f"must be unique within one run"
            )
        seen_ids.add(task.task_id)


def _chaos_message(kind: str, task_id: int, attempt: int) -> str:
    """Canonical chaos fault message.

    Both backends (and the pool's parent-side attribution of real worker
    faults) use this one formatter, so the ``TaskFailure`` records of a
    chaos run are identical no matter where the fault physically happened.
    """
    noun = {"crash": "worker crash", "hang": "hang",
            "error": "transient error"}[kind]
    return f"chaos-injected {noun} (task {task_id}, attempt {attempt})"


def _failure_kind(chaos_kind: str) -> str:
    """Chaos fault kind -> :data:`~repro.exec.resilience.FAILURE_KINDS` entry.

    A chaos ``"hang"`` surfaces the way a real hang does — as the stall
    watchdog's ``"timeout"`` — so failure records classify identically
    whether the hang was simulated or real.
    """
    return "timeout" if chaos_kind == "hang" else chaos_kind


def _attempt(task: EvaluationTask, attempt: int, model: CostModel,
             scheduler: HeraldScheduler, chaos: Optional[ChaosSpec],
             misbehave: bool = False) -> Attempt:
    """Run one attempt of ``task``; the per-attempt body of both backends.

    A chaos fault scheduled for this attempt replaces it with the fault's
    record.  With ``misbehave`` (a pool worker under a ``real_faults`` spec)
    the process first suffers the fault for real: ``os._exit`` leaves the
    parent a broken pool to rebuild and an over-budget sleep trips its stall
    watchdog.  Only library errors (:class:`~repro.exceptions.ReproError`)
    become a faulted attempt — anything else is a programming error that
    should surface as a traceback, not burn the retry budget.
    """
    fault = (chaos.fault_for(task.task_id, attempt)
             if chaos is not None else None)
    if fault is not None:
        if misbehave and fault == "crash":
            os._exit(3)
        if misbehave and fault == "hang":
            time.sleep(chaos.hang_sleep_s)
        return (None, _failure_kind(fault),
                _chaos_message(fault, task.task_id, attempt))
    try:
        return run_evaluation_task(task, model, scheduler), None, ""
    except ReproError as error:
        return None, classify_failure(error), str(error)


class _ResilientMixin:
    """The run/retry/checkpoint state machine shared by both backends.

    Subclasses provide ``_execute_remaining(tasks, policy, record, charge)``
    — the backend-specific dispatch loop — and inherit :meth:`run`, the
    resume filtering, failure raising, counters and cleanup contract.
    """

    def __init__(self, cost_model: Optional[CostModel] = None,
                 scheduler: Optional[HeraldScheduler] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 chaos: Optional[ChaosSpec] = None) -> None:
        self.cost_model = cost_model or CostModel()
        self.scheduler = scheduler or HeraldScheduler(self.cost_model)
        self.retry_policy = retry_policy
        self.chaos = chaos
        self.last_cold_evaluations = 0
        self.last_cache_hits = 0
        self.total_cold_evaluations = 0
        self.total_cache_hits = 0

    def _effective_policy(self) -> RetryPolicy:
        if self.retry_policy is not None:
            return self.retry_policy
        if self.chaos is not None:
            # Chaos without an explicit policy gets the default budget, which
            # covers the default ``max_faults_per_task`` so runs converge.
            return RetryPolicy()
        return RetryPolicy(max_retries=0)

    def run(self, tasks: Sequence[EvaluationTask]) -> List[EvaluationResult]:
        """Execute ``tasks`` and return results in submission order.

        Raises :class:`~repro.exceptions.TaskExecutionError` when a task
        exhausts its attempt budget (one attempt without a retry policy).
        """
        return self.run_resilient(tasks).ordered_results(tasks)

    def run_resilient(self, tasks: Sequence[EvaluationTask],
                      partial_ok: bool = False,
                      checkpoint: Optional[SweepCheckpoint] = None,
                      scope: str = DEFAULT_SCOPE) -> ExecutionOutcome:
        """Execute ``tasks`` under the retry policy; return the full outcome.

        Tasks already recorded in ``checkpoint`` (under ``scope``) are served
        from it without re-execution; every newly completed task is recorded
        back.  Terminal failures raise
        :class:`~repro.exceptions.TaskExecutionError` unless ``partial_ok``,
        in which case they are returned as structured records alongside the
        surviving results.  Completed results are flushed to the checkpoint
        even when the run fails or is interrupted.
        """
        _ensure_unique_task_ids(tasks)
        policy = self._effective_policy()
        outcome = ExecutionOutcome()
        remaining: List[EvaluationTask] = []
        for task in tasks:
            prior = (checkpoint.get(scope, task.task_id)
                     if checkpoint is not None else None)
            if prior is not None:
                outcome.results[task.task_id] = prior
                outcome.resumed_tasks += 1
            else:
                remaining.append(task)
        failures: List[TaskFailure] = []

        def record(task: EvaluationTask, result: EvaluationResult) -> None:
            outcome.results[task.task_id] = result
            outcome.executed_tasks += 1
            if checkpoint is not None:
                checkpoint.record(scope, task.task_id, result)

        def charge(task: EvaluationTask, attempts: int, kind: str,
                   message: str) -> bool:
            """Book a failed attempt; true while the task may be retried."""
            if attempts >= policy.max_attempts:
                failures.append(TaskFailure(
                    task_id=task.task_id, kind=kind, attempts=attempts,
                    message=message, category=task.category))
                return False
            outcome.retried_attempts += 1
            delay = policy.backoff_s(attempts)
            if delay > 0.0:
                time.sleep(delay)
            return True

        self.last_cold_evaluations = 0
        self.last_cache_hits = 0
        try:
            self._execute_remaining(remaining, policy, record, charge)
        finally:
            self.total_cold_evaluations += self.last_cold_evaluations
            self.total_cache_hits += self.last_cache_hits
            # Preserve completed work even on KeyboardInterrupt / errors, so
            # an interrupted sweep resumes where it died.
            if checkpoint is not None:
                checkpoint.flush()
        # Submission order, however the backend's completions interleaved.
        position = {task.task_id: index for index, task in enumerate(tasks)}
        outcome.failures = tuple(
            sorted(failures, key=lambda failure: position[failure.task_id]))
        if failures and not partial_ok:
            raise TaskExecutionError(outcome.failures)
        return outcome

    def _execute_remaining(
            self, tasks: Sequence[EvaluationTask], policy: RetryPolicy,
            record: Callable[[EvaluationTask, EvaluationResult], None],
            charge: Callable[[EvaluationTask, int, str, str], bool]) -> None:
        raise NotImplementedError

    def _label(self) -> str:
        raise NotImplementedError

    def describe(self) -> str:
        parts = [self._label()]
        if self.retry_policy is not None:
            parts.append(self.retry_policy.describe())
        if self.chaos is not None:
            parts.append(self.chaos.describe())
        return ", ".join(parts)


class SerialBackend(_ResilientMixin):
    """Evaluate every task in-process, sharing one cost model and scheduler.

    Parameters
    ----------
    cost_model:
        Shared cost model; its memo carries across all tasks of all runs.
    scheduler:
        Scheduler used for every task; defaults to Herald's scheduler on the
        shared cost model.
    retry_policy:
        Optional fault-tolerance budget; ``None`` gives each task one
        attempt.  Serially there is no process to kill, so
        ``task_timeout_s`` only classifies chaos-injected hangs; crashes and
        transient errors are retried exactly like the pool retries them.
    chaos:
        Optional deterministic fault schedule.  The serial backend always
        simulates its faults, ``real_faults`` included.
    """

    def _execute_remaining(self, tasks, policy, record, charge) -> None:
        misses_before = self.cost_model.misses
        hits_before = self.cost_model.hits
        try:
            for task in tasks:
                attempt = 0
                while True:
                    result, kind, message = _attempt(
                        task, attempt, self.cost_model, self.scheduler,
                        self.chaos)
                    if kind is None:
                        record(task, result)
                        break
                    attempt += 1
                    if not charge(task, attempt, kind, message):
                        break
        finally:
            self.last_cold_evaluations = self.cost_model.misses - misses_before
            self.last_cache_hits = self.cost_model.hits - hits_before

    def _label(self) -> str:
        return "serial (in-process)"


# ---------------------------------------------------------------------------
# Process-pool backend
# ---------------------------------------------------------------------------

#: Per-worker state installed by the pool initializer.
_WORKER_STATE: Dict[str, object] = {}


def _init_worker(cost_model: CostModel, scheduler: HeraldScheduler,
                 chaos: Optional[ChaosSpec] = None,
                 shared_table: bool = False) -> None:
    """Pool initializer: adopt the shipped (warm) cost model and scheduler.

    ``cost_model`` and ``scheduler`` are pickled together, so the scheduler's
    cost-model reference survives the trip and both name the same object here.
    With ``shared_table`` the parent guarantees the shipped memo already
    covers every pair the tasks will read, so the worker neither tracks what
    was sent nor ships entries back — the table is read-mostly and travels
    exactly once, with the initializer.
    """
    _WORKER_STATE["model"] = cost_model
    _WORKER_STATE["scheduler"] = scheduler
    _WORKER_STATE["shared_table"] = shared_table
    _WORKER_STATE["sent_keys"] = (
        set() if shared_table else {key for key, _ in cost_model.cache_items()})
    _WORKER_STATE["chaos"] = chaos


def _unsent_entries(model: CostModel) -> List[Tuple[Tuple, LayerCost]]:
    """Memo entries this worker computed and has not shipped back yet."""
    if _WORKER_STATE.get("shared_table"):
        return []
    sent_keys = _WORKER_STATE["sent_keys"]
    new_entries = [(key, cost) for key, cost in model.cache_items()
                   if key not in sent_keys]
    sent_keys.update(key for key, _ in new_entries)
    return new_entries


def _run_pool_tasks(pairs: Sequence[Tuple[EvaluationTask, int]]
                    ) -> Tuple[List[Attempt], List[Tuple[Tuple, LayerCost]],
                               int, int]:
    """Worker body: run one submission of ``(task, attempt)`` pairs.

    Returns one :data:`Attempt` per pair — a library error costs only its own
    task an attempt, never its neighbours — plus the memo entries computed
    and the hit/miss deltas.  A ``real_faults`` chaos spec makes the worker
    misbehave for real; the parent replays the same deterministic schedule
    to attribute a dead or hung worker, which cannot report its own fault.
    """
    model: CostModel = _WORKER_STATE["model"]
    scheduler: HeraldScheduler = _WORKER_STATE["scheduler"]
    chaos: Optional[ChaosSpec] = _WORKER_STATE["chaos"]  # type: ignore[assignment]
    misbehave = chaos is not None and chaos.real_faults
    hits_before = model.hits
    misses_before = model.misses
    attempts = [_attempt(task, attempt, model, scheduler, chaos, misbehave)
                for task, attempt in pairs]
    new_entries = _unsent_entries(model)
    return (attempts, new_entries,
            model.hits - hits_before, model.misses - misses_before)


class ProcessPoolBackend(_ResilientMixin):
    """Evaluate tasks on a pool of worker processes.

    Tasks travel in chunks of ``ceil(len(tasks) / (2 * jobs))`` ``(task,
    attempt)`` pairs — roughly two per worker — through a
    ``concurrent.futures`` executor with at most ``2 * jobs`` submissions in
    flight; results are merged as each chunk arrives, so an interrupt
    mid-sweep still banks every completed chunk's results and memo entries.
    Every worker starts from a copy of the parent's cost model; new memo
    entries computed in the workers are shipped back and merged into the
    parent model, so a subsequent run — serial or parallel — starts warm.
    When the parent memo already covers every (shape, hardware) pair the
    submitted tasks read (the state :meth:`HeraldDSE.explore`'s prewarm
    establishes), the table is instead treated as shared and read-mostly: it
    ships once with the pool initializer and the merge-back pickling is
    skipped entirely.  Skipping it never affects results.

    A library error inside a chunk costs only its own task an attempt.  A
    dead worker breaks the pool, and a stall — no submission completing
    within ``task_timeout_s`` times the longest in-flight chunk — kills the
    workers; either way the backend rebuilds the pool.  A lost multi-task
    chunk charges nobody: its members are re-queued and, from then on,
    dispatched one per submission, so a repeat fault implicates exactly its
    own task.  A lost single-task submission is charged a ``crash`` or
    ``timeout`` attempt (under real-fault chaos, only if the deterministic
    schedule actually targeted it — the innocent bystanders are
    re-dispatched for free).  Tasks whose budget is exhausted become
    :class:`~repro.exec.resilience.TaskFailure` records.

    A fresh pool is created per :meth:`run` call and the parent's memo is
    pickled into every worker, so per-call overhead grows with the memo size;
    this keeps worker lifetime trivially bounded.

    Parameters
    ----------
    jobs:
        Number of worker processes (>= 1).
    cost_model / scheduler:
        Parent-side cost model and scheduler configuration.  The scheduler is
        shipped to the workers so custom metrics/orderings are honoured.
    retry_policy:
        Optional fault-tolerance budget; ``None`` gives each task one
        attempt.
    chaos:
        Optional deterministic fault schedule, shipped to the workers.
    """

    def __init__(self, jobs: int = 2, cost_model: Optional[CostModel] = None,
                 scheduler: Optional[HeraldScheduler] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 chaos: Optional[ChaosSpec] = None) -> None:
        if jobs < 1:
            raise SearchError(f"jobs must be >= 1 (got {jobs})")
        super().__init__(cost_model, scheduler, retry_policy, chaos)
        self.jobs = jobs
        self._shared_this_run = False
        self.last_new_cache_entries = 0
        #: Executor rebuilds forced by dead or hung workers (diagnostics).
        self.pool_rebuilds = 0

    def _label(self) -> str:
        return f"process pool ({self.jobs} jobs)"

    def _merge_back(self, new_entries: List[Tuple[Tuple, LayerCost]],
                    hits: int, misses: int) -> None:
        """Install worker-computed memo entries and credit their counters."""
        for key, cost in new_entries:
            if self.cost_model.install_cached(key, cost):
                self.last_new_cache_entries += 1
        self.last_cache_hits += hits
        self.last_cold_evaluations += misses

    def _table_is_shared(self, tasks: Sequence[EvaluationTask]) -> bool:
        """Whether this run's memo travels to the workers read-mostly.

        The table is shared exactly when the parent memo already covers every
        (shape, hardware) pair the submitted tasks can read — the state a
        prewarmed sweep is in.  The check is conservative: a workload that
        cannot enumerate its unique shapes keeps the merge-back path.
        """
        model = self.cost_model
        cache_has = model._cache.__contains__
        seen_configs = set()
        for task in tasks:
            unique_shapes = getattr(task.workload, "unique_shape_layers", None)
            if unique_shapes is None:
                return False
            for acc in task.design.sub_accelerators:
                hw_key = model.hardware_key(acc)
                probe = (id(task.workload),) + hw_key
                if probe in seen_configs:
                    continue
                seen_configs.add(probe)
                for layer in unique_shapes():
                    if not cache_has((layer.shape_key,) + hw_key):
                        return False
        return True

    def _make_executor(self) -> concurrent.futures.ProcessPoolExecutor:
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=self.jobs, initializer=_init_worker,
            initargs=(self.cost_model, self.scheduler, self.chaos,
                      self._shared_this_run))

    @staticmethod
    def _kill_executor(executor: concurrent.futures.ProcessPoolExecutor
                       ) -> None:
        """Forcibly tear an executor down, hung workers included."""
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except (OSError, AttributeError):
                pass
        executor.shutdown(wait=False)

    def _execute_remaining(self, tasks, policy, record, charge) -> None:
        self.last_new_cache_entries = 0
        if not tasks:
            return
        self._shared_this_run = self._table_is_shared(tasks)
        window = 2 * self.jobs
        size = -(-len(tasks) // window)
        attempts: Dict[int, int] = {task.task_id: 0 for task in tasks}
        queue: Deque[EvaluationTask] = collections.deque(tasks)
        #: Members of a lost multi-task chunk, dispatched alone from then on.
        alone: Set[int] = set()
        in_flight: Dict[concurrent.futures.Future,
                        List[Tuple[EvaluationTask, int]]] = {}
        chaos = self.chaos
        real = chaos is not None and chaos.real_faults

        def fault(task: EvaluationTask, kind: str, message: str) -> None:
            attempts[task.task_id] += 1
            if charge(task, attempts[task.task_id], kind, message):
                queue.append(task)

        def next_pairs() -> List[Tuple[EvaluationTask, int]]:
            pairs: List[Tuple[EvaluationTask, int]] = []
            while queue and len(pairs) < size:
                if queue[0].task_id in alone and pairs:
                    break
                task = queue.popleft()
                pairs.append((task, attempts[task.task_id]))
                if task.task_id in alone:
                    break
            return pairs

        def settle_wreckage(kind: str) -> None:
            """Re-queue or charge every in-flight task after a pool loss.

            The pool dies as a unit, so innocent tasks are caught in the
            blast.  A multi-task chunk cannot tell who caused it, so its
            members go back free and run alone.  A lone task is charged:
            under real-fault chaos only if the replayed schedule targeted
            it, otherwise (a genuine fault) conservatively.
            """
            for future, pairs in in_flight.items():
                future.cancel()
                if len(pairs) > 1:
                    alone.update(task.task_id for task, _ in pairs)
                    queue.extend(task for task, _ in pairs)
                    continue
                task, attempt = pairs[0]
                if not real:
                    fault(task, kind, f"worker pool lost task {task.task_id} "
                                      f"(attempt {attempt}): {kind}")
                elif chaos.fault_for(task.task_id, attempt) == kind:
                    fault(task, _failure_kind(kind),
                          _chaos_message(kind, task.task_id, attempt))
                else:
                    queue.append(task)  # bystander: free re-dispatch
            in_flight.clear()

        executor = self._make_executor()
        try:
            while queue or in_flight:
                while queue and len(in_flight) < window:
                    pairs = next_pairs()
                    try:
                        future = executor.submit(_run_pool_tasks, pairs)
                    except BrokenProcessPool:
                        # A worker died since the last wait; the wait below
                        # returns its broken future at once.
                        queue.extendleft(task for task, _ in reversed(pairs))
                        break
                    in_flight[future] = pairs
                timeout = policy.task_timeout_s
                if timeout is not None:
                    timeout *= max(len(pairs) for pairs in in_flight.values())
                done, _ = concurrent.futures.wait(
                    in_flight, timeout=timeout,
                    return_when=concurrent.futures.FIRST_COMPLETED)
                # Stall watchdog: nothing completed within the budget, so
                # the workers are presumed hung.
                lost = None if done else ("hang" if real else "timeout")
                for future in done:
                    try:
                        outcomes, new_entries, hits, misses = future.result()
                    except BrokenProcessPool:
                        lost = "crash"
                        continue
                    self._merge_back(new_entries, hits, misses)
                    for (task, _), (result, kind, message) in zip(
                            in_flight.pop(future), outcomes):
                        if kind is None:
                            record(task, result)
                        else:
                            fault(task, kind, message)
                if lost is not None:
                    # The pool is lost as a unit, hung or broken by a crashed
                    # worker; every unfinished future is wreckage of that.
                    self._kill_executor(executor)
                    self.pool_rebuilds += 1
                    settle_wreckage(lost)
                    executor = self._make_executor()
        finally:
            self._kill_executor(executor)
