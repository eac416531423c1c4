"""Execution backends: where and how evaluation tasks run.

The engine is deliberately small: a backend takes a list of
:class:`~repro.exec.tasks.EvaluationTask` and returns one
:class:`~repro.core.evaluator.EvaluationResult` per task, in submission order.
Two implementations ship with the library:

* :class:`SerialBackend` — evaluate in-process against one shared cost model.
  This is the default everywhere and is bit-for-bit the historical behaviour.
* :class:`ProcessPoolBackend` — fan the tasks out across worker processes.
  Each worker holds its own cost model, warm-started from the parent's
  memo; newly computed memo entries flow back with the results and are merged
  into the parent, so warmth is never lost to process boundaries.

Because every evaluation is a pure function of ``(design, workload)``, the two
backends produce identical design metrics; only wall-clock-derived fields
(``scheduling_time_s``) differ.

Fault tolerance
---------------

Both backends optionally run under a
:class:`~repro.exec.resilience.RetryPolicy`.  Without one, :meth:`run` is the
historical fail-fast path.  With one, a faulting task — a crashed worker, a
hung attempt caught by the stall watchdog, a transient evaluation error —
costs one *attempt*, is retried up to ``max_retries`` times with
deterministic backoff, and only then becomes a structured
:class:`~repro.exec.resilience.TaskFailure`.  :meth:`run` raises
:class:`~repro.exceptions.TaskExecutionError` carrying those records;
:meth:`run_resilient` with ``partial_ok=True`` returns them alongside the
surviving results so a sweep can rank what completed.  :meth:`run_resilient`
also threads an optional :class:`~repro.exec.checkpoint.SweepCheckpoint`:
completed results are recorded as they arrive (resumable after a SIGKILL)
and previously recorded tasks are served from the checkpoint without
re-execution.

A :class:`~repro.exec.chaos.ChaosSpec` (installed by
:class:`~repro.exec.chaos.ChaosBackend`) injects deterministic faults into
these paths.  Simulated faults are decided at dispatch and raised in the
parent — identical machinery for both backends, which is what makes
chaos + retries reproduce the undisturbed serial results bit-for-bit.  With
``real_faults=True`` the pool's workers misbehave for real (``os._exit``,
over-budget sleeps), exercising the broken-pool rebuild and stall-watchdog
recovery instead; the parent replays the same fault schedule to attribute
the wreckage, charging attempts only to the tasks chaos actually targeted.
"""

from __future__ import annotations

import collections
import concurrent.futures
import multiprocessing
import os
import time
from concurrent.futures.process import BrokenProcessPool
from typing import Deque, Dict, List, Optional, Protocol, Sequence, Tuple

from repro.exceptions import (
    ReproError,
    SearchError,
    TaskExecutionError,
    TransientEvaluationError,
    WorkerCrash,
    WorkerHang,
)
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


class _ResilientMixin:
    """The retry/chaos/checkpoint state machine shared by both backends.

    Subclasses provide ``_execute_remaining(tasks, policy, outcome,
    failures, checkpoint, scope)`` — the backend-specific dispatch loop —
    and inherit the resume filtering, failure raising, and cleanup contract.
    """

    retry_policy: Optional[RetryPolicy]
    chaos: Optional[ChaosSpec]

    def _effective_policy(self) -> RetryPolicy:
        if self.retry_policy is not None:
            return self.retry_policy
        if self.chaos is not None:
            # Chaos without an explicit policy gets the default budget, which
            # covers the default ``max_faults_per_task`` so runs converge.
            return RetryPolicy()
        return RetryPolicy(max_retries=0)

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
        try:
            self._execute_remaining(remaining, policy, outcome, failures,
                                    checkpoint, scope)
        finally:
            # Preserve completed work even on KeyboardInterrupt / errors, so
            # an interrupted sweep resumes where it died.
            if checkpoint is not None:
                checkpoint.flush()
        outcome.failures = tuple(failures)
        if failures and not partial_ok:
            raise TaskExecutionError(failures)
        return outcome

    def _execute_remaining(self, tasks: Sequence[EvaluationTask],
                           policy: RetryPolicy, outcome: ExecutionOutcome,
                           failures: List[TaskFailure],
                           checkpoint: Optional[SweepCheckpoint],
                           scope: str) -> None:
        raise NotImplementedError


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
        Optional fault-tolerance budget.  ``None`` keeps the historical
        fail-fast behaviour.  Serially there is no process to kill, so
        ``task_timeout_s`` only classifies chaos-injected hangs; crashes and
        transient errors are retried exactly like the pool retries them.
    """

    def __init__(self, cost_model: Optional[CostModel] = None,
                 scheduler: Optional[HeraldScheduler] = None,
                 retry_policy: Optional[RetryPolicy] = None) -> None:
        self.cost_model = cost_model or CostModel()
        self.scheduler = scheduler or HeraldScheduler(self.cost_model)
        self.retry_policy = retry_policy
        self.chaos: Optional[ChaosSpec] = None
        self.last_cold_evaluations = 0
        self.last_cache_hits = 0
        self.total_cold_evaluations = 0
        self.total_cache_hits = 0

    def run(self, tasks: Sequence[EvaluationTask]) -> List[EvaluationResult]:
        """Execute ``tasks`` one after another on the shared cost model."""
        if self.retry_policy is None and self.chaos is None:
            _ensure_unique_task_ids(tasks)
            misses_before = self.cost_model.misses
            hits_before = self.cost_model.hits
            results = [run_evaluation_task(task, self.cost_model, self.scheduler)
                       for task in tasks]
            self.last_cold_evaluations = self.cost_model.misses - misses_before
            self.last_cache_hits = self.cost_model.hits - hits_before
            self.total_cold_evaluations += self.last_cold_evaluations
            self.total_cache_hits += self.last_cache_hits
            return results
        outcome = self.run_resilient(tasks)
        return outcome.ordered_results(tasks)

    def _execute_remaining(self, tasks: Sequence[EvaluationTask],
                           policy: RetryPolicy, outcome: ExecutionOutcome,
                           failures: List[TaskFailure],
                           checkpoint: Optional[SweepCheckpoint],
                           scope: str) -> None:
        misses_before = self.cost_model.misses
        hits_before = self.cost_model.hits
        try:
            for task in tasks:
                attempt = 0
                while True:
                    result, kind, message = self._attempt(task, attempt)
                    if kind is None:
                        outcome.results[task.task_id] = result
                        outcome.executed_tasks += 1
                        if checkpoint is not None:
                            checkpoint.record(scope, task.task_id, result)
                        break
                    attempt += 1
                    if attempt >= policy.max_attempts:
                        failures.append(TaskFailure(
                            task_id=task.task_id, kind=kind, attempts=attempt,
                            message=message, category=task.category))
                        break
                    outcome.retried_attempts += 1
                    delay = policy.backoff_s(attempt)
                    if delay > 0.0:
                        time.sleep(delay)
        finally:
            self.last_cold_evaluations = self.cost_model.misses - misses_before
            self.last_cache_hits = self.cost_model.hits - hits_before
            self.total_cold_evaluations += self.last_cold_evaluations
            self.total_cache_hits += self.last_cache_hits

    def _attempt(self, task: EvaluationTask, attempt: int
                 ) -> Tuple[Optional[EvaluationResult], Optional[str], str]:
        """Run one attempt; returns ``(result, None, "")`` on success or
        ``(None, kind, message)`` on a fault.

        Only library errors (:class:`~repro.exceptions.ReproError`) are
        retryable — anything else is a programming error that should surface
        as a traceback, not burn the retry budget.
        """
        fault = (self.chaos.fault_for(task.task_id, attempt)
                 if self.chaos is not None else None)
        if fault is not None:
            return (None, _failure_kind(fault),
                    _chaos_message(fault, task.task_id, attempt))
        try:
            result = run_evaluation_task(task, self.cost_model, self.scheduler)
        except (WorkerCrash, WorkerHang, TransientEvaluationError) as error:
            return None, classify_failure(error), str(error)
        except ReproError as error:
            return None, "error", str(error)
        return result, None, ""

    def describe(self) -> str:
        parts = ["serial (in-process)"]
        if self.retry_policy is not None:
            parts.append(self.retry_policy.describe())
        if self.chaos is not None:
            parts.append(self.chaos.describe())
        return ", ".join(parts)


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


def _run_chunk(tasks: Sequence[EvaluationTask]
               ) -> Tuple[List[Tuple[int, EvaluationResult]],
                          List[Tuple[Tuple, LayerCost]], int, int]:
    """Worker body: evaluate one chunk, returning results and new memo entries."""
    model: CostModel = _WORKER_STATE["model"]
    scheduler: HeraldScheduler = _WORKER_STATE["scheduler"]
    hits_before = model.hits
    misses_before = model.misses
    results = [(task.task_id, run_evaluation_task(task, model, scheduler))
               for task in tasks]
    new_entries = _unsent_entries(model)
    return results, new_entries, model.hits - hits_before, model.misses - misses_before


def _run_pool_task(task: EvaluationTask, attempt: int
                   ) -> Tuple[int, EvaluationResult,
                              List[Tuple[Tuple, LayerCost]], int, int]:
    """Worker body of the resilient path: one task, one attempt.

    With a ``real_faults`` chaos spec installed, the worker misbehaves for
    real: ``os._exit`` leaves the parent a broken pool to rebuild, an
    over-budget sleep trips the parent's stall watchdog, and a transient
    error travels back through the future.  The parent replays the same
    deterministic schedule to attribute the first two, which cannot carry
    their own exception across a dead process.
    """
    model: CostModel = _WORKER_STATE["model"]
    scheduler: HeraldScheduler = _WORKER_STATE["scheduler"]
    chaos: Optional[ChaosSpec] = _WORKER_STATE.get("chaos")  # type: ignore[assignment]
    if chaos is not None and chaos.real_faults:
        fault = chaos.fault_for(task.task_id, attempt)
        if fault == "crash":
            os._exit(3)
        elif fault == "hang":
            time.sleep(chaos.hang_sleep_s)
            raise WorkerHang(_chaos_message("hang", task.task_id, attempt))
        elif fault == "error":
            raise TransientEvaluationError(
                _chaos_message("error", task.task_id, attempt))
    hits_before = model.hits
    misses_before = model.misses
    result = run_evaluation_task(task, model, scheduler)
    new_entries = _unsent_entries(model)
    return (task.task_id, result, new_entries,
            model.hits - hits_before, model.misses - misses_before)


class ProcessPoolBackend(_ResilientMixin):
    """Evaluate tasks on a pool of worker processes.

    Without a retry policy, tasks are split into contiguous chunks and
    streamed through ``multiprocessing.Pool.imap_unordered``; chunk results
    are merged as they arrive, so an interrupt mid-sweep still banks every
    completed chunk's memo entries into the parent model before the
    exception propagates.  Every worker starts from a copy of the parent's
    cost model; new memo entries computed in the workers are shipped back
    and merged into the parent model, so a subsequent run — serial or
    parallel — starts warm.  When the parent memo already covers every
    (shape, hardware) pair the submitted tasks read (the state
    :meth:`HeraldDSE.explore`'s prewarm establishes), the table is instead
    treated as shared and read-mostly: it ships once with the pool
    initializer and the per-task merge-back pickling is skipped entirely.
    Skipping it never affects results.

    With a retry policy, tasks are dispatched one future at a time through a
    ``concurrent.futures`` executor with a bounded in-flight window.  A dead
    worker breaks the pool; the backend rebuilds it and charges a ``crash``
    attempt to the in-flight tasks (under real-fault chaos, only to the
    tasks the deterministic schedule actually targeted — the innocent
    bystanders are re-dispatched for free).  A stall — no completion within
    ``task_timeout_s`` — kills the worker processes, rebuilds, and charges a
    ``timeout`` attempt the same way.  Tasks whose budget is exhausted
    become :class:`~repro.exec.resilience.TaskFailure` records.

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
        Optional fault-tolerance budget; ``None`` keeps the historical
        fail-fast chunked path, which spreads the tasks roughly two chunks
        per worker (the resilient path dispatches per task so one fault
        charges one task).
    """

    def __init__(self, jobs: int = 2, cost_model: Optional[CostModel] = None,
                 scheduler: Optional[HeraldScheduler] = None,
                 retry_policy: Optional[RetryPolicy] = None) -> None:
        if jobs < 1:
            raise SearchError(f"jobs must be >= 1 (got {jobs})")
        self.jobs = jobs
        self.cost_model = cost_model or CostModel()
        self.scheduler = scheduler or HeraldScheduler(self.cost_model)
        self.retry_policy = retry_policy
        self._shared_this_run = False
        self.chaos: Optional[ChaosSpec] = None
        self.last_cold_evaluations = 0
        self.last_cache_hits = 0
        self.last_new_cache_entries = 0
        self.total_cold_evaluations = 0
        self.total_cache_hits = 0
        #: Executor rebuilds forced by dead or hung workers (diagnostics).
        self.pool_rebuilds = 0

    def run(self, tasks: Sequence[EvaluationTask]) -> List[EvaluationResult]:
        """Execute ``tasks`` across the worker pool, preserving order."""
        if self.retry_policy is not None or self.chaos is not None:
            outcome = self.run_resilient(tasks)
            return outcome.ordered_results(tasks)
        if not tasks:
            self.last_cold_evaluations = 0
            self.last_cache_hits = 0
            self.last_new_cache_entries = 0
            return []
        _ensure_unique_task_ids(tasks)
        self._shared_this_run = self._table_is_shared(tasks)
        chunks = self._chunk(list(tasks))
        by_id: Dict[int, EvaluationResult] = {}
        self.last_cold_evaluations = 0
        self.last_cache_hits = 0
        self.last_new_cache_entries = 0
        try:
            with multiprocessing.Pool(
                    processes=self.jobs, initializer=_init_worker,
                    initargs=(self.cost_model, self.scheduler, None,
                              self._shared_this_run)) as pool:
                # imap_unordered so completed chunks merge as they arrive: an
                # interrupt or worker death partway through still banks every
                # finished chunk's results and memo entries below.
                for output in pool.imap_unordered(_run_chunk, chunks):
                    self._merge_chunk(output, by_id)
        finally:
            self.total_cold_evaluations += self.last_cold_evaluations
            self.total_cache_hits += self.last_cache_hits
        return [by_id[task.task_id] for task in tasks]

    def _merge_chunk(self, output, by_id: Dict[int, EvaluationResult]) -> None:
        results, new_entries, hits, misses = output
        for task_id, result in results:
            by_id[task_id] = result
        self._merge_back(new_entries, hits, misses)

    def _merge_back(self, new_entries: List[Tuple[Tuple, LayerCost]],
                    hits: int, misses: int) -> None:
        """Install worker-computed memo entries and credit their counters."""
        for key, cost in new_entries:
            if self.cost_model.install_cached(key, cost):
                self.last_new_cache_entries += 1
        self.last_cache_hits += hits
        self.last_cold_evaluations += misses

    # ------------------------------------------------------------------
    # Resilient path
    # ------------------------------------------------------------------
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

    def _execute_remaining(self, tasks: Sequence[EvaluationTask],
                           policy: RetryPolicy, outcome: ExecutionOutcome,
                           failures: List[TaskFailure],
                           checkpoint: Optional[SweepCheckpoint],
                           scope: str) -> None:
        if not tasks:
            self.last_cold_evaluations = 0
            self.last_cache_hits = 0
            self.last_new_cache_entries = 0
            return
        self.last_cold_evaluations = 0
        self.last_cache_hits = 0
        self.last_new_cache_entries = 0
        self._shared_this_run = self._table_is_shared(tasks)
        attempts: Dict[int, int] = {task.task_id: 0 for task in tasks}
        queue: Deque[EvaluationTask] = collections.deque(tasks)
        in_flight: Dict[concurrent.futures.Future,
                        Tuple[EvaluationTask, int]] = {}
        window = 2 * self.jobs
        chaos = self.chaos
        simulated = chaos is not None and not chaos.real_faults
        real = chaos is not None and chaos.real_faults

        def charge(task: EvaluationTask, kind: str, message: str) -> None:
            attempts[task.task_id] += 1
            count = attempts[task.task_id]
            if count >= policy.max_attempts:
                failures.append(TaskFailure(
                    task_id=task.task_id, kind=kind, attempts=count,
                    message=message, category=task.category))
                return
            outcome.retried_attempts += 1
            delay = policy.backoff_s(count)
            if delay > 0.0:
                time.sleep(delay)
            queue.append(task)

        def record(task: EvaluationTask, payload) -> None:
            _, result, new_entries, hits, misses = payload
            self._merge_back(new_entries, hits, misses)
            outcome.results[task.task_id] = result
            outcome.executed_tasks += 1
            if checkpoint is not None:
                checkpoint.record(scope, task.task_id, result)

        def settle_wreckage(kind: str) -> None:
            """Charge or re-dispatch every in-flight task after a pool loss.

            The pool dies as a unit, so innocent tasks are caught in the
            blast.  Under real-fault chaos the parent replays the schedule
            and only charges the targeted tasks; otherwise the fault is
            genuine and every in-flight task is (conservatively) charged.
            """
            for future, (task, attempt) in list(in_flight.items()):
                future.cancel()
                if real and chaos.fault_for(task.task_id, attempt) == kind:
                    charge(task, _failure_kind(kind),
                           _chaos_message(kind, task.task_id, attempt))
                elif real:
                    queue.append(task)  # bystander: free re-dispatch
                else:
                    charge(task, kind,
                           f"worker pool lost task {task.task_id} "
                           f"(attempt {attempt}): {kind}")
            in_flight.clear()

        executor = self._make_executor()
        try:
            while queue or in_flight:
                while queue and len(in_flight) < window:
                    task = queue.popleft()
                    attempt = attempts[task.task_id]
                    if simulated:
                        fault = chaos.fault_for(task.task_id, attempt)
                        if fault is not None:
                            charge(task, _failure_kind(fault),
                                   _chaos_message(fault, task.task_id, attempt))
                            continue
                    future = executor.submit(_run_pool_task, task, attempt)
                    in_flight[future] = (task, attempt)
                if not in_flight:
                    continue
                done, _ = concurrent.futures.wait(
                    in_flight, timeout=policy.task_timeout_s,
                    return_when=concurrent.futures.FIRST_COMPLETED)
                if not done:
                    # Stall watchdog: nothing completed within the budget, so
                    # the workers are presumed hung.  Kill and rebuild.
                    self._kill_executor(executor)
                    self.pool_rebuilds += 1
                    settle_wreckage("hang" if real else "timeout")
                    executor = self._make_executor()
                    continue
                broken = False
                for future in done:
                    task, attempt = in_flight.pop(future)
                    try:
                        payload = future.result()
                    except BrokenProcessPool:
                        broken = True
                        in_flight[future] = (task, attempt)
                    except (WorkerCrash, WorkerHang,
                            TransientEvaluationError) as error:
                        charge(task, classify_failure(error), str(error))
                    except ReproError as error:
                        charge(task, "error", str(error))
                    else:
                        record(task, payload)
                if broken:
                    # The whole pool died with the crashed worker; every
                    # unfinished future is wreckage of the same event.
                    self._kill_executor(executor)
                    self.pool_rebuilds += 1
                    settle_wreckage("crash")
                    executor = self._make_executor()
        finally:
            self._kill_executor(executor)
            self.total_cold_evaluations += self.last_cold_evaluations
            self.total_cache_hits += self.last_cache_hits

    def describe(self) -> str:
        parts = [f"process pool ({self.jobs} jobs)"]
        if self.retry_policy is not None:
            parts.append(self.retry_policy.describe())
        if self.chaos is not None:
            parts.append(self.chaos.describe())
        return ", ".join(parts)

    def _chunk(self, tasks: List[EvaluationTask]) -> List[List[EvaluationTask]]:
        size = max(1, (len(tasks) + 2 * self.jobs - 1) // (2 * self.jobs))
        return [tasks[start:start + size] for start in range(0, len(tasks), size)]
