"""Tests for the execution engine: tasks and backends."""

from __future__ import annotations

import pickle

import pytest

import repro.core.evaluator
from repro.accel.builders import enumerate_fdas, make_fda, make_rda
from repro.core.dse import HeraldDSE
from repro.core.evaluator import evaluate_design, evaluate_designs
from repro.core.partitioner import PartitionSearch
from repro.core.scheduler import HeraldScheduler
from repro.dataflow.styles import NVDLA, SHIDIANNAO
from repro.exceptions import SchedulingError, SearchError, TaskExecutionError
from repro.exec import (
    EvaluationTask,
    ProcessPoolBackend,
    SerialBackend,
    TaskFailure,
    run_evaluation_task,
)
from repro.maestro.cost import CostModel
from repro.workloads.spec import WorkloadSpec


def _make_dse(backend=None, cost_model=None):
    model = cost_model or CostModel()
    scheduler = HeraldScheduler(model)
    search = PartitionSearch(cost_model=model, scheduler=scheduler,
                             pe_steps=2, bw_steps=1)
    return HeraldDSE(cost_model=model, scheduler=scheduler,
                     partition_search=search, backend=backend)


class TestEvaluationTask:
    def test_tasks_are_picklable(self, tiny_chip, small_workload):
        task = EvaluationTask(0, make_fda(tiny_chip, NVDLA), small_workload,
                              category="fda")
        clone = pickle.loads(pickle.dumps(task))
        assert clone.design.name == task.design.name
        assert clone.workload.name == task.workload.name
        assert clone.category == "fda"

    def test_run_evaluation_task_matches_direct_evaluation(self, tiny_chip,
                                                           small_workload):
        model = CostModel()
        scheduler = HeraldScheduler(model)
        design = make_fda(tiny_chip, SHIDIANNAO)
        task = EvaluationTask(7, design, small_workload)
        via_task = run_evaluation_task(task, model, scheduler)
        direct = evaluate_design(design, small_workload, cost_model=model,
                                 scheduler=scheduler)
        assert via_task.latency_s == direct.latency_s
        assert via_task.energy_mj == direct.energy_mj

    def test_rda_task_round_trips_through_pickle(self, tiny_chip, small_workload):
        # RDA designs embed a ``dataflow=None`` sub-accelerator and the styles
        # live in the cost model, so this exercises the style pickle path too.
        task = EvaluationTask(1, make_rda(tiny_chip), small_workload, category="rda")
        clone = pickle.loads(pickle.dumps(task))
        assert clone.design.sub_accelerators[0].is_reconfigurable


class TestSerialBackend:
    def test_preserves_task_order(self, tiny_chip, small_workload):
        backend = SerialBackend()
        tasks = [EvaluationTask(i, design, small_workload, category="fda")
                 for i, design in enumerate(enumerate_fdas(tiny_chip))]
        results = backend.run(tasks)
        assert [r.design.name for r in results] == [t.design.name for t in tasks]
        assert backend.last_cold_evaluations > 0

    def test_second_run_is_fully_cached(self, tiny_chip, small_workload):
        backend = SerialBackend()
        tasks = [EvaluationTask(0, make_fda(tiny_chip, NVDLA), small_workload)]
        first = backend.run(tasks)[0]
        entries_after_first = backend.cost_model.cache_size()
        second = backend.run(tasks)[0]
        # Shape dedupe queries each (shape, hardware) pair exactly once and
        # the scheduler's per-design ranking memo can satisfy the whole second
        # run without touching the cost model, so the warm proof is: zero cold
        # evaluations, no new memo entries, identical metrics.
        assert backend.last_cold_evaluations == 0
        assert backend.cost_model.cache_size() == entries_after_first
        assert (second.latency_s, second.energy_mj, second.edp) == \
            (first.latency_s, first.energy_mj, first.edp)

    def test_duplicate_task_ids_rejected_like_pool_backend(self, tiny_chip,
                                                           small_workload):
        # Both backends must stay interchangeable on the same input.
        tasks = [EvaluationTask(3, make_fda(tiny_chip, NVDLA), small_workload),
                 EvaluationTask(3, make_fda(tiny_chip, SHIDIANNAO), small_workload)]
        with pytest.raises(SearchError, match="duplicate task_id"):
            SerialBackend().run(tasks)


class TestProcessPoolBackend:
    def test_rejects_bad_parameters(self):
        with pytest.raises(SearchError):
            ProcessPoolBackend(jobs=0)

    def test_matches_serial_backend_on_small_dse(self, small_workload, tiny_chip):
        serial_space = _make_dse(SerialBackend()).explore(
            small_workload, tiny_chip, include_three_way=False)
        pool_backend = ProcessPoolBackend(jobs=2)
        pool_space = _make_dse(pool_backend).explore(
            small_workload, tiny_chip, include_three_way=False)

        assert len(pool_space.points) == len(serial_space.points)
        for ours, theirs in zip(pool_space.points, serial_space.points):
            assert ours.design.name == theirs.design.name
            assert ours.category == theirs.category
            assert ours.latency_s == pytest.approx(theirs.latency_s, rel=1e-12)
            assert ours.energy_mj == pytest.approx(theirs.energy_mj, rel=1e-12)
        for category in serial_space.categories():
            assert (pool_space.best(category).design.name
                    == serial_space.best(category).design.name)

    def test_worker_cache_entries_flow_back_to_parent(self, small_workload,
                                                      tiny_chip):
        model = CostModel()
        backend = ProcessPoolBackend(jobs=2, cost_model=model)
        tasks = [EvaluationTask(i, design, small_workload)
                 for i, design in enumerate(enumerate_fdas(tiny_chip))]
        assert model.cache_size() == 0
        backend.run(tasks)
        assert model.cache_size() > 0
        assert backend.last_new_cache_entries == model.cache_size()

    def test_empty_task_list(self):
        assert ProcessPoolBackend(jobs=2).run([]) == []

    def test_duplicate_task_ids_rejected_before_dispatch(self, tiny_chip,
                                                         small_workload):
        # Results are restored through a task_id -> result map, so duplicate
        # ids would silently drop a result; they must fail fast instead.
        tasks = [EvaluationTask(0, make_fda(tiny_chip, NVDLA), small_workload),
                 EvaluationTask(0, make_fda(tiny_chip, SHIDIANNAO), small_workload)]
        backend = ProcessPoolBackend(jobs=2)
        with pytest.raises(SearchError, match="duplicate task_id"):
            backend.run(tasks)


class _FailingWorkload(WorkloadSpec):
    """A workload whose expansion raises ``error`` when a task evaluates it.

    Shape enumeration still works, so the parent-side checks a backend runs
    before dispatch pass and the error surfaces inside the evaluation.
    """

    error = SchedulingError("no instance fits")

    def instances(self):
        raise self.error


class _BuggyWorkload(_FailingWorkload):
    error = ValueError("a bug, not a fault")


_BACKENDS = [pytest.param(SerialBackend, id="serial"),
             pytest.param(lambda: ProcessPoolBackend(jobs=2), id="pool")]


class TestErrorSurfaceParity:
    """Without retries or chaos, both backends surface task errors alike."""

    def _tasks(self, chip, workload, failing_cls):
        failing = failing_cls(workload.name, list(workload.entries),
                              dict(workload.models))
        return [EvaluationTask(0, make_fda(chip, NVDLA), workload),
                EvaluationTask(1, make_fda(chip, SHIDIANNAO), failing,
                               category="fda")]

    @pytest.mark.parametrize("make_backend", _BACKENDS)
    def test_library_error_is_one_failure_record(self, make_backend,
                                                 tiny_chip, small_workload):
        tasks = self._tasks(tiny_chip, small_workload, _FailingWorkload)
        with pytest.raises(TaskExecutionError) as excinfo:
            make_backend().run(tasks)
        assert excinfo.value.failures == (TaskFailure(
            task_id=1, kind="error", attempts=1, message="no instance fits",
            category="fda"),)

    @pytest.mark.parametrize("make_backend", _BACKENDS)
    def test_programming_error_propagates_unwrapped(self, make_backend,
                                                    tiny_chip, small_workload):
        tasks = self._tasks(tiny_chip, small_workload, _BuggyWorkload)
        with pytest.raises(ValueError, match="a bug, not a fault"):
            make_backend().run(tasks)


class TestEvaluateDesignsSchedulerReuse:
    def test_builds_exactly_one_scheduler_when_none_supplied(
            self, tiny_chip, small_workload, monkeypatch):
        created = []

        class CountingScheduler(HeraldScheduler):
            def __init__(self, *args, **kwargs):
                created.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(repro.core.evaluator, "HeraldScheduler", CountingScheduler)
        designs = enumerate_fdas(tiny_chip)
        results = evaluate_designs(designs, small_workload)
        assert len(results) == len(designs)
        assert len(created) == 1, "evaluate_designs must reuse one scheduler"

    def test_routes_through_backend_when_given(self, tiny_chip, small_workload):
        backend = SerialBackend()
        designs = enumerate_fdas(tiny_chip)
        via_backend = evaluate_designs(designs, small_workload, backend=backend)
        direct = evaluate_designs(designs, small_workload)
        assert set(via_backend) == set(direct)
        for name in direct:
            assert via_backend[name].latency_s == direct[name].latency_s

    def test_rejects_cost_model_alongside_backend(self, tiny_chip, small_workload):
        with pytest.raises(ValueError):
            evaluate_designs(enumerate_fdas(tiny_chip), small_workload,
                             cost_model=CostModel(), backend=SerialBackend())


class TestDSETaskEnumeration:
    def test_enumeration_covers_all_categories(self, small_workload, tiny_chip):
        dse = _make_dse()
        tasks = list(dse.enumerate_tasks(small_workload, tiny_chip,
                                         include_three_way=False))
        categories = {task.category for task in tasks}
        assert categories == {"fda", "sm-fda", "rda", "hda"}
        assert [task.task_id for task in tasks] == list(range(len(tasks)))

    def test_hda_tasks_carry_partitions_and_groups(self, small_workload, tiny_chip):
        dse = _make_dse()
        hda_tasks = [task
                     for task in dse.enumerate_tasks(small_workload, tiny_chip,
                                                     include_three_way=False)
                     if task.category == "hda"]
        assert hda_tasks
        for task in hda_tasks:
            assert task.group.startswith("hda:")
            assert sum(task.pe_partition) == tiny_chip.num_pes

    def test_binary_strategy_adds_refinement_round(self, small_workload, tiny_chip):
        model = CostModel()
        scheduler = HeraldScheduler(model)
        coarse = PartitionSearch(cost_model=model, scheduler=scheduler,
                                 pe_steps=4, bw_steps=1)
        binary = PartitionSearch(cost_model=model, scheduler=scheduler,
                                 pe_steps=4, bw_steps=1, strategy="binary")
        combo = [(NVDLA, SHIDIANNAO)]
        space_coarse = HeraldDSE(cost_model=model, scheduler=scheduler,
                                 partition_search=coarse).explore(
            small_workload, tiny_chip, hda_combinations=combo)
        space_binary = HeraldDSE(cost_model=model, scheduler=scheduler,
                                 partition_search=binary).explore(
            small_workload, tiny_chip, hda_combinations=combo)
        assert len(space_binary.by_category("hda")) > len(space_coarse.by_category("hda"))
        assert space_binary.best("hda").edp <= space_coarse.best("hda").edp
