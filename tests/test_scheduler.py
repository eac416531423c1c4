"""Tests for Herald's scheduler and the greedy baseline."""

import pytest

import reference_scheduler
from repro.accel.builders import make_hda
from repro.accel.classes import ACCELERATOR_CLASSES
from repro.core.greedy import GreedyScheduler
from repro.core.scheduler import HeraldScheduler
from repro.dataflow.styles import EYERISS, NVDLA, SHIDIANNAO
from repro.exceptions import SchedulingError
from repro.units import mib
from repro.workloads.suites import arvr_a


class TestHeraldSchedulerConfiguration:
    def test_invalid_metric_rejected(self, cost_model):
        with pytest.raises(SchedulingError):
            HeraldScheduler(cost_model, metric="throughput")

    def test_invalid_ordering_rejected(self, cost_model):
        with pytest.raises(SchedulingError):
            HeraldScheduler(cost_model, ordering="random")

    def test_invalid_load_balance_factor_rejected(self, cost_model):
        with pytest.raises(SchedulingError):
            HeraldScheduler(cost_model, load_balance_factor=0.5)

    def test_empty_sub_accelerator_list_rejected(self, cost_model, small_workload):
        scheduler = HeraldScheduler(cost_model)
        with pytest.raises(SchedulingError):
            scheduler.schedule(small_workload, [])


class TestHeraldSchedulerBehaviour:
    def test_schedule_is_complete_and_valid(self, cost_model, small_workload,
                                             tiny_sub_accelerators):
        scheduler = HeraldScheduler(cost_model)
        schedule = scheduler.schedule(small_workload, tiny_sub_accelerators)
        assert len(schedule) == small_workload.total_layers
        # validate() already ran inside schedule(); run it again explicitly.
        schedule.validate({i.instance_id: i.num_layers for i in small_workload.instances()})

    def test_every_sub_accelerator_is_used_on_heterogeneous_mix(
            self, cost_model, small_workload, tiny_sub_accelerators):
        schedule = HeraldScheduler(cost_model).schedule(small_workload,
                                                        tiny_sub_accelerators)
        counts = schedule.layer_counts()
        assert all(count > 0 for count in counts.values())

    def test_single_sub_accelerator_is_sequential(self, cost_model, small_workload,
                                                  tiny_sub_accelerators):
        schedule = HeraldScheduler(cost_model).schedule(small_workload,
                                                        (tiny_sub_accelerators[0],))
        timeline = schedule.entries_for(tiny_sub_accelerators[0].name)
        assert schedule.makespan_cycles == pytest.approx(
            sum(entry.duration_cycles for entry in timeline))

    def test_post_processing_never_hurts_makespan(self, cost_model, small_workload,
                                                  tiny_sub_accelerators):
        with_pp = HeraldScheduler(cost_model, enable_post_processing=True)
        without_pp = HeraldScheduler(cost_model, enable_post_processing=False)
        makespan_pp = with_pp.schedule(small_workload, tiny_sub_accelerators).makespan_cycles
        makespan_raw = without_pp.schedule(small_workload,
                                           tiny_sub_accelerators).makespan_cycles
        assert makespan_pp <= makespan_raw + 1e-6

    def test_load_balancing_reduces_imbalance(self, cost_model, small_workload,
                                              tiny_sub_accelerators):
        balanced = HeraldScheduler(cost_model, load_balance_factor=1.1).schedule(
            small_workload, tiny_sub_accelerators)
        unbalanced = HeraldScheduler(cost_model, load_balance_factor=None).schedule(
            small_workload, tiny_sub_accelerators)
        assert balanced.load_imbalance() <= unbalanced.load_imbalance() + 1e-6

    def test_depth_and_breadth_orderings_both_valid(self, cost_model, small_workload,
                                                    tiny_sub_accelerators):
        for ordering in ("breadth", "depth"):
            scheduler = HeraldScheduler(cost_model, ordering=ordering)
            schedule = scheduler.schedule(small_workload, tiny_sub_accelerators)
            assert len(schedule) == small_workload.total_layers

    def test_latency_metric_schedule_is_no_slower_than_energy_metric(
            self, cost_model, small_workload, tiny_sub_accelerators):
        latency_first = HeraldScheduler(cost_model, metric="latency").schedule(
            small_workload, tiny_sub_accelerators)
        energy_first = HeraldScheduler(cost_model, metric="energy").schedule(
            small_workload, tiny_sub_accelerators)
        assert latency_first.makespan_cycles <= energy_first.makespan_cycles * 1.2

    def test_memory_limit_violations_are_counted(self, cost_model, small_workload,
                                                 tiny_sub_accelerators):
        scheduler = HeraldScheduler(cost_model, memory_limit_bytes=1024)
        scheduler.schedule(small_workload, tiny_sub_accelerators)
        assert scheduler.last_memory_violations > 0

    def test_generous_memory_limit_has_no_violations(self, cost_model, small_workload,
                                                     tiny_sub_accelerators):
        scheduler = HeraldScheduler(cost_model, memory_limit_bytes=mib(1024))
        scheduler.schedule(small_workload, tiny_sub_accelerators)
        assert scheduler.last_memory_violations == 0

    def test_deterministic_output(self, cost_model, small_workload, tiny_sub_accelerators):
        first = HeraldScheduler(cost_model).schedule(small_workload, tiny_sub_accelerators)
        second = HeraldScheduler(cost_model).schedule(small_workload, tiny_sub_accelerators)
        assert [(e.instance_id, e.layer.name, e.sub_accelerator, e.start_cycle)
                for e in first.entries] == \
               [(e.instance_id, e.layer.name, e.sub_accelerator, e.start_cycle)
                for e in second.entries]

    def test_layers_follow_dataflow_preference_without_load_pressure(
            self, cost_model, tiny_sub_accelerators, channel_heavy_model):
        # A purely channel-heavy model should land (almost) entirely on the
        # NVDLA-style sub-accelerator when load balancing is disabled.
        from repro.workloads.spec import WorkloadSpec
        workload = WorkloadSpec.from_models("channel-only", [channel_heavy_model], 1)
        schedule = HeraldScheduler(cost_model, load_balance_factor=None).schedule(
            workload, tiny_sub_accelerators)
        counts = schedule.layer_counts()
        assert counts["acc0-nvdla"] == len(channel_heavy_model)


class TestWideDesigns:
    """Designs with more than two sub-accelerators outside the default options.

    The load-balance walk for three or more sub-accelerators once lived in a
    separate general path that crashed on memory-limited three-way designs
    and on four-way designs without post-processing.
    """

    def _check(self, cost_model, styles, **options):
        workload = arvr_a()
        design = make_hda(ACCELERATOR_CLASSES["edge"], styles)
        schedule, violations = reference_scheduler.assert_matches_reference(
            cost_model, workload, design.sub_accelerators, **options)
        assert len(schedule) == workload.total_layers
        schedule.validate({instance.instance_id: instance.num_layers
                           for instance in workload.instances()})
        return schedule, violations

    def test_memory_limited_three_way_hda(self, cost_model):
        _, violations = self._check(cost_model, [NVDLA, SHIDIANNAO, EYERISS],
                                    memory_limit_bytes=mib(1))
        assert violations > 0

    def test_four_way_hda_without_post_processing(self, cost_model):
        schedule, _ = self._check(cost_model,
                                  [NVDLA, SHIDIANNAO, EYERISS, NVDLA],
                                  enable_post_processing=False)
        assert all(count > 0 for count in schedule.layer_counts().values())


class TestGreedyScheduler:
    def test_invalid_metric_rejected(self, cost_model):
        with pytest.raises(SchedulingError):
            GreedyScheduler(cost_model, metric="bogus")

    def test_empty_sub_accelerators_rejected(self, cost_model, small_workload):
        with pytest.raises(SchedulingError):
            GreedyScheduler(cost_model).schedule(small_workload, [])

    def test_schedule_is_complete_and_valid(self, cost_model, small_workload,
                                            tiny_sub_accelerators):
        schedule = GreedyScheduler(cost_model).schedule(small_workload,
                                                        tiny_sub_accelerators)
        assert len(schedule) == small_workload.total_layers

    def test_herald_never_worse_than_greedy_on_edp(self, cost_model, small_workload,
                                                   tiny_sub_accelerators):
        herald = HeraldScheduler(cost_model).schedule(small_workload,
                                                      tiny_sub_accelerators)
        greedy = GreedyScheduler(cost_model).schedule(small_workload,
                                                      tiny_sub_accelerators)
        assert herald.edp <= greedy.edp * 1.05

    def test_herald_reduces_makespan_vs_greedy(self, cost_model, small_workload,
                                               tiny_sub_accelerators):
        herald = HeraldScheduler(cost_model).schedule(small_workload,
                                                      tiny_sub_accelerators)
        greedy = GreedyScheduler(cost_model).schedule(small_workload,
                                                      tiny_sub_accelerators)
        assert herald.makespan_cycles <= greedy.makespan_cycles * 1.05
