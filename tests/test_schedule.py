"""Tests for the schedule data structures, accounting, and validation."""

import json
import re

import pytest

from repro.core.schedule import (
    LOAD_IMBALANCE_UNUSED_SENTINEL,
    Schedule,
    ScheduledLayer,
)
from repro.exceptions import SchedulingError
from repro.maestro.cost import CostModel
from repro.maestro.hardware import SubAcceleratorConfig
from repro.dataflow.styles import NVDLA
from repro.models.layer import fc
from repro.units import gbps, mib


def _make_cost(layer):
    sub = SubAcceleratorConfig("acc", NVDLA, num_pes=64,
                               bandwidth_bytes_per_s=gbps(4), buffer_bytes=mib(1))
    return CostModel().layer_cost(layer, sub)


def _entry(name, instance, index, acc, start, finish):
    layer = fc(name, k=64, c=64)
    return ScheduledLayer(layer=layer, instance_id=instance, layer_index=index,
                          sub_accelerator=acc, start_cycle=start, finish_cycle=finish,
                          cost=_make_cost(layer))


def _empty_schedule():
    return Schedule(sub_accelerator_names=("a0", "a1"), clock_hz=1e9,
                    pes_per_sub_accelerator={"a0": 64, "a1": 64})


class TestConstruction:
    def test_add_and_length(self):
        schedule = _empty_schedule()
        schedule.add(_entry("l0", "m#0", 0, "a0", 0, 100))
        assert len(schedule) == 1

    def test_unknown_sub_accelerator_rejected(self):
        schedule = _empty_schedule()
        with pytest.raises(SchedulingError):
            schedule.add(_entry("l0", "m#0", 0, "zzz", 0, 100))

    def test_negative_duration_rejected(self):
        schedule = _empty_schedule()
        with pytest.raises(SchedulingError):
            schedule.add(_entry("l0", "m#0", 0, "a0", 100, 50))

    def test_extend(self):
        schedule = _empty_schedule()
        schedule.extend([_entry("l0", "m#0", 0, "a0", 0, 100),
                         _entry("l1", "m#0", 1, "a1", 100, 150)])
        assert len(schedule) == 2

    def test_entries_round_trip_through_add(self):
        schedule = _empty_schedule()
        schedule.add(_entry("l0", "m#0", 0, "a1", 0, 100))
        schedule.add(_entry("l1", "m#0", 1, "a0", 100, 250))
        clone = _empty_schedule()
        clone.extend(schedule.entries)
        assert clone == schedule
        assert clone.entries == schedule.entries
        assert [entry.sub_accelerator for entry in clone.entries] == ["a1", "a0"]


class TestAccounting:
    def _populated(self):
        schedule = _empty_schedule()
        schedule.add(_entry("l0", "m#0", 0, "a0", 0, 100))
        schedule.add(_entry("l1", "m#0", 1, "a1", 100, 250))
        schedule.add(_entry("l0", "n#0", 0, "a1", 250, 300))
        return schedule

    def test_makespan(self):
        assert self._populated().makespan_cycles == 300
        assert self._populated().makespan_seconds == pytest.approx(300e-9)

    def test_empty_makespan_zero(self):
        assert _empty_schedule().makespan_cycles == 0.0

    def test_busy_and_idle_cycles(self):
        schedule = self._populated()
        assert schedule.busy_cycles("a0") == 100
        assert schedule.busy_cycles("a1") == 200
        assert schedule.idle_cycles("a0") == 200

    def test_utilisation(self):
        schedule = self._populated()
        assert schedule.utilisation("a0") == pytest.approx(100 / 300)
        assert schedule.utilisation("a1") == pytest.approx(200 / 300)

    def test_load_imbalance(self):
        assert self._populated().load_imbalance() == pytest.approx(2.0)

    def test_layer_counts(self):
        assert self._populated().layer_counts() == {"a0": 1, "a1": 2}

    def test_dynamic_energy_is_sum_of_layers(self):
        schedule = self._populated()
        assert schedule.dynamic_energy_pj == pytest.approx(
            sum(entry.energy_pj for entry in schedule.entries))

    def test_idle_energy_zero_without_leakage(self):
        assert self._populated().idle_energy_pj == 0.0

    def test_idle_energy_with_leakage(self):
        schedule = self._populated()
        schedule.idle_energy_pj_per_cycle_per_pe = 0.01
        assert schedule.idle_energy_pj > 0.0

    def test_edp_product(self):
        schedule = self._populated()
        assert schedule.edp == pytest.approx(
            schedule.total_energy_pj * 1e-12 * schedule.makespan_seconds)

    def test_entries_for_instance_sorted_by_index(self):
        chain = self._populated().entries_for_instance("m#0")
        assert [entry.layer_index for entry in chain] == [0, 1]

    def test_summary_keys(self):
        assert set(self._populated().summary()) == {
            "latency_s", "energy_mj", "edp_js", "num_layers", "load_imbalance"}

    def test_describe_contains_counts(self):
        assert "3 layer executions" in self._populated().describe()

    def test_unused_sub_accelerator_summary_is_strict_json(self):
        # One sub-accelerator never runs a layer: load_imbalance() is inf, but
        # summary() must stay finite so strict-JSON dumps don't blow up.
        schedule = _empty_schedule()
        schedule.add(_entry("l0", "m#0", 0, "a0", 0, 100))
        assert schedule.load_imbalance() == float("inf")
        summary = schedule.summary()
        assert summary["load_imbalance"] == LOAD_IMBALANCE_UNUSED_SENTINEL
        parsed = json.loads(json.dumps(summary, allow_nan=False))
        assert parsed["load_imbalance"] == LOAD_IMBALANCE_UNUSED_SENTINEL

    def test_timeline_cache_invalidated_by_add(self):
        schedule = self._populated()
        assert schedule.busy_cycles("a1") == 200
        assert [e.layer.name for e in schedule.entries_for("a1")] == ["l1", "l0"]
        schedule.add(_entry("l1", "n#0", 1, "a1", 300, 360))
        assert schedule.busy_cycles("a1") == 260
        assert len(schedule.entries_for("a1")) == 3
        # The untouched sub-accelerator's figures stay correct too.
        assert schedule.busy_cycles("a0") == 100

    def test_timeline_cache_survives_direct_entries_mutation(self):
        schedule = self._populated()
        assert schedule.busy_cycles("a0") == 100
        # Rows are stored column-wise and .entries is a read-only view: an
        # append that bypasses add() raises instead of going unaccounted.
        with pytest.raises(AttributeError):
            schedule.entries.append(_entry("x", "m#0", 2, "a0", 300, 450))
        assert len(schedule) == 3
        assert schedule.busy_cycles("a0") == 100

    def test_add_after_direct_mutation_does_not_mask_invalidation(self):
        schedule = self._populated()
        assert schedule.busy_cycles("a0") == 100
        # A refused direct append on a0, then add() on a1: both arrays'
        # figures reflect exactly the rows that went through add().
        with pytest.raises(AttributeError):
            schedule.entries.append(_entry("x", "m#0", 2, "a0", 300, 450))
        schedule.add(_entry("y", "n#0", 1, "a1", 300, 360))
        assert len(schedule) == 4
        assert schedule.busy_cycles("a0") == 100
        assert schedule.busy_cycles("a1") == 260

    def test_entries_for_returns_independent_list(self):
        schedule = self._populated()
        timeline = schedule.entries_for("a1")
        timeline.clear()
        assert len(schedule.entries_for("a1")) == 2


def _rejected(schedule, message, expected_layers=None):
    with pytest.raises(SchedulingError, match=f"^{re.escape(message)}$"):
        schedule.validate(expected_layers=expected_layers)


class TestValidation:
    """Every ``SchedulingError`` branch of ``validate``, with its message."""

    def test_valid_schedule_passes(self):
        schedule = _empty_schedule()
        schedule.add(_entry("l0", "m#0", 0, "a0", 0, 100))
        schedule.add(_entry("l1", "m#0", 1, "a0", 100, 200))
        schedule.validate(expected_layers={"m#0": 2})

    def test_overlap_on_same_sub_accelerator_rejected(self):
        schedule = _empty_schedule()
        schedule.add(_entry("l0", "m#0", 0, "a0", 0, 100))
        schedule.add(_entry("l0", "n#0", 0, "a0", 50, 150))
        _rejected(schedule, "sub-accelerator 'a0': n#0/l0 starts at 50 before "
                            "m#0/l0 finishes at 100")

    def test_overlap_is_found_whatever_the_commit_order(self):
        schedule = _empty_schedule()
        schedule.add(_entry("l0", "n#0", 0, "a1", 120, 200))
        schedule.add(_entry("l0", "m#0", 0, "a1", 0, 150))
        _rejected(schedule, "sub-accelerator 'a1': n#0/l0 starts at 120 before "
                            "m#0/l0 finishes at 150")

    def test_zero_length_layer_at_a_neighbours_start_is_no_overlap(self):
        # Ordered by (start, finish), the zero-length layer comes first.
        schedule = _empty_schedule()
        schedule.add(_entry("l0", "m#0", 0, "a0", 100, 200))
        schedule.add(_entry("l0", "n#0", 0, "a0", 100, 100))
        schedule.validate()

    def test_dependence_violation_rejected(self):
        schedule = _empty_schedule()
        schedule.add(_entry("l0", "m#0", 0, "a0", 0, 100))
        schedule.add(_entry("l1", "m#0", 1, "a1", 50, 150))
        _rejected(schedule, "instance 'm#0': layer 'l1' starts before its "
                            "predecessor 'l0' finishes")

    def test_duplicate_layer_index_rejected(self):
        schedule = _empty_schedule()
        schedule.add(_entry("l0", "m#0", 0, "a0", 0, 100))
        schedule.add(_entry("l0b", "m#0", 0, "a1", 100, 200))
        _rejected(schedule,
                  "instance 'm#0': a layer index is scheduled more than once")

    def test_non_contiguous_indices_rejected(self):
        schedule = _empty_schedule()
        schedule.add(_entry("l0", "m#0", 0, "a0", 0, 100))
        schedule.add(_entry("l2", "m#0", 2, "a0", 100, 200))
        _rejected(schedule, "instance 'm#0': layer indices are not contiguous "
                            "(0 followed by 2)")

    def test_producer_not_scheduled_rejected(self):
        schedule = _empty_schedule()
        schedule.instance_predecessors = {"m#0": (frozenset(), frozenset({0}))}
        schedule.add(_entry("l1", "m#0", 1, "a0", 0, 100))
        _rejected(schedule, "instance 'm#0': layer 'l1' is scheduled but its "
                            "producer (layer index 0) is not")

    def test_layer_index_out_of_range_rejected(self):
        schedule = _empty_schedule()
        schedule.instance_predecessors = {"m#0": (frozenset(),)}
        schedule.add(_entry("l3", "m#0", 3, "a0", 0, 100))
        _rejected(schedule, "instance 'm#0': layer index 3 is outside the "
                            "instance's 1 layers")

    def test_start_before_producer_of_full_instance_rejected(self):
        schedule = _empty_schedule()
        schedule.instance_predecessors = {"m#0": (frozenset(), frozenset({0}))}
        schedule.add(_entry("l0", "m#0", 0, "a0", 0, 100))
        schedule.add(_entry("l1", "m#0", 1, "a1", 50, 150))
        _rejected(schedule, "instance 'm#0': layer 'l1' starts at 50 before its "
                            "producer 'l0' finishes at 100")

    def test_start_before_producer_of_partial_instance_rejected(self):
        schedule = _empty_schedule()
        schedule.instance_predecessors = {
            "m#0": (frozenset(), frozenset({0}), frozenset({1}))}
        schedule.add(_entry("l1", "m#0", 1, "a1", 50, 150))
        schedule.add(_entry("l0", "m#0", 0, "a0", 0, 100))
        _rejected(schedule, "instance 'm#0': layer 'l1' starts at 50 before its "
                            "producer 'l0' finishes at 100")

    def test_start_before_release_rejected(self):
        schedule = _empty_schedule()
        schedule.instance_release_cycles = {"m#0": 500.0}
        schedule.add(_entry("l0", "m#0", 0, "a0", 100, 200))
        _rejected(schedule, "instance 'm#0': layer 'l0' starts at 100 before "
                            "the frame's release at 500")

    def test_missing_layers_detected(self):
        schedule = _empty_schedule()
        schedule.add(_entry("l0", "m#0", 0, "a0", 0, 100))
        _rejected(schedule, "instance 'm#0': expected 2 scheduled layers, "
                            "found 1", expected_layers={"m#0": 2})

    def test_unknown_instance_detected(self):
        schedule = _empty_schedule()
        schedule.add(_entry("l0", "ghost#0", 0, "a0", 0, 100))
        _rejected(schedule, "instance 'm#0': expected 1 scheduled layers, "
                            "found 0", expected_layers={"m#0": 1})

    def test_unexpected_instance_rejected(self):
        schedule = _empty_schedule()
        schedule.add(_entry("l0", "m#0", 0, "a0", 0, 100))
        schedule.add(_entry("l0", "ghost#0", 0, "a1", 0, 100))
        _rejected(schedule, "schedule contains unknown instances: ['ghost#0']",
                  expected_layers={"m#0": 1})

    def test_parallel_execution_on_different_sub_accelerators_allowed(self):
        schedule = _empty_schedule()
        schedule.add(_entry("l0", "m#0", 0, "a0", 0, 100))
        schedule.add(_entry("l0", "n#0", 0, "a1", 0, 80))
        schedule.validate(expected_layers={"m#0": 1, "n#0": 1})
