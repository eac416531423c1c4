"""Executable reference of Herald's scheduler (Sec. IV-D, Fig. 8-9).

``HeraldScheduler`` runs the decision procedure as one pipeline over dense
per-slot arrays.  This module spells the same procedure out the
straightforward way, built only on public APIs (workload expansion, the cost
model, :class:`Schedule`), so the equivalence tests can compare the two end to
end:

* the defer/rescan visit loop of Fig. 8, with the global-buffer check
  recomputed from scratch at every step;
* the generic preference-order walk with load-balance feedback, querying the
  cost model and re-sorting the sub-accelerators for every layer;
* the quadratic full-rescan list schedule of Fig. 9 (post-processing on);
* the strict-order replay (post-processing off).

None of it is fast, and none of it should be: it is the specification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.schedule import Schedule, ScheduledLayer
from repro.core.scheduler import HeraldScheduler, checked_release_cycles
from repro.exceptions import SchedulingError
from repro.maestro.cost import CostModel, LayerCost, metric_value
from repro.maestro.hardware import SubAcceleratorConfig
from repro.models.layer import Layer
from repro.units import BYTES_PER_ELEMENT
from repro.workloads.spec import WorkloadSpec


@dataclass
class Assignment:
    """One layer-to-sub-accelerator decision of the initial step.

    ``unmet_producers`` and ``data_ready_cycle`` are timeline scratch state,
    reset by every timeline builder.
    """

    order_index: int
    instance_id: str
    layer_index: int
    layer: Layer
    sub_accelerator: str
    cost: LayerCost
    predecessors: Tuple[int, ...] = ()
    unmet_producers: int = 0
    data_ready_cycle: float = 0.0


def empty_schedule(cost_model: CostModel,
                   sub_accelerators: Sequence[SubAcceleratorConfig]) -> Schedule:
    """An empty schedule configured exactly as the production scheduler's."""
    return Schedule(
        sub_accelerator_names=tuple(acc.name for acc in sub_accelerators),
        clock_hz=sub_accelerators[0].clock_hz,
        idle_energy_pj_per_cycle_per_pe=(
            cost_model.energy_table.leakage_per_cycle_per_pe),
        pes_per_sub_accelerator={acc.name: acc.num_pes
                                 for acc in sub_accelerators},
    )


def _seed_timeline(assignments: Sequence[Assignment],
                   release_cycles: Optional[Mapping[str, float]]) -> None:
    for assignment in assignments:
        assignment.unmet_producers = len(assignment.predecessors)
        assignment.data_ready_cycle = (
            release_cycles.get(assignment.instance_id, 0.0)
            if release_cycles else 0.0)


def list_schedule(assignments: Sequence[Assignment], schedule: Schedule,
                  release_cycles: Optional[Mapping[str, float]] = None
                  ) -> Schedule:
    """Fig. 9 post-processing as an O(n^2) full rescan, filling ``schedule``.

    Whenever a sub-accelerator frees up it starts the earliest *ready* layer
    assigned to it: each step scans every pending layer on every
    sub-accelerator and commits the one with the smallest ``(start,
    order_index)``, where ``start = max(sub-accelerator available, data
    ready)``.  A layer's data is ready at its instance's release (zero
    without ``release_cycles``), raised by each producer's finish.
    """
    _seed_timeline(assignments, release_cycles)
    pending: Dict[str, List[Assignment]] = {
        name: [] for name in schedule.sub_accelerator_names}
    consumers: Dict[Tuple[str, int], List[Assignment]] = {}
    for assignment in assignments:
        pending[assignment.sub_accelerator].append(assignment)
        for producer in assignment.predecessors:
            consumers.setdefault((assignment.instance_id, producer),
                                 []).append(assignment)
    for queue in pending.values():
        queue.sort(key=lambda a: a.order_index)
    acc_avail = {name: 0.0 for name in schedule.sub_accelerator_names}

    for _ in range(len(assignments)):
        best_key: Optional[Tuple[float, int]] = None
        best_choice: Optional[Tuple[str, Assignment]] = None
        for acc_name, queue in pending.items():
            avail = acc_avail[acc_name]
            for assignment in queue:
                if assignment.unmet_producers:
                    continue
                start = max(avail, assignment.data_ready_cycle)
                key = (start, assignment.order_index)
                if best_key is None or key < best_key:
                    best_key = key
                    best_choice = (acc_name, assignment)
        if best_choice is None:
            raise SchedulingError("reference list schedule dead-locked")
        acc_name, assignment = best_choice
        start = best_key[0]
        finish = start + assignment.cost.latency_cycles
        schedule.add(ScheduledLayer(
            layer=assignment.layer, instance_id=assignment.instance_id,
            layer_index=assignment.layer_index, sub_accelerator=acc_name,
            start_cycle=start, finish_cycle=finish, cost=assignment.cost))
        acc_avail[acc_name] = finish
        for consumer in consumers.get(
                (assignment.instance_id, assignment.layer_index), ()):
            consumer.unmet_producers -= 1
            consumer.data_ready_cycle = max(consumer.data_ready_cycle, finish)
        pending[acc_name].remove(assignment)
    return schedule


def replay_in_order(assignments: Sequence[Assignment], schedule: Schedule,
                    release_cycles: Optional[Mapping[str, float]] = None
                    ) -> Schedule:
    """The timeline strictly in initial-assignment order (no gap filling).

    A layer starts at the latest of its sub-accelerator becoming free, its
    instance's release, and each of its true producers finishing.
    """
    acc_avail = {name: 0.0 for name in schedule.sub_accelerator_names}
    finish_times: Dict[Tuple[str, int], float] = {}
    for assignment in sorted(assignments, key=lambda a: a.order_index):
        start = acc_avail[assignment.sub_accelerator]
        if release_cycles:
            start = max(start, release_cycles.get(assignment.instance_id, 0.0))
        for producer in assignment.predecessors:
            start = max(start, finish_times[(assignment.instance_id, producer)])
        finish = start + assignment.cost.latency_cycles
        schedule.add(ScheduledLayer(
            layer=assignment.layer, instance_id=assignment.instance_id,
            layer_index=assignment.layer_index,
            sub_accelerator=assignment.sub_accelerator,
            start_cycle=start, finish_cycle=finish, cost=assignment.cost))
        acc_avail[assignment.sub_accelerator] = finish
        finish_times[(assignment.instance_id, assignment.layer_index)] = finish
    return schedule


class ReferenceScheduler:
    """The reference decision procedure, with ``HeraldScheduler``'s options."""

    def __init__(self, cost_model: CostModel, metric: str = "edp",
                 ordering: str = "breadth",
                 load_balance_factor: Optional[float] = 1.25,
                 memory_limit_bytes: Optional[int] = None,
                 enable_post_processing: bool = True) -> None:
        self.cost_model = cost_model
        self.metric = metric
        self.ordering = ordering
        self.load_balance_factor = load_balance_factor
        self.memory_limit_bytes = memory_limit_bytes
        self.enable_post_processing = enable_post_processing
        self.last_memory_violations = 0

    def schedule(self, workload: WorkloadSpec,
                 sub_accelerators: Sequence[SubAcceleratorConfig],
                 release_cycles: Optional[Mapping[str, float]] = None
                 ) -> Schedule:
        instances = workload.instances()
        releases = checked_release_cycles(release_cycles, instances)
        assignments = self.initial_assignment(workload, sub_accelerators)
        timeline = (list_schedule if self.enable_post_processing
                    else replay_in_order)
        schedule = timeline(assignments,
                            empty_schedule(self.cost_model, sub_accelerators),
                            releases)
        schedule.instance_predecessors = workload.instance_dependences()
        if releases:
            schedule.instance_release_cycles = releases
        schedule.validate(expected_layers={
            instance.instance_id: instance.num_layers for instance in instances})
        return schedule

    # ------------------------------------------------------------------
    # Fig. 8: initial assignment
    # ------------------------------------------------------------------
    def initial_assignment(self, workload: WorkloadSpec,
                           sub_accelerators: Sequence[SubAcceleratorConfig]
                           ) -> List[Assignment]:
        """Visit instances in order, deferring heads that overflow the buffer.

        The visit queue holds the instances with layers left.  Each step
        commits the first queued instance whose head fits the global-buffer
        budget; when none fits, the first deferred head is committed anyway
        and counted as a DRAM-spill violation.  A committed instance rotates
        to the back under breadth-first ordering and stays in place under
        depth-first ordering; an exhausted one leaves the queue.
        """
        instances = workload.instances()
        layers = [instance.layers_in_dependence_order() for instance in instances]
        predecessors = [instance.predecessor_indices() for instance in instances]
        successors = [instance.successor_indices() for instance in instances]
        committed = [0] * len(instances)
        busy = {acc.name: 0.0 for acc in sub_accelerators}
        assignments: List[Assignment] = []
        self.last_memory_violations = 0
        queue = [index for index in range(len(instances)) if layers[index]]

        def live_bytes(index: int, exclude_consumers_of: Optional[int]) -> int:
            done = committed[index]
            return sum(
                layers[index][producer].output_elements * BYTES_PER_ELEMENT
                for producer in range(done)
                if any(consumer >= done for consumer in successors[index][producer])
                and exclude_consumers_of not in successors[index][producer])

        def fits(index: int) -> bool:
            if self.memory_limit_bytes is None:
                return True
            head = committed[index]
            layer = layers[index][head]
            live = sum(live_bytes(other, None)
                       for other in range(len(instances)) if other != index)
            live += live_bytes(index, head)
            required = ((layer.input_elements + layer.output_elements)
                        * BYTES_PER_ELEMENT)
            return live + required <= self.memory_limit_bytes

        while queue:
            deferred: Optional[int] = None
            chosen: Optional[int] = None
            for position, index in enumerate(queue):
                if fits(index):
                    chosen = position
                    break
                if deferred is None:
                    deferred = position
            if chosen is None:
                self.last_memory_violations += 1
                chosen = deferred
            index = queue[chosen]
            position = committed[index]
            layer = layers[index][position]
            acc_name, cost = self.choose_sub_accelerator(layer, sub_accelerators,
                                                         busy)
            busy[acc_name] += cost.latency_cycles
            assignments.append(Assignment(
                order_index=len(assignments),
                instance_id=instances[index].instance_id,
                layer_index=position, layer=layer, sub_accelerator=acc_name,
                cost=cost,
                predecessors=tuple(sorted(predecessors[index][position]))))
            committed[index] += 1
            if committed[index] >= len(layers[index]):
                queue.pop(chosen)
            elif self.ordering == "breadth":
                queue.append(queue.pop(chosen))
        return assignments

    def choose_sub_accelerator(self, layer: Layer,
                               sub_accelerators: Sequence[SubAcceleratorConfig],
                               busy: Dict[str, float]) -> Tuple[str, LayerCost]:
        """Preference order plus load-balance feedback for one layer.

        Sub-accelerators are ranked by the metric (ties by name).  With the
        feedback on, the first in preference order whose projected finish
        (its load plus this layer's latency there) is within
        ``load_balance_factor`` of the best projected finish wins.
        """
        ranked = sorted(
            ((metric_value(self.cost_model.layer_cost(layer, acc), self.metric),
              acc.name, self.cost_model.layer_cost(layer, acc))
             for acc in sub_accelerators),
            key=lambda row: (row[0], row[1]))
        if self.load_balance_factor is None or len(ranked) == 1:
            _, name, cost = ranked[0]
            return name, cost
        finishes = [busy[name] + cost.latency_cycles for _, name, cost in ranked]
        bound = self.load_balance_factor * min(finishes)
        for finish, (_, name, cost) in zip(finishes, ranked):
            if finish <= bound:
                return name, cost
        _, name, cost = ranked[0]
        return name, cost


def timeline(schedule: Schedule) -> List[Tuple]:
    """Every decision of a schedule: who ran where, when."""
    return [(e.instance_id, e.layer_index, e.sub_accelerator, e.start_cycle,
             e.finish_cycle) for e in schedule.entries]


def assert_matches_reference(cost_model: CostModel, workload: WorkloadSpec,
                             sub_accelerators: Sequence[SubAcceleratorConfig],
                             release_cycles: Optional[Mapping[str, float]] = None,
                             **options) -> Tuple[Schedule, int]:
    """``HeraldScheduler.schedule`` equals the reference end to end.

    Compares the timelines, the summary metrics and the memory-violation
    count; returns the production schedule and its violation count for
    further checks.
    """
    production = HeraldScheduler(cost_model, **options)
    reference = ReferenceScheduler(cost_model, **options)
    produced = production.schedule(workload, sub_accelerators,
                                   release_cycles=release_cycles)
    expected = reference.schedule(workload, sub_accelerators,
                                  release_cycles=release_cycles)
    assert timeline(produced) == timeline(expected)
    assert produced.summary() == expected.summary()
    assert production.last_memory_violations == reference.last_memory_violations
    return produced, production.last_memory_violations
