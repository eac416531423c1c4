"""Hot-path performance-regression harness (standalone, stdlib-only).

Measures the three hot paths the overhaul targets and writes a
machine-readable ``BENCH_hotpaths.json`` at the repository root so the
performance trajectory is comparable across PRs:

* **Cost-model throughput** — cold and warm query rates on the AR/VR-A suite,
  new shape-keyed memo vs an in-benchmark emulation of the historical
  full-``Layer`` key, plus the cold-pass hit rate (the fraction of queries a
  single sweep over the workload serves from the memo).  The hit rate is a
  pure function of the key scheme, so it doubles as the CI regression gate:
  if someone re-introduces identity fields into the key it drops immediately.
  When numpy is importable the section also batch-estimates the same queries
  through the vectorised cost core and asserts the table bitwise-identical to
  the scalar estimator (``vectorized_identical``, a ``--check`` gate; skipped
  as ``null`` on numpy-free interpreters).
* **List-schedule scaling** — warm ``HeraldScheduler.schedule`` (its
  heap-based event-driven timeline) vs the quadratic full-rescan list
  schedule of ``tests/reference_scheduler.py`` at n = 50 / 200 / 800 layer
  executions; the heap growth ratio should track O(n log n), the reference
  O(n^2).
* **Warm repeated scheduling** and one **end-to-end ``explore()``** (the
  Fig. 11 sweep) — full legacy emulation (key scheme + per-layer ranking +
  quadratic list schedule) vs the current implementation, with the DSE
  rankings asserted identical.
* **Serving and fleet overhead** — online-mode scheduling cost over the batch
  path, router dispatch cost, and multi-chip fleet simulation at 1 / 2 / 4
  chips; both sections carry the correctness gates ``--check`` enforces
  (all-zero release trace ≡ batch timeline, single-chip passthrough fleet ≡
  bare serving simulator).

Usage::

    PYTHONPATH=src python benchmarks/bench_hot_paths.py [--quick] [--check]
                                                        [--output PATH]

``--quick`` shrinks the sizes for CI; ``--check`` compares the cold-pass hit
rate against the checked-in baseline and exits non-zero on regression.  All
benchmarks are macro-level single-process measurements; speedups below are
against the *emulated* seed behaviour, which the equivalence test suite pins
bit-for-bit to the real one.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
for _path in (os.path.join(_ROOT, "src"), os.path.join(_ROOT, "tests")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import contextlib

import reference_scheduler
from repro.accel.classes import ACCELERATOR_CLASSES
from repro.core.dse import HeraldDSE
from repro.core.partitioner import PartitionSearch
from repro.core.schedule import Schedule, SchedulingError
from repro.core.scheduler import (HeraldScheduler, _InstanceState,
                                  checked_release_cycles)
from repro.dataflow import mapping as mapping_module
from repro.dataflow.mapping import build_mapping
from repro.dataflow.styles import NVDLA, SHIDIANNAO
from repro.exec.backends import SerialBackend
from repro.maestro import cost as cost_module
from repro.maestro.batch import numpy_available
from repro.maestro.cost import CostModel, clear_all_memos, metric_value
from repro.maestro.hardware import SubAcceleratorConfig
from repro.maestro.reuse import analyse_reuse
from repro.models.graph import ModelGraph
from repro.models.layer import conv2d, pwconv
from repro.accel.design import AcceleratorDesign, AcceleratorKind
from repro.serve import (
    ChipFailure,
    FaultSpec,
    Fleet,
    FleetSimulator,
    FrameCostEstimator,
    Router,
    ServingSimulator,
    streaming_suite,
    traffic_suite,
)
from repro.units import BYTES_PER_ELEMENT, gbps, mib
from repro.workloads.spec import WorkloadSpec
from repro.workloads.suites import arvr_a, arvr_b, mlperf

DEFAULT_OUTPUT = os.path.join(_ROOT, "BENCH_hotpaths.json")

#: Tolerated absolute drop in the cold-pass hit rate before --check fails.
HIT_RATE_TOLERANCE = 0.005


# ---------------------------------------------------------------------------
# Legacy emulation (the seed's behaviour, reproduced for comparison)
# ---------------------------------------------------------------------------

class LegacyLayerCost(cost_module.LayerCost):
    """Seed cost records: latency and energy roll-ups recomputed per access."""

    @property
    def latency_cycles(self):
        return (max(self.compute_cycles, self.noc_cycles, self.dram_cycles)
                + self.overhead_cycles)

    @property
    def energy_pj(self):
        return (self.energy_compute_pj + self.energy_rf_pj
                + self.energy_local_pj + self.energy_noc_pj
                + self.energy_sram_pj + self.energy_dram_pj
                + self.energy_overhead_pj)

    @property
    def latency_s(self):
        return cost_module.cycles_to_seconds(self.latency_cycles, self.clock_hz)

    @property
    def edp(self):
        return (self.energy_pj * 1e-12) * self.latency_s


class LegacyCostModel(CostModel):
    """Emulates the seed memo key: the full ``Layer`` (identity included).

    Identically-shaped layers with different names / model names get separate
    entries, exactly like the pre-overhaul ``CostModel._key`` that embedded
    the layer itself; estimates carry the seed's per-access roll-up
    recomputation.
    """

    def _key(self, layer, sub_accelerator):
        return (layer,) + self.hardware_key(sub_accelerator)

    def _estimate_on(self, layer, style, sub_accelerator, reconfigurable):
        cost = super()._estimate_on(layer, style, sub_accelerator,
                                    reconfigurable)
        return LegacyLayerCost(**{field.name: getattr(cost, field.name)
                                  for field in dataclasses.fields(cost)})


def _seed_search_factors(dims, budget):
    """The seed's factor search: generic recursion over the spatial dims.

    The overhaul replaced this with memoised explicit loops; the legacy arm
    patches this copy back in so it pays the seed's per-call recursion (the
    chosen factors are identical — only the work per call differs).
    """
    best_factors = {name: 1 for name, _, _ in dims}
    best_steps = float("inf")
    best_active = 1

    def recurse(index, remaining_budget, chosen, steps, active):
        nonlocal best_factors, best_steps, best_active
        if index == len(dims):
            if steps < best_steps or (steps == best_steps
                                      and active < best_active):
                best_steps = steps
                best_active = active
                best_factors = dict(chosen)
            return
        name, size, cap = dims[index]
        limit = min(remaining_budget, cap)
        for factor in mapping_module._candidate_factors(size, limit):
            chosen[name] = factor
            recurse(index + 1, remaining_budget // factor, chosen,
                    steps * math.ceil(size / factor), active * factor)
        chosen.pop(name, None)

    recurse(0, budget, {}, 1, 1)
    return best_factors, best_active


@contextlib.contextmanager
def legacy_estimator():
    """Run with the seed's uncached estimator internals.

    The overhaul memoised the mapper's divisor/candidate enumeration and the
    per-(layer, style, PEs, buffer) reuse analysis, re-keyed the mapping
    memo on ``shape_key``, and specialised the factor search; inside this
    context the un-memoised originals, the recursive search, and the seed's
    full-``Layer`` mapping key are restored (and the caches cleared), so a
    legacy measurement pays the seed's full estimation cost.
    """
    clear_all_memos()
    patched_factors = mapping_module._candidate_factors
    patched_divisors = mapping_module._divisors
    patched_search = mapping_module._search_factors
    patched_reuse = cost_module.analyse_layer_reuse
    patched_memo_key = mapping_module._mapping_memo_key
    mapping_module._candidate_factors = patched_factors.__wrapped__
    mapping_module._divisors = patched_divisors.__wrapped__
    mapping_module._search_factors = _seed_search_factors
    cost_module.analyse_layer_reuse = (
        lambda layer, style, num_pes, buffer_bytes:
        analyse_reuse(build_mapping(layer, style, num_pes), buffer_bytes))
    mapping_module._mapping_memo_key = (
        lambda layer, style, num_pes: (layer, style, num_pes))
    try:
        yield
    finally:
        mapping_module._candidate_factors = patched_factors
        mapping_module._divisors = patched_divisors
        mapping_module._search_factors = patched_search
        cost_module.analyse_layer_reuse = patched_reuse
        mapping_module._mapping_memo_key = patched_memo_key
        clear_all_memos()


class _LegacyInstanceState(_InstanceState):
    """Seed liveness bookkeeping: scan the live set on every commit."""

    def advance(self):
        committed = self.next_index
        self.next_index += 1
        for index in [index for index in self.live_outputs
                      if committed in self.successors[index]
                      and not any(consumer >= self.next_index
                                  for consumer in self.successors[index])]:
            del self.live_outputs[index]
        if any(consumer >= self.next_index
               for consumer in self.successors[committed]):
            self.live_outputs[committed] = (
                self.layers[committed].output_elements * BYTES_PER_ELEMENT)


class _LegacySchedule(Schedule):
    """Seed validation: one full entry scan per check, per-instance scans."""

    def validate(self, expected_layers=None):
        for name in self.sub_accelerator_names:
            timeline = self.entries_for(name)
            for previous, current in zip(timeline, timeline[1:]):
                if current.start_cycle < previous.finish_cycle - 1e-6:
                    raise SchedulingError(f"{name!r}: overlapping layers")
        instance_ids = {entry.instance_id for entry in self.entries}
        for instance_id in instance_ids:
            chain = self.entries_for_instance(instance_id)
            indices = [entry.layer_index for entry in chain]
            if len(set(indices)) != len(indices):
                raise SchedulingError(
                    f"instance {instance_id!r}: duplicate layer index")
            predecessors = self.instance_predecessors.get(instance_id)
            if predecessors is not None:
                by_index = {entry.layer_index: entry for entry in chain}
                for entry in chain:
                    for producer_index in sorted(
                            predecessors[entry.layer_index]):
                        producer = by_index[producer_index]
                        if entry.start_cycle < producer.finish_cycle - 1e-6:
                            raise SchedulingError("dependence violation")
            else:
                self._validate_chain_dependences(instance_id, chain)
        if self.instance_release_cycles:
            self._validate_release_times()
        if expected_layers is not None:
            scheduled = {}
            for entry in self.entries:
                scheduled[entry.instance_id] = (
                    scheduled.get(entry.instance_id, 0) + 1)
            if scheduled != expected_layers:
                raise SchedulingError("incomplete schedule")


class LegacyScheduler(HeraldScheduler):
    """Emulates the seed scheduler hot path, without the production pipeline.

    Only the constructor is inherited.  Per committed layer it re-queries the
    cost model for every sub-accelerator and re-sorts the preference list (no
    per-shape precomputation); the timeline is the quadratic full-rescan
    reference of ``tests/reference_scheduler.py``; the visit loop re-scans
    exhausted instances; liveness is tracked with the seed's live-set scan;
    workload expansions are rebuilt per call; validation runs the seed's
    per-check scans.  The produced schedules are bit-for-bit those of the
    current scheduler — the equivalence suite proves it — only the work per
    decision differs.
    """

    def schedule(self, workload, sub_accelerators, release_cycles=None):
        # The seed had no workload-level memos: re-expand per call.
        workload._instances_memo = None
        workload._shapes_memo = None
        instances = workload.instances()
        releases = checked_release_cycles(release_cycles, instances)
        assignments = self._initial_assignment(workload, sub_accelerators)
        timeline = (reference_scheduler.list_schedule
                    if self.enable_post_processing
                    else reference_scheduler.replay_in_order)
        schedule = timeline(assignments,
                            reference_scheduler.empty_schedule(
                                self.cost_model, sub_accelerators,
                                _LegacySchedule),
                            releases)
        schedule.instance_predecessors = workload.instance_dependences()
        if releases:
            schedule.instance_release_cycles = releases
        schedule.validate(expected_layers={
            instance.instance_id: instance.num_layers
            for instance in instances})
        return schedule

    def _initial_assignment(self, workload, sub_accelerators):
        states = [
            _LegacyInstanceState(instance=instance,
                                 layers=instance.layers_in_dependence_order(),
                                 predecessors=instance.predecessor_indices(),
                                 successors=instance.successor_indices())
            for instance in workload.instances()
        ]
        busy_cycles = {acc.name: 0.0 for acc in sub_accelerators}
        assignments = []
        self.last_memory_violations = 0
        visit_queue = list(range(len(states)))

        def commit(state, position):
            layer = state.head
            acc_name, cost = self._choose_per_layer(layer, sub_accelerators,
                                                    busy_cycles)
            assignments.append(reference_scheduler.Assignment(
                order_index=len(assignments),
                instance_id=state.instance.instance_id,
                layer_index=state.next_index,
                layer=layer,
                sub_accelerator=acc_name,
                cost=cost,
                predecessors=tuple(sorted(state.predecessors[state.next_index])),
            ))
            busy_cycles[acc_name] += cost.latency_cycles
            state.advance()
            self._rotate_legacy(visit_queue, position, state.exhausted)

        while any(not state.exhausted for state in states):
            progressed = False
            deferred_position = None
            for position, state_index in enumerate(visit_queue):
                state = states[state_index]
                if state.exhausted:
                    continue
                if (self.memory_limit_bytes is not None
                        and not self._memory_allows(states, state)):
                    if deferred_position is None:
                        deferred_position = position
                    continue
                commit(state, position)
                progressed = True
                break
            if not progressed:
                if deferred_position is None:
                    raise SchedulingError("scheduler made no progress")
                self.last_memory_violations += 1
                commit(states[visit_queue[deferred_position]], deferred_position)
        return assignments

    def _rotate_legacy(self, visit_queue, position, exhausted):
        if self.ordering == "breadth":
            visit_queue.append(visit_queue.pop(position))
        elif exhausted:
            visit_queue.append(visit_queue.pop(position))

    def _choose_per_layer(self, layer, sub_accelerators, busy_cycles):
        ranked = []
        for acc in sub_accelerators:
            cost = self.cost_model.layer_cost(layer, acc)
            ranked.append((metric_value(cost, self.metric), acc.name, cost))
        ranked.sort(key=lambda item: (item[0], item[1]))
        if self.load_balance_factor is None or len(sub_accelerators) == 1:
            _, name, cost = ranked[0]
            return name, cost
        finish_by_name = {
            name: busy_cycles[name] + cost.latency_cycles
            for _, name, cost in ranked
        }
        best_finish = min(finish_by_name.values())
        for _, name, cost in ranked:
            if finish_by_name[name] <= self.load_balance_factor * best_finish:
                return name, cost
        _, name, cost = ranked[0]
        return name, cost


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _two_way_split(chip) -> Tuple[SubAcceleratorConfig, ...]:
    half_bw = chip.noc_bandwidth_bytes_per_s / 2
    return (
        SubAcceleratorConfig(name="acc0-nvdla", dataflow=NVDLA,
                             num_pes=chip.num_pes // 2,
                             bandwidth_bytes_per_s=half_bw,
                             buffer_bytes=chip.global_buffer_bytes,
                             clock_hz=chip.clock_hz),
        SubAcceleratorConfig(name="acc1-shidiannao", dataflow=SHIDIANNAO,
                             num_pes=chip.num_pes // 2,
                             bandwidth_bytes_per_s=half_bw,
                             buffer_bytes=chip.global_buffer_bytes,
                             clock_hz=chip.clock_hz),
    )


def _timed(func):
    gc.collect()
    start = time.perf_counter()
    result = func()
    return time.perf_counter() - start, result


def _isolated(func):
    """Run ``func`` in a forked child and return its (picklable) result.

    Long A/B measurements in one process bias the second arm through
    allocator and GC state left behind by the first; a fork per arm gives
    both the same starting state.  Falls back to in-process execution where
    fork is unavailable.
    """
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return func()
    context = multiprocessing.get_context("fork")
    queue = context.SimpleQueue()

    def target():
        queue.put(func())

    process = context.Process(target=target)
    process.start()
    result = queue.get()
    process.join()
    return result


def _query_pass(model: CostModel, layers, accs) -> None:
    for layer in layers:
        for acc in accs:
            model.layer_cost(layer, acc)


# ---------------------------------------------------------------------------
# Section 1: cost-model throughput
# ---------------------------------------------------------------------------

def bench_cost_model(quick: bool) -> Dict[str, object]:
    workload = arvr_a()
    chip = ACCELERATOR_CLASSES["edge"]
    accs = _two_way_split(chip)
    layers = workload.all_layers()
    queries = len(layers) * len(accs)

    legacy = LegacyCostModel(vectorized=False)
    with legacy_estimator():
        legacy_cold_s, _ = _timed(lambda: _query_pass(legacy, layers, accs))

    clear_all_memos()
    model = CostModel(vectorized=False)
    shape_cold_s, _ = _timed(lambda: _query_pass(model, layers, accs))
    cold_pass_hit_rate = model.hits / (model.hits + model.misses)

    warm_repeats = 3 if quick else 10
    warm_s, _ = _timed(lambda: [_query_pass(model, layers, accs)
                                for _ in range(warm_repeats)])

    clear_all_memos()
    vector_cold_s = None
    vectorized_identical = None
    if numpy_available():
        vector = CostModel(vectorized=True)
        vector_cold_s, _ = _timed(
            lambda: vector.batch_layer_costs(layers, accs))
        vectorized_identical = all(
            dataclasses.astuple(vector.layer_cost(layer, acc))
            == dataclasses.astuple(model.layer_cost(layer, acc))
            and repr(vector.layer_cost(layer, acc))
            == repr(model.layer_cost(layer, acc))
            for layer in layers for acc in accs)

    return {
        "workload": workload.name,
        "sub_accelerators": len(accs),
        "total_layer_executions": workload.total_layers,
        "unique_named_layers": workload.unique_layers,
        "unique_shapes": workload.unique_shapes,
        "queries_per_pass": queries,
        "legacy_cold_s": legacy_cold_s,
        "legacy_cold_entries": legacy.cache_size(),
        "shape_cold_s": shape_cold_s,
        "shape_cold_entries": model.cache_size(),
        "cold_speedup": legacy_cold_s / shape_cold_s,
        "cold_pass_hit_rate": cold_pass_hit_rate,
        "warm_queries_per_s": warm_repeats * queries / warm_s,
        "numpy_available": numpy_available(),
        "vectorized_cold_s": vector_cold_s,
        "vectorized_cold_speedup": (
            shape_cold_s / vector_cold_s if vector_cold_s else None),
        "vectorized_identical": vectorized_identical,
    }


# ---------------------------------------------------------------------------
# Section 2: list-schedule scaling
# ---------------------------------------------------------------------------

def _synthetic_chain(total_layers: int) -> WorkloadSpec:
    """Two parallel instances of a chain; shapes cycle so the memo stays small."""
    per_instance = total_layers // 2
    shapes = [
        lambda i: conv2d(f"conv{i}", k=32, c=16, y=34, x=34, r=3, s=3),
        lambda i: pwconv(f"pw{i}", k=64, c=32, y=16, x=16),
        lambda i: conv2d(f"deep{i}", k=128, c=64, y=10, x=10, r=3, s=3),
        lambda i: pwconv(f"wide{i}", k=256, c=128, y=8, x=8),
    ]
    layers = [shapes[i % len(shapes)](i) for i in range(per_instance)]
    graph = ModelGraph.from_layers(f"chain{per_instance}", layers)
    return WorkloadSpec.from_models(f"chain-{total_layers}", [graph], batches=2)


def bench_list_schedule(quick: bool) -> Dict[str, object]:
    sizes = [50, 200] if quick else [50, 200, 800]
    chip = ACCELERATOR_CLASSES["edge"]
    accs = _two_way_split(chip)
    model = CostModel()
    scheduler = HeraldScheduler(model)
    reference = reference_scheduler.ReferenceScheduler(model)

    heap_times: List[float] = []
    reference_times: List[float] = []
    for size in sizes:
        workload = _synthetic_chain(size)
        assignments = reference.initial_assignment(workload, accs)

        def reference_timeline():
            return reference_scheduler.list_schedule(
                assignments, reference_scheduler.empty_schedule(model, accs))

        repeats = max(3, (2000 if quick else 20000) // size)
        # One untimed pass per implementation warms the memos and settles
        # allocator state.
        scheduler.schedule(workload, accs)
        reference_timeline()
        heap_s, _ = _timed(lambda: [scheduler.schedule(workload, accs)
                                    for _ in range(repeats)])
        ref_s, _ = _timed(lambda: [reference_timeline()
                                   for _ in range(repeats)])
        heap_times.append(heap_s / repeats)
        reference_times.append(ref_s / repeats)

    return {
        "sizes": sizes,
        "heap_s": heap_times,
        "reference_s": reference_times,
        "speedup": [r / h for r, h in zip(reference_times, heap_times)],
        # Growth from the second-largest to the largest size.  n log n predicts
        # ~4.4x for 200 -> 800; n^2 predicts 16x.
        "heap_growth_ratio": heap_times[-1] / heap_times[-2],
        "reference_growth_ratio": reference_times[-1] / reference_times[-2],
    }


# ---------------------------------------------------------------------------
# Section 3: warm repeated scheduling
# ---------------------------------------------------------------------------

def bench_warm_scheduling(quick: bool) -> Dict[str, object]:
    # The Table VI batch-8 variant of the AR/VR-A suite: the list scheduler is
    # the binding resource at this instance count, which is exactly the
    # regime repeated scheduling (partition refinement, workload studies)
    # operates in.
    workload = arvr_a().with_batches(2 if quick else 8)
    chip = ACCELERATOR_CLASSES["edge"]
    accs = _two_way_split(chip)
    repeats = 5 if quick else 20

    def run(model_cls, scheduler_cls):
        model = model_cls()
        scheduler = scheduler_cls(model)
        scheduler.schedule(workload, accs)  # warm the memo
        elapsed, _ = _timed(lambda: [scheduler.schedule(workload, accs)
                                     for _ in range(repeats)])
        return elapsed / repeats

    legacy_s = run(LegacyCostModel, LegacyScheduler)
    new_s = run(CostModel, HeraldScheduler)
    return {
        "workload": workload.name,
        "layer_executions": workload.total_layers,
        "repeats": repeats,
        "legacy_s": legacy_s,
        "new_s": new_s,
        "speedup": legacy_s / new_s,
    }


# ---------------------------------------------------------------------------
# Section 4: end-to-end explore() (the Fig. 11 sweep)
# ---------------------------------------------------------------------------

def bench_explore(quick: bool) -> Dict[str, object]:
    """The Fig. 11 sweep: every workload suite on every accelerator class.

    Quick mode shrinks the sweep to AR/VR-A on the edge class with a coarser
    partition grid so CI stays fast; the full sweep matches
    ``bench_fig11_design_space.py`` (pe_steps=8, bw_steps=4, three-way HDAs,
    one shared cost model across the nine sub-plots).
    """
    if quick:
        workloads = [arvr_a()]
        classes = ["edge"]
        pe_steps, bw_steps, include_three_way = 4, 2, False
    else:
        workloads = [arvr_a(), arvr_b(), mlperf()]
        classes = ["edge", "mobile", "cloud"]
        pe_steps, bw_steps, include_three_way = 8, 4, True

    def summarize(space):
        # Compact the space immediately so neither arm keeps hundreds of
        # thousands of schedule objects alive while the other is timed (the
        # ballast would skew the second measurement through GC pressure).
        return {
            "bests": {category: (space.best(category).design.name,
                                 space.best(category).edp)
                      for category in space.categories()},
            "points": [(p.category, p.design.name, p.latency_s, p.energy_mj,
                        p.edp) for p in space.points],
        }

    def run(model_cls, scheduler_cls):
        clear_all_memos()
        model = model_cls()
        scheduler = scheduler_cls(model)
        search = PartitionSearch(cost_model=model, scheduler=scheduler,
                                 pe_steps=pe_steps, bw_steps=bw_steps)
        backend = SerialBackend(cost_model=model, scheduler=scheduler)
        dse = HeraldDSE(cost_model=model, scheduler=scheduler,
                        partition_search=search, backend=backend)

        # Only the explore() calls are timed; the summary compaction between
        # them is bookkeeping of this harness, not of the system under test.
        elapsed = 0.0
        summaries = []
        gc.collect()
        for workload in workloads:
            for class_name in classes:
                start = time.perf_counter()
                space = dse.explore(workload, ACCELERATOR_CLASSES[class_name],
                                    include_three_way=include_three_way)
                elapsed += time.perf_counter() - start
                summaries.append(summarize(space))
                del space
        return elapsed, summaries

    def legacy_arm():
        with legacy_estimator():
            return run(LegacyCostModel, LegacyScheduler)

    legacy_s, legacy_summaries = _isolated(legacy_arm)
    new_s, new_summaries = _isolated(
        lambda: run(CostModel, HeraldScheduler))

    rankings_identical = all(
        legacy["bests"] == new["bests"]
        for legacy, new in zip(legacy_summaries, new_summaries))
    point_metrics_identical = all(
        legacy["points"] == new["points"]
        for legacy, new in zip(legacy_summaries, new_summaries))

    return {
        "workloads": [workload.name for workload in workloads],
        "classes": classes,
        "pe_steps": pe_steps,
        "bw_steps": bw_steps,
        "include_three_way": include_three_way,
        "design_points": sum(len(summary["points"])
                             for summary in new_summaries),
        "legacy_s": legacy_s,
        "new_s": new_s,
        "speedup": legacy_s / new_s,
        "rankings_identical": rankings_identical,
        "point_metrics_identical": point_metrics_identical,
    }


# ---------------------------------------------------------------------------
# Section 5: streaming (online serving) overhead
# ---------------------------------------------------------------------------

def bench_serving(quick: bool) -> Dict[str, object]:
    """Online-mode overhead over the batch path, plus its correctness gate.

    The release-aware list schedule rides the same event heap as the batch
    path, so online scheduling of the streaming AR/VR-A scenario should cost
    within a few percent of batch scheduling the identical frame set; the
    section measures that ratio and — as the gate ``--check`` enforces —
    asserts that an all-zero release trace reproduces the batch timeline
    bit-for-bit.
    """
    streaming = streaming_suite("arvr-a", frames=1 if quick else 4)
    spec = streaming.to_workload_spec()
    chip = ACCELERATOR_CLASSES["edge"]
    accs = _two_way_split(chip)
    clock = accs[0].clock_hz
    releases = streaming.release_cycles(clock)
    repeats = 5 if quick else 20

    model = CostModel()
    scheduler = HeraldScheduler(model)
    scheduler.schedule(spec, accs)  # warm the memos once

    batch_s, _ = _timed(lambda: [scheduler.schedule(spec, accs)
                                 for _ in range(repeats)])
    online_s, _ = _timed(lambda: [scheduler.schedule(spec, accs,
                                                     release_cycles=releases)
                                  for _ in range(repeats)])

    zero = {instance_id: 0.0 for instance_id in releases}
    timeline = lambda s: [(e.instance_id, e.layer_index, e.sub_accelerator,
                           e.start_cycle, e.finish_cycle) for e in s.entries]
    zero_identical = (timeline(scheduler.schedule(spec, accs,
                                                  release_cycles=zero)) ==
                      timeline(scheduler.schedule(spec, accs)))

    simulate_s, result = _timed(
        lambda: ServingSimulator(scheduler).simulate(streaming, accs))
    return {
        "workload": streaming.name,
        "frames": streaming.total_frames,
        "layer_executions": spec.total_layers,
        "repeats": repeats,
        "batch_s": batch_s / repeats,
        "online_s": online_s / repeats,
        "online_overhead": (online_s / batch_s) if batch_s > 0 else 1.0,
        "simulate_s": simulate_s,
        "deadline_miss_rate": result.report.deadline_miss_rate,
        "zero_release_identical": zero_identical,
    }


# ---------------------------------------------------------------------------
# Section 6: fleet routing and multi-chip serving
# ---------------------------------------------------------------------------

def bench_fleet(quick: bool) -> Dict[str, object]:
    """Fleet-layer overhead and scaling, plus its correctness gate.

    The fleet layer adds two things on top of per-chip serving: the router's
    dispatch pass (policy decisions off cost-model estimates) and the report
    aggregation.  This section times the dispatch pass in isolation, measures
    end-to-end fleet simulation at 1 / 2 / 4 chips under the SLA-aware
    policy, and — as the gate ``--check`` enforces — asserts that a one-chip
    passthrough fleet reproduces the single-chip ``ServingSimulator``
    timeline bit-for-bit.
    """
    streaming = streaming_suite("arvr-a", frames=1 if quick else 2)
    chip = ACCELERATOR_CLASSES["edge"]
    design = AcceleratorDesign(name="edge-duo", kind=AcceleratorKind.HDA,
                               chip=chip,
                               sub_accelerators=_two_way_split(chip))
    model = CostModel()
    scheduler = HeraldScheduler(model)
    repeats = 3 if quick else 10

    timeline = lambda s: [(e.instance_id, e.layer_index, e.sub_accelerator,
                           e.start_cycle, e.finish_cycle) for e in s.entries]
    bare = ServingSimulator(scheduler).simulate(streaming,
                                                design.sub_accelerators)
    simulator = FleetSimulator(cost_model=model, scheduler=scheduler)
    solo = simulator.simulate(streaming, Fleet.homogeneous(design, 1),
                              policy="passthrough")
    single_chip_identical = (timeline(solo.chip_results[0].schedule)
                             == timeline(bare.schedule))

    router = Router("earliest-completion",
                    estimator=FrameCostEstimator(model))
    chips4 = Fleet.homogeneous(design, 4).chips
    dispatch_s, _ = _timed(lambda: [router.dispatch(streaming, chips4)
                                    for _ in range(repeats)])

    sizes = [1, 2, 4]
    simulate_s: List[float] = []
    p99_ms: List[float] = []
    miss_rates: List[float] = []
    for size in sizes:
        fleet = Fleet.homogeneous(design, size)
        simulator.simulate(streaming, fleet, policy="earliest-completion")
        elapsed, result = _timed(lambda: [
            simulator.simulate(streaming, fleet,
                               policy="earliest-completion")
            for _ in range(repeats)])
        report = result[-1].report
        simulate_s.append(elapsed / repeats)
        p99_ms.append(report.p99_latency_s * 1e3)
        miss_rates.append(report.deadline_miss_rate)

    return {
        "workload": streaming.name,
        "frames": streaming.total_frames,
        "repeats": repeats,
        "sizes": sizes,
        "dispatch_s": dispatch_s / repeats,
        "simulate_s": simulate_s,
        "p99_latency_ms": p99_ms,
        "deadline_miss_rates": miss_rates,
        "single_chip_identical": single_chip_identical,
    }


# ---------------------------------------------------------------------------
# Section 7: closed-loop (feedback) serving
# ---------------------------------------------------------------------------

def bench_closed_loop(quick: bool) -> Dict[str, object]:
    """Closed-loop engine cost over the a-priori planner, plus its gate.

    The feedback loop pays for what the planner skips: per-chip service
    probes (one scheduler run per distinct (chip, model)) and the global
    event heap.  This section measures end-to-end ``simulate_online`` under
    Poisson traffic at 2 / 4 chips against the a-priori ``simulate`` of the
    same workload, times a chip-death recovery run, and — as the gate
    ``--check`` enforces — asserts the feedback-disabled loop reproduces the
    a-priori dispatcher exactly (assignments and report summary), the
    same equivalence the golden corpus pins per scenario.
    """
    streaming = streaming_suite("arvr-a", frames=1 if quick else 2)
    traffic = traffic_suite("arvr-a", "poisson", frames=1 if quick else 2)
    chip = ACCELERATOR_CLASSES["edge"]
    design = AcceleratorDesign(name="edge-duo", kind=AcceleratorKind.HDA,
                               chip=chip,
                               sub_accelerators=_two_way_split(chip))
    model = CostModel()
    scheduler = HeraldScheduler(model)
    simulator = FleetSimulator(cost_model=model, scheduler=scheduler)
    repeats = 3 if quick else 10

    fleet2 = Fleet.homogeneous(design, 2)
    apriori = simulator.simulate(streaming, fleet2,
                                 policy="earliest-completion")
    reduced = simulator.simulate_online(streaming, fleet2,
                                        policy="earliest-completion",
                                        feedback=False)
    online_matches_apriori = (
        reduced.plan_result is not None
        and reduced.plan_result.plan.assignments == apriori.plan.assignments
        and reduced.plan_result.report.summary() == apriori.report.summary())

    sizes = [2, 4]
    apriori_s: List[float] = []
    online_s: List[float] = []
    for size in sizes:
        fleet = Fleet.homogeneous(design, size)
        simulator.simulate(streaming, fleet, policy="earliest-completion")
        simulator.simulate_online(traffic, fleet,
                                  policy="earliest-completion")
        elapsed, _ = _timed(lambda: [
            simulator.simulate(traffic, fleet, policy="earliest-completion")
            for _ in range(repeats)])
        apriori_s.append(elapsed / repeats)
        elapsed, _ = _timed(lambda: [
            simulator.simulate_online(traffic, fleet,
                                      policy="earliest-completion")
            for _ in range(repeats)])
        online_s.append(elapsed / repeats)

    # Fault recovery: chip 0 dies a quarter of the way into the trace.
    horizon = max(release for stream in traffic.streams
                  for release in stream.release_times_s())
    fault_s, recovery = _timed(lambda: simulator.simulate_online(
        traffic, fleet2, policy="earliest-completion",
        faults=FaultSpec(failures=(ChipFailure(0, 0.25 * horizon),))))

    return {
        "workload": traffic.name,
        "frames": traffic.total_frames,
        "repeats": repeats,
        "sizes": sizes,
        "apriori_s": apriori_s,
        "online_s": online_s,
        "online_overhead": [o / a for o, a in zip(online_s, apriori_s)],
        "fault_recovery_s": fault_s,
        "fault_redispatched": recovery.stats.redispatched_frames,
        "fault_lost": len(recovery.stats.lost_frame_ids),
        "online_matches_apriori": online_matches_apriori,
    }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def run_all(quick: bool) -> Dict[str, object]:
    results: Dict[str, object] = {
        "version": 2,
        "mode": "quick" if quick else "full",
        "python": sys.version.split()[0],
    }
    print(f"[bench_hot_paths] mode={results['mode']}")
    for name, section in (("cost_model", bench_cost_model),
                          ("list_schedule", bench_list_schedule),
                          ("warm_scheduling", bench_warm_scheduling),
                          ("explore", bench_explore),
                          ("serving", bench_serving),
                          ("fleet", bench_fleet),
                          ("closed_loop", bench_closed_loop)):
        print(f"[bench_hot_paths] running {name} ...", flush=True)
        results[name] = section(quick)
        print(f"[bench_hot_paths]   {json.dumps(results[name])}")
    return results


def check_against_baseline(results: Dict[str, object],
                           baseline_path: str) -> List[str]:
    """Regression gate: compare against the checked-in baseline JSON."""
    failures: List[str] = []
    try:
        with open(baseline_path, "r") as handle:
            baseline = json.load(handle)
    except (OSError, ValueError) as error:
        return [f"cannot read baseline {baseline_path}: {error}"]

    recorded = baseline["cost_model"]["cold_pass_hit_rate"]
    measured = results["cost_model"]["cold_pass_hit_rate"]
    if measured < recorded - HIT_RATE_TOLERANCE:
        failures.append(
            f"cold-pass hit rate regressed: {measured:.4f} < recorded "
            f"baseline {recorded:.4f} (the memo key likely re-acquired "
            "identity fields)")
    if results["cost_model"].get("vectorized_identical") is False:
        failures.append("the vectorised cost table diverged bitwise from the "
                        "scalar estimator")
    if not results["explore"]["rankings_identical"]:
        failures.append("legacy and current explore() rankings diverged")
    if not results["explore"]["point_metrics_identical"]:
        failures.append("legacy and current explore() point metrics diverged")
    if not results["serving"]["zero_release_identical"]:
        failures.append("online scheduling with an all-zero release trace "
                        "diverged from the batch schedule")
    if not results["fleet"]["single_chip_identical"]:
        failures.append("the single-chip passthrough fleet diverged from the "
                        "bare serving simulator")
    if not results["closed_loop"]["online_matches_apriori"]:
        failures.append("the feedback-disabled online loop diverged from the "
                        "a-priori dispatcher")
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller sizes for CI")
    parser.add_argument("--check", action="store_true",
                        help="fail on regression against the checked-in "
                             "baseline (read before --output is written)")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="where to write the JSON results")
    parser.add_argument("--baseline", default=DEFAULT_OUTPUT,
                        help="baseline JSON for --check")
    args = parser.parse_args(argv)

    results = run_all(quick=args.quick)

    failures: List[str] = []
    if args.check:
        failures = check_against_baseline(results, args.baseline)

    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=1, allow_nan=False)
        handle.write("\n")
    print(f"[bench_hot_paths] wrote {args.output}")

    for failure in failures:
        print(f"[bench_hot_paths] REGRESSION: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
