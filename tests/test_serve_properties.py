"""Property-based tests of the online (streaming) scheduling path.

For random DAG workloads crossed with random arrival traces, every schedule
the online scheduler produces must satisfy the serving invariants:

* **release respect** — no layer starts before its instance's frame arrives;
* **true producer edges** — a layer starts only after each of its actual
  producers finishes (independent branches may overlap);
* **per-sub-accelerator non-overlap** — one layer at a time per array;
* **memory-limit liveness** — with a global-buffer bound configured the
  scheduler still terminates, schedules every layer exactly once, and only
  reports violations through the counted DRAM-spill fallback;
* **degenerate equivalence** — an all-zero release trace is bit-for-bit the
  batch schedule, and the scheduler matches the executable reference in
  ``tests/reference_scheduler.py`` under arbitrary release traces.
"""

from __future__ import annotations

import random as random_module

from hypothesis import given, settings, strategies as st

import reference_scheduler
from repro.core.scheduler import HeraldScheduler
from repro.dataflow.styles import EYERISS, NVDLA, SHIDIANNAO
from repro.maestro.cost import CostModel
from repro.maestro.hardware import SubAcceleratorConfig
from repro.models.graph import ModelGraph
from repro.models.layer import fc
from repro.units import gbps, mib
from repro.workloads.spec import WorkloadSpec

#: One shared cost model: layer shapes repeat across examples, so the memo
#: keeps the sweep fast without affecting decisions (costs are pure).
_COST_MODEL = CostModel()


def _subs():
    return (
        SubAcceleratorConfig(name="a0", dataflow=NVDLA, num_pes=128,
                             bandwidth_bytes_per_s=gbps(4), buffer_bytes=mib(1)),
        SubAcceleratorConfig(name="a1", dataflow=SHIDIANNAO, num_pes=64,
                             bandwidth_bytes_per_s=gbps(4), buffer_bytes=mib(1)),
    )


def _random_workload(n: int, edge_seed: int, dims, batches: int) -> WorkloadSpec:
    rng = random_module.Random(edge_seed)
    layers = [fc(f"l{i}", k=dims[i], c=dims[(i * 7 + 3) % len(dims)])
              for i in range(n)]
    graph = ModelGraph.from_layers("dag", layers)
    for i in range(n):
        for j in range(i + 2, n):
            if rng.random() < 0.3:
                graph.add_edge(f"l{i}", f"l{j}")
    return WorkloadSpec.from_models("dag-wl", [graph], batches=batches)


def _random_releases(workload: WorkloadSpec, release_seed: int,
                     horizon: float) -> dict:
    rng = random_module.Random(release_seed)
    return {instance.instance_id: rng.uniform(0.0, horizon)
            for instance in workload.instances()}


def _timeline(schedule):
    return [(e.instance_id, e.layer_index, e.sub_accelerator, e.start_cycle,
             e.finish_cycle) for e in schedule.entries]


_scheduler_configs = st.tuples(
    st.sampled_from(["edp", "latency", "energy"]),
    st.sampled_from(["breadth", "depth"]),
    st.sampled_from([None, 1.25, 2.0]),
)

_workload_params = dict(
    n=st.integers(min_value=3, max_value=10),
    edge_seed=st.integers(min_value=0, max_value=2**31),
    dims=st.lists(st.sampled_from([4, 8, 16, 64, 256]),
                  min_size=12, max_size=12),
    batches=st.integers(min_value=1, max_value=3),
    release_seed=st.integers(min_value=0, max_value=2**31),
    horizon=st.sampled_from([0.0, 1e3, 1e5, 1e7]),
    config=_scheduler_configs,
)


class TestOnlineInvariants:
    @given(**_workload_params)
    @settings(max_examples=50, deadline=None)
    def test_schedule_respects_releases_edges_and_non_overlap(
            self, n, edge_seed, dims, batches, release_seed, horizon, config):
        workload = _random_workload(n, edge_seed, dims, batches)
        releases = _random_releases(workload, release_seed, horizon)
        metric, ordering, lb = config
        scheduler = HeraldScheduler(_COST_MODEL, metric=metric,
                                    ordering=ordering, load_balance_factor=lb)
        accs = _subs()
        # scheduler.schedule() runs Schedule.validate() internally (producer
        # edges, non-overlap, completeness, release respect); the explicit
        # checks below re-verify the serving invariants independently of the
        # validator's implementation.
        schedule = scheduler.schedule(workload, accs, release_cycles=releases)

        for entry in schedule.entries:
            assert entry.start_cycle >= releases[entry.instance_id] - 1e-6

        dependences = workload.instance_dependences()
        finish = {(e.instance_id, e.layer_index): e.finish_cycle
                  for e in schedule.entries}
        assert len(finish) == len(schedule.entries)
        for entry in schedule.entries:
            for producer in dependences[entry.instance_id][entry.layer_index]:
                assert entry.start_cycle >= \
                    finish[(entry.instance_id, producer)] - 1e-6

        for acc in accs:
            timeline = schedule.entries_for(acc.name)
            for previous, current in zip(timeline, timeline[1:]):
                assert current.start_cycle >= previous.finish_cycle - 1e-6

    @given(**_workload_params,
           memory_limit=st.sampled_from([None, 256, 1024, 4096]),
           post=st.booleans(),
           n_accs=st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_heap_matches_reference_under_releases(
            self, n, edge_seed, dims, batches, release_seed, horizon, config,
            memory_limit, post, n_accs):
        workload = _random_workload(n, edge_seed, dims, batches)
        releases = _random_releases(workload, release_seed, horizon)
        metric, ordering, lb = config
        accs = _subs() + (
            SubAcceleratorConfig(name="a2", dataflow=EYERISS, num_pes=64,
                                 bandwidth_bytes_per_s=gbps(4),
                                 buffer_bytes=mib(1)),
            SubAcceleratorConfig(name="a3", dataflow=NVDLA, num_pes=32,
                                 bandwidth_bytes_per_s=gbps(4),
                                 buffer_bytes=mib(1)))
        reference_scheduler.assert_matches_reference(
            _COST_MODEL, workload, accs[:n_accs], release_cycles=releases,
            metric=metric, ordering=ordering, load_balance_factor=lb,
            memory_limit_bytes=memory_limit, enable_post_processing=post)

    @given(**_workload_params)
    @settings(max_examples=25, deadline=None)
    def test_zero_release_trace_is_the_batch_schedule(
            self, n, edge_seed, dims, batches, release_seed, horizon, config):
        workload = _random_workload(n, edge_seed, dims, batches)
        metric, ordering, lb = config
        scheduler = HeraldScheduler(_COST_MODEL, metric=metric,
                                    ordering=ordering, load_balance_factor=lb)
        accs = _subs()
        zero = {instance.instance_id: 0.0 for instance in workload.instances()}
        online = scheduler.schedule(workload, accs, release_cycles=zero)
        batch = scheduler.schedule(workload, accs)
        assert _timeline(online) == _timeline(batch)

    @given(
        n=st.integers(min_value=3, max_value=8),
        edge_seed=st.integers(min_value=0, max_value=2**31),
        dims=st.lists(st.sampled_from([16, 64, 256]), min_size=12, max_size=12),
        release_seed=st.integers(min_value=0, max_value=2**31),
        memory_kib=st.sampled_from([2, 8, 64]),
    )
    @settings(max_examples=25, deadline=None)
    def test_memory_limited_online_scheduling_stays_live(
            self, n, edge_seed, dims, release_seed, memory_kib):
        """A binding global-buffer bound must never deadlock the online path:
        every layer is scheduled exactly once, the schedule validates, and
        overflow appears only as counted DRAM-spill violations."""
        workload = _random_workload(n, edge_seed, dims, batches=2)
        releases = _random_releases(workload, release_seed, 1e5)
        scheduler = HeraldScheduler(_COST_MODEL,
                                    memory_limit_bytes=memory_kib * 1024)
        schedule = scheduler.schedule(workload, _subs(),
                                      release_cycles=releases)
        assert len(schedule.entries) == workload.total_layers
        assert scheduler.last_memory_violations >= 0
