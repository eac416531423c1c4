"""Tests for the evaluation hot-path overhaul.

Three contracts are pinned here:

1. **Bit-for-bit equivalence.**  The shape-keyed cost memo, the heap-based
   event-driven list scheduler, and the incremental partition search must not
   change a single scheduling decision or metric.  Golden files generated from
   the pre-overhaul seed implementation (``tests/golden/``, regenerable with
   ``python tests/golden_scheduler.py --write``) cover every (metric x
   ordering x load-balance x memory-limit x post-processing) configuration on
   chain / diamond / UNet-skip / 4-instance mixed workloads, plus a full DSE
   ranking; a hypothesis-driven random-DAG sweep checks the scheduler end to
   end against the executable reference in ``tests/reference_scheduler.py``.

2. **No memo aliasing.**  ``Layer.shape_key`` equality must imply identical
   ``LayerCost`` on every dataflow style, and layers that differ only in
   ``stride`` / ``upscale`` / operator semantics must produce distinct keys.

3. **Cache migration.**  Old full-``Layer``-keyed persistent cache files are
   discarded transparently (never mixed, never fatal).
"""

from __future__ import annotations

import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

import golden_scheduler
import reference_scheduler
from repro.accel.builders import enumerate_fdas, make_fda
from repro.core.partitioner import PartitionSearch
from repro.core.scheduler import HeraldScheduler
from repro.dataflow.mapping import (build_mapping, clear_mapping_cache,
                                    mapping_cache_info)
from repro.dataflow.styles import ALL_STYLES, EYERISS, NVDLA, SHIDIANNAO
from repro.exec import (EvaluationTask, PersistentCostCache,
                        ProcessPoolBackend, SerialBackend)
from repro.exec.cache import CACHE_FORMAT_VERSION
from repro.maestro import batch as batch_module
from repro.maestro.cost import CostModel, clear_all_memos
from repro.maestro.hardware import SubAcceleratorConfig
from repro.maestro.reuse import (analyse_layer_reuse, clear_reuse_cache,
                                 reuse_cache_size)
from repro.models.graph import ModelGraph
from repro.models.layer import Layer, LayerType, conv2d, fc, pwconv, upconv
from repro.units import gbps, mib
from repro.workloads.spec import WorkloadSpec


def _sub(style=NVDLA, pes=128, name="sub0"):
    return SubAcceleratorConfig(name=name, dataflow=style, num_pes=pes,
                                bandwidth_bytes_per_s=gbps(4),
                                buffer_bytes=mib(1))


def _cost_fields(cost):
    """Every numeric field of a LayerCost (identity fields excluded)."""
    return (cost.compute_cycles, cost.noc_cycles, cost.dram_cycles,
            cost.overhead_cycles, cost.energy_compute_pj, cost.energy_rf_pj,
            cost.energy_local_pj, cost.energy_noc_pj, cost.energy_sram_pj,
            cost.energy_dram_pj, cost.energy_overhead_pj, cost.utilisation,
            cost.num_pes, cost.clock_hz)


# ---------------------------------------------------------------------------
# Shape keys
# ---------------------------------------------------------------------------

#: Small dimension domains so hypothesis actually produces shape collisions.
_small_layers = st.builds(
    lambda kind, k, c, y, r, stride, upscale, name: {
        "conv": lambda: Layer(name, LayerType.CONV2D, k=k, c=c,
                              y=max(y, r + stride), x=max(y, r + stride),
                              r=r, s=r, stride=stride),
        "dw": lambda: Layer(name, LayerType.DWCONV, k=c, c=c,
                            y=max(y, r + 1), x=max(y, r + 1), r=r, s=r),
        "pw": lambda: Layer(name, LayerType.PWCONV, k=k, c=c, y=y, x=y),
        "up": lambda: Layer(name, LayerType.UPCONV, k=k, c=c,
                            y=max(y, r), x=max(y, r), r=r, s=r,
                            upscale=upscale),
        "fc": lambda: Layer(name, LayerType.FC, k=k, c=c, y=1, x=1),
    }[kind](),
    kind=st.sampled_from(["conv", "dw", "pw", "up", "fc"]),
    k=st.sampled_from([4, 8, 16]),
    c=st.sampled_from([4, 8, 16]),
    y=st.sampled_from([8, 16]),
    r=st.sampled_from([1, 3]),
    stride=st.sampled_from([1, 2]),
    upscale=st.sampled_from([2, 3]),
    name=st.sampled_from(["alpha", "beta"]),
)


class TestShapeKey:
    def test_identity_fields_do_not_participate(self):
        a = conv2d("left", k=8, c=4, y=16, x=16, r=3, s=3, model_name="resnet")
        b = conv2d("right", k=8, c=4, y=16, x=16, r=3, s=3, model_name="unet")
        assert a != b
        assert a.shape_key == b.shape_key

    def test_stride_produces_distinct_keys(self):
        a = conv2d("a", k=8, c=4, y=16, x=16, r=3, s=3, stride=1)
        b = conv2d("a", k=8, c=4, y=16, x=16, r=3, s=3, stride=2)
        assert a.shape_key != b.shape_key

    def test_upscale_produces_distinct_keys(self):
        a = upconv("a", k=8, c=4, y=16, x=16, r=3, s=3, upscale=2)
        b = upconv("a", k=8, c=4, y=16, x=16, r=3, s=3, upscale=4)
        assert a.shape_key != b.shape_key

    def test_layer_type_produces_distinct_keys(self):
        # A 1x1 CONV2D and a PWCONV have equal raw dimensions (and costs) but
        # must not alias: operator semantics are part of the shape.
        a = conv2d("a", k=8, c=8, y=16, x=16, r=1, s=1)
        b = pwconv("a", k=8, c=8, y=16, x=16)
        assert a.shape_key != b.shape_key
        dw = Layer("a", LayerType.DWCONV, k=8, c=8, y=16, x=16, r=1, s=1)
        assert dw.shape_key != a.shape_key

    @given(a=_small_layers, b=_small_layers)
    @settings(max_examples=150, deadline=None)
    def test_equal_shape_key_means_identical_cost_on_every_style(self, a, b):
        """shape_key equality <=> cost identity, sampled over collisions.

        Forward direction on colliding draws: equal keys must yield identical
        LayerCost numerics on every style.  Contrapositive on non-colliding
        draws with equal raw dimension tuples (stride/upscale/type aliasing
        candidates): the keys must differ whenever the estimator is allowed to
        produce different numbers.
        """
        model = CostModel()
        sub = _sub()
        if a.shape_key == b.shape_key:
            for style in ALL_STYLES:
                cost_a = model.layer_cost_with_style(a, style, sub)
                cost_b = model.layer_cost_with_style(b, style, sub)
                assert _cost_fields(cost_a) == _cost_fields(cost_b)
        else:
            # Distinct keys: memo entries must be distinct too.
            model.layer_cost(a, sub)
            model.layer_cost(b, sub)
            assert model.cache_size() == 2

    def test_same_shape_layers_share_one_memo_entry(self):
        model = CostModel()
        sub = _sub()
        first = model.layer_cost(
            conv2d("block1", k=8, c=4, y=16, x=16, r=3, s=3, model_name="m1"), sub)
        second = model.layer_cost(
            conv2d("block7", k=8, c=4, y=16, x=16, r=3, s=3, model_name="m2"), sub)
        assert second is first
        assert model.cache_size() == 1
        assert (model.hits, model.misses) == (1, 1)

    def test_precomputed_derivations_survive_pickle_and_replace(self):
        from dataclasses import replace
        layer = upconv("up", k=8, c=4, y=16, x=16, r=3, s=3, upscale=2)
        clone = pickle.loads(pickle.dumps(layer))
        assert clone.shape_key == layer.shape_key
        assert clone.macs == layer.macs
        wider = replace(layer, k=16)
        assert wider.output_elements == 2 * layer.output_elements
        assert wider.shape_key != layer.shape_key


class TestBatchLayerCosts:
    def test_dedupes_by_shape_before_estimating(self):
        model = CostModel()
        accs = [_sub(NVDLA, name="a0"), _sub(SHIDIANNAO, name="a1")]
        layers = [conv2d(f"l{i}", k=8, c=4, y=16, x=16, r=3, s=3)
                  for i in range(10)]
        layers.append(fc("head", k=10, c=64))
        table = model.batch_layer_costs(layers, accs)
        assert model.misses == 2 * 2  # 2 unique shapes x 2 sub-accelerators
        assert len(table) == 4
        for layer in layers:
            for acc in accs:
                assert table[(layer.shape_key, acc.name)] is \
                    model.layer_cost(layer, acc)

    def test_prewarmed_partition_search_evaluates_without_cold_queries(
            self, tiny_chip, small_workload):
        model = CostModel()
        scheduler = HeraldScheduler(model)
        search = PartitionSearch(cost_model=model, scheduler=scheduler,
                                 pe_steps=4, bw_steps=2)
        styles = [NVDLA, SHIDIANNAO]
        candidates = search.candidate_partitions(tiny_chip, len(styles))
        warmed = search.prewarm(tiny_chip, styles, small_workload, candidates)
        assert warmed > 0
        misses_before = model.misses
        for pes, bws in candidates:
            search._evaluate(tiny_chip, styles, small_workload, pes, bws)
        assert model.misses == misses_before, \
            "candidate evaluation after prewarm must be pure memo lookups"


class TestWorkloadShapeDedup:
    def test_unique_shape_layers_collapse_batches_and_blocks(self):
        graph = ModelGraph.from_layers("rep", [
            conv2d("c1", k=8, c=4, y=16, x=16, r=3, s=3),
            conv2d("c2", k=8, c=4, y=14, x=14, r=3, s=3),
            conv2d("c3", k=8, c=4, y=16, x=16, r=3, s=3),  # same shape as c1
        ])
        workload = WorkloadSpec.from_models("w", [graph], batches=4)
        assert workload.total_layers == 12
        assert workload.unique_layers == 3
        assert workload.unique_shapes == 2
        names = [layer.name for layer in workload.unique_shape_layers()]
        assert names == ["c1", "c2"]

    def test_memos_track_entry_mutation(self):
        graph = ModelGraph.from_layers("rep", [fc("a", k=4, c=4)])
        workload = WorkloadSpec.from_models("w", [graph], batches=1)
        assert len(workload.instances()) == 1
        workload.entries.append(("rep", 2))
        assert len(workload.instances()) == 3

    def test_pickle_strips_derived_memos(self, small_workload):
        small_workload.instances()
        small_workload.unique_shape_layers()
        clone = pickle.loads(pickle.dumps(small_workload))
        assert clone._instances_memo is None
        assert clone._shapes_memo is None
        assert [i.instance_id for i in clone.instances()] == \
            [i.instance_id for i in small_workload.instances()]


# ---------------------------------------------------------------------------
# Persistent-cache migration
# ---------------------------------------------------------------------------

class TestCacheMigration:
    def _legacy_v2_payload(self):
        return {
            "version": 2,
            "fingerprint": "whatever",
            "entries": [{
                "layer": {"name": "l", "k": 1, "c": 1, "y": 1, "x": 1, "r": 1,
                          "s": 1, "stride": 1, "upscale": 1, "model_name": "",
                          "layer_type": "FC"},
                "dataflow": "nvdla", "num_pes": 64,
                "bandwidth_bytes_per_s": 1, "buffer_bytes": 1,
                "clock_hz": 1e9, "cost": {},
            }],
        }

    def test_legacy_file_is_discarded_not_corrupted(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps(self._legacy_v2_payload()))
        cache = PersistentCostCache(str(path))
        assert len(cache) == 0
        assert not cache.corrupted
        assert cache.discarded_version == 2
        assert "legacy v2" in cache.describe()

    def test_legacy_file_is_rewritten_in_current_format(self, tmp_path,
                                                        tiny_chip,
                                                        small_workload):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps(self._legacy_v2_payload()))
        backend = SerialBackend(cache=PersistentCostCache(str(path)))
        backend.run([EvaluationTask(0, make_fda(tiny_chip, NVDLA),
                                    small_workload)])
        payload = json.loads(path.read_text())
        assert payload["version"] == CACHE_FORMAT_VERSION
        assert payload["entries"], "migrated file must carry fresh entries"
        reloaded = PersistentCostCache(str(path))
        assert reloaded.discarded_version is None
        assert len(reloaded) > 0

    def test_future_version_is_corrupted_not_discarded(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"version": 999, "entries": []}))
        cache = PersistentCostCache(str(path))
        assert cache.corrupted
        assert cache.discarded_version is None

    def test_entries_are_shape_shared_across_models(self, tmp_path):
        """The on-disk cache stores one entry per shape, not per layer name."""
        path = str(tmp_path / "cache.json")
        model = CostModel()
        sub = _sub()
        for index in range(5):
            model.layer_cost(conv2d(f"block{index}", k=8, c=4, y=16, x=16,
                                    r=3, s=3, model_name=f"net{index}"), sub)
        cache = PersistentCostCache(path)
        cache.capture(model)
        cache.save()
        assert len(PersistentCostCache(path)) == 1


# ---------------------------------------------------------------------------
# Scheduler equivalence (golden files generated from the seed implementation)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def golden_timelines():
    return golden_scheduler.load_golden(golden_scheduler.TIMELINES_FILE)


@pytest.fixture(scope="module")
def current_timelines():
    return golden_scheduler.generate_timelines()


class TestGoldenEquivalence:
    def test_matrix_is_complete(self, golden_timelines):
        expected = [key
                    for workload in golden_scheduler.build_workloads()
                    for key in golden_scheduler.scenario_keys(workload)]
        assert sorted(golden_timelines) == sorted(expected)
        assert len(expected) == 192

    def test_every_scenario_matches_seed_bit_for_bit(self, golden_timelines,
                                                     current_timelines):
        mismatched = [key for key in golden_timelines
                      if golden_timelines[key] != current_timelines[key]]
        assert mismatched == []

    def test_memory_violation_scenarios_participate(self, golden_timelines):
        assert any(record["memory_violations"] > 0
                   for record in golden_timelines.values())

    def test_dse_ranking_matches_seed_bit_for_bit(self):
        golden = golden_scheduler.load_golden(golden_scheduler.DSE_FILE)
        assert golden_scheduler.run_dse() == golden

    def test_pool_backend_matches_seed_rankings(self):
        golden = golden_scheduler.load_golden(golden_scheduler.DSE_FILE)
        backend = ProcessPoolBackend(jobs=4)
        assert golden_scheduler.run_dse(backend=backend) == golden


#: Four sub-accelerators of distinct dataflows and sizes; a draw takes the
#: first one to four, so every design arity the scheduler unrolls (and the
#: generic walk beyond them) is exercised.
_REFERENCE_SUBS = (_sub(NVDLA, name="a0"), _sub(SHIDIANNAO, pes=64, name="a1"),
                   _sub(EYERISS, pes=64, name="a2"), _sub(NVDLA, pes=32, name="a3"))

_dag_configs = st.tuples(
    st.sampled_from(["edp", "latency", "energy"]),
    st.sampled_from(["breadth", "depth"]),
    st.sampled_from([None, 1.25, 2.0]),
    # None, plus budgets that bind on the small fc layers below.
    st.sampled_from([None, 256, 1024, 4096]),
    st.booleans(),
    st.integers(min_value=1, max_value=4),
)


def _options(config):
    metric, ordering, lb, memory_limit, post, n_accs = config
    return _REFERENCE_SUBS[:n_accs], dict(
        metric=metric, ordering=ordering, load_balance_factor=lb,
        memory_limit_bytes=memory_limit, enable_post_processing=post)


class TestHeapSchedulerMatchesReference:
    @given(
        n=st.integers(min_value=3, max_value=12),
        edge_seed=st.integers(min_value=0, max_value=2**31),
        dims=st.lists(st.sampled_from([4, 8, 16, 64, 256]),
                      min_size=12, max_size=12),
        config=_dag_configs,
    )
    @settings(max_examples=60, deadline=None)
    def test_random_dags(self, n, edge_seed, dims, config):
        """The scheduler matches the reference on arbitrary DAG shapes."""
        import random as random_module

        rng = random_module.Random(edge_seed)
        layers = [fc(f"l{i}", k=dims[i], c=dims[(i * 7 + 3) % 12])
                  for i in range(n)]
        graph = ModelGraph.from_layers("dag", layers)
        for i in range(n):
            for j in range(i + 2, n):
                if rng.random() < 0.3:
                    graph.add_edge(f"l{i}", f"l{j}")
        workload = WorkloadSpec.from_models("dag-wl", [graph], batches=2)

        accs, options = _options(config)
        reference_scheduler.assert_matches_reference(CostModel(), workload,
                                                     accs, **options)

    def test_rankings_memo_respects_metric_mutation(self, cost_model):
        """Reassigning scheduler.metric must not serve stale rankings."""
        workloads = golden_scheduler.build_workloads()
        accs = golden_scheduler.build_sub_accelerators()
        mutated = HeraldScheduler(cost_model, metric="edp")
        mutated.schedule(workloads["chain"], accs)
        mutated.metric = "latency"
        remetered = mutated.schedule(workloads["chain"], accs)
        fresh = HeraldScheduler(cost_model, metric="latency").schedule(
            workloads["chain"], accs)
        assert (reference_scheduler.timeline(remetered)
                == reference_scheduler.timeline(fresh))

    def test_golden_workloads(self, cost_model):
        """Scheduler vs reference on the golden topologies and options."""
        workloads = golden_scheduler.build_workloads()
        accs = golden_scheduler.build_sub_accelerators()
        for key, workload in workloads.items():
            for ordering in ("breadth", "depth"):
                for memory_limit in golden_scheduler.MEMORY_LIMITS[key]:
                    for post in (True, False):
                        reference_scheduler.assert_matches_reference(
                            cost_model, workload, accs, ordering=ordering,
                            memory_limit_bytes=memory_limit,
                            enable_post_processing=post)


def _load_hot_path_bench():
    import importlib.util
    import os

    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "benchmarks", "bench_hot_paths.py")
    spec = importlib.util.spec_from_file_location("bench_hot_paths", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestLegacyBenchArm:
    @pytest.mark.parametrize("post", [True, False])
    def test_legacy_scheduler_never_runs_the_production_pipeline(
            self, cost_model, monkeypatch, post):
        """The bench's legacy arm times its own code, not the pipeline.

        With the production pipeline disabled, ``LegacyScheduler`` must still
        reproduce the production timeline; otherwise the ``explore`` section
        would compare the current code with itself.
        """
        bench = _load_hot_path_bench()
        workload = golden_scheduler.build_workloads()["mixed4"]
        accs = golden_scheduler.build_sub_accelerators()
        options = dict(memory_limit_bytes=mib(8), enable_post_processing=post)
        expected = HeraldScheduler(cost_model, **options).schedule(workload,
                                                                   accs)

        def disabled(*args, **kwargs):
            raise AssertionError("the production pipeline ran")

        monkeypatch.setattr(HeraldScheduler, "_schedule_slots", disabled)
        legacy = bench.LegacyScheduler(cost_model, **options)
        assert (reference_scheduler.timeline(legacy.schedule(workload, accs))
                == reference_scheduler.timeline(expected))


# ---------------------------------------------------------------------------
# Memo keying regressions (the shape-key bugfixes this PR pins)
# ---------------------------------------------------------------------------

class TestShapeKeyedMemoBugfix:
    """The mapping and reuse memos key on shape, not layer identity.

    Both memos were historically keyed on the full frozen ``Layer`` — whose
    ``__eq__``/``__hash__`` include ``name`` and ``model_name`` — so renamed
    same-shape layers (batches, repeated blocks, per-model clones) each paid a
    fresh mapper search and reuse analysis and each occupied a memo slot.
    """

    _SHAPE = dict(k=8, c=4, y=16, x=16, r=3, s=3)

    def test_renamed_layer_hits_same_mapping_entry(self):
        clear_mapping_cache()
        layer = conv2d("block1", model_name="net-a", **self._SHAPE)
        first = build_mapping(layer, NVDLA, 128)
        before = mapping_cache_info()
        second = build_mapping(layer.renamed("block9", model_name="net-b"),
                               NVDLA, 128)
        after = mapping_cache_info()
        assert second is first
        assert after.hits == before.hits + 1
        assert after.currsize == before.currsize == 1

    def test_mapping_cache_size_is_per_shape_not_per_name(self):
        clear_mapping_cache()
        layer = conv2d("base", **self._SHAPE)
        for index in range(6):
            build_mapping(layer.renamed(f"clone{index}",
                                        model_name=f"model{index}"),
                          NVDLA, 128)
        assert mapping_cache_info().currsize == 1
        assert mapping_cache_info().misses == 1

    def test_renamed_layer_hits_same_reuse_entry(self):
        clear_reuse_cache()
        layer = conv2d("block1", model_name="net-a", **self._SHAPE)
        first = analyse_layer_reuse(layer, NVDLA, 128, mib(1))
        second = analyse_layer_reuse(
            layer.renamed("block9", model_name="net-b"), NVDLA, 128, mib(1))
        assert second is first
        assert reuse_cache_size() == 1

    def test_clear_all_memos_covers_every_process_global_memo(self):
        model = CostModel(vectorized=True)
        layer = conv2d("seed", **self._SHAPE)
        build_mapping(layer, NVDLA, 128)
        analyse_layer_reuse(layer, NVDLA, 128, mib(1))
        model.layer_cost(layer, _sub())
        if batch_module.numpy_available():
            model.batch_layer_costs([layer], [_sub(SHIDIANNAO, name="v0")])
            assert len(batch_module._rows_memo) > 0
        assert mapping_cache_info().currsize > 0
        assert reuse_cache_size() > 0
        clear_all_memos(model)
        assert mapping_cache_info() == (0, 0, mapping_cache_info().maxsize, 0)
        assert reuse_cache_size() == 0
        assert len(batch_module._rows_memo) == 0
        assert model.cache_size() == 0


# ---------------------------------------------------------------------------
# Vectorised cost core (numpy array programs vs the scalar estimator)
# ---------------------------------------------------------------------------

def _bitwise_fields(cost):
    """reprs of every numeric field — bitwise float comparison, not ==."""
    return tuple(repr(value) for value in _cost_fields(cost))


class TestVectorisedCostCore:
    @given(
        layers=st.lists(_small_layers, min_size=1, max_size=10),
        pes=st.sampled_from([64, 128]),
        buffer_kib=st.sampled_from([256, 1024]),
        style_index=st.integers(min_value=0, max_value=len(ALL_STYLES)),
    )
    @settings(max_examples=60, deadline=None)
    def test_vectorised_table_is_bitwise_equal_to_scalar(self, layers, pes,
                                                         buffer_kib,
                                                         style_index):
        """Random layers x styles x hardware: both paths agree float for float.

        ``style_index == len(ALL_STYLES)`` draws the reconfigurable (RDA)
        configuration, whose per-style EDP argmin must also match the scalar
        first-on-tie semantics exactly.
        """
        if not batch_module.numpy_available():
            pytest.skip("numpy unavailable: only the scalar path exists")
        style = (None if style_index == len(ALL_STYLES)
                 else ALL_STYLES[style_index])
        acc = SubAcceleratorConfig(name="acc", dataflow=style, num_pes=pes,
                                   bandwidth_bytes_per_s=gbps(4),
                                   buffer_bytes=buffer_kib * 1024)
        scalar = CostModel(vectorized=False)
        vector = CostModel(vectorized=True)
        scalar_table = scalar.batch_layer_costs(layers, [acc])
        vector_table = vector.batch_layer_costs(layers, [acc])
        assert sorted(scalar_table) == sorted(vector_table)
        for entry, scalar_cost in scalar_table.items():
            assert _bitwise_fields(vector_table[entry]) == \
                _bitwise_fields(scalar_cost)
        assert (scalar.hits, scalar.misses) == (vector.hits, vector.misses)

    def test_forced_scalar_fallback_without_numpy(self):
        """REPRO_DISABLE_NUMPY pins the scalar path, results unchanged."""
        layers = [conv2d(f"c{i}", k=8 * (i + 1), c=4, y=16, x=16, r=3, s=3)
                  for i in range(9)]
        accs = [_sub(NVDLA, name="a0"), _sub(style=None, name="rda")]
        reference = CostModel(vectorized=False).batch_layer_costs(layers, accs)
        with pytest.MonkeyPatch.context() as patcher:
            patcher.setenv("REPRO_DISABLE_NUMPY", "1")
            batch_module.reset_numpy_probe()
            try:
                assert not batch_module.numpy_available()
                forced = CostModel(vectorized=True)
                table = forced.batch_layer_costs(layers, accs)
            finally:
                patcher.undo()
                batch_module.reset_numpy_probe()
        assert sorted(table) == sorted(reference)
        for entry, cost in table.items():
            assert _bitwise_fields(cost) == _bitwise_fields(reference[entry])

    def test_golden_timelines_with_vectorised_model(self, monkeypatch,
                                                    golden_timelines):
        """The full 192-scenario golden corpus, re-run with vectorized=True."""
        if not batch_module.numpy_available():
            pytest.skip("numpy unavailable: only the scalar path exists")
        monkeypatch.setattr(golden_scheduler, "CostModel",
                            lambda: CostModel(vectorized=True))
        assert golden_scheduler.generate_timelines() == golden_timelines

    def test_dse_ranking_with_vectorised_model(self, monkeypatch):
        if not batch_module.numpy_available():
            pytest.skip("numpy unavailable: only the scalar path exists")
        golden = golden_scheduler.load_golden(golden_scheduler.DSE_FILE)
        monkeypatch.setattr(golden_scheduler, "CostModel",
                            lambda: CostModel(vectorized=True))
        assert golden_scheduler.run_dse() == golden


# ---------------------------------------------------------------------------
# Shared read-mostly pool cost table
# ---------------------------------------------------------------------------

def _result_summaries(results):
    return [(r.design.name, repr(r.latency_s), repr(r.energy_mj), repr(r.edp))
            for r in results]


class TestSharedPoolTable:
    def _tasks(self, tiny_chip, small_workload):
        return [EvaluationTask(i, design, small_workload)
                for i, design in enumerate(enumerate_fdas(tiny_chip))]

    def test_prewarmed_pool_ships_zero_entries_back(self, tiny_chip,
                                                    small_workload):
        """A prewarmed parent table is shared: no per-task merge-back."""
        tasks = self._tasks(tiny_chip, small_workload)
        model = CostModel()
        for task in tasks:
            model.prewarm(small_workload.unique_shape_layers(),
                          task.design.sub_accelerators)
        size_before = model.cache_size()
        backend = ProcessPoolBackend(jobs=2, cost_model=model)
        results = backend.run(tasks)
        assert backend.last_new_cache_entries == 0
        assert model.cache_size() == size_before
        serial = SerialBackend().run(tasks)
        assert _result_summaries(results) == _result_summaries(serial)

    def test_forced_shared_table_skips_merge_back_on_cold_model(
            self, tiny_chip, small_workload):
        """shared_table=True never ships worker entries, results unchanged."""
        tasks = self._tasks(tiny_chip, small_workload)
        model = CostModel()
        backend = ProcessPoolBackend(jobs=2, cost_model=model,
                                     shared_table=True)
        results = backend.run(tasks)
        assert model.cache_size() == 0
        assert backend.last_new_cache_entries == 0
        serial = SerialBackend().run(tasks)
        assert _result_summaries(results) == _result_summaries(serial)

    def test_forced_merge_back_on_prewarmed_model(self, tiny_chip,
                                                  small_workload):
        """shared_table=False pins the historical merge-back protocol."""
        tasks = self._tasks(tiny_chip, small_workload)
        model = CostModel()
        for task in tasks:
            model.prewarm(small_workload.unique_shape_layers(),
                          task.design.sub_accelerators)
        backend = ProcessPoolBackend(jobs=2, cost_model=model,
                                     shared_table=False)
        results = backend.run(tasks)
        # Workers recompute nothing (the shipped table covers every query),
        # so even the merge-back protocol returns zero new entries.
        assert backend.last_new_cache_entries == 0
        serial = SerialBackend().run(tasks)
        assert _result_summaries(results) == _result_summaries(serial)
