"""Tests for design evaluation, partition search, and the Herald DSE driver."""

import pytest

from repro.accel.builders import make_fda, make_hda, make_rda, make_smfda
from repro.core.dse import DesignSpacePoint, DSEResult, HeraldDSE
from repro.core.evaluator import evaluate_design, evaluate_designs
from repro.core.greedy import GreedyScheduler
from repro.core.partitioner import PartitionSearch, compositions
from repro.core.scheduler import HeraldScheduler
from repro.dataflow.styles import EYERISS, NVDLA, SHIDIANNAO
from repro.exceptions import SearchError


@pytest.fixture(scope="module")
def dse(cost_model):
    scheduler = HeraldScheduler(cost_model)
    search = PartitionSearch(cost_model=cost_model, scheduler=scheduler,
                             pe_steps=4, bw_steps=2)
    return HeraldDSE(cost_model=cost_model, scheduler=scheduler, partition_search=search)


class TestEvaluator:
    def test_result_metrics_positive(self, cost_model, small_workload, tiny_chip):
        result = evaluate_design(make_fda(tiny_chip, NVDLA), small_workload,
                                 cost_model=cost_model)
        assert result.latency_s > 0
        assert result.energy_mj > 0
        assert result.edp == pytest.approx(result.schedule.edp)

    def test_summary_and_describe(self, cost_model, small_workload, tiny_chip):
        result = evaluate_design(make_fda(tiny_chip, NVDLA), small_workload,
                                 cost_model=cost_model)
        assert set(result.summary()) == {"latency_s", "energy_mj", "edp_js",
                                         "scheduling_time_s", "load_imbalance"}
        assert "fda-nvdla" in result.describe()

    def test_custom_scheduler_is_used(self, cost_model, small_workload, tiny_chip):
        design = make_hda(tiny_chip, [NVDLA, SHIDIANNAO])
        greedy = evaluate_design(design, small_workload, cost_model=cost_model,
                                 scheduler=GreedyScheduler(cost_model))
        herald = evaluate_design(design, small_workload, cost_model=cost_model)
        assert herald.edp <= greedy.edp * 1.05

    def test_evaluate_designs_keys_by_name(self, cost_model, small_workload, tiny_chip):
        designs = [make_fda(tiny_chip, NVDLA), make_fda(tiny_chip, SHIDIANNAO)]
        results = evaluate_designs(designs, small_workload, cost_model=cost_model)
        assert set(results) == {design.name for design in designs}

    def test_scheduling_time_recorded(self, cost_model, small_workload, tiny_chip):
        result = evaluate_design(make_fda(tiny_chip, NVDLA), small_workload,
                                 cost_model=cost_model)
        assert result.scheduling_time_s >= 0.0


class TestCompositions:
    def test_two_way_compositions(self):
        assert compositions(8, 2, 2) == [(2, 6), (4, 4), (6, 2)]

    def test_three_way_compositions_sum(self):
        for parts in compositions(16, 3, 4):
            assert sum(parts) == 16
            assert all(p > 0 for p in parts)

    def test_invalid_step_rejected(self):
        with pytest.raises(SearchError):
            compositions(10, 2, 3)

    def test_too_many_parts_rejected(self):
        with pytest.raises(SearchError):
            compositions(4, 5, 1)


class TestPartitionSearch:
    def test_invalid_strategy_rejected(self, cost_model):
        with pytest.raises(SearchError):
            PartitionSearch(cost_model=cost_model, strategy="genetic")

    def test_requires_two_styles(self, cost_model, small_workload, tiny_chip):
        search = PartitionSearch(cost_model=cost_model, pe_steps=4, bw_steps=2)
        with pytest.raises(SearchError):
            search.search(tiny_chip, [NVDLA], small_workload)

    def test_exhaustive_point_count(self, cost_model, small_workload, tiny_chip):
        search = PartitionSearch(cost_model=cost_model, pe_steps=4, bw_steps=2)
        points = search.search(tiny_chip, [NVDLA, SHIDIANNAO], small_workload)
        # 3 PE splits x 1 bandwidth split (bw_steps=2 -> one interior split).
        assert len(points) == 3

    def test_partitions_cover_chip_resources(self, cost_model, small_workload, tiny_chip):
        search = PartitionSearch(cost_model=cost_model, pe_steps=4, bw_steps=2)
        for point in search.search(tiny_chip, [NVDLA, SHIDIANNAO], small_workload):
            assert sum(point.pe_partition) == tiny_chip.num_pes
            assert sum(point.bw_partition_gbps) == pytest.approx(
                tiny_chip.noc_bandwidth_bytes_per_s / 1e9)

    def test_best_point_minimises_metric(self, cost_model, small_workload, tiny_chip):
        search = PartitionSearch(cost_model=cost_model, pe_steps=4, bw_steps=2)
        points = search.search(tiny_chip, [NVDLA, SHIDIANNAO], small_workload)
        best = search.best_point(points)
        assert best.edp == min(point.edp for point in points)

    def test_best_point_of_empty_list_raises(self, cost_model):
        with pytest.raises(SearchError):
            PartitionSearch(cost_model=cost_model).best_point([])

    def test_random_strategy_samples_subset(self, cost_model, small_workload, tiny_chip):
        search = PartitionSearch(cost_model=cost_model, strategy="random", pe_steps=8,
                                 bw_steps=2, samples=3, seed=1)
        points = search.search(tiny_chip, [NVDLA, SHIDIANNAO], small_workload)
        assert len(points) == 3

    def test_binary_strategy_refines_around_best(self, cost_model, small_workload,
                                                 tiny_chip):
        exhaustive = PartitionSearch(cost_model=cost_model, strategy="exhaustive",
                                     pe_steps=4, bw_steps=2)
        binary = PartitionSearch(cost_model=cost_model, strategy="binary",
                                 pe_steps=4, bw_steps=2)
        coarse = exhaustive.search(tiny_chip, [NVDLA, SHIDIANNAO], small_workload)
        refined = binary.search(tiny_chip, [NVDLA, SHIDIANNAO], small_workload)
        assert len(refined) >= len(coarse)
        assert binary.best_point(refined).edp <= exhaustive.best_point(coarse).edp + 1e-12

    def test_three_way_search(self, cost_model, small_workload, tiny_chip):
        search = PartitionSearch(cost_model=cost_model, pe_steps=4, bw_steps=3)
        points = search.search(tiny_chip, [NVDLA, SHIDIANNAO, EYERISS], small_workload)
        assert points
        for point in points:
            assert len(point.pe_partition) == 3

    def test_describe_mentions_partition(self, cost_model, small_workload, tiny_chip):
        search = PartitionSearch(cost_model=cost_model, pe_steps=4, bw_steps=2)
        point = search.search_best(tiny_chip, [NVDLA, SHIDIANNAO], small_workload)
        assert "PE [" in point.describe()


class TestHeraldDSE:
    def test_explore_covers_all_categories(self, dse, small_workload, tiny_chip):
        space = dse.explore(small_workload, tiny_chip)
        assert set(space.categories()) == {"fda", "sm-fda", "rda", "hda"}

    def test_explore_point_counts(self, dse, small_workload, tiny_chip):
        space = dse.explore(small_workload, tiny_chip)
        assert len(space.by_category("fda")) == 3
        assert len(space.by_category("sm-fda")) == 3
        assert len(space.by_category("rda")) == 1
        assert len(space.by_category("hda")) > 3

    def test_best_per_category_and_overall(self, dse, small_workload, tiny_chip):
        space = dse.explore(small_workload, tiny_chip)
        overall = space.best()
        assert overall.edp <= space.best("fda").edp
        assert overall.edp == min(point.edp for point in space.points)

    def test_best_breaks_edp_ties_in_enumeration_order(self, dse, small_workload,
                                                       tiny_chip):
        space = dse.explore(small_workload, tiny_chip)
        first, second = space.by_category("fda")[:2]
        twin = DesignSpacePoint(category="fda", design=second.design,
                                result=first.result)
        tied = DSEResult(workload_name=space.workload_name,
                         chip_name=space.chip_name, points=[first, twin])
        assert tied.best("fda") is first
        tied.points.reverse()
        assert tied.best("fda") is twin

    def test_best_unknown_category_raises(self, dse, small_workload, tiny_chip):
        space = dse.explore(small_workload, tiny_chip)
        with pytest.raises(SearchError):
            space.best("tpu")

    def test_summary_rows_and_describe(self, dse, small_workload, tiny_chip):
        space = dse.explore(small_workload, tiny_chip)
        rows = space.summary_rows()
        assert {row["category"] for row in rows} == set(space.categories())
        assert "Design space" in space.describe()

    def test_maelstrom_partition_sums_to_chip(self, dse, small_workload, tiny_chip):
        point = dse.maelstrom(small_workload, tiny_chip)
        assert sum(point.pe_partition) == tiny_chip.num_pes

    def test_maelstrom_design_is_hda(self, dse, small_workload, tiny_chip):
        design = dse.maelstrom_design(small_workload, tiny_chip)
        assert design.kind.value == "hda"
        assert set(design.dataflow_names) == {"nvdla", "shidiannao"}

    def test_compare_with_baselines_keys(self, dse, small_workload, tiny_chip):
        comparison = dse.compare_with_baselines(small_workload, tiny_chip)
        assert set(comparison) == {"best_fda", "best_smfda", "rda", "maelstrom"}
