"""Unit tests for traffic generation, fault specs, and their helper metrics.

The hypothesis suites pin the closed-loop *behaviour*; this module pins the
building blocks directly:

* the generated arrival processes land in their textbook burstiness regimes
  (inter-arrival CV ~ 0 for periodic, ~ 1 for Poisson, > 1 for MMPP) and
  expose the expected structure (churn's periodic session combs, the
  diurnal rate swing);
* :class:`TrafficSpec` validation, deadlines, and workload compilation;
* :class:`FaultSpec` time-indexing semantics (death, overlapping slowdown
  windows, transition instants) and the CLI clause grammar;
* the metrics helpers (:func:`coefficient_of_variation`,
  :func:`interval_counts`) the generators lean on.
"""

from __future__ import annotations

import pytest

from repro.analysis.metrics import coefficient_of_variation, interval_counts
from repro.exceptions import WorkloadError
from repro.serve import (
    TRAFFIC_KINDS,
    ChipFailure,
    FaultSpec,
    FrameTrace,
    SlowdownWindow,
    StreamSpec,
    TrafficSpec,
    merge_fault_specs,
    parse_fault_clause,
    traffic_suite,
    traffic_workload,
)


def _gaps(releases):
    return [later - earlier for earlier, later in zip(releases, releases[1:])]


# ---------------------------------------------------------------------------
# Arrival-process regimes
# ---------------------------------------------------------------------------
class TestTrafficRegimes:
    """Each process lands in its textbook inter-arrival CV regime.

    The traces are deterministic, so these are exact assertions about the
    specific seeded draw, with thresholds loose enough to be seed-robust
    (checked across several seeds).
    """

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_poisson_gap_cv_is_near_one(self, seed):
        spec = TrafficSpec(kind="poisson", model_name="m", rate_fps=100.0,
                           frames=512, seed=seed)
        cv = coefficient_of_variation(_gaps(spec.release_times_s()))
        assert 0.8 < cv < 1.2

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_bursty_gap_cv_exceeds_poisson(self, seed):
        spec = TrafficSpec(kind="bursty", model_name="m", rate_fps=100.0,
                           frames=512, seed=seed)
        cv = coefficient_of_variation(_gaps(spec.release_times_s()))
        assert cv > 1.2

    def test_periodic_stream_cv_is_zero(self):
        # The baseline the stochastic regimes are judged against.
        releases = StreamSpec(model_name="m", fps=100.0,
                              frames=64).release_times_s()
        assert coefficient_of_variation(_gaps(releases)) \
            == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_diurnal_rate_swings_between_peak_and_trough(self, seed):
        # With amplitude 0.8 the instantaneous rate swings 1.8x/0.2x the
        # mean, so per-sinusoid-period bucket counts must spread well beyond
        # what a flat Poisson would produce.
        spec = TrafficSpec(kind="diurnal", model_name="m", rate_fps=100.0,
                           frames=512, seed=seed, amplitude=0.8,
                           period_frames=128.0)
        releases = spec.release_times_s()
        quarter = spec.period_frames * spec.period_s / 4.0
        counts = interval_counts(releases, quarter, releases[-1])
        assert max(counts) >= 2 * max(1, min(counts))

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_churn_contains_periodic_session_combs(self, seed):
        # Every session contributes session_frames arrivals exactly one
        # nominal period apart, so the session comb must appear among gaps.
        spec = TrafficSpec(kind="churn", model_name="m", rate_fps=100.0,
                           frames=64, seed=seed, session_frames=8)
        releases = spec.release_times_s()
        period_gaps = sum(1 for gap in _gaps(releases)
                          if gap == pytest.approx(spec.period_s))
        assert period_gaps >= spec.session_frames

    def test_all_kinds_sorted_exact_count_and_phased(self):
        for kind in TRAFFIC_KINDS:
            spec = TrafficSpec(kind=kind, model_name="m", rate_fps=250.0,
                               frames=33, seed=3, phase_s=0.125)
            releases = spec.release_times_s()
            assert len(releases) == 33
            assert list(releases) == sorted(releases)
            assert min(releases) >= 0.125


# ---------------------------------------------------------------------------
# TrafficSpec surface
# ---------------------------------------------------------------------------
class TestTrafficSpec:
    @pytest.mark.parametrize("kwargs", [
        dict(kind="uniform"),
        dict(rate_fps=0.0),
        dict(frames=0),
        dict(phase_s=-1.0),
        dict(deadline_s=0.0),
        dict(calm_factor=0.0),
        dict(calm_factor=5.0),          # calm must stay below burst
        dict(burst_dwell_frames=0.0),
        dict(amplitude=1.0),
        dict(amplitude=-0.1),
        dict(period_frames=0.0),
        dict(session_frames=0),
    ])
    def test_invalid_specs_rejected(self, kwargs):
        base = dict(kind="poisson", model_name="m", rate_fps=30.0, frames=4)
        base.update(kwargs)
        with pytest.raises(WorkloadError):
            TrafficSpec(**base)

    def test_deadline_defaults_to_one_mean_period(self):
        spec = TrafficSpec(kind="poisson", model_name="m", rate_fps=50.0,
                           frames=4)
        assert spec.effective_deadline_s == pytest.approx(0.02)
        explicit = TrafficSpec(kind="poisson", model_name="m", rate_fps=50.0,
                               frames=4, deadline_s=0.005)
        assert explicit.effective_deadline_s == 0.005

    def test_to_trace_carries_the_spec_faithfully(self):
        spec = TrafficSpec(kind="bursty", model_name="m", rate_fps=60.0,
                           frames=12, seed=9)
        trace = spec.to_trace()
        assert isinstance(trace, FrameTrace)
        assert trace.releases_s == spec.release_times_s()
        assert trace.deadline_s == spec.effective_deadline_s
        assert trace.fps == 60.0 and trace.frames == 12

    def test_describe_names_the_process(self):
        spec = TrafficSpec(kind="diurnal", model_name="m", rate_fps=30.0,
                           frames=4)
        assert "diurnal" in spec.describe()
        assert "30" in spec.describe()


class TestTrafficWorkloads:
    def test_traffic_suite_mirrors_the_periodic_suite_shape(self):
        workload = traffic_suite("arvr-a", "poisson", frames=4, seed=1)
        assert workload.name == "arvr-a-poisson"
        assert all(isinstance(stream, FrameTrace)
                   for stream in workload.streams)
        # Per suite entry: batches x target FPS rate, frames x batches
        # arrivals, deadline one single-source period — cross-check one
        # stream against the suite definition via its nominal fps ratio.
        for stream in workload.streams:
            entry_frames = stream.frames
            assert entry_frames % 4 == 0
            batches = entry_frames // 4
            assert stream.fps == pytest.approx(
                batches / stream.deadline_s)

    def test_traffic_suite_forwards_shape_kwargs(self):
        calm = traffic_suite("arvr-a", "bursty", frames=2, seed=5)
        wild = traffic_suite("arvr-a", "bursty", frames=2, seed=5,
                             burst_factor=16.0, calm_factor=0.05)
        assert [s.releases_s for s in calm.streams] \
            != [s.releases_s for s in wild.streams]

    @pytest.mark.parametrize("kwargs", [dict(frames=0), dict(fps_scale=0.0)])
    def test_traffic_suite_validates_arguments(self, kwargs):
        with pytest.raises(WorkloadError):
            traffic_suite("arvr-a", "poisson", **kwargs)

    def test_traffic_workload_compiles_explicit_specs(self):
        from repro.models.graph import ModelGraph
        from repro.models.layer import fc
        graph = ModelGraph.from_layers("tiny", [fc("l0", k=8, c=8)])
        spec = TrafficSpec(kind="poisson", model_name="tiny", rate_fps=100.0,
                           frames=3, seed=2)
        workload = traffic_workload("mixed", [spec], {"tiny": graph})
        assert workload.name == "mixed"
        assert workload.streams[0].releases_s == spec.release_times_s()
        assert workload.total_frames == 3


# ---------------------------------------------------------------------------
# Fault specs
# ---------------------------------------------------------------------------
class TestFaultSpec:
    def test_death_indexing(self):
        spec = FaultSpec(failures=(ChipFailure(1, 0.5),))
        assert spec.death_s(1) == 0.5 and spec.death_s(0) is None
        assert spec.alive(1, 0.499) and not spec.alive(1, 0.5)
        assert spec.alive(0, 1e9)

    def test_overlapping_slowdowns_take_the_worst_factor(self):
        spec = FaultSpec(slowdowns=(
            SlowdownWindow(0, 0.0, 1.0, 2.0),
            SlowdownWindow(0, 0.5, 1.5, 4.0),
            SlowdownWindow(1, 0.0, 9.0, 8.0),
        ))
        assert spec.speed_factor(0, 0.25) == 2.0
        assert spec.speed_factor(0, 0.75) == 4.0      # overlap: max wins
        assert spec.speed_factor(0, 1.25) == 4.0
        assert spec.speed_factor(0, 1.5) == 1.0       # end is exclusive
        assert spec.speed_factor(1, 5.0) == 8.0
        assert spec.transition_times(0) == [0.0, 0.5, 1.0, 1.5]
        assert spec.transition_times(2) == []

    def test_at_most_one_failure_per_chip(self):
        with pytest.raises(WorkloadError, match="more than one failure"):
            FaultSpec(failures=(ChipFailure(0, 0.1), ChipFailure(0, 0.2)))

    def test_validate_for_fleet_bounds_chip_indices(self):
        FaultSpec(failures=(ChipFailure(1, 0.1),)).validate_for_fleet(2)
        with pytest.raises(WorkloadError, match="only 2 chips"):
            FaultSpec(failures=(ChipFailure(2, 0.1),)).validate_for_fleet(2)
        with pytest.raises(WorkloadError, match="only 1 chips"):
            FaultSpec(slowdowns=(SlowdownWindow(1, 0.0, 1.0, 2.0),)) \
                .validate_for_fleet(1)

    def test_truthiness_and_describe(self):
        assert not FaultSpec()
        spec = FaultSpec(failures=(ChipFailure(0, 0.25),),
                         slowdowns=(SlowdownWindow(1, 0.0, 1.0, 3.0),))
        assert spec
        lines = spec.describe()
        assert any("dies at 0.25" in line for line in lines)
        assert any("3x slower" in line for line in lines)

    @pytest.mark.parametrize("event", [
        lambda: ChipFailure(-1, 0.0),
        lambda: ChipFailure(0, -0.1),
        lambda: ChipFailure(0, float("inf")),
        lambda: SlowdownWindow(0, -0.1, 1.0, 2.0),
        lambda: SlowdownWindow(0, 1.0, 1.0, 2.0),
        lambda: SlowdownWindow(0, 0.0, float("inf"), 2.0),
        lambda: SlowdownWindow(0, 0.0, 1.0, 1.0),
        lambda: SlowdownWindow(0, 0.0, 1.0, float("nan")),
    ])
    def test_invalid_events_rejected(self, event):
        with pytest.raises(WorkloadError):
            event()


class TestFaultClauses:
    def test_die_clause(self):
        spec = parse_fault_clause("die:1@0.002")
        assert spec.failures == (ChipFailure(1, 0.002),)
        assert spec.slowdowns == ()

    def test_slow_clause(self):
        spec = parse_fault_clause(" slow:0@0.001-0.003x2.5 ")
        assert spec.slowdowns == (SlowdownWindow(0, 0.001, 0.003, 2.5),)
        assert spec.failures == ()

    @pytest.mark.parametrize("clause", [
        "", "die", "die:", "die:1", "die:one@0.1", "die:1@never",
        "slow:0@0.001x2.5", "slow:0@0.001-0.003", "slow:0@ax-bx2",
        "kill:1@0.002", "die=1@0.002",
    ])
    def test_malformed_clauses_rejected(self, clause):
        with pytest.raises(WorkloadError, match="malformed fault clause"):
            parse_fault_clause(clause)

    def test_merge_unions_repeated_clauses(self):
        merged = merge_fault_specs([
            parse_fault_clause("die:0@0.5"),
            parse_fault_clause("slow:1@0.1-0.2x2"),
            parse_fault_clause("die:1@0.9"),
        ])
        assert {f.chip_index for f in merged.failures} == {0, 1}
        assert len(merged.slowdowns) == 1
        # The union still enforces the one-death-per-chip rule.
        with pytest.raises(WorkloadError, match="more than one failure"):
            merge_fault_specs([parse_fault_clause("die:0@0.1"),
                               parse_fault_clause("die:0@0.2")])

    def test_merge_of_nothing_is_empty(self):
        assert not merge_fault_specs([])


# ---------------------------------------------------------------------------
# Metrics helpers
# ---------------------------------------------------------------------------
class TestMetricsHelpers:
    def test_cv_known_values(self):
        assert coefficient_of_variation([2.0, 2.0, 2.0]) == 0.0
        # Population form: mean 2, variance ((1)^2 + (1)^2) / 2 = 1.
        assert coefficient_of_variation([1.0, 3.0]) == pytest.approx(0.5)

    def test_cv_rejects_degenerate_input(self):
        with pytest.raises(ValueError, match="empty"):
            coefficient_of_variation([])
        with pytest.raises(ValueError, match="positive mean"):
            coefficient_of_variation([1.0, -1.0])

    def test_interval_counts_buckets_and_overflow(self):
        counts = interval_counts([0.0, 0.1, 0.95, 1.5, 7.0], 0.5, 2.0)
        # 4 buckets over [0, 2); the 7.0 overflow lands in the last one.
        assert counts == [2, 1, 0, 2]
        assert sum(counts) == 5

    def test_interval_counts_validates(self):
        with pytest.raises(ValueError, match="interval_s"):
            interval_counts([0.0], 0.0, 1.0)
        with pytest.raises(ValueError, match="horizon_s"):
            interval_counts([0.0], 0.5, 0.0)
        with pytest.raises(ValueError, match=">= 0"):
            interval_counts([-0.5], 0.5, 1.0)
