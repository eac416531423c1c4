"""The closed loop: event-driven fleet serving on observed feedback.

The a-priori router (:mod:`repro.serve.router`) plans the entire dispatch up
front from cost estimates; a production front-end reacts to what it *sees* —
queue depths, completions, stragglers, dead chips — under time-varying load.
This module is that reactive half: a deterministic discrete-event engine
that advances per-chip clocks, dispatches each frame at its arrival instant
on **observed** outstanding work, re-dispatches frames orphaned by chip
death, steals work from backlogged chips, and drives an autoscaling
controller against the live backlog.

The engine deliberately reuses the router's policy objects unchanged: every
:class:`~repro.serve.router.DispatchPolicy` is an incremental
``begin``/``choose`` procedure over an abstract fleet view, so the *same
policy code* runs a-priori (against the
:class:`~repro.serve.router.EstimateView` estimate ledger) and closed-loop
(against the :class:`ObservedView` backed by simulated chip queues).  Two
consequences keep the subsystem honest:

* **One a-priori driver** — estimate-driven dispatch is
  :meth:`~repro.serve.router.Router.dispatch` alone; this module drives the
  policies on observed state only.
* **Conservation/liveness** — every generated frame is either completed on
  exactly one chip or explicitly recorded in ``lost_frame_ids`` (possible
  only when *no* chip is alive at a dispatch instant); the hypothesis
  harness pins both across random fleets, traffic processes and faults.

Each chip is modelled as a frame-serial queue server whose
per-frame service time is **measured**, not estimated: the makespan of
scheduling one frame alone on that chip with the real
:class:`~repro.core.scheduler.HeraldScheduler` (deduplicated across
identically-configured chips, computed through the execution backend so a
process pool probes chips in parallel).  Slowdown windows scale the server's
progress rate; chip death orphans its queue.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import percentile
from repro.exceptions import SearchError, SpecError, WorkloadError
from repro.exec.tasks import EvaluationTask
from repro.serve.faults import FaultSpec
from repro.serve.fleet import ChipStats, Fleet, FleetReport
from repro.serve.router import (
    DispatchPolicy,
    FrameCostEstimator,
    FrameRef,
)
from repro.serve.simulator import DEFAULT_DROP_DEADLINE_FACTOR
from repro.serve.trace import FrameTrace
from repro.serve.workload import StreamingWorkload
from repro.validation import (
    check_keys,
    expect_mapping,
    expect_number,
    expect_pos_int,
    spec_path,
)

# Event priorities: at one simulated instant, completions land before
# deaths (a frame finishing exactly when its chip dies did finish), deaths
# before slowdown transitions, transitions before arrivals (an arriving
# frame sees the chip's new speed), and autoscaling observes last.
_COMPLETION, _DEATH, _SLOWDOWN, _ARRIVAL, _AUTOSCALE = range(5)


# ---------------------------------------------------------------------------
# Autoscaling
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AutoscalePolicy:
    """A periodic backlog-tracking autoscaler over a homogeneous chip pool.

    Every ``interval_s`` the controller observes the fleet-wide pending
    frame count (queued plus in flight) and resizes the *active prefix* of
    the fleet to ``ceil(pending / target_queue_per_chip)``, clamped to
    ``[min_chips, max_chips]``.  Deactivated chips drain their queues but
    receive no new dispatches; this turns the static
    :func:`~repro.serve.fleet.min_chips_for_sla` bisection into a policy
    evaluated against time-varying load, reported per interval.
    """

    interval_s: float
    min_chips: int = 1
    max_chips: Optional[int] = None
    target_queue_per_chip: float = 2.0

    def __post_init__(self) -> None:
        if self.interval_s <= 0.0 or not math.isfinite(self.interval_s):
            raise WorkloadError(
                f"autoscale interval_s must be finite and positive "
                f"(got {self.interval_s})")
        if self.min_chips < 1:
            raise WorkloadError(
                f"autoscale min_chips must be >= 1 (got {self.min_chips})")
        if self.max_chips is not None and self.max_chips < self.min_chips:
            raise WorkloadError(
                f"autoscale max_chips must be >= min_chips "
                f"(got {self.max_chips} < {self.min_chips})")
        if self.target_queue_per_chip <= 0.0:
            raise WorkloadError(
                f"autoscale target_queue_per_chip must be positive "
                f"(got {self.target_queue_per_chip})")

    def desired_chips(self, pending_frames: int, fleet_size: int) -> int:
        """Active-prefix size for the observed backlog."""
        ceiling = min(self.max_chips or fleet_size, fleet_size)
        wanted = math.ceil(pending_frames / self.target_queue_per_chip)
        return max(min(self.min_chips, fleet_size),
                   min(wanted, ceiling))


_AUTOSCALE_KEYS = ("interval_s", "interval_ms", "min_chips", "max_chips",
                   "target_queue_per_chip")


def autoscale_from_spec(spec: object,
                        path: str = "autoscale") -> AutoscalePolicy:
    """Build an autoscaling policy from its declarative spec."""
    mapping = expect_mapping(spec, path)
    check_keys(mapping, _AUTOSCALE_KEYS, path)
    if ("interval_s" in mapping) == ("interval_ms" in mapping):
        raise SpecError(f"{path}: give exactly one of interval_s or "
                        f"interval_ms")
    if "interval_s" in mapping:
        interval = expect_number(mapping["interval_s"],
                                 spec_path(path, "interval_s"),
                                 minimum=0.0, exclusive=True)
    else:
        interval = expect_number(mapping["interval_ms"],
                                 spec_path(path, "interval_ms"),
                                 minimum=0.0, exclusive=True) / 1e3
    max_chips = mapping.get("max_chips")
    if max_chips is not None:
        max_chips = expect_pos_int(max_chips, spec_path(path, "max_chips"))
    try:
        return AutoscalePolicy(
            interval_s=interval,
            min_chips=expect_pos_int(mapping.get("min_chips", 1),
                                     spec_path(path, "min_chips")),
            max_chips=max_chips,
            target_queue_per_chip=expect_number(
                mapping.get("target_queue_per_chip", 2.0),
                spec_path(path, "target_queue_per_chip"),
                minimum=0.0, exclusive=True),
        )
    except WorkloadError as error:
        raise SpecError(f"{path}: {error}") from None


def autoscale_to_spec(policy: AutoscalePolicy) -> Dict[str, object]:
    """Serialise an autoscaling policy; defaults are omitted."""
    mapping: Dict[str, object] = {"interval_s": policy.interval_s}
    if policy.min_chips != 1:
        mapping["min_chips"] = policy.min_chips
    if policy.max_chips is not None:
        mapping["max_chips"] = policy.max_chips
    if policy.target_queue_per_chip != 2.0:
        mapping["target_queue_per_chip"] = policy.target_queue_per_chip
    return mapping


@dataclass(frozen=True)
class AutoscaleInterval:
    """One controller observation: backlog seen, sizing decision taken."""

    index: int
    start_s: float
    end_s: float
    pending_frames: int
    active_before: int
    active_after: int

    def summary(self) -> Dict[str, float]:
        """The interval as a strict-JSON-serializable dictionary."""
        return {
            "index": float(self.index),
            "start_s": self.start_s,
            "end_s": self.end_s,
            "pending_frames": float(self.pending_frames),
            "active_before": float(self.active_before),
            "active_after": float(self.active_after),
        }


# ---------------------------------------------------------------------------
# Outcome records
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class OnlineFrameRecord:
    """One frame's closed-loop life: every chip it touched, when it ran.

    ``chip_history`` lists each chip the frame was dispatched to in order
    (length > 1 means re-dispatch after chip death or a work steal);
    ``finish_s is None`` marks a lost frame (dropped because no chip was
    alive at a dispatch instant).
    """

    frame_id: str
    model_name: str
    release_s: float
    chip_history: Tuple[int, ...]
    start_s: Optional[float]
    finish_s: Optional[float]

    @property
    def lost(self) -> bool:
        """True when the frame was never completed."""
        return self.finish_s is None

    @property
    def latency_s(self) -> Optional[float]:
        """Release-to-finish latency; ``None`` for lost frames."""
        if self.finish_s is None:
            return None
        return self.finish_s - self.release_s


@dataclass(frozen=True)
class OnlineStats:
    """Closed-loop bookkeeping attached to a :class:`FleetReport`.

    Present (non-``None``) on a report only when the online engine produced
    it; the a-priori report summary is unchanged.
    """

    work_stealing: bool
    redispatched_frames: int
    stolen_frames: int
    lost_frame_ids: Tuple[str, ...] = ()
    intervals: Tuple[AutoscaleInterval, ...] = ()

    def summary(self) -> Dict[str, object]:
        """The stats as a strict-JSON-serializable dictionary.

        ``feedback`` is always 1.0 (the engine always dispatches on observed
        state); the key stays so existing report files compare unchanged.
        """
        return {
            "feedback": 1.0,
            "work_stealing": float(self.work_stealing),
            "redispatched_frames": float(self.redispatched_frames),
            "stolen_frames": float(self.stolen_frames),
            "lost_frames": float(len(self.lost_frame_ids)),
            "lost_frame_ids": list(self.lost_frame_ids),
            "autoscale_intervals": [interval.summary()
                                    for interval in self.intervals],
        }


@dataclass(frozen=True)
class OnlineFleetResult:
    """Outcome of one closed-loop fleet simulation."""

    report: FleetReport
    assignments: Dict[Tuple[str, int], int]
    frames: Tuple[OnlineFrameRecord, ...]
    stats: OnlineStats


# ---------------------------------------------------------------------------
# Measured service times
# ---------------------------------------------------------------------------
def measured_service_tables(streaming: StreamingWorkload,
                            chips: Sequence, backend,
                            estimator: Optional[FrameCostEstimator] = None
                            ) -> List[Dict[str, float]]:
    """Per-chip ``{model: measured seconds}`` — one frame alone, really run.

    The closed loop's queue-model service time: the makespan of scheduling a
    single frame of the model on the chip with the real scheduler (so
    dependence stalls and array contention are in the number, unlike the
    estimator's optimistic per-layer minima).  Identically-configured chips
    share one probe; probes run as ordinary backend tasks, so a process
    pool measures chips in parallel.
    """
    estimator = estimator or FrameCostEstimator(backend.cost_model)
    probes: List[Tuple[Tuple, str]] = []
    seen = set()
    for chip in chips:
        key = estimator.chip_key(chip)
        for stream in streaming.streams:
            if (key, stream.model_name) not in seen:
                seen.add((key, stream.model_name))
                probes.append((key, stream.model_name))
    probe_chip = {estimator.chip_key(chip): chip for chip in chips}
    deadline = {stream.model_name: stream.effective_deadline_s
                for stream in streaming.streams}
    fps = {stream.model_name: stream.fps for stream in streaming.streams}
    tasks = [
        EvaluationTask(
            task_id=index,
            design=probe_chip[key],
            workload=streaming.derive(
                f"{streaming.name}::probe::{model}",
                [FrameTrace(model_name=model, releases_s=(0.0,),
                            deadline_s=deadline[model], fps=fps[model])]),
            category="fleet-probe")
        for index, (key, model) in enumerate(probes)
    ]
    measured: Dict[Tuple[Tuple, str], float] = {}
    for (key, model), result in zip(probes, backend.run(tasks)):
        clock = probe_chip[key].sub_accelerators[0].clock_hz
        measured[(key, model)] = result.schedule.makespan_cycles / clock
    return [{stream.model_name:
             measured[(estimator.chip_key(chip), stream.model_name)]
             for stream in streaming.streams}
            for chip in chips]


# ---------------------------------------------------------------------------
# The feedback engine
# ---------------------------------------------------------------------------
class _InFlight:
    """The frame a chip is currently serving, with lazy progress tracking."""

    __slots__ = ("frame", "remaining_s", "last_update_s", "serving_since_s")

    def __init__(self, frame: FrameRef, remaining_s: float,
                 now_s: float) -> None:
        self.frame = frame
        self.remaining_s = remaining_s  # unit-speed seconds of work left
        self.last_update_s = now_s
        self.serving_since_s = now_s


class _ChipState:
    """One chip as a frame-serial queue server."""

    __slots__ = ("alive", "factor", "queue", "current", "busy_s", "generation")

    def __init__(self) -> None:
        self.alive = True
        self.factor = 1.0  # wall seconds per unit-speed second (>= 1)
        self.queue: Deque[FrameRef] = deque()
        self.current: Optional[_InFlight] = None
        self.busy_s = 0.0
        self.generation = 0  # bumped to invalidate scheduled completions

    def pending_frames(self) -> int:
        return len(self.queue) + (1 if self.current is not None else 0)


class ObservedView:
    """The closed-loop fleet view: live queue state, not estimates.

    Implements the same protocol as
    :class:`~repro.serve.router.EstimateView`, so dispatch policies run
    unmodified; ``commit`` is a no-op because the engine's enqueue *is* the
    state change the estimate ledger only approximates.
    """

    def __init__(self, engine: "OnlineEngine") -> None:
        self._engine = engine

    @property
    def num_chips(self) -> int:
        return len(self._engine.chips)

    def alive_chips(self) -> List[int]:
        """Dispatchable chips: the live members of the active prefix."""
        return self._engine.dispatchable_chips()

    def service_s(self, chip_index: int, model_name: str) -> float:
        return self._engine.service_tables[chip_index][model_name]

    def outstanding_s(self, chip_index: int, now_s: float) -> float:
        """Observed wall-seconds of unfinished work queued on the chip."""
        return self._engine.chip_outstanding_s(chip_index, now_s)

    def completion_s(self, chip_index: int, model_name: str,
                     now_s: float) -> float:
        state = self._engine.chips[chip_index]
        return (now_s + self._engine.chip_outstanding_s(chip_index, now_s)
                + self._engine.service_tables[chip_index][model_name]
                * state.factor)

    def commit(self, frame: FrameRef, chip_index: int) -> None:
        """No-op: the engine's enqueue is the observable state change."""


@dataclass
class OnlineOutcome:
    """Raw engine bookkeeping, turned into a report by the caller."""

    frames: List[FrameRef]
    start_s: Dict[str, float] = field(default_factory=dict)
    finish_s: Dict[str, float] = field(default_factory=dict)
    completed_on: Dict[str, int] = field(default_factory=dict)
    chip_history: Dict[str, List[int]] = field(default_factory=dict)
    lost_frame_ids: List[str] = field(default_factory=list)
    busy_s: List[float] = field(default_factory=list)
    redispatched_frames: int = 0
    stolen_frames: int = 0
    intervals: List[AutoscaleInterval] = field(default_factory=list)


def _frame_id(frame: FrameRef) -> str:
    return f"{frame.model_name}#{frame.frame_index}"


class OnlineEngine:
    """Deterministic discrete-event loop over frame-serial chip servers.

    Event ordering is a total order: ``(time, priority, sequence)`` with a
    monotone sequence counter, so simultaneous events resolve identically
    on every platform (and simultaneous arrivals resolve in global arrival
    order, matching the a-priori driver).
    """

    def __init__(self, policy: DispatchPolicy, frames: Sequence[FrameRef],
                 service_tables: Sequence[Dict[str, float]],
                 faults: Optional[FaultSpec] = None,
                 autoscale: Optional[AutoscalePolicy] = None,
                 work_stealing: bool = True) -> None:
        if not service_tables:
            raise SearchError(
                "cannot dispatch onto an empty fleet: no chips to route to "
                "(the fleet has zero chips, or every chip is dead)")
        self.policy = policy
        self.frames = list(frames)
        self.service_tables = list(service_tables)
        self.faults = faults or FaultSpec()
        self.autoscale = autoscale
        self.work_stealing = work_stealing
        self.chips = [_ChipState() for _ in self.service_tables]
        self.view = ObservedView(self)
        self.faults.validate_for_fleet(len(self.chips))
        if autoscale is not None and autoscale.min_chips > len(self.chips):
            raise WorkloadError(
                f"autoscale min_chips ({autoscale.min_chips}) exceeds the "
                f"fleet size ({len(self.chips)})")
        if all(self.faults.death_s(chip) == 0.0
               for chip in range(len(self.chips))):
            raise SearchError(
                "cannot dispatch onto an empty fleet: no chips to route to "
                "(the fleet has zero chips, or every chip is dead)")
        self.active_count = (len(self.chips) if autoscale is None
                             else min(autoscale.min_chips, len(self.chips)))
        self._heap: List[Tuple[float, int, int, object]] = []
        self._sequence = 0
        self._arrivals_pending = len(self.frames)
        self.outcome = OnlineOutcome(frames=self.frames)

    # -- event plumbing -------------------------------------------------
    def _push(self, time_s: float, priority: int, payload: object) -> None:
        heapq.heappush(self._heap, (time_s, priority, self._sequence, payload))
        self._sequence += 1

    # -- fleet state queries (the view delegates here) ------------------
    def dispatchable_chips(self) -> List[int]:
        """Live chips in the active prefix; any live chip as a fallback.

        The fallback preserves liveness under autoscaling: if every chip
        the controller kept active has died, frames go to whatever is
        still alive rather than being lost.
        """
        candidates = [chip for chip in range(self.active_count)
                      if self.chips[chip].alive]
        if candidates:
            return candidates
        return [chip for chip in range(len(self.chips))
                if self.chips[chip].alive]

    def chip_outstanding_s(self, chip_index: int, now_s: float) -> float:
        state = self.chips[chip_index]
        total = 0.0
        if state.current is not None:
            elapsed = now_s - state.current.last_update_s
            remaining = max(0.0,
                            state.current.remaining_s - elapsed / state.factor)
            total += remaining * state.factor
        for frame in state.queue:
            total += (self.service_tables[chip_index][frame.model_name]
                      * state.factor)
        return total

    def _pending_frames(self) -> int:
        return sum(state.pending_frames() for state in self.chips)

    # -- serving --------------------------------------------------------
    def _dispatch(self, frame: FrameRef, now_s: float) -> None:
        candidates = self.dispatchable_chips()
        frame_id = _frame_id(frame)
        if not candidates:
            self.outcome.lost_frame_ids.append(frame_id)
            return
        chip = self.policy.choose(frame, now_s, self.view)
        if chip not in candidates:
            raise WorkloadError(
                f"policy {self.policy.name!r} routed frame {frame_id} to "
                f"chip {chip}, which is not dispatchable")
        self.outcome.chip_history.setdefault(frame_id, []).append(chip)
        self.chips[chip].queue.append(frame)
        self._maybe_start(chip, now_s)

    def _maybe_start(self, chip_index: int, now_s: float) -> None:
        state = self.chips[chip_index]
        if state.current is not None or not state.queue:
            return
        frame = state.queue.popleft()
        state.factor = self.faults.speed_factor(chip_index, now_s)
        work = self.service_tables[chip_index][frame.model_name]
        state.current = _InFlight(frame, remaining_s=work, now_s=now_s)
        state.generation += 1
        self.outcome.start_s[_frame_id(frame)] = now_s
        self._push(now_s + work * state.factor, _COMPLETION,
                   (chip_index, state.generation))

    def _steal(self, thief_index: int, now_s: float) -> None:
        candidates = [chip for chip in self.dispatchable_chips()
                      if chip != thief_index and self.chips[chip].queue]
        if not candidates:
            return
        # Most-backlogged victim, lowest index on ties; take its newest
        # (tail) frame so the victim's FIFO head keeps its position.
        victim_index = min(candidates,
                           key=lambda chip: (-len(self.chips[chip].queue),
                                             chip))
        frame = self.chips[victim_index].queue.pop()
        self.outcome.stolen_frames += 1
        self.outcome.chip_history[_frame_id(frame)].append(thief_index)
        self.chips[thief_index].queue.append(frame)
        self._maybe_start(thief_index, now_s)

    # -- event handlers -------------------------------------------------
    def _on_completion(self, now_s: float, chip_index: int,
                       generation: int) -> None:
        state = self.chips[chip_index]
        if (not state.alive or state.current is None
                or generation != state.generation):
            return  # superseded by a death or a slowdown reschedule
        frame = state.current.frame
        frame_id = _frame_id(frame)
        state.busy_s += now_s - state.current.serving_since_s
        state.current = None
        self.outcome.finish_s[frame_id] = now_s
        self.outcome.completed_on[frame_id] = chip_index
        self._maybe_start(chip_index, now_s)
        if state.current is None and self.work_stealing:
            self._steal(chip_index, now_s)

    def _on_death(self, now_s: float, chip_index: int) -> None:
        state = self.chips[chip_index]
        if not state.alive:
            return
        state.alive = False
        state.generation += 1  # invalidate any scheduled completion
        orphans: List[FrameRef] = []
        if state.current is not None:
            state.busy_s += now_s - state.current.serving_since_s  # wasted
            orphans.append(state.current.frame)
            state.current = None
        orphans.extend(state.queue)
        state.queue.clear()
        orphans.sort(key=lambda frame: (frame.release_s, frame.stream_index,
                                        frame.frame_index))
        for frame in orphans:
            self.outcome.redispatched_frames += 1
            self._dispatch(frame, now_s)

    def _on_slowdown(self, now_s: float, chip_index: int) -> None:
        state = self.chips[chip_index]
        if not state.alive:
            return
        new_factor = self.faults.speed_factor(chip_index, now_s)
        if state.current is not None:
            elapsed = now_s - state.current.last_update_s
            state.current.remaining_s = max(
                0.0, state.current.remaining_s - elapsed / state.factor)
            state.current.last_update_s = now_s
            state.factor = new_factor
            state.generation += 1
            self._push(now_s + state.current.remaining_s * new_factor,
                       _COMPLETION, (chip_index, state.generation))
        else:
            state.factor = new_factor

    def _on_autoscale(self, now_s: float, index: int) -> None:
        assert self.autoscale is not None
        pending = self._pending_frames()
        before = self.active_count
        self.active_count = self.autoscale.desired_chips(
            pending, len(self.chips))
        self.outcome.intervals.append(AutoscaleInterval(
            index=index,
            start_s=now_s - self.autoscale.interval_s,
            end_s=now_s,
            pending_frames=pending,
            active_before=before,
            active_after=self.active_count,
        ))
        if self._arrivals_pending > 0 or pending > 0:
            self._push(now_s + self.autoscale.interval_s, _AUTOSCALE,
                       index + 1)

    # -- the loop -------------------------------------------------------
    def run(self) -> OnlineOutcome:
        """Play the whole event script to quiescence."""
        self.policy.begin(self.frames, self.service_tables)
        for sequence_frame in self.frames:
            self._push(sequence_frame.release_s, _ARRIVAL, sequence_frame)
        for failure in self.faults.failures:
            self._push(failure.at_s, _DEATH, failure.chip_index)
        for chip_index in range(len(self.chips)):
            for transition_s in self.faults.transition_times(chip_index):
                self._push(transition_s, _SLOWDOWN, chip_index)
        if self.autoscale is not None:
            self._push(self.autoscale.interval_s, _AUTOSCALE, 1)

        while self._heap:
            now_s, priority, _, payload = heapq.heappop(self._heap)
            if priority == _COMPLETION:
                chip_index, generation = payload
                self._on_completion(now_s, chip_index, generation)
            elif priority == _DEATH:
                self._on_death(now_s, payload)
            elif priority == _SLOWDOWN:
                self._on_slowdown(now_s, payload)
            elif priority == _ARRIVAL:
                self._arrivals_pending -= 1
                self._dispatch(payload, now_s)
            else:
                self._on_autoscale(now_s, payload)

        self.outcome.busy_s = [state.busy_s for state in self.chips]
        return self.outcome


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------
def build_online_result(streaming: StreamingWorkload, fleet: Fleet,
                        policy_name: str, outcome: OnlineOutcome,
                        stats: OnlineStats) -> OnlineFleetResult:
    """Fold raw engine bookkeeping into a :class:`FleetReport`.

    The accounting mirrors the a-priori aggregation: a miss is the same
    strict ``latency > deadline``, a drop the same
    ``latency > DEFAULT_DROP_DEADLINE_FACTOR * deadline``, percentiles pool
    the completed frames' latencies.  Closed-loop chips are single queue
    servers, so utilisation is ``busy_s / horizon_s`` per chip (not divided
    across sub-accelerator arrays).  Lost frames appear only in
    ``stats.lost_frame_ids`` — they have no latency.
    """
    deadline_by_stream = {index: stream.effective_deadline_s
                          for index, stream in enumerate(streaming.streams)}
    horizon_s = max(outcome.finish_s.values(), default=0.0)

    latencies: Dict[str, float] = {}
    missed: List[str] = []
    per_chip_latencies: List[List[float]] = [[] for _ in fleet.chips]
    per_chip = [dict(frames=0, missed=0, backlogged=0, dropped=0)
                for _ in fleet.chips]
    for frame in outcome.frames:
        frame_id = _frame_id(frame)
        finish = outcome.finish_s.get(frame_id)
        if finish is None:
            continue
        latency = finish - frame.release_s
        latencies[frame_id] = latency
        chip_index = outcome.completed_on[frame_id]
        bound = deadline_by_stream[frame.stream_index]
        counters = per_chip[chip_index]
        counters["frames"] += 1
        per_chip_latencies[chip_index].append(latency)
        if latency > bound:
            missed.append(frame_id)
            counters["missed"] += 1
        if latency > DEFAULT_DROP_DEADLINE_FACTOR * bound:
            counters["dropped"] += 1
        if outcome.start_s[frame_id] > frame.release_s:
            counters["backlogged"] += 1

    chip_stats = []
    for chip_index, chip in enumerate(fleet.chips):
        counters = per_chip[chip_index]
        samples = per_chip_latencies[chip_index]
        chip_stats.append(ChipStats(
            chip_name=chip.name,
            frames=counters["frames"],
            busy_s=outcome.busy_s[chip_index],
            utilisation=(outcome.busy_s[chip_index] / horizon_s
                         if horizon_s > 0.0 else 0.0),
            missed_frames=counters["missed"],
            backlogged_frames=counters["backlogged"],
            dropped_frames=counters["dropped"],
            p99_latency_s=percentile(samples, 99.0) if samples else 0.0,
        ))

    report = FleetReport(
        fleet_name=fleet.name,
        workload_name=streaming.name,
        policy=policy_name,
        chips=chip_stats,
        frame_latencies_s=latencies,
        missed_frame_ids=tuple(sorted(missed)),
        horizon_s=horizon_s,
        online=stats,
    )
    records = tuple(
        OnlineFrameRecord(
            frame_id=_frame_id(frame),
            model_name=frame.model_name,
            release_s=frame.release_s,
            chip_history=tuple(
                outcome.chip_history.get(_frame_id(frame), ())),
            start_s=outcome.start_s.get(_frame_id(frame)),
            finish_s=outcome.finish_s.get(_frame_id(frame)),
        )
        for frame in outcome.frames)
    assignments = {
        (frame.model_name, frame.frame_index): history[-1]
        for frame in outcome.frames
        for history in (outcome.chip_history.get(_frame_id(frame), []),)
        if history
    }
    return OnlineFleetResult(report=report, assignments=assignments,
                             frames=records, stats=stats)
