"""Herald's layer-execution scheduler (Sec. IV-D, Fig. 7-9).

The scheduler works in two steps, mirroring the paper:

1. **Initial scheduling** (Fig. 8).  Model instances are visited in
   breadth-first (interleave models) or depth-first (finish a model first)
   order.  Each head layer is assigned to the sub-accelerator its dataflow
   prefers (lowest EDP / latency / energy, user selectable) subject to a
   load-balancing condition: if assigning to the preferred sub-accelerator
   would leave it more than ``load_balance_factor`` behind the most-loaded
   sub-accelerator, the next-best sub-accelerator is tried instead.  Layer
   dependence and (optionally) global-buffer occupancy are checked before an
   assignment is committed.

2. **Post-processing** (Fig. 9).  The initial order can leave sub-accelerators
   idle while a dependent layer waits on another sub-accelerator.  The
   post-processor keeps the layer-to-sub-accelerator assignment but re-derives
   the execution order with a look-ahead list schedule: whenever a
   sub-accelerator becomes free, it starts the earliest *ready* layer assigned
   to it, skipping over layers whose dependences are still outstanding.

Both steps run as one pipeline over dense per-slot arrays (slot == the
layer's position in the visiting order):

* :meth:`HeraldScheduler._static_visit_order` fixes the visiting order.  It
  never depends on the design: the rotation over instances is
  data-independent, and the Fig. 8 memory check reads only *which* layers are
  committed, never *where* they run.  The order (and its DRAM-spill violation
  count) is memoised per (workload, ordering, memory limit).
* :meth:`HeraldScheduler._schedule_slots` makes the per-slot Fig. 8 choices
  from per-shape preference rows and load fronts, then builds the timeline:
  the Fig. 9 event-driven list schedule when post-processing is on, a
  strict-order replay when it is off.

Both steps are DAG-aware: readiness and start times derive from the true
per-layer predecessor sets the model graphs expose (Sec. III-A's hard
constraint is that a layer waits only for its *actual* producers), so
independent branches of one model — UNet-style skip paths, parallel detection
heads — may overlap across sub-accelerators.  On linear-chain models every
predecessor set is ``{i-1}`` and the behaviour is bit-for-bit the historical
chain scheduling.

Both steps use the MAESTRO-based cost model for per-layer latency/energy, so
the same scheduler serves monolithic designs (FDA / RDA, one sub-accelerator)
and multi-sub-accelerator designs (SM-FDA / HDA).

**Online (streaming) mode.**  :meth:`HeraldScheduler.schedule` optionally
takes per-instance *release times* (``release_cycles``): an instance's layers
only become schedulable once its frame has arrived.  The release constraint
rides the existing event machinery — a released-at-``r`` instance simply
starts its root layers with data ready at ``r`` instead of ``0`` — so an
all-releases-at-zero trace is bit-for-bit identical to the batch path, and the
heap complexity argument is unchanged (data readiness still only grows).

The quadratic full-rescan list schedule this pipeline replaced is kept as an
executable reference in ``tests/reference_scheduler.py``; the equivalence
tests compare :meth:`HeraldScheduler.schedule` against it end to end.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import SchedulingError
from repro.maestro.cost import CostModel, LayerCost, metric_value
from repro.maestro.hardware import SubAcceleratorConfig
from repro.models.graph import derive_last_consumers, derive_retirements
from repro.models.layer import Layer
from repro.core.schedule import Schedule, ScheduledLayer
from repro.units import BYTES_PER_ELEMENT
from repro.workloads.spec import ModelInstance, WorkloadSpec

#: Layer orderings supported by the initial scheduling step.
ORDERINGS = ("breadth", "depth")

#: Metrics a user may optimise layer assignment for.
METRICS = ("edp", "latency", "energy")

#: Metric name -> the :class:`LayerCost` attribute caching its value.  The
#: cached slots hold exactly what :func:`metric_value` computes (they are
#: filled from the same expressions in ``LayerCost.__post_init__``), so
#: ranking through them is bitwise identical to the per-call extraction.
_METRIC_CACHED_ATTR = {"edp": "_edp", "latency": "_latency_s",
                       "energy": "_energy_pj"}

#: Preference-row sort key: (metric value, sub-accelerator name).
_RANK_ORDER = operator.itemgetter(0, 1)


def checked_release_cycles(release_cycles: Optional[Mapping[str, float]],
                           instances: Sequence[ModelInstance]
                           ) -> Optional[Dict[str, float]]:
    """Validate and normalise a release-time map (``None`` when absent/empty).

    Shared by every scheduler that supports the online serving mode, so an
    unknown instance id or a negative release is rejected identically
    everywhere instead of one scheduler silently treating a typo'd id as
    released-at-zero.
    """
    if not release_cycles:
        return None
    known = {instance.instance_id for instance in instances}
    unknown = sorted(set(release_cycles) - known)
    if unknown:
        raise SchedulingError(
            f"release_cycles references unknown instances: {unknown!r}")
    releases = dict(release_cycles)
    negative = sorted(instance_id for instance_id, release in releases.items()
                      if release < 0.0)
    if negative:
        raise SchedulingError(
            f"release_cycles must be >= 0; negative for: {negative!r}")
    return releases


@dataclass
class _InstanceState:
    """Commit progress and buffer liveness of one model instance.

    Drives the memory-limited visiting order.  ``predecessors`` /
    ``successors`` are the instance's per-layer dependence index sets
    (aligned with ``layers``); the visit walks ``layers`` in dependence
    order, so indices below ``next_index`` are exactly the committed layers.
    ``last_consumer`` (position of each layer's final consumer, -1 when none)
    and ``retiring`` (the inverse map: which tensors retire at each commit)
    are derived once — from the model graph's memos when the scheduler builds
    the state, or in ``__post_init__`` as a fallback.
    """

    instance: ModelInstance
    layers: List[Layer]
    predecessors: Tuple[FrozenSet[int], ...]
    successors: Tuple[FrozenSet[int], ...]
    last_consumer: Optional[Tuple[int, ...]] = None
    retiring: Optional[Tuple[Tuple[int, ...], ...]] = None
    next_index: int = 0
    #: Produced tensors still awaiting a consumer: layer index -> bytes.
    #: Maintained incrementally by :meth:`advance` so the memory check stays
    #: proportional to the (small) live set, not the scheduled prefix.
    live_outputs: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.last_consumer is None:
            self.last_consumer = derive_last_consumers(self.successors)
        if self.retiring is None:
            self.retiring = derive_retirements(self.last_consumer)

    @property
    def exhausted(self) -> bool:
        return self.next_index >= len(self.layers)

    @property
    def head(self) -> Layer:
        return self.layers[self.next_index]

    def advance(self) -> None:
        """Commit the head layer: step ``next_index`` and update liveness.

        A tensor stays live until its *last* consumer has been scheduled — on a
        chain that is only the most recent output, but a skip-connection tensor
        remains live across the whole branch it skips.
        """
        committed = self.next_index
        self.next_index += 1
        # Tensors whose final consumer was the committed layer retire now.
        for index in self.retiring[committed]:
            self.live_outputs.pop(index, None)
        # The committed layer's own output goes live while consumers remain
        # (its last consumer, if any, is always at a later position).
        if self.last_consumer[committed] >= self.next_index:
            self.live_outputs[committed] = (
                self.layers[committed].output_elements * BYTES_PER_ELEMENT)

    def live_bytes(self, exclude_consumers_of: Optional[int] = None) -> int:
        """Global-buffer bytes of produced tensors still awaiting a consumer.

        ``exclude_consumers_of`` drops tensors consumed by that (about-to-run)
        layer index, whose bytes the caller already accounts for as the
        layer's input.
        """
        if exclude_consumers_of is None:
            return sum(self.live_outputs.values())
        return sum(size for index, size in self.live_outputs.items()
                   if exclude_consumers_of not in self.successors[index])


class HeraldScheduler:
    """Herald's load-balanced, dependence-aware layer scheduler.

    Parameters
    ----------
    cost_model:
        Cost model used to query per-layer latency and energy.
    metric:
        Assignment objective: ``"edp"`` (default), ``"latency"`` or ``"energy"``.
    ordering:
        Initial layer ordering: ``"breadth"`` (interleave model instances,
        default) or ``"depth"`` (schedule a whole instance before the next).
    load_balance_factor:
        Maximum allowed ratio between the most- and least-loaded
        sub-accelerators before the scheduler redirects a layer to a
        less-preferred sub-accelerator.  ``None`` disables the feedback.
    memory_limit_bytes:
        Optional global-buffer occupancy bound checked before each assignment;
        when even deferring cannot satisfy it the violation is counted (and
        exposed through :attr:`last_memory_violations`) but the layer is still
        scheduled, matching Herald's DRAM-spill fallback.
    enable_post_processing:
        Whether to run the idle-time-elimination pass (Fig. 9).
    """

    def __init__(self, cost_model: CostModel, metric: str = "edp",
                 ordering: str = "breadth",
                 load_balance_factor: Optional[float] = 1.25,
                 memory_limit_bytes: Optional[int] = None,
                 enable_post_processing: bool = True) -> None:
        if metric not in METRICS:
            raise SchedulingError(f"unknown metric {metric!r}; expected one of {METRICS}")
        if ordering not in ORDERINGS:
            raise SchedulingError(f"unknown ordering {ordering!r}; expected one of {ORDERINGS}")
        if load_balance_factor is not None and load_balance_factor < 1.0:
            raise SchedulingError("load_balance_factor must be >= 1.0 (or None to disable)")
        self.cost_model = cost_model
        self.metric = metric
        self.ordering = ordering
        self.load_balance_factor = load_balance_factor
        self.memory_limit_bytes = memory_limit_bytes
        self.enable_post_processing = enable_post_processing
        self.last_memory_violations = 0
        #: Per-design ranking memo: sub-accelerator-set key -> {shape: row}.
        #: Grows lazily (one inner dict per distinct design configuration, one
        #: row per shape), so re-scheduling on a known design is pure lookups.
        self._rankings_memo: Dict[Tuple, Dict[Tuple, List[Tuple[float, str,
                                                                LayerCost,
                                                                float, int]]]] = {}

    def __getstate__(self) -> Dict[str, object]:
        # Schedulers ship to pool workers alongside their cost model; the
        # rankings memo is cheap to rebuild there and would bloat the pickle.
        state = dict(self.__dict__)
        state["_rankings_memo"] = {}
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def schedule(self, workload: WorkloadSpec,
                 sub_accelerators: Sequence[SubAcceleratorConfig],
                 release_cycles: Optional[Mapping[str, float]] = None) -> Schedule:
        """Produce a validated schedule of ``workload`` on ``sub_accelerators``.

        ``release_cycles`` optionally maps instance ids to the cycle at which
        the instance (frame) arrives; its layers become schedulable only from
        that point on (online serving mode).  Instances absent from the map
        are released at cycle zero, so an empty / all-zero map reproduces the
        batch schedule bit-for-bit.  The layer-to-sub-accelerator assignment
        is release-agnostic (it fixes *where* layers run, matching the batch
        decisions); releases constrain *when* they run.
        """
        if not sub_accelerators:
            raise SchedulingError("cannot schedule onto an empty sub-accelerator list")
        instances = workload.instances()
        releases = checked_release_cycles(release_cycles, instances)
        schedule = self._schedule_slots(workload, sub_accelerators, releases)
        schedule.instance_predecessors = workload.instance_dependences()
        if releases:
            schedule.instance_release_cycles = releases
        expected = {instance.instance_id: instance.num_layers for instance in instances}
        schedule.validate(expected_layers=expected)
        return schedule

    # ------------------------------------------------------------------
    # Step 0: the design-independent visiting order
    # ------------------------------------------------------------------
    def _static_visit_order(self, workload: WorkloadSpec) -> Tuple:
        """The design-independent structure of one workload's scheduling run.

        The visiting order (which instance's which layer receives which slot)
        is a pure function of the workload, the ordering policy and the
        memory limit.  With no limit it is a data-independent rotation over
        live instances.  With a limit it is Fig. 8's defer/rescan walk: an
        instance whose head would overflow the global buffer is skipped in
        favour of the next one that fits, and when none fits the first head
        is committed anyway as a counted DRAM-spill violation.  That check
        reads only which layers are committed, never where they run, so the
        walk (and its violation count) is still design-independent.  The
        consumer lists and unmet-producer counts only encode the instance
        DAGs.  Everything is therefore computed once per (workload, ordering,
        memory limit) and memoised on the spec alongside its instance
        expansion, instead of being rebuilt for each of the thousands of
        candidate designs of a sweep.

        Returns parallel per-slot lists ``(layers, instance_ids,
        layer_indices, shape_keys, unmet0, consumer_slots)`` — where
        ``consumer_slots[p]`` lists the slots consuming slot ``p``'s output,
        in ascending order — followed by the walk's memory-violation count.
        """
        snapshot = tuple(workload.entries)
        memo = workload._static_order_memo
        if memo is None:
            memo = workload._static_order_memo = {}
        memo_key = (self.ordering, self.memory_limit_bytes)
        cached = memo.get(memo_key)
        if cached is not None and cached[0] == snapshot:
            return cached[1]

        instances = workload.instances()
        per_instance = [(instance.instance_id,
                         instance.layers_in_dependence_order(),
                         instance.predecessor_indices())
                        for instance in instances]
        breadth = self.ordering == "breadth"
        visit_queue = [index for index, (_, layers, _) in enumerate(per_instance)
                       if layers]
        order: List[Tuple[int, int]] = []
        violations = 0
        if self.memory_limit_bytes is None:
            next_index = [0] * len(per_instance)
            while visit_queue:
                inst = visit_queue[0]
                total = len(per_instance[inst][1])
                position = next_index[inst]
                # Depth ordering keeps visiting this instance until it is
                # exhausted; breadth rotates after every commit.
                while True:
                    order.append((inst, position))
                    position += 1
                    if breadth or position >= total:
                        break
                next_index[inst] = position
                if position >= total:
                    visit_queue.pop(0)
                else:
                    visit_queue.append(visit_queue.pop(0))
        else:
            states = [
                _InstanceState(instance=instance, layers=layers,
                               predecessors=predecessors,
                               successors=instance.successor_indices(),
                               last_consumer=instance.model.last_consumer_indices(),
                               retiring=instance.model.retirement_indices())
                for instance, (_, layers, predecessors)
                in zip(instances, per_instance)]
            while visit_queue:
                # Commit the first instance whose head fits the buffer; when
                # none fits, spill the queue head to DRAM and count it.
                position = next((position for position, inst
                                 in enumerate(visit_queue)
                                 if self._memory_allows(states, states[inst])),
                                None)
                if position is None:
                    position = 0
                    violations += 1
                inst = visit_queue[position]
                state = states[inst]
                order.append((inst, state.next_index))
                state.advance()
                if state.exhausted:
                    visit_queue.pop(position)
                elif breadth:
                    visit_queue.append(visit_queue.pop(position))

        slot_of = {key: slot for slot, key in enumerate(order)}
        slot_layers = [per_instance[inst][1][position]
                       for inst, position in order]
        instance_ids = [per_instance[inst][0] for inst, _ in order]
        layer_indices = [position for _, position in order]
        shape_keys = [layer.shape_key for layer in slot_layers]
        unmet0 = [len(per_instance[inst][2][position])
                  for inst, position in order]
        consumer_slots: List[List[int]] = [[] for _ in order]
        for slot, (inst, position) in enumerate(order):
            for producer in per_instance[inst][2][position]:
                consumer_slots[slot_of[(inst, producer)]].append(slot)

        payload = (slot_layers, instance_ids, layer_indices, shape_keys,
                   unmet0, consumer_slots, violations)
        memo[memo_key] = (snapshot, payload)
        return payload

    def _memory_allows(self, states: Sequence[_InstanceState],
                       current: _InstanceState) -> bool:
        """Check the global-buffer occupancy condition of Fig. 8.

        Live bytes follow last-consumer semantics: a produced tensor occupies
        the buffer until every layer consuming it has been scheduled, so skip
        tensors are charged across the whole branch they bypass.  The current
        instance's tensors that its head layer consumes are excluded from the
        live set — their bytes are already counted in ``required`` as the
        layer's input.
        """
        layer = current.head
        live = sum(state.live_bytes() for state in states if state is not current)
        live += current.live_bytes(exclude_consumers_of=current.next_index)
        required = (layer.input_elements + layer.output_elements) * BYTES_PER_ELEMENT
        return live + required <= self.memory_limit_bytes

    # ------------------------------------------------------------------
    # Steps 1 and 2: per-slot choices (Fig. 8), then the timeline (Fig. 9)
    # ------------------------------------------------------------------
    def _schedule_slots(self, workload: WorkloadSpec,
                        sub_accelerators: Sequence[SubAcceleratorConfig],
                        release_cycles: Optional[Mapping[str, float]] = None
                        ) -> Schedule:
        """Initial assignment + timeline over the slot index arrays.

        Runs over the static per-slot arrays of :meth:`_static_visit_order`,
        so the per-design work is only the design-dependent choices
        themselves — sub-accelerator picks, load fronts, and the timeline —
        with no per-layer record objects and no per-design consumer-dict
        rebuild.
        """
        (slot_layers, instance_ids, layer_indices, shape_keys, unmet0,
         consumer_slots, violations) = self._static_visit_order(workload)
        # Preference rows carry the dense sub-accelerator index in their
        # trailing column, so the passes below never touch accelerator names.
        rankings = self._shape_rankings(workload, sub_accelerators)
        names = [acc.name for acc in sub_accelerators]
        n_accs = len(names)
        self.last_memory_violations = violations

        # --- Pass 1: per-slot sub-accelerator choice (Fig. 8) -------------
        # Load-balancing feedback: walk the sub-accelerators in preference
        # order and accept the first whose projected completion time (its
        # accumulated load plus this layer's latency there) stays within
        # ``load_balance_factor`` of the best achievable completion time.
        # When the preferred sub-accelerator is far ahead of the others this
        # redirects the layer to the next-preferred one — the paper's "try
        # the second, third, ... best-fit accelerator" step.  One loop
        # variant per design arity, selected once: the row count equals the
        # (fixed) sub-accelerator count.  The two- and three-way arms unroll
        # the generic walk decision for decision.
        n = len(slot_layers)
        busy = [0.0] * n_accs
        slot_acc = [0] * n
        slot_cost: List[Optional[LayerCost]] = [None] * n
        slot_latency = [0.0] * n
        lb = self.load_balance_factor
        if lb is None or n_accs == 1:
            # No balancing condition: every layer goes to its preferred
            # sub-accelerator and the load fronts are never consulted.
            for slot, shape in enumerate(shape_keys):
                _, _, cost, latency, aidx = rankings[shape][0]
                slot_acc[slot] = aidx
                slot_cost[slot] = cost
                slot_latency[slot] = latency
        elif n_accs == 2:
            for slot, shape in enumerate(shape_keys):
                ranked = rankings[shape]
                _, _, cost0, latency0, aidx0 = ranked[0]
                _, _, cost1, latency1, aidx1 = ranked[1]
                finish0 = busy[aidx0] + latency0
                finish1 = busy[aidx1] + latency1
                bound = lb * (finish0 if finish0 < finish1 else finish1)
                if finish0 <= bound or finish1 > bound:
                    slot_acc[slot] = aidx0
                    slot_cost[slot] = cost0
                    slot_latency[slot] = latency0
                    busy[aidx0] = finish0
                else:
                    slot_acc[slot] = aidx1
                    slot_cost[slot] = cost1
                    slot_latency[slot] = latency1
                    busy[aidx1] = finish1
        elif n_accs == 3:
            for slot, shape in enumerate(shape_keys):
                ranked = rankings[shape]
                _, _, cost0, latency0, aidx0 = ranked[0]
                _, _, cost1, latency1, aidx1 = ranked[1]
                _, _, cost2, latency2, aidx2 = ranked[2]
                finish0 = busy[aidx0] + latency0
                finish1 = busy[aidx1] + latency1
                finish2 = busy[aidx2] + latency2
                best_finish = finish0
                if finish1 < best_finish:
                    best_finish = finish1
                if finish2 < best_finish:
                    best_finish = finish2
                bound = lb * best_finish
                if finish1 <= bound < finish0:
                    slot_acc[slot] = aidx1
                    slot_cost[slot] = cost1
                    slot_latency[slot] = latency1
                    busy[aidx1] = finish1
                elif finish2 <= bound < finish0:
                    slot_acc[slot] = aidx2
                    slot_cost[slot] = cost2
                    slot_latency[slot] = latency2
                    busy[aidx2] = finish2
                else:
                    slot_acc[slot] = aidx0
                    slot_cost[slot] = cost0
                    slot_latency[slot] = latency0
                    busy[aidx0] = finish0
        else:
            for slot, shape in enumerate(shape_keys):
                ranked = rankings[shape]
                finishes = [busy[row[4]] + row[3] for row in ranked]
                bound = lb * min(finishes)
                _, _, cost, latency, aidx = ranked[0]
                chosen = finishes[0]
                for finish, row in zip(finishes, ranked):
                    if finish <= bound:
                        _, _, cost, latency, aidx = row
                        chosen = finish
                        break
                slot_acc[slot] = aidx
                slot_cost[slot] = cost
                slot_latency[slot] = latency
                busy[aidx] = chosen

        # --- Pass 2: the timeline ------------------------------------------
        # ``data_ready[slot]`` starts at the instance's release and is raised
        # by each producer's finish, so it ends as the later of the two.
        schedule = self._empty_schedule(sub_accelerators)
        entries_append = schedule.entries.append
        if release_cycles:
            released_at = release_cycles.get
            data_ready = [released_at(instance_id, 0.0)
                          for instance_id in instance_ids]
        else:
            data_ready = [0.0] * n
        avail = [0.0] * n_accs

        if not self.enable_post_processing:
            # Strict initial order, no gap filling: each layer starts at the
            # later of its sub-accelerator freeing up and its data arriving.
            # Slots are a topological order, so producers commit first.
            for slot in range(n):
                aidx = slot_acc[slot]
                start = avail[aidx]
                if data_ready[slot] > start:
                    start = data_ready[slot]
                finish = start + slot_latency[slot]
                entries_append(ScheduledLayer(
                    slot_layers[slot], instance_ids[slot], layer_indices[slot],
                    names[aidx], start, finish, slot_cost[slot]))
                avail[aidx] = finish
                for consumer in consumer_slots[slot]:
                    if finish > data_ready[consumer]:
                        data_ready[consumer] = finish
            return schedule

        # Idle-eliminating list schedule (Fig. 9): whenever a sub-accelerator
        # frees up it starts the earliest *ready* slot assigned to it.  Every
        # commit is the global argmin of ``(start, slot)`` over ready slots,
        # ``start = max(sub-accelerator available, data ready)`` — the layer
        # a full rescan of every pending queue would pick, since slots are
        # unique.  Per sub-accelerator a **future heap** keyed
        # ``(data_ready, slot)`` holds ready slots whose data arrives after
        # the array frees up and a **now heap** keyed by slot holds those
        # already waiting on it; entries migrate future -> now as the
        # availability front passes them, at most once each.  The two heap
        # heads give each array's cached best candidate; a commit takes the
        # minimum over the cached candidates and re-evaluates only the arrays
        # it touched (the committing one plus any that received a newly-ready
        # consumer).  O(n·A + n log n) for n slots on A arrays.  Releases only
        # seed data readiness, and producers only raise it, so keys never
        # decrease and the argmin argument holds in online mode too.
        unmet = unmet0[:]
        future: List[List[Tuple[float, int]]] = [[] for _ in range(n_accs)]
        now: List[List[int]] = [[] for _ in range(n_accs)]
        candidates: List[Optional[Tuple[float, int]]] = [None] * n_accs

        heappush = heapq.heappush
        heappop = heapq.heappop

        for slot, blockers in enumerate(unmet):
            if blockers == 0:
                aidx = slot_acc[slot]
                ready = data_ready[slot]
                if ready <= 0.0:
                    heappush(now[aidx], slot)
                else:
                    heappush(future[aidx], (ready, slot))
        for idx in range(n_accs):
            acc_now = now[idx]
            acc_future = future[idx]
            best: Optional[Tuple[float, int]] = None
            if acc_now:
                best = (0.0, acc_now[0])
            if acc_future:
                key = acc_future[0]
                if best is None or key < best:
                    best = key
            candidates[idx] = best

        indices = range(n_accs)
        two = n_accs == 2
        three = n_accs == 3
        remaining = n
        while remaining:
            # Earliest candidate wins, ties to the lower index — the generic
            # scan, unrolled for the dominant two/three-sub-accelerator
            # design arities.
            if two:
                best = candidates[0]
                best_idx = 0
                key = candidates[1]
                if key is not None and (best is None or key < best):
                    best = key
                    best_idx = 1
            elif three:
                best = candidates[0]
                best_idx = 0
                key = candidates[1]
                if key is not None and (best is None or key < best):
                    best = key
                    best_idx = 1
                key = candidates[2]
                if key is not None and (best is None or key < best):
                    best = key
                    best_idx = 2
            else:
                best = None
                best_idx = -1
                for idx in indices:
                    key = candidates[idx]
                    if key is not None and (best is None or key < best):
                        best = key
                        best_idx = idx
            if best is None:
                raise SchedulingError(
                    "post-processing dead-lock: no ready layer found; this indicates a bug"
                )
            start = best[0]
            # The winning slot sits at the top of whichever heap carries its
            # start time: ``now`` when it waits on the array, ``future`` when
            # it waits on data (the refresh below drained dr <= avail).
            if start <= avail[best_idx]:
                slot = heappop(now[best_idx])
            else:
                _, slot = heappop(future[best_idx])
            finish = start + slot_latency[slot]
            # Appended directly: every record is valid by construction, and
            # Schedule._sync_caches rebuilds the timeline memos lazily.
            entries_append(ScheduledLayer(
                slot_layers[slot], instance_ids[slot], layer_indices[slot],
                names[best_idx], start, finish, slot_cost[slot]))
            avail[best_idx] = finish
            touched = [best_idx]
            for consumer in consumer_slots[slot]:
                unmet[consumer] -= 1
                if finish > data_ready[consumer]:
                    data_ready[consumer] = finish
                if unmet[consumer] == 0:
                    cidx = slot_acc[consumer]
                    ready = data_ready[consumer]
                    if ready <= avail[cidx]:
                        heappush(now[cidx], consumer)
                    else:
                        heappush(future[cidx], (ready, consumer))
                    if cidx not in touched:
                        touched.append(cidx)
            for idx in touched:
                avail_idx = avail[idx]
                acc_future = future[idx]
                acc_now = now[idx]
                while acc_future and acc_future[0][0] <= avail_idx:
                    heappush(acc_now, heappop(acc_future)[1])
                if acc_now:
                    key = (avail_idx, acc_now[0])
                    if acc_future:
                        head = acc_future[0]
                        if head[0] < avail_idx:
                            key = head
                elif acc_future:
                    key = acc_future[0]
                else:
                    key = None
                candidates[idx] = key
            remaining -= 1
        return schedule

    def _shape_rankings(self, workload: WorkloadSpec,
                        sub_accelerators: Sequence[SubAcceleratorConfig]
                        ) -> Dict[Tuple, List[Tuple[float, str, LayerCost,
                                                    float, int]]]:
        """Per-shape sub-accelerator preference rankings, built once per design.

        The ranking depends only on the layer *shape* and the (fixed) design,
        so it is precomputed over the workload's deduped shape set — one
        batched cost query and one sort per unique shape, shared by all its
        layer executions.  Rows are ``(metric value, name, cost, latency,
        sub-accelerator index)`` in preference order (ties broken by name);
        the trailing dense index is what :meth:`_schedule_slots` reads.
        Metric values and latencies read the cost's cached scalars (filled
        from identical expressions in ``LayerCost.__post_init__``), so the
        rows are bitwise equal to a per-call :func:`metric_value` extraction.
        Rows are further memoised across :meth:`schedule` calls keyed by the
        design's named hardware configuration, so repeated scheduling
        (partition refinement, workload studies on one design) skips even the
        per-shape lookups.
        """
        hardware_key = self.cost_model.hardware_key
        design_key = (self.metric,) + tuple((acc.name,) + hardware_key(acc)
                                            for acc in sub_accelerators)
        rankings = self._rankings_memo.setdefault(design_key, {})
        representatives = [layer for layer in workload.unique_shape_layers()
                           if layer.shape_key not in rankings]
        if not representatives:
            return rankings
        table = self.cost_model.batch_layer_costs(representatives,
                                                  sub_accelerators)
        names = [acc.name for acc in sub_accelerators]
        attr = _METRIC_CACHED_ATTR.get(self.metric)
        if attr is not None:
            metric_of = operator.attrgetter(attr)
        else:
            metric = self.metric
            metric_of = lambda cost: metric_value(cost, metric)  # noqa: E731
        for layer in representatives:
            shape = layer.shape_key
            ranked = []
            for idx, name in enumerate(names):
                cost = table[(shape, name)]
                ranked.append((metric_of(cost), name, cost,
                               cost._latency_cycles, idx))
            ranked.sort(key=_RANK_ORDER)
            rankings[shape] = ranked
        return rankings

    def _empty_schedule(self, sub_accelerators: Sequence[SubAcceleratorConfig]) -> Schedule:
        return Schedule(
            sub_accelerator_names=tuple(acc.name for acc in sub_accelerators),
            clock_hz=sub_accelerators[0].clock_hz,
            idle_energy_pj_per_cycle_per_pe=self.cost_model.energy_table.leakage_per_cycle_per_pe,
            pes_per_sub_accelerator={acc.name: acc.num_pes for acc in sub_accelerators},
        )
