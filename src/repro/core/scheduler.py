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
  from per-design rank columns and load fronts, then builds the timeline:
  the Fig. 9 event-driven list schedule when post-processing is on, a
  strict-order replay when it is off.  The timeline lands in the
  :class:`~repro.core.schedule.Schedule`'s columns; no per-layer record
  object is built.

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
from repro.core.schedule import Schedule
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

#: One design's rankings, rank-major: ``(accs, costs, latencies)``, where
#: ``accs[r][s]`` is the dense index of shape ``s``'s ``r``-th preferred
#: sub-accelerator and ``costs[r][s]`` / ``latencies[r][s]`` its cost and
#: latency in cycles there.
_RankColumns = Tuple[List[List[int]], List[List[LayerCost]], List[List[float]]]


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
        #: Dense shape ids: shape key -> index into every design's rank
        #: columns.  Append-only, shared by all workloads this scheduler sees.
        self._shape_ids: Dict[Tuple, int] = {}
        #: Per-design ranking memo: design key -> rank-major columns
        #: ``(accs, costs, latencies)``, each one list per preference rank
        #: indexed by shape id.  Grows lazily (3 x sub-accelerators lists per
        #: distinct design configuration), so re-scheduling on a known design
        #: is pure lookups.
        self._rankings_memo: Dict[Tuple, _RankColumns] = {}

    def __getstate__(self) -> Dict[str, object]:
        # Schedulers ship to pool workers alongside their cost model; the
        # rankings and shape ids are cheap to rebuild there and would bloat
        # the pickle.
        state = dict(self.__dict__)
        state["_shape_ids"] = {}
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
        layer_indices, shapes, unmet0, consumer_slots)`` — where ``shapes[p]``
        is the position of slot ``p``'s shape in
        :meth:`~repro.workloads.spec.WorkloadSpec.unique_shape_layers` and
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
        shape_of = {layer.shape_key: shape for shape, layer
                    in enumerate(workload.unique_shape_layers())}
        slot_shapes = [shape_of[layer.shape_key] for layer in slot_layers]
        unmet0 = [len(per_instance[inst][2][position])
                  for inst, position in order]
        consumer_slots: List[List[int]] = [[] for _ in order]
        for slot, (inst, position) in enumerate(order):
            for producer in per_instance[inst][2][position]:
                consumer_slots[slot_of[(inst, producer)]].append(slot)

        payload = (slot_layers, instance_ids, layer_indices, slot_shapes,
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
        (slot_layers, instance_ids, layer_indices, slot_shapes, unmet0,
         consumer_slots, violations) = self._static_visit_order(workload)
        # Rank-major columns indexed by the slots' shape ids: the passes
        # below read dense sub-accelerator indices and never touch names.
        acc_ranks, cost_ranks, latency_ranks = self._shape_rankings(
            workload, sub_accelerators)
        n_accs = len(sub_accelerators)
        self.last_memory_violations = violations

        # --- Pass 1: per-slot sub-accelerator choice (Fig. 8) -------------
        # Load-balancing feedback: walk the sub-accelerators in preference
        # order and accept the first whose projected completion time (its
        # accumulated load plus this layer's latency there) stays within
        # ``load_balance_factor`` of the best achievable completion time.
        # When the preferred sub-accelerator is far ahead of the others this
        # redirects the layer to the next-preferred one — the paper's "try
        # the second, third, ... best-fit accelerator" step.  One loop
        # variant per design arity, selected once: the rank count equals the
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
            slot_acc[:] = map(acc_ranks[0].__getitem__, slot_shapes)
            slot_cost[:] = map(cost_ranks[0].__getitem__, slot_shapes)
            slot_latency[:] = map(latency_ranks[0].__getitem__, slot_shapes)
        elif n_accs == 2:
            accs0, accs1 = acc_ranks
            latencies0, latencies1 = latency_ranks
            costs0, costs1 = cost_ranks
            for slot, shape in enumerate(slot_shapes):
                aidx0, latency0 = accs0[shape], latencies0[shape]
                aidx1, latency1 = accs1[shape], latencies1[shape]
                finish0 = busy[aidx0] + latency0
                finish1 = busy[aidx1] + latency1
                bound = lb * (finish0 if finish0 < finish1 else finish1)
                if finish0 <= bound or finish1 > bound:
                    slot_acc[slot] = aidx0
                    slot_cost[slot] = costs0[shape]
                    slot_latency[slot] = latency0
                    busy[aidx0] = finish0
                else:
                    slot_acc[slot] = aidx1
                    slot_cost[slot] = costs1[shape]
                    slot_latency[slot] = latency1
                    busy[aidx1] = finish1
        elif n_accs == 3:
            accs0, accs1, accs2 = acc_ranks
            latencies0, latencies1, latencies2 = latency_ranks
            costs0, costs1, costs2 = cost_ranks
            for slot, shape in enumerate(slot_shapes):
                aidx0, latency0 = accs0[shape], latencies0[shape]
                aidx1, latency1 = accs1[shape], latencies1[shape]
                aidx2, latency2 = accs2[shape], latencies2[shape]
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
                    slot_cost[slot] = costs1[shape]
                    slot_latency[slot] = latency1
                    busy[aidx1] = finish1
                elif finish2 <= bound < finish0:
                    slot_acc[slot] = aidx2
                    slot_cost[slot] = costs2[shape]
                    slot_latency[slot] = latency2
                    busy[aidx2] = finish2
                else:
                    slot_acc[slot] = aidx0
                    slot_cost[slot] = costs0[shape]
                    slot_latency[slot] = latency0
                    busy[aidx0] = finish0
        else:
            ranks = list(zip(acc_ranks, cost_ranks, latency_ranks))
            for slot, shape in enumerate(slot_shapes):
                finishes = [busy[accs[shape]] + latencies[shape]
                            for accs, _, latencies in ranks]
                bound = lb * min(finishes)
                rank = 0
                for candidate, finish in enumerate(finishes):
                    if finish <= bound:
                        rank = candidate
                        break
                accs, costs, latencies = ranks[rank]
                aidx = accs[shape]
                slot_acc[slot] = aidx
                slot_cost[slot] = costs[shape]
                slot_latency[slot] = latencies[shape]
                busy[aidx] = finishes[rank]

        # --- Pass 2: the timeline ------------------------------------------
        # ``data_ready[slot]`` starts at the instance's release and is raised
        # by each producer's finish, so it ends as the later of the two.
        # Commits go straight into the schedule's columns: every row is valid
        # by construction (an in-range index, finish >= start).
        schedule = self._empty_schedule(sub_accelerators)
        starts: List[float] = []
        finishes: List[float] = []
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
                starts.append(start)
                finishes.append(finish)
                avail[aidx] = finish
                for consumer in consumer_slots[slot]:
                    if finish > data_ready[consumer]:
                        data_ready[consumer] = finish
            schedule._extend_rows(slot_layers, instance_ids, layer_indices,
                                  slot_acc, starts, finishes, slot_cost)
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
        order: List[int] = []
        commit = order.append
        start_at = starts.append
        finish_at = finishes.append

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
            commit(slot)
            start_at(start)
            finish_at(finish)
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
        schedule._extend_rows(
            map(slot_layers.__getitem__, order),
            map(instance_ids.__getitem__, order),
            map(layer_indices.__getitem__, order),
            map(slot_acc.__getitem__, order), starts, finishes,
            map(slot_cost.__getitem__, order))
        return schedule

    def _shape_rankings(self, workload: WorkloadSpec,
                        sub_accelerators: Sequence[SubAcceleratorConfig]
                        ) -> _RankColumns:
        """Per-design sub-accelerator preference rankings, as rank columns.

        The ranking depends only on the layer *shape* and the (fixed) design,
        so it is computed over the workload's deduped shape set — one batched
        cost query, and per shape one sort of the sub-accelerators by
        ``(metric value, name)``.  Metric values and latencies read the
        cost's cached scalars (filled from identical expressions in
        ``LayerCost.__post_init__``), so the ranking is bitwise equal to a
        per-call :func:`metric_value` extraction.

        The columns are memoised across :meth:`schedule` calls per design
        configuration, indexed by the scheduler's dense shape ids, so
        re-scheduling on a known design (partition refinement, serving many
        workloads on one design) skips the cost lookups.  The result is
        gathered into ``workload.unique_shape_layers()`` order, the order
        the slots' shape ids index (see :data:`_RankColumns`).
        """
        hardware_key = self.cost_model.hardware_key
        design_key = (self.metric,) + tuple((acc.name,) + hardware_key(acc)
                                            for acc in sub_accelerators)
        n_accs = len(sub_accelerators)
        columns = self._rankings_memo.get(design_key)
        if columns is None:
            columns = self._rankings_memo[design_key] = tuple(
                [[] for _ in range(n_accs)] for _ in range(3))
        shape_ids = self._shape_ids
        unique = workload.unique_shape_layers()
        ids = [shape_ids.setdefault(layer.shape_key, len(shape_ids))
               for layer in unique]
        filled = columns[1][0]  # rank-0 costs, None where not yet ranked
        missing = [(shape_id, layer) for shape_id, layer in zip(ids, unique)
                   if shape_id >= len(filled) or filled[shape_id] is None]
        if missing:
            table = self.cost_model.batch_layer_costs(
                [layer for _, layer in missing], sub_accelerators)
            names = [acc.name for acc in sub_accelerators]
            attr = _METRIC_CACHED_ATTR.get(self.metric)
            if attr is not None:
                metric_of = operator.attrgetter(attr)
            else:
                metric = self.metric
                metric_of = lambda cost: metric_value(cost, metric)  # noqa: E731
            for ranks in columns:
                for rank in ranks:
                    rank.extend([None] * (len(shape_ids) - len(rank)))
            for shape_id, layer in missing:
                shape = layer.shape_key
                ranked = []
                for idx, name in enumerate(names):
                    cost = table[(shape, name)]
                    # ``idx`` is unique, so the sort never compares costs.
                    ranked.append((metric_of(cost), name, idx, cost))
                ranked.sort()
                for accs, costs, latencies, (_, _, idx, cost) in zip(
                        *columns, ranked):
                    accs[shape_id] = idx
                    costs[shape_id] = cost
                    latencies[shape_id] = cost._latency_cycles
        return tuple([list(map(rank.__getitem__, ids)) for rank in ranks]
                     for ranks in columns)

    def _empty_schedule(self, sub_accelerators: Sequence[SubAcceleratorConfig]) -> Schedule:
        return Schedule(
            sub_accelerator_names=tuple(acc.name for acc in sub_accelerators),
            clock_hz=sub_accelerators[0].clock_hz,
            idle_energy_pj_per_cycle_per_pe=self.cost_model.energy_table.leakage_per_cycle_per_pe,
            pes_per_sub_accelerator={acc.name: acc.num_pes for acc in sub_accelerators},
        )
