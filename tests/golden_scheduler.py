"""Golden-baseline harness for scheduler / DSE bit-for-bit equivalence.

The hot-path overhaul (shape-keyed cost memoisation, heap-based list
scheduler, incremental partition search) must not change a single scheduling
decision or metric.  This module pins that contract: it defines a scenario
matrix spanning workload topology (chain, diamond, UNet skip connections, a
4-instance mixed AR/VR suite), every scheduler configuration axis (metric x
ordering x load-balance x memory-limit x post-processing), one full DSE
ranking run and a reduced Fig. 11 sweep over the paper's workloads and
accelerator classes, and serializes the resulting timelines deterministically.

Run as a script to (re)generate the golden files from the current code:

    PYTHONPATH=src python tests/golden_scheduler.py --write

``tests/test_hot_paths.py`` compares the current code against the checked-in
files, which were generated from the pre-overhaul seed implementation.  Float
values are serialized with ``repr`` (shortest round-trip form), so comparison
is exact, not approximate.  Large timelines are pinned by SHA-256 digest to
keep the golden files reviewable; small ones are stored inline so a mismatch
is debuggable.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.accel.classes import ACCELERATOR_CLASSES
from repro.accel.design import AcceleratorDesign, AcceleratorKind
from repro.core.dse import HeraldDSE
from repro.core.partitioner import PartitionSearch
from repro.core.scheduler import HeraldScheduler
from repro.dataflow.styles import NVDLA, SHIDIANNAO
from repro.maestro.cost import CostModel
from repro.maestro.hardware import ChipConfig, SubAcceleratorConfig
from repro.models.graph import ModelGraph
from repro.models.layer import conv2d, dwconv, fc, pwconv
from repro.serve.faults import ChipFailure, FaultSpec, SlowdownWindow
from repro.serve.fleet import Fleet, FleetSimulator
from repro.serve.online import AutoscalePolicy
from repro.serve.trace import StreamSpec
from repro.serve.traffic import TrafficSpec
from repro.serve.workload import StreamingWorkload
from repro.units import gbps, mib
from repro.workloads.spec import WorkloadSpec
from repro.workloads.suites import WORKLOAD_SUITES

GOLDEN_DIR = os.path.join(_HERE, "golden")
TIMELINES_FILE = os.path.join(GOLDEN_DIR, "scheduler_timelines.json")
DSE_FILE = os.path.join(GOLDEN_DIR, "dse_rankings.json")
EXPLORE_FILE = os.path.join(GOLDEN_DIR, "explore_rankings.json")
STREAMING_FILE = os.path.join(GOLDEN_DIR, "streaming_timelines.json")
FLEET_FILE = os.path.join(GOLDEN_DIR, "fleet_timelines.json")
ONLINE_FILE = os.path.join(GOLDEN_DIR, "online_timelines.json")
EXPERIMENTS_DIR = os.path.join(GOLDEN_DIR, "experiments")

#: Workloads whose full timelines are stored inline (the rest store a digest).
INLINE_WORKLOADS = ("chain", "diamond")

METRICS = ("edp", "latency", "energy")
ORDERINGS = ("breadth", "depth")
LOAD_BALANCE_FACTORS = (None, 1.25)
POST_PROCESSING = (True, False)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
def _chain_model() -> ModelGraph:
    layers = [
        conv2d("conv1", k=32, c=3, y=66, x=66, r=3, s=3, stride=2),
        dwconv("dw1", c=32, y=34, x=34, r=3, s=3),
        pwconv("pw1", k=64, c=32, y=32, x=32),
        conv2d("conv2", k=128, c=64, y=18, x=18, r=3, s=3, stride=2),
        pwconv("pw2", k=256, c=128, y=8, x=8),
        fc("fc", k=10, c=256 * 8 * 8),
    ]
    return ModelGraph.from_layers("chainnet", layers)


def _diamond_model() -> ModelGraph:
    graph = ModelGraph(name="diamond")
    graph.add_layer(conv2d("stem", k=3, c=3, y=130, x=130, r=3, s=3))
    graph.add_layer(pwconv("branch_channel", k=512, c=256, y=8, x=8))
    graph.add_layer(conv2d("branch_act", k=8, c=3, y=128, x=128, r=3, s=3))
    graph.add_layer(fc("merge", k=32, c=128))
    graph.add_edge("stem", "branch_channel")
    graph.add_edge("stem", "branch_act")
    graph.add_edge("branch_channel", "merge")
    graph.add_edge("branch_act", "merge")
    return graph


def build_workloads() -> Dict[str, WorkloadSpec]:
    """The four golden workload topologies, keyed by scenario name."""
    return {
        "chain": WorkloadSpec.from_models("chain-wl", [_chain_model()], 2),
        "diamond": WorkloadSpec.from_models("diamond-wl", [_diamond_model()], 1),
        "unet": WorkloadSpec(name="unet-wl", entries=[("unet", 1)]),
        "mixed4": WorkloadSpec(
            name="mixed4-wl",
            entries=[("resnet50", 1), ("unet", 1),
                     ("mobilenet_v2", 1), ("mobilenet_v1", 1)],
        ),
    }


#: Memory limits exercised per workload: None plus one binding-but-satisfiable
#: budget so the deferral / DRAM-spill path participates in the matrix.
MEMORY_LIMITS: Dict[str, Tuple[Optional[int], ...]] = {
    "chain": (None, mib(2)),
    "diamond": (None, mib(2)),
    "unet": (None, mib(8)),
    "mixed4": (None, mib(8)),
}


def build_sub_accelerators() -> Tuple[SubAcceleratorConfig, ...]:
    """A two-way NVDLA + Shi-diannao split of a small chip."""
    return (
        SubAcceleratorConfig(
            name="acc0-nvdla",
            dataflow=NVDLA,
            num_pes=128,
            bandwidth_bytes_per_s=gbps(4),
            buffer_bytes=mib(2),
        ),
        SubAcceleratorConfig(
            name="acc1-shidiannao",
            dataflow=SHIDIANNAO,
            num_pes=128,
            bandwidth_bytes_per_s=gbps(4),
            buffer_bytes=mib(2),
        ),
    )


# ---------------------------------------------------------------------------
# Scenario matrix
# ---------------------------------------------------------------------------
def scenario_keys(workload_name: str) -> List[str]:
    """All scenario keys of one workload, in deterministic order."""
    keys = []
    for metric in METRICS:
        for ordering in ORDERINGS:
            for lb in LOAD_BALANCE_FACTORS:
                for mem in MEMORY_LIMITS[workload_name]:
                    for post in POST_PROCESSING:
                        keys.append(_key(workload_name, metric, ordering, lb,
                                         mem, post))
    return keys


def _key(workload_name: str, metric: str, ordering: str, lb: Optional[float],
         mem: Optional[int], post: bool) -> str:
    return (f"{workload_name}|{metric}|{ordering}|lb={lb}|mem={mem}"
            f"|post={'on' if post else 'off'}")


def parse_key(key: str) -> Dict[str, object]:
    workload_name, metric, ordering, lb, mem, post = key.split("|")
    return {
        "workload": workload_name,
        "metric": metric,
        "ordering": ordering,
        "load_balance_factor": None if lb == "lb=None" else float(lb[3:]),
        "memory_limit_bytes": None if mem == "mem=None" else int(mem[4:]),
        "enable_post_processing": post == "post=on",
    }


def run_scenario(key: str, workloads: Dict[str, WorkloadSpec],
                 cost_model: CostModel,
                 zero_release: bool = False) -> Dict[str, object]:
    """Execute one scenario and return its serialized record.

    ``zero_release`` runs the scenario through the *online* scheduling path
    with an explicit all-zero release trace instead of the batch path; the
    contract pinned by the streaming test suite is that the resulting record
    is identical (an idle trace is bit-for-bit the batch schedule).
    """
    config = parse_key(key)
    scheduler = HeraldScheduler(
        cost_model,
        metric=config["metric"],
        ordering=config["ordering"],
        load_balance_factor=config["load_balance_factor"],
        memory_limit_bytes=config["memory_limit_bytes"],
        enable_post_processing=config["enable_post_processing"],
    )
    workload = workloads[config["workload"]]
    release_cycles = None
    if zero_release:
        release_cycles = {instance.instance_id: 0.0
                          for instance in workload.instances()}
    schedule = scheduler.schedule(workload, build_sub_accelerators(),
                                  release_cycles=release_cycles)
    # The release map participates in validation but must not leak into the
    # serialized record (the batch golden has no such attribute).
    schedule.instance_release_cycles = {}
    entries = [
        [entry.instance_id, entry.layer_index, entry.layer.name,
         entry.sub_accelerator, repr(entry.start_cycle), repr(entry.finish_cycle),
         repr(entry.cost.latency_cycles), repr(entry.cost.energy_pj)]
        for entry in schedule.entries
    ]
    record: Dict[str, object] = {
        "digest": timeline_digest(entries),
        "num_entries": len(entries),
        "makespan_cycles": repr(schedule.makespan_cycles),
        "total_energy_pj": repr(schedule.total_energy_pj),
        "edp_js": repr(schedule.edp),
        "memory_violations": scheduler.last_memory_violations,
    }
    if config["workload"] in INLINE_WORKLOADS:
        record["entries"] = entries
    return record


def timeline_digest(entries: List[List[object]]) -> str:
    """SHA-256 over the canonical JSON form of a serialized timeline."""
    payload = json.dumps(entries, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def generate_timelines(zero_release: bool = False) -> Dict[str, Dict[str, object]]:
    """Run every scenario with one shared cost model.

    With ``zero_release`` every scenario goes through the online scheduling
    path against an all-zero arrival trace; the output must equal the batch
    golden files exactly.
    """
    workloads = build_workloads()
    cost_model = CostModel()
    results: Dict[str, Dict[str, object]] = {}
    for workload_name in workloads:
        for key in scenario_keys(workload_name):
            results[key] = run_scenario(key, workloads, cost_model,
                                        zero_release=zero_release)
    return results


# ---------------------------------------------------------------------------
# Streaming (online serving) golden scenarios
# ---------------------------------------------------------------------------
#: Workload topologies exercised by the streaming matrix; full timelines are
#: stored inline for the small ones (see INLINE_WORKLOADS).
STREAMING_WORKLOADS = ("chain", "diamond", "unet")

#: Arrival traces per workload.  Frame rates are sized to the measured
#: per-frame latency of each topology on the golden sub-accelerators (chain
#: ~0.20 ms, diamond ~0.14 ms, unet ~2.5 s per frame) so releases genuinely
#: interleave with execution: "uniform" is strictly periodic from t=0,
#: "jittered" staggers the phase by ~30% of the period and perturbs each
#: arrival by up to 20% of the period (seeded, deterministic).
STREAMING_TRACES = ("uniform", "jittered")

_STREAM_RATES: Dict[str, Tuple[str, float, int]] = {
    # workload -> (model name in the graph, fps, frames)
    "chain": ("chainnet", 4000.0, 4),
    "diamond": ("diamond", 6000.0, 3),
    "unet": ("unet", 0.4, 2),
}


def build_streaming_workload(workload_name: str, trace_name: str
                             ) -> StreamingWorkload:
    """The streaming variant of one golden topology under one arrival trace."""
    model_name, fps, frames = _STREAM_RATES[workload_name]
    period = 1.0 / fps
    if trace_name == "uniform":
        stream = StreamSpec(model_name=model_name, fps=fps, frames=frames)
    elif trace_name == "jittered":
        stream = StreamSpec(model_name=model_name, fps=fps, frames=frames,
                            phase_s=0.3 * period, jitter_s=0.2 * period,
                            seed=3)
    else:
        raise ValueError(f"unknown trace {trace_name!r}")
    batch = build_workloads()[workload_name]
    models = {name: batch.model_graph(name) for name, _ in batch.entries}
    return StreamingWorkload(name=f"{workload_name}-{trace_name}",
                             streams=[stream], models=models)


def streaming_scenario_keys() -> List[str]:
    """All streaming scenario keys, in deterministic order."""
    keys = []
    for workload_name in STREAMING_WORKLOADS:
        for trace_name in STREAMING_TRACES:
            for metric in METRICS:
                for lb in LOAD_BALANCE_FACTORS:
                    keys.append(f"stream|{workload_name}|{trace_name}|{metric}"
                                f"|lb={lb}")
    return keys


def parse_streaming_key(key: str) -> Dict[str, object]:
    prefix, workload_name, trace_name, metric, lb = key.split("|")
    assert prefix == "stream"
    return {
        "workload": workload_name,
        "trace": trace_name,
        "metric": metric,
        "load_balance_factor": None if lb == "lb=None" else float(lb[3:]),
    }


def run_streaming_scenario(key: str, cost_model: CostModel) -> Dict[str, object]:
    """Execute one streaming scenario and return its serialized record."""
    config = parse_streaming_key(key)
    streaming = build_streaming_workload(config["workload"], config["trace"])
    scheduler = HeraldScheduler(
        cost_model,
        metric=config["metric"],
        load_balance_factor=config["load_balance_factor"],
    )
    accs = build_sub_accelerators()
    clock = accs[0].clock_hz
    release_cycles = streaming.release_cycles(clock)
    schedule = scheduler.schedule(streaming.to_workload_spec(), accs,
                                  release_cycles=release_cycles)
    schedule.instance_deadline_cycles = streaming.deadline_cycles(clock)
    entries = [
        [entry.instance_id, entry.layer_index, entry.layer.name,
         entry.sub_accelerator, repr(entry.start_cycle), repr(entry.finish_cycle),
         repr(entry.cost.latency_cycles), repr(entry.cost.energy_pj)]
        for entry in schedule.entries
    ]
    record: Dict[str, object] = {
        "digest": timeline_digest(entries),
        "num_entries": len(entries),
        "makespan_cycles": repr(schedule.makespan_cycles),
        "releases": {instance_id: repr(release)
                     for instance_id, release in sorted(release_cycles.items())},
        "frame_summary": {name: repr(value) for name, value
                          in sorted(schedule.frame_summary().items())},
    }
    if config["workload"] in INLINE_WORKLOADS:
        record["entries"] = entries
    return record


def generate_streaming_timelines() -> Dict[str, Dict[str, object]]:
    """Run every streaming scenario with one shared cost model."""
    cost_model = CostModel()
    return {key: run_streaming_scenario(key, cost_model)
            for key in streaming_scenario_keys()}


# ---------------------------------------------------------------------------
# Fleet (multi-chip routing) golden scenarios
# ---------------------------------------------------------------------------
#: Arrival traces per fleet workload: rates are ~2x what a single golden chip
#: sustains (chain ~0.20 ms/frame, diamond ~0.14 ms, unet ~2.5 s), so a
#: one-chip fleet backlogs and the load-aware policies genuinely spread —
#: while the explicit deadline (the single-rate period) stays meetable once
#: enough chips share the load.  All fleet traces are jittered (phase 30% of
#: the period, jitter 20%, seeded) so dispatch under arrival reordering is
#: part of the pinned behaviour.
_FLEET_RATES: Dict[str, Tuple[Tuple[str, float, int, float], ...]] = {
    # workload -> streams of (model name in the graph, fps, frames, deadline_s)
    "chain": (("chainnet", 8000.0, 12, 1.0 / 4000.0),),
    "diamond": (("diamond", 12000.0, 12, 1.0 / 6000.0),),
    "unet": (("unet", 0.8, 4, 1.0 / 0.4),),
    # Two concurrent streams of different models: the scenario where sticky
    # per-stream affinity is non-degenerate (streams land on distinct chips).
    "duo": (("chainnet", 5000.0, 8, 1.0 / 2500.0),
            ("diamond", 8000.0, 8, 1.0 / 4000.0)),
}

#: Golden workloads whose graphs each fleet workload draws on.
_FLEET_GRAPH_SOURCES: Dict[str, Tuple[str, ...]] = {
    "chain": ("chain",),
    "diamond": ("diamond",),
    "unet": ("unet",),
    "duo": ("chain", "diamond"),
}

#: Workload topologies of the fleet matrix (the streaming trio plus the
#: two-stream mix).
FLEET_WORKLOADS = ("chain", "diamond", "unet", "duo")

#: Fleet compositions exercised per workload.  ``1homo`` is the single-chip
#: identity (passthrough only); ``2hetero`` pairs the full golden chip with a
#: quarter-resource sibling so completion-time-aware routing differs from
#: outstanding-work routing.
FLEET_TAGS = ("1homo", "2homo", "4homo", "2hetero")

#: (fleet tag, policy) pairs of the golden matrix, per workload.
FLEET_MATRIX: Tuple[Tuple[str, str], ...] = (
    ("1homo", "passthrough"),
    ("2homo", "round-robin"),
    ("2homo", "least-outstanding"),
    ("2homo", "earliest-completion"),
    ("2homo", "sticky"),
    ("4homo", "round-robin"),
    ("4homo", "earliest-completion"),
    ("2hetero", "least-outstanding"),
    ("2hetero", "earliest-completion"),
    ("2hetero", "sticky"),
)


def build_fleet_chip(scale: int = 1, label: str = "golden-duo"
                     ) -> AcceleratorDesign:
    """The golden two-way NVDLA + Shi-diannao split as a chip design.

    ``scale`` divides every resource (PEs, NoC bandwidth) so heterogeneous
    fleets can pair the full chip with a slower sibling.
    """
    subs = tuple(
        SubAcceleratorConfig(
            name=sub.name,
            dataflow=sub.dataflow,
            num_pes=sub.num_pes // scale,
            bandwidth_bytes_per_s=sub.bandwidth_bytes_per_s / scale,
            buffer_bytes=sub.buffer_bytes,
        )
        for sub in build_sub_accelerators())
    chip = ChipConfig(
        name=f"{label}-chip",
        num_pes=sum(sub.num_pes for sub in subs),
        noc_bandwidth_bytes_per_s=sum(sub.bandwidth_bytes_per_s
                                      for sub in subs),
        global_buffer_bytes=mib(2),
    )
    return AcceleratorDesign(name=label, kind=AcceleratorKind.HDA, chip=chip,
                             sub_accelerators=subs)


def build_fleet(tag: str) -> Fleet:
    """The fleet composition named by one matrix tag."""
    if tag == "1homo":
        return Fleet.homogeneous(build_fleet_chip(), 1)
    if tag == "2homo":
        return Fleet.homogeneous(build_fleet_chip(), 2)
    if tag == "4homo":
        return Fleet.homogeneous(build_fleet_chip(), 4)
    if tag == "2hetero":
        return Fleet(name="golden-hetero", chips=(
            build_fleet_chip(scale=1, label="golden-duo"),
            build_fleet_chip(scale=4, label="golden-quarter"),
        ))
    raise ValueError(f"unknown fleet tag {tag!r}")


def build_fleet_streaming_workload(workload_name: str) -> StreamingWorkload:
    """The fleet-rate streaming variant of one golden topology (jittered)."""
    streams = []
    for model_name, fps, frames, deadline_s in _FLEET_RATES[workload_name]:
        period = 1.0 / fps
        streams.append(StreamSpec(model_name=model_name, fps=fps,
                                  frames=frames, phase_s=0.3 * period,
                                  jitter_s=0.2 * period, seed=3,
                                  deadline_s=deadline_s))
    batches = build_workloads()
    models: Dict[str, ModelGraph] = {}
    for source in _FLEET_GRAPH_SOURCES[workload_name]:
        batch = batches[source]
        models.update({name: batch.model_graph(name)
                       for name, _ in batch.entries})
    return StreamingWorkload(name=f"{workload_name}-fleet",
                             streams=streams, models=models)


def fleet_scenario_keys() -> List[str]:
    """All fleet scenario keys, in deterministic order."""
    return [f"fleet|{workload_name}|{tag}|{policy}"
            for workload_name in FLEET_WORKLOADS
            for tag, policy in FLEET_MATRIX]


def parse_fleet_key(key: str) -> Dict[str, object]:
    prefix, workload_name, tag, policy = key.split("|")
    assert prefix == "fleet"
    return {"workload": workload_name, "fleet": tag, "policy": policy}


def _repr_tree(value: object) -> object:
    """Floats to exact ``repr`` strings, recursively (dict/list preserved)."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {key: _repr_tree(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_repr_tree(item) for item in value]
    return value


def run_fleet_scenario(key: str, cost_model: CostModel) -> Dict[str, object]:
    """Execute one fleet scenario and return its serialized record."""
    config = parse_fleet_key(key)
    streaming = build_fleet_streaming_workload(config["workload"])
    fleet = build_fleet(config["fleet"])
    simulator = FleetSimulator(cost_model=cost_model,
                               scheduler=HeraldScheduler(cost_model))
    result = simulator.simulate(streaming, fleet, policy=config["policy"])
    return serialize_fleet_result(config["workload"], result)


def serialize_fleet_result(workload_name: str, result) -> Dict[str, object]:
    """Serialize a :class:`FleetResult` into the golden record shape.

    Used by the a-priori scenario runner that generates and checks the fleet
    corpus; the record includes ``report.summary()``, which carries no
    ``online`` section for a-priori results.
    """
    chips: List[Dict[str, object]] = []
    for chip_result in result.chip_results:
        entries = [] if chip_result.schedule is None else [
            [entry.instance_id, entry.layer_index, entry.layer.name,
             entry.sub_accelerator, repr(entry.start_cycle),
             repr(entry.finish_cycle), repr(entry.cost.latency_cycles),
             repr(entry.cost.energy_pj)]
            for entry in chip_result.schedule.entries
        ]
        chip_record: Dict[str, object] = {
            "chip": chip_result.chip.name,
            "digest": timeline_digest(entries),
            "num_entries": len(entries),
        }
        if workload_name in INLINE_WORKLOADS:
            chip_record["entries"] = entries
        chips.append(chip_record)

    return {
        "assignments": {f"{model}#{index}": chip
                        for (model, index), chip
                        in sorted(result.plan.assignments.items())},
        "frames_per_chip": result.plan.frames_per_chip,
        "chips": chips,
        "report": _repr_tree(result.report.summary()),
    }


def generate_fleet_timelines() -> Dict[str, Dict[str, object]]:
    """Run every fleet scenario with one shared cost model."""
    cost_model = CostModel()
    return {key: run_fleet_scenario(key, cost_model)
            for key in fleet_scenario_keys()}


# ---------------------------------------------------------------------------
# Online (closed-loop) golden scenarios
# ---------------------------------------------------------------------------
#: Closed-loop variants: what each scenario injects beyond plain feedback
#: dispatch.  Fault times sit mid-trace (duo arrivals span ~0.3-1.9 ms), so
#: death orphans queued frames and the slowdown window covers real service.
_ONLINE_FAULTS: Dict[str, FaultSpec] = {
    "death": FaultSpec(failures=(ChipFailure(0, 0.0008),)),
    "slowdown": FaultSpec(slowdowns=(SlowdownWindow(0, 0.0002, 0.0012, 2.5),)),
}

_ONLINE_AUTOSCALE = AutoscalePolicy(interval_s=0.0004, min_chips=1,
                                    max_chips=4, target_queue_per_chip=2.0)

#: (workload, fleet tag, policy, variant) rows of the online golden matrix:
#: plain feedback (homogeneous and heterogeneous), chip death, a straggler
#: window, work stealing under sticky affinity, the autoscaling controller,
#: and every traffic kind.
ONLINE_MATRIX: Tuple[Tuple[str, str, str, str], ...] = (
    ("duo", "2homo", "least-outstanding", "feedback"),
    ("duo", "2hetero", "earliest-completion", "feedback"),
    ("duo", "2homo", "round-robin", "death"),
    ("duo", "2homo", "earliest-completion", "slowdown"),
    ("duo", "2homo", "sticky", "steal"),
    ("chain", "4homo", "least-outstanding", "autoscale"),
    ("duo", "2homo", "least-outstanding", "poisson"),
    ("duo", "2homo", "least-outstanding", "bursty"),
    ("duo", "2homo", "earliest-completion", "churn"),
    ("chain", "2homo", "round-robin", "diurnal"),
)


def build_fleet_traffic_workload(workload_name: str,
                                 kind: str) -> StreamingWorkload:
    """The fleet-rate workload under a seeded stochastic arrival process."""
    streams = []
    for model_name, fps, frames, deadline_s in _FLEET_RATES[workload_name]:
        streams.append(TrafficSpec(kind=kind, model_name=model_name,
                                   rate_fps=fps, frames=frames,
                                   deadline_s=deadline_s, seed=3).to_trace())
    batches = build_workloads()
    models: Dict[str, ModelGraph] = {}
    for source in _FLEET_GRAPH_SOURCES[workload_name]:
        batch = batches[source]
        models.update({name: batch.model_graph(name)
                       for name, _ in batch.entries})
    return StreamingWorkload(name=f"{workload_name}-fleet-{kind}",
                             streams=streams, models=models)


def online_scenario_keys() -> List[str]:
    """All online scenario keys, in deterministic order."""
    return [f"online|{workload_name}|{tag}|{policy}|{variant}"
            for workload_name, tag, policy, variant in ONLINE_MATRIX]


def parse_online_key(key: str) -> Dict[str, object]:
    prefix, workload_name, tag, policy, variant = key.split("|")
    assert prefix == "online"
    return {"workload": workload_name, "fleet": tag, "policy": policy,
            "variant": variant}


def run_online_scenario(key: str, cost_model: CostModel) -> Dict[str, object]:
    """Execute one closed-loop scenario and return its serialized record."""
    from repro.serve.traffic import TRAFFIC_KINDS

    config = parse_online_key(key)
    variant = config["variant"]
    if variant in TRAFFIC_KINDS:
        streaming = build_fleet_traffic_workload(config["workload"], variant)
    else:
        streaming = build_fleet_streaming_workload(config["workload"])
    fleet = build_fleet(config["fleet"])
    simulator = FleetSimulator(cost_model=cost_model,
                               scheduler=HeraldScheduler(cost_model))
    result = simulator.simulate_online(
        streaming, fleet, policy=config["policy"],
        faults=_ONLINE_FAULTS.get(variant),
        autoscale=_ONLINE_AUTOSCALE if variant == "autoscale" else None)

    frame_rows = [
        [record.frame_id, repr(record.release_s), list(record.chip_history),
         None if record.start_s is None else repr(record.start_s),
         None if record.finish_s is None else repr(record.finish_s)]
        for record in result.frames
    ]
    return {
        "assignments": {f"{model}#{index}": chip
                        for (model, index), chip
                        in sorted(result.assignments.items())},
        "frames_digest": timeline_digest(frame_rows),
        "frames": frame_rows,
        "lost": sorted(result.stats.lost_frame_ids),
        "redispatched": result.stats.redispatched_frames,
        "stolen": result.stats.stolen_frames,
        "report": _repr_tree(result.report.summary()),
    }


def generate_online_timelines() -> Dict[str, Dict[str, object]]:
    """Run every online scenario with one shared cost model."""
    cost_model = CostModel()
    return {key: run_online_scenario(key, cost_model)
            for key in online_scenario_keys()}


# ---------------------------------------------------------------------------
# Experiment corpus golden (declarative spec files -> frozen reports)
# ---------------------------------------------------------------------------
def experiment_spec_files() -> List[str]:
    """The checked-in experiment spec files, in deterministic order."""
    names = [name for name in sorted(os.listdir(EXPERIMENTS_DIR))
             if name.endswith((".json", ".yaml", ".yml"))
             and not name.endswith(".report.json")]
    return [os.path.join(EXPERIMENTS_DIR, name) for name in names]


def experiment_report_file(spec_path: str) -> str:
    """The frozen-report path of one experiment spec file."""
    stem = os.path.splitext(spec_path)[0]
    return f"{stem}.report.json"


def run_experiment_report(spec_path: str) -> Dict[str, object]:
    """Execute one golden experiment and return its canonical report.

    The runner's human-readable output is swallowed (golden generation is
    about the report document); ``canonical_report`` strips the run-varying
    ``timing`` / ``environment`` sections so the record is reproducible.
    """
    import contextlib
    import io

    from repro.experiment import canonical_report, load_experiment, run_experiment

    spec = load_experiment(spec_path)
    with contextlib.redirect_stdout(io.StringIO()):
        outcome = run_experiment(spec)
    if outcome.exit_code != 0 or outcome.report is None:
        raise RuntimeError(f"golden experiment {spec_path!r} failed with "
                           f"exit code {outcome.exit_code}")
    return canonical_report(outcome.report)


def write_experiments_golden() -> None:
    """(Re)generate the frozen reports of the experiment corpus only."""
    for spec_path in experiment_spec_files():
        report = run_experiment_report(spec_path)
        with open(experiment_report_file(spec_path), "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")


# ---------------------------------------------------------------------------
# DSE ranking golden
# ---------------------------------------------------------------------------
def _dse_workload() -> WorkloadSpec:
    channel_heavy = ModelGraph.from_layers("channelnet", [
        pwconv("pw1", k=512, c=256, y=14, x=14),
        pwconv("pw2", k=1024, c=512, y=7, x=7),
        fc("fc1", k=2048, c=1024),
        fc("fc2", k=1000, c=2048),
    ])
    activation_heavy = ModelGraph.from_layers("actnet", [
        conv2d("conv1", k=16, c=3, y=130, x=130, r=3, s=3),
        conv2d("conv2", k=16, c=16, y=128, x=128, r=3, s=3),
        conv2d("conv3", k=32, c=16, y=126, x=126, r=3, s=3),
    ])
    return WorkloadSpec.from_models(
        "dse-mix", [_chain_model(), channel_heavy, activation_heavy],
        batches=[2, 1, 1])


def run_dse(backend=None) -> List[List[str]]:
    """One binary-strategy DSE on a small chip; returns ordered point rows."""
    from repro.maestro.hardware import ChipConfig

    chip = ChipConfig(name="tiny", num_pes=256,
                      noc_bandwidth_bytes_per_s=gbps(8),
                      global_buffer_bytes=mib(2))
    cost_model = CostModel()
    scheduler = HeraldScheduler(cost_model)
    search = PartitionSearch(cost_model=cost_model, scheduler=scheduler,
                             strategy="binary", pe_steps=4, bw_steps=2)
    dse = HeraldDSE(cost_model=cost_model, scheduler=scheduler,
                    partition_search=search, backend=backend)
    space = dse.explore(_dse_workload(), chip, include_three_way=False)
    return _point_rows(space)


def _point_rows(space) -> List[List[str]]:
    return [
        [point.category, point.design.name, repr(point.latency_s),
         repr(point.energy_mj), repr(point.edp)]
        for point in space.points
    ]


#: The reduced Fig. 11 sweep pinned by :data:`EXPLORE_FILE`: every paper
#: workload on every accelerator class, two-way HDAs on a coarse grid.
EXPLORE_WORKLOADS = ("arvr-a", "arvr-b", "mlperf")
EXPLORE_CLASSES = ("edge", "mobile", "cloud")


def run_explore_rankings() -> Dict[str, Dict[str, object]]:
    """The reduced Fig. 11 sweep through one shared engine.

    One cost model, scheduler and partition search serve all nine
    ``explore`` calls (memos carry across sub-plots, as in the full
    sweep).  Each ``"<workload>/<class>"`` entry holds every point as a
    :func:`run_dse`-style row plus the best design per category.
    """
    cost_model = CostModel()
    scheduler = HeraldScheduler(cost_model)
    search = PartitionSearch(cost_model=cost_model, scheduler=scheduler,
                             pe_steps=4, bw_steps=2)
    dse = HeraldDSE(cost_model=cost_model, scheduler=scheduler,
                    partition_search=search)
    rankings: Dict[str, Dict[str, object]] = {}
    for workload_name in EXPLORE_WORKLOADS:
        workload = WORKLOAD_SUITES[workload_name]()
        for class_name in EXPLORE_CLASSES:
            space = dse.explore(workload, ACCELERATOR_CLASSES[class_name],
                                include_three_way=False)
            rankings[f"{workload_name}/{class_name}"] = {
                "best": {category: [space.best(category).design.name,
                                    repr(space.best(category).edp)]
                         for category in space.categories()},
                "points": _point_rows(space),
            }
    return rankings


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------
def load_golden(path: str) -> object:
    with open(path, "r") as handle:
        return json.load(handle)


def write_golden() -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with open(TIMELINES_FILE, "w") as handle:
        json.dump(generate_timelines(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    with open(DSE_FILE, "w") as handle:
        json.dump(run_dse(), handle, indent=1)
        handle.write("\n")
    with open(STREAMING_FILE, "w") as handle:
        json.dump(generate_streaming_timelines(), handle, indent=1,
                  sort_keys=True)
        handle.write("\n")
    write_fleet_golden()


def write_streaming_golden() -> None:
    """(Re)generate only the streaming file — the batch files pin the seed
    implementation and must never be regenerated from post-overhaul code."""
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with open(STREAMING_FILE, "w") as handle:
        json.dump(generate_streaming_timelines(), handle, indent=1,
                  sort_keys=True)
        handle.write("\n")


def write_fleet_golden() -> None:
    """(Re)generate only the fleet routing matrix."""
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with open(FLEET_FILE, "w") as handle:
        json.dump(generate_fleet_timelines(), handle, indent=1,
                  sort_keys=True)
        handle.write("\n")


def write_explore_golden() -> None:
    """(Re)generate only the reduced Fig. 11 sweep rankings."""
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with open(EXPLORE_FILE, "w") as handle:
        json.dump(run_explore_rankings(), handle, indent=1, sort_keys=True)
        handle.write("\n")


def write_online_golden() -> None:
    """(Re)generate only the closed-loop matrix (never the a-priori files)."""
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with open(ONLINE_FILE, "w") as handle:
        json.dump(generate_online_timelines(), handle, indent=1,
                  sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    if "--write-streaming" in sys.argv:
        write_streaming_golden()
        print(f"wrote {STREAMING_FILE}")
    elif "--write-fleet" in sys.argv:
        write_fleet_golden()
        print(f"wrote {FLEET_FILE}")
    elif "--write-online" in sys.argv:
        write_online_golden()
        print(f"wrote {ONLINE_FILE}")
    elif "--write-explore" in sys.argv:
        write_explore_golden()
        print(f"wrote {EXPLORE_FILE}")
    elif "--write-experiments" in sys.argv:
        write_experiments_golden()
        print(f"wrote {len(experiment_spec_files())} report(s) under "
              f"{EXPERIMENTS_DIR}")
    elif "--write" in sys.argv:
        # The batch files pin the *seed* implementation: regenerating them
        # from current code would make the 192-scenario equivalence gate pass
        # trivially.  Refuse unless they are absent (fresh bootstrap) or the
        # caller explicitly forces it.
        existing = [path for path in (TIMELINES_FILE, DSE_FILE)
                    if os.path.exists(path)]
        if existing and "--force" not in sys.argv:
            print("refusing to overwrite the seed-pinned batch golden files "
                  f"({', '.join(os.path.basename(p) for p in existing)}); "
                  "use --write-streaming / --write-fleet for the serving "
                  "matrices, or --write --force if you really mean to re-pin "
                  "the batch corpus to current behaviour", file=sys.stderr)
            raise SystemExit(2)
        write_golden()
        print(f"wrote {TIMELINES_FILE}, {DSE_FILE}, {STREAMING_FILE} "
              f"and {FLEET_FILE}")
    else:
        print("usage: python tests/golden_scheduler.py "
              "--write [--force] | --write-streaming | --write-fleet | "
              "--write-online | --write-explore | --write-experiments",
              file=sys.stderr)
        raise SystemExit(2)
