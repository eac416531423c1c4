"""One benchmark process: set up a workload, run its ops, check and measure them.

``run.py`` starts this script in fresh interpreters (with ``src`` on
``PYTHONPATH``) and combines what they print; run it directly only to record
the reference outputs::

    PYTHONPATH=src python3 perfbench/harness.py --record

Every timing here is host wall-clock time of the simulator, never simulated
time.  Simulated outputs (latency, energy, EDP, frame statistics, dispatch
assignments) are deterministic and are compared for exact equality with
``reference.json``; a mismatch or an exception is a failed op.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
TRACE_DIR = os.path.join(HERE, "out")

SUITES = ("arvr-a", "arvr-b", "mlperf")
CLASSES = ("edge", "mobile", "cloud")
#: Fig. 11: every suite on every chip class, three-way HDAs included.
FIG11_SUBPLOTS = tuple((suite, chip) for suite in SUITES for chip in CLASSES)
#: One sub-plot per suite and per class, through the process pool.
POOL_SUBPLOTS = (("mlperf", "cloud"), ("arvr-a", "edge"), ("arvr-b", "mobile"))
PE_STEPS = 8
BW_STEPS = 4
POOL_JOBS = 2

FLEET_SUITE = "arvr-a"
FLEET_CLASS = "mobile"
FLEET_FRAMES = 16
#: Mobile-class fleets of 2-4 chips miss 0-90% of deadlines at this load.
FLEET_FPS_SCALE = 0.25
FLEET_DESIGNS = ("rda", "maelstrom")
FLEET_SIZES = (2, 3, 4)
FLEET_CONFIGS = tuple((design, chips) for design in FLEET_DESIGNS
                      for chips in FLEET_SIZES)
FLEET_POLICY = "earliest-completion"
#: Poisson traffic seeds with recorded reference outputs; the workload seed
#: chooses the order in which each fleet configuration meets them.
TRAFFIC_SEEDS = tuple(range(8))
WARMUP_TRAFFIC_SEED = 100
#: Chip 1 dies mid-run (the traffic spans about 4.8 simulated seconds).
CHIP_DEATH = "die:1@2.0"

WORKLOADS = ("fig11-sweep", "dse-pool", "fleet-serve")

#: The controls: two fixed pure-Python computations that share no code with
#: the library, one arithmetic and one allocating (dict build and sort).
#: Their times track how fast the shared host runs this process right now.
CONTROL_ITERATIONS = 25_000
CONTROL_ENTRIES = 4_000
#: Geometric mean of the two controls' times on the reference machine.
CONTROL_NOMINAL_S = 0.0035
#: A fresh control sample is taken before an op once this much time passed.
CONTROL_EVERY_S = 0.25


class Op:
    """One timed call into the library plus what is needed to check it."""

    __slots__ = ("key", "kind", "call", "extract", "work", "model",
                 "backend", "jobs")

    def __init__(self, key, kind, call, extract, work, model, backend, jobs):
        self.key = key          # reference entry the output must equal
        self.kind = kind        # root span name of the op
        self.call = call        # () -> raw result
        self.extract = extract  # raw result -> JSON-comparable output
        self.work = work        # raw result -> design points or frames
        self.model = model      # cost model whose counters the op moves
        self.backend = backend  # execution backend the op runs on
        self.jobs = jobs


def _json_roundtrip(value):
    return json.loads(json.dumps(value))


def dse_output(space):
    """Point count and the best design per category with its metrics."""
    best = {row["category"]: [row["design"], row["latency_s"],
                              row["energy_mj"], row["edp_js"]]
            for row in space.summary_rows()}
    return _json_roundtrip({"points": len(space.points), "best": best,
                            "failures": len(space.failures)})


def assignments_digest(assignments):
    """SHA-256 of the frame -> chip map in canonical order."""
    rows = sorted([model, index, chip]
                  for (model, index), chip in assignments.items())
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def fleet_output(report, assignments):
    return _json_roundtrip({"summary": report.summary(),
                            "assignments": assignments_digest(assignments)})


def fresh_engine():
    """A new cost model, scheduler and Fig. 11 partition search."""
    from repro.maestro.cost import CostModel
    from repro.core.partitioner import PartitionSearch
    from repro.core.scheduler import HeraldScheduler

    cost_model = CostModel()
    scheduler = HeraldScheduler(cost_model)
    search = PartitionSearch(cost_model=cost_model, scheduler=scheduler,
                             pe_steps=PE_STEPS, bw_steps=BW_STEPS)
    return cost_model, scheduler, search


class DSEWorkload:
    """Full design-space explorations, each from a cold start.

    Before every ``explore`` the process-wide memos are cleared and a fresh
    cost model, scheduler and workload object are built, as every
    ``herald dse`` process explores one sub-plot from a cold start.  A unit
    is one pass over the sub-plots; the seed orders them within the pass.
    """

    def __init__(self, subplots, jobs, seed):
        self.subplots = subplots
        self.jobs = jobs
        self.rng = random.Random(f"order:{seed}")

    def setup(self):
        from repro.accel.classes import accelerator_class
        from repro.maestro.batch import numpy_available
        from repro.workloads.suites import workload_by_name

        self.chips = {name: accelerator_class(name) for name in CLASSES}
        for suite in SUITES:
            workload_by_name(suite)
        numpy_available()

    def warm_up(self):
        """Nothing: every explore starts cold on purpose."""

    def unit(self, smoke):
        order = list(self.subplots)
        self.rng.shuffle(order)
        if smoke:
            order = order[:1]
        for suite, chip in order:
            yield self.cold_op(suite, chip)

    def cold_op(self, suite, chip_name):
        from repro.core.dse import HeraldDSE
        from repro.exec.backends import ProcessPoolBackend, SerialBackend
        from repro.maestro.cost import clear_all_memos
        from repro.workloads.suites import workload_by_name

        clear_all_memos()
        cost_model, scheduler, search = fresh_engine()
        if self.jobs == 1:
            backend = SerialBackend(cost_model=cost_model, scheduler=scheduler)
        else:
            backend = ProcessPoolBackend(jobs=self.jobs, cost_model=cost_model,
                                         scheduler=scheduler)
        dse = HeraldDSE(cost_model=cost_model, scheduler=scheduler,
                        partition_search=search, backend=backend)
        workload = workload_by_name(suite)
        chip = self.chips[chip_name]
        return Op(key=f"dse/{suite}/{chip_name}", kind="op.explore",
                  call=lambda: dse.explore(workload, chip),
                  extract=dse_output, work=lambda space: len(space.points),
                  model=cost_model, backend=backend, jobs=self.jobs)

    def all_ops(self):
        """Every sub-plot once, for recording the reference."""
        return [self.cold_op(suite, chip) for suite, chip in self.subplots]


class FleetWorkload:
    """Seeded Poisson AR/VR-A traffic on mobile-class fleets, warm memos.

    A unit is one cycle over the six fleet configurations in a seeded order;
    each configuration meets its next traffic seed in a seeded permutation
    and runs three ops on it: the a-priori ``simulate``, the closed-loop
    ``simulate_online`` and a closed-loop run in which chip 1 dies.
    """

    def __init__(self, seed):
        rng = random.Random(f"traffic:{seed}")
        self.traffic_order = {config: rng.sample(TRAFFIC_SEEDS, len(TRAFFIC_SEEDS))
                              for config in FLEET_CONFIGS}
        self.rng = random.Random(f"order:{seed}")
        self.cycle = 0

    def setup(self):
        from repro.accel.builders import make_rda
        from repro.accel.classes import accelerator_class
        from repro.core.dse import HeraldDSE
        from repro.serve.faults import parse_fault_clause
        from repro.serve.fleet import Fleet, FleetSimulator
        from repro.serve.traffic import traffic_suite
        from repro.workloads.suites import workload_by_name

        chip = accelerator_class(FLEET_CLASS)
        cost_model, scheduler, search = fresh_engine()
        dse = HeraldDSE(cost_model=cost_model, scheduler=scheduler,
                        partition_search=search)
        designs = {
            "rda": make_rda(chip),
            "maelstrom": dse.maelstrom_design(workload_by_name(FLEET_SUITE), chip),
        }
        self.fleets = {(design, chips): Fleet.homogeneous(designs[design], chips)
                       for design, chips in FLEET_CONFIGS}
        self.traffic = {seed: traffic_suite(FLEET_SUITE, "poisson",
                                            frames=FLEET_FRAMES,
                                            fps_scale=FLEET_FPS_SCALE, seed=seed)
                        for seed in TRAFFIC_SEEDS + (WARMUP_TRAFFIC_SEED,)}
        self.death = parse_fault_clause(CHIP_DEATH)
        self.simulator = FleetSimulator(cost_model=cost_model, scheduler=scheduler)

    def warm_up(self):
        """Fill the cost, mapper and ranking memos of both chip designs."""
        for design in FLEET_DESIGNS:
            for op in self.ops_for((design, FLEET_SIZES[0]), WARMUP_TRAFFIC_SEED):
                op.call()

    def unit(self, smoke):
        order = list(FLEET_CONFIGS)
        self.rng.shuffle(order)
        if smoke:
            order = order[:1]
        ops = []
        for config in order:
            seed = self.traffic_order[config][self.cycle % len(TRAFFIC_SEEDS)]
            ops.extend(self.ops_for(config, seed))
        self.cycle += 1
        return ops

    def ops_for(self, config, seed):
        design, chips = config
        fleet = self.fleets[config]
        streaming = self.traffic[seed]
        simulator = self.simulator
        frames = streaming.total_frames
        prefix = f"fleet/{design}-x{chips}/t{seed}"

        def a_priori():
            return simulator.simulate(streaming, fleet, policy=FLEET_POLICY)

        def online():
            return simulator.simulate_online(streaming, fleet, policy=FLEET_POLICY)

        def online_die():
            return simulator.simulate_online(streaming, fleet, policy=FLEET_POLICY,
                                             faults=self.death)

        common = dict(work=lambda _: frames, model=simulator.backend.cost_model,
                      backend=simulator.backend, jobs=1)
        return [
            Op(key=f"{prefix}/simulate", kind="op.simulate", call=a_priori,
               extract=lambda r: fleet_output(r.report, r.plan.assignments),
               **common),
            Op(key=f"{prefix}/online", kind="op.simulate_online", call=online,
               extract=lambda r: fleet_output(r.report, r.assignments), **common),
            Op(key=f"{prefix}/online-die", kind="op.simulate_online",
               call=online_die,
               extract=lambda r: fleet_output(r.report, r.assignments), **common),
        ]

    def all_ops(self):
        return [op for config in FLEET_CONFIGS for seed in TRAFFIC_SEEDS
                for op in self.ops_for(config, seed)]


def make_workload(name, seed):
    if name == "fig11-sweep":
        return DSEWorkload(FIG11_SUBPLOTS, 1, seed)
    if name == "dse-pool":
        return DSEWorkload(POOL_SUBPLOTS, POOL_JOBS, seed)
    if name == "fleet-serve":
        return FleetWorkload(seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


def current_rss_kb():
    """Resident set size now, from /proc (0 where it is not available)."""
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
    except (OSError, IndexError, ValueError):
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / 1024.0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fastest_of_three(body):
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        body()
        best = min(best, time.perf_counter() - start)
    return best


def _arithmetic():
    total = 0
    for value in range(CONTROL_ITERATIONS):
        total += value * value % 7
    return total


def _allocating():
    table = {}
    for value in range(CONTROL_ENTRIES):
        table[value * 7919 % 10007, value] = [value, value + 1]
    return sorted(table.items())


def control_s():
    """Geometric mean of the two controls' fastest-of-three host times.

    The collector is off while they run, so the library's heap cannot
    trigger a collection inside a control.
    """
    gc.disable()
    try:
        return math.sqrt(_fastest_of_three(_arithmetic)
                         * _fastest_of_three(_allocating))
    finally:
        gc.enable()


class SpeedControl:
    """Scale factor from host seconds to seconds on the reference machine.

    The host is shared: a fixed loop's speed drifts by up to 2x over tens of
    seconds as neighbours come and go.  Multiplying an op's host time by
    ``CONTROL_NOMINAL_S / control_s()``, averaged over samples taken just
    before and just after the op, reports it as if the machine ran at its
    nominal speed.  The controls run outside every timed op and share no
    code with the library, so a change to the library moves the scaled times
    as it moves the host times.
    """

    def __init__(self):
        self.factor = 1.0
        self.taken_at = float("-inf")

    def now(self):
        if time.perf_counter() - self.taken_at >= CONTROL_EVERY_S:
            self.factor = CONTROL_NOMINAL_S / control_s()
            self.taken_at = time.perf_counter()
        return self.factor


def tail(samples):
    """Highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, count)``; with ten or fewer samples no
    percentile qualifies and the maximum is reported as p100.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100.0, count
    index = count - 11
    return ordered[index], 100.0 * (index + 1) / count, count


def check(reference, key, output):
    """``None`` when ``output`` equals the reference entry ``key`` exactly, else why not."""
    expected = reference.get(key)
    if expected is None:
        return f"{key}: no reference entry"
    if output != expected:
        return f"{key}: output differs from the reference"
    return None


class LayerCounters:
    """Public counters read around every traced op, summed over ops."""

    def __init__(self):
        self.values = {}

    def add(self, name, amount):
        self.values[name] = self.values.get(name, 0.0) + amount

    def get(self, name):
        return self.values.get(name, 0.0)


def _snapshot(op, tracer):
    from repro.dataflow.mapping import mapping_cache_info

    mapping = mapping_cache_info()
    stats = op.model.cache_stats()
    return {
        "mapping.hits": mapping.hits, "mapping.misses": mapping.misses,
        "cost.hits": stats["hits"], "cost.misses": stats["misses"],
        "backend.cold": op.backend.total_cold_evaluations,
        "backend.rebuilds": getattr(op.backend, "pool_rebuilds", 0),
        "backend.run_s": tracer.total_s("backend.run"),
        "rss_kb": current_rss_kb(),
    }


def _record_traced_op(op, result, before, after, tracer, counters):
    for name, key in (("mapping.hits", "mapping.hits"),
                      ("mapping.misses", "mapping.misses"),
                      ("cost.hits", "cost.hits"), ("cost.misses", "cost.misses"),
                      ("backend.cold_evaluations", "backend.cold"),
                      ("backend.pool_rebuilds", "backend.rebuilds")):
        counters.add(name, after[key] - before[key])
    results = tracer.captured_results
    busy = sum(item.scheduling_time_s for item in results)
    run_s = after["backend.run_s"] - before["backend.run_s"]
    counters.add("backend.tasks", len(results))
    counters.add("backend.task_busy_s", busy)
    counters.add("backend.overhead_s", run_s - busy / op.jobs)
    stride = max(1, len(results) // 8)
    for item in results[::stride]:
        counters.add("backend.result_bytes", len(pickle.dumps(item)))
        counters.add("backend.result_samples", 1)
    tracer.captured_results = []
    if op.kind == "op.explore":
        counters.add("dse.points", len(result.points))
        counters.add("dse.rss_growth_kb", max(0.0, after["rss_kb"] - before["rss_kb"]))
        counters.add("backend.failed_tasks", len(result.failures))
        counters.add("backend.retried_attempts", result.retried_attempts)
    else:
        counters.add("backend.failed_tasks", len(result.report.failed_chips))
    if op.kind == "op.simulate_online":
        stats = result.stats
        counters.add("online.frames", op.work(result))
        counters.add("online.redispatched_frames", stats.redispatched_frames)
        counters.add("online.stolen_frames", stats.stolen_frames)
        counters.add("online.lost_frames", len(stats.lost_frame_ids))


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, counters, setup, traced_unit_s, plain_unit_s,
                  attempted, failed):
    """Per-layer metrics of the traced units, every ratio with its base."""
    c = counters.get
    mapping_lookups = c("mapping.hits") + c("mapping.misses")
    cost_lookups = c("cost.hits") + c("cost.misses")
    op_names = [name for name in tracer.totals if name.startswith("op.")]
    op_total = sum(tracer.total_s(name) for name in op_names)
    op_self = sum(tracer.self_s(name) for name in op_names)
    overhead = (statistics.median(traced_unit_s) / statistics.median(plain_unit_s)
                - 1.0) if traced_unit_s and plain_unit_s else 0.0
    return {
        "cli.import_s": (setup["import_s"], "s"),
        "workloads.build_s": (setup["build_s"], "s"),
        "setup.warmup_s": (setup["warmup_s"], "s"),
        "workloads.expand_s": (tracer.total_s("workloads.expand"), "s"),
        "workloads.expand_calls": (tracer.calls("workloads.expand"), "count"),
        "gc.collect_s": (tracer.total_s("python.gc"), "s"),
        "gc.collections": (tracer.calls("python.gc"), "count"),
        "mapping.searches": (c("mapping.misses"), "count"),
        "mapping.lookups": (mapping_lookups, "count"),
        "mapping.hit_rate": (_ratio(c("mapping.hits"), mapping_lookups), "ratio"),
        "mapping.search_s": (tracer.total_s("mapping.build_mapping"), "s"),
        "cost.prewarm_s": (tracer.total_s("cost.prewarm"), "s"),
        "cost.prewarm_calls": (tracer.calls("cost.prewarm"), "count"),
        "cost.entries_computed": (tracer.counters.get("cost.entries_computed", 0.0),
                                  "count"),
        "cost.lookups": (cost_lookups, "count"),
        "cost.hit_rate": (_ratio(c("cost.hits"), cost_lookups), "ratio"),
        "dse.enumerate_s": (tracer.total_s("dse.enumerate_tasks"), "s"),
        "dse.points": (c("dse.points"), "count"),
        "dse.rss_per_point_kb": (_ratio(c("dse.rss_growth_kb"), c("dse.points")),
                                 "KB"),
        "scheduler.calls": (tracer.calls("scheduler.schedule"), "count"),
        "scheduler.self_s": (tracer.self_s("scheduler.schedule"), "s"),
        "scheduler.layers": (tracer.counters.get("scheduler.layers", 0.0), "count"),
        "scheduler.layers_per_s": (_ratio(tracer.counters.get("scheduler.layers", 0.0),
                                          tracer.total_s("scheduler.schedule")),
                                   "1/s"),
        "schedule.validate_s": (tracer.total_s("schedule.validate"), "s"),
        "schedule.validate_calls": (tracer.calls("schedule.validate"), "count"),
        "backend.run_s": (tracer.total_s("backend.run"), "s"),
        "backend.task_busy_s": (c("backend.task_busy_s"), "s"),
        "backend.overhead_s": (c("backend.overhead_s"), "s"),
        "backend.result_kb": (_ratio(c("backend.result_bytes"),
                                     c("backend.result_samples")) / 1024.0, "KB"),
        "backend.tasks": (c("backend.tasks"), "count"),
        "backend.cold_evaluations": (c("backend.cold_evaluations"), "count"),
        "backend.failed_tasks": (c("backend.failed_tasks"), "count"),
        "backend.failed_rate": (_ratio(c("backend.failed_tasks"), c("backend.tasks")),
                                "ratio"),
        "backend.retried_attempts": (c("backend.retried_attempts"), "count"),
        "backend.pool_rebuilds": (c("backend.pool_rebuilds"), "count"),
        "router.dispatch_s": (tracer.total_s("router.dispatch"), "s"),
        "router.dispatch_calls": (tracer.calls("router.dispatch"), "count"),
        "router.service_table_s": (tracer.total_s("router.service_table"), "s"),
        "fleet.simulate_s": (tracer.total_s("fleet.simulate"), "s"),
        "fleet.chip_eval_s": (tracer.by_op.get(("op.simulate", "backend.run"), 0.0),
                              "s"),
        "online.service_tables_s": (tracer.total_s("online.service_tables"), "s"),
        "online.engine_s": (tracer.total_s("online.engine"), "s"),
        "online.frames": (c("online.frames"), "count"),
        "online.redispatched_frames": (c("online.redispatched_frames"), "count"),
        "online.stolen_frames": (c("online.stolen_frames"), "count"),
        "online.lost_frames": (c("online.lost_frames"), "count"),
        "online.lost_rate": (_ratio(c("online.lost_frames"), c("online.frames")),
                             "ratio"),
        "trace.op_s": (op_total, "s"),
        "trace.unattributed_share": (_ratio(op_self, op_total), "ratio"),
        "trace.overhead": (overhead, "ratio"),
        "trace.spans": (sum(calls for calls, _, _ in tracer.totals.values()), "count"),
        "error_rate": (_ratio(failed, attempted), "ratio"),
    }


def set_up(args):
    """Everything before the first op: imports, inputs, declared warm-up."""
    start = time.perf_counter()
    import repro.cli  # noqa: F401  (the user's entry point)
    import_s = time.perf_counter() - start
    start = time.perf_counter()
    workload = make_workload(args.workload, args.seed)
    workload.setup()
    build_s = time.perf_counter() - start
    start = time.perf_counter()
    workload.warm_up()
    warmup_s = time.perf_counter() - start
    host_s = time.perf_counter() - T0
    factor = statistics.median(CONTROL_NOMINAL_S / control_s() for _ in range(5))
    setup = {"setup_s": host_s * factor, "host_setup_s": host_s,
             "import_s": import_s, "build_s": build_s, "warmup_s": warmup_s}
    return workload, setup


def measure(args, workload, setup, reference):
    tracer = counters = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        counters = LayerCounters()
    control = SpeedControl()
    samples, host_samples, factors = [], [], []
    unit_rates, host_unit_rates, traced_unit_s, plain_unit_s = [], [], [], []
    attempted = failed = 0
    min_units = 2 if args.trace else 1
    deadline = time.perf_counter() + args.seconds
    units = 0
    while units < min_units or (not args.smoke
                                and time.perf_counter() < deadline):
        gc.collect()
        ops = workload.unit(args.smoke)
        traced = args.trace and units % 2 == 0
        restore = tracing.install(tracer) if traced else None
        unit_s = unit_host_s = unit_work = 0.0
        try:
            for op in ops:
                attempted += 1
                factor_before = control.now()
                if traced:
                    before = _snapshot(op, tracer)
                    frame = tracer.begin_op(attempted, op.kind)
                start = time.perf_counter()
                try:
                    result = op.call()
                except Exception as error:  # an op that raises counts as failed
                    if traced:
                        tracer.end_op(frame)
                        tracer.captured_results = []
                    failed += 1
                    print(f"FAILED {op.key}: {type(error).__name__}: {error}",
                          file=sys.stderr)
                    continue
                elapsed = time.perf_counter() - start
                if traced:
                    tracer.end_op(frame)
                    after = _snapshot(op, tracer)
                factor = (factor_before + control.now()) / 2.0
                factors.append(factor)
                host_samples.append(elapsed)
                samples.append(elapsed * factor)
                unit_s += elapsed * factor
                unit_host_s += elapsed
                unit_work += op.work(result)
                problem = check(reference, op.key, op.extract(result))
                if problem is not None:
                    failed += 1
                    print(f"FAILED {problem}", file=sys.stderr)
                if traced:
                    _record_traced_op(op, result, before, after, tracer, counters)
                del result
        finally:
            if restore is not None:
                tracing.uninstall(tracer, restore)
        units += 1
        (traced_unit_s if traced else plain_unit_s).append(unit_s)
        if unit_s > 0.0:
            unit_rates.append(unit_work / unit_s)
            host_unit_rates.append(unit_work / unit_host_s)

    out = {"attempted": attempted, "failed": failed, "units": units,
           "setup": setup}
    if not samples:
        out["e2e"] = {}
        return out
    value, percentile, count = tail(samples)
    out["e2e"] = {
        "items_per_s": statistics.median(unit_rates),
        "op_p50_s": statistics.median(samples),
        "op_tail_s": value,
        "peak_rss_mb": peak_rss_mb(),
    }
    out["tail"] = {"percentile": percentile, "samples": count}
    out["unit_rates"] = unit_rates
    out["host"] = {"items_per_s": statistics.median(host_unit_rates),
                   "op_p50_s": statistics.median(host_samples),
                   "op_tail_s": tail(host_samples)[0],
                   "speed_factor": statistics.median(factors)}
    if args.trace:
        metrics = layer_metrics(tracer, counters, setup, traced_unit_s,
                                plain_unit_s, attempted, failed)
        out["layers"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in metrics.items()}
        path = os.path.join(TRACE_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write_chrome_trace(path)
        out["trace_file"] = os.path.relpath(path)
    return out


def load_reference():
    with open(REFERENCE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def record():
    """Run every op once and write its output as the reference."""
    entries = {}
    for name in ("fig11-sweep", "fleet-serve"):
        workload = make_workload(name, 0)
        workload.setup()
        for op in workload.all_ops():
            entries[op.key] = op.extract(op.call())
    lines = [f"{json.dumps(key)}: {json.dumps(entries[key], sort_keys=True)}"
             for key in sorted(entries)]
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(entries)} reference entries to {REFERENCE_PATH}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.record:
        record()
        return 0
    workload, setup = set_up(args)
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0
    out = measure(args, workload, setup, load_reference())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
