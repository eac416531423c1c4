"""Spans recorded from outside the library, around its public functions.

:func:`install` replaces a fixed list of public functions and methods of the
``repro`` package with wrappers that open a span on entry and close it on
exit; :func:`uninstall` puts the originals back, so untraced passes run the
unmodified program.  Spans stay in memory (name, start, end, parent, op id)
and are written once, at exit, as Chrome trace-event JSON that Perfetto and
``chrome://tracing`` open.

Wrapped on purpose, and nothing deeper:

* ``HeraldScheduler.schedule`` only.  ``schedule`` takes its fused fast path
  only while ``_initial_assignment``, ``_list_schedule`` and
  ``_choose_sub_accelerator`` are the class's own functions; wrapping any of
  those would silently switch it to the general path and time a different
  program.
* ``build_mapping`` at its three import sites (``maestro.cost``,
  ``maestro.batch``, ``maestro.reuse``): those modules bind the name at import
  time, so patching ``repro.dataflow.mapping.build_mapping`` would miss every
  call.
* Pool workers are never traced.  A forked worker inherits the patched
  classes, so every wrapper checks the process id and calls the original
  directly outside the process that installed it.

Garbage collections get spans too (``python.gc``, from ``gc.callbacks``): a
collection runs inside whichever call allocates when the threshold trips, so
without its own span its time would land on an arbitrary layer.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Spans kept for the trace file; aggregates keep counting past the cap.
MAX_RECORDS = 200_000


class Tracer:
    """In-memory span recorder with per-name totals and self times.

    A span's self time is its duration minus the time its direct children
    cover.  Totals are kept per span name and, separately, per name of the
    enclosing op, so one layer can be attributed to the op kind that called
    it (for example ``backend.run`` under the a-priori ``op.simulate``).
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.origin = time.perf_counter()
        #: (span id, name, start, end, parent span id, op id) per closed span
        self.records: List[Tuple[int, str, float, float, int, int]] = []
        self.dropped = 0
        #: name -> [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: (op name, span name) -> total seconds
        self.by_op: Dict[Tuple[str, str], float] = {}
        self.counters: Dict[str, float] = {}
        self.captured_results: List[object] = []
        self._stack: List[List] = []
        self._op_id = -1
        self._op_name = ""
        self._gc_frame: Optional[List] = None
        self._next_id = 0

    def begin(self, name: str) -> List:
        parent = self._stack[-1][3] if self._stack else -1
        frame = [name, time.perf_counter(), 0.0, self._next_id, parent]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def end(self, frame: List) -> float:
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        name, start, child_s, span_id, parent = frame
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        totals = self.totals.get(name)
        if totals is None:
            totals = self.totals[name] = [0, 0.0, 0.0]
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - child_s
        key = (self._op_name, name)
        self.by_op[key] = self.by_op.get(key, 0.0) + duration
        if len(self.records) < MAX_RECORDS:
            self.records.append((span_id, name, start, end, parent, self._op_id))
        else:
            self.dropped += 1
        return duration

    def begin_op(self, op_id: int, name: str) -> List:
        """Open the root span of one benchmark op."""
        self._op_id = op_id
        self._op_name = name
        return self.begin(name)

    def end_op(self, frame: List) -> float:
        duration = self.end(frame)
        self._op_id = -1
        self._op_name = ""
        return duration

    def on_gc(self, phase: str, info: Dict[str, int]) -> None:
        """``gc.callbacks`` hook: one ``python.gc`` span per collection."""
        if os.getpid() != self.pid:
            return
        if phase == "start":
            self._gc_frame = self.begin("python.gc")
        elif self._gc_frame is not None:
            self.end(self._gc_frame)
            self._gc_frame = None

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def total_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def write_chrome_trace(self, path: str) -> None:
        """Write the kept spans as Chrome trace-event JSON (complete events)."""
        events = []
        for span_id, name, start, end, parent, op_id in self.records:
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": (start - self.origin) * 1e6, "dur": (end - start) * 1e6,
                "pid": 1, "tid": 1,
                "args": {"span": span_id, "parent": parent, "op": op_id},
            })
        document = {"traceEvents": events, "displayTimeUnit": "ms",
                    "otherData": {"dropped_spans": self.dropped}}
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def _wrap(tracer: Tracer, original: Callable, name: str,
          on_result: Optional[Callable[[object], None]],
          materialize: bool) -> Callable:
    @functools.wraps(original)
    def traced(*args, **kwargs):
        if os.getpid() != tracer.pid:
            return original(*args, **kwargs)
        frame = tracer.begin(name)
        try:
            result = original(*args, **kwargs)
            if materialize:
                result = iter(list(result))
        finally:
            tracer.end(frame)
        if on_result is not None:
            on_result(result)
        return result
    return traced


def _targets(tracer: Tracer):
    """(owner, attribute, span name, on_result, materialize) per wrapped callable."""
    import repro.maestro.batch
    import repro.maestro.cost
    import repro.maestro.reuse
    import repro.serve.online
    from repro.core.dse import HeraldDSE
    from repro.core.schedule import Schedule
    from repro.core.scheduler import HeraldScheduler
    from repro.exec.backends import ProcessPoolBackend, SerialBackend
    from repro.maestro.cost import CostModel
    from repro.serve.fleet import FleetSimulator
    from repro.serve.online import OnlineEngine
    from repro.serve.router import FrameCostEstimator, Router
    from repro.workloads.spec import WorkloadSpec

    def prewarmed(computed):
        tracer.count("cost.entries_computed", computed)

    def scheduled(schedule):
        tracer.count("scheduler.layers", len(schedule))

    def ran(results):
        tracer.captured_results.extend(results)

    return [
        (WorkloadSpec, "instances", "workloads.expand", None, False),
        (WorkloadSpec, "unique_shape_layers", "workloads.expand", None, False),
        (repro.maestro.cost, "build_mapping", "mapping.build_mapping", None, False),
        (repro.maestro.batch, "build_mapping", "mapping.build_mapping", None, False),
        (repro.maestro.reuse, "build_mapping", "mapping.build_mapping", None, False),
        (CostModel, "prewarm", "cost.prewarm", prewarmed, False),
        (HeraldDSE, "enumerate_tasks", "dse.enumerate_tasks", None, True),
        (SerialBackend, "run", "backend.run", ran, False),
        (ProcessPoolBackend, "run", "backend.run", ran, False),
        (HeraldScheduler, "schedule", "scheduler.schedule", scheduled, False),
        (Schedule, "validate", "schedule.validate", None, False),
        (Router, "dispatch", "router.dispatch", None, False),
        (FrameCostEstimator, "service_table", "router.service_table", None, False),
        (FleetSimulator, "simulate", "fleet.simulate", None, False),
        (repro.serve.online, "measured_service_tables", "online.service_tables",
         None, False),
        (OnlineEngine, "run", "online.engine", None, False),
    ]


def install(tracer: Tracer) -> List[Tuple[object, str, Callable]]:
    """Wrap every target; returns what :func:`uninstall` needs to restore."""
    restore = []
    for owner, attribute, name, on_result, materialize in _targets(tracer):
        original = getattr(owner, attribute)
        setattr(owner, attribute,
                _wrap(tracer, original, name, on_result, materialize))
        restore.append((owner, attribute, original))
    gc.callbacks.append(tracer.on_gc)
    return restore


def uninstall(tracer: Tracer, restore: List[Tuple[object, str, Callable]]) -> None:
    gc.callbacks.remove(tracer.on_gc)
    for owner, attribute, original in reversed(restore):
        setattr(owner, attribute, original)
