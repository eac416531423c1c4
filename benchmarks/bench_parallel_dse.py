"""Execution engine: serial vs process-pool DSE wall-clock.

Not a paper figure — this benchmark characterises the execution engine added
for production-scale sweeps.  It runs the same AR/VR-A / edge design-space
exploration two ways and reports:

* serial backend, cold cost model (the historical behaviour);
* process-pool backend (``--jobs 2`` equivalent) and its speedup (on a
  single-core host the pool's process overhead typically makes this a
  slowdown; the ranking equality is what matters there).
"""

import time

from repro.accel.classes import ACCELERATOR_CLASSES
from repro.core.dse import HeraldDSE
from repro.core.partitioner import PartitionSearch
from repro.core.scheduler import HeraldScheduler
from repro.exec import ProcessPoolBackend, SerialBackend
from repro.maestro.cost import CostModel
from repro.workloads.suites import arvr_a

from common import emit, run_once

PE_STEPS = 8
BW_STEPS = 2
JOBS = 2


def _explore(backend_factory):
    model = CostModel()
    scheduler = HeraldScheduler(model)
    backend = backend_factory(model, scheduler)
    search = PartitionSearch(cost_model=model, scheduler=scheduler,
                             pe_steps=PE_STEPS, bw_steps=BW_STEPS)
    dse = HeraldDSE(cost_model=model, scheduler=scheduler,
                    partition_search=search, backend=backend)
    start = time.perf_counter()
    space = dse.explore(arvr_a(), ACCELERATOR_CLASSES["edge"])
    elapsed = time.perf_counter() - start
    return space, backend, elapsed


def _bench_parallel_dse():
    rows = []
    serial_space, serial_backend, serial_s = _explore(
        lambda model, scheduler: SerialBackend(cost_model=model,
                                               scheduler=scheduler))
    rows.append(f"serial (cold):   {serial_s:7.2f} s  "
                f"{len(serial_space.points)} points  "
                f"{serial_backend.total_cold_evaluations} cold evaluations")

    pool_space, pool_backend, pool_s = _explore(
        lambda model, scheduler: ProcessPoolBackend(
            jobs=JOBS, cost_model=model, scheduler=scheduler))
    rows.append(f"pool ({JOBS} jobs):   {pool_s:7.2f} s  "
                f"{len(pool_space.points)} points  "
                f"speedup x{serial_s / pool_s:.2f}  "
                f"{pool_backend.last_new_cache_entries} memo entries recovered "
                "from workers")

    identical = all(
        pool_space.best(category).design.name
        == serial_space.best(category).design.name
        and pool_space.best(category).edp == serial_space.best(category).edp
        for category in serial_space.categories())
    rows.append("rankings: " + ("identical" if identical else "DIFFER")
                + " across serial / pool runs")
    return rows, identical


def test_parallel_dse(benchmark):
    rows, rankings_identical = run_once(benchmark, _bench_parallel_dse)
    emit("parallel_dse", rows)
    assert rankings_identical
