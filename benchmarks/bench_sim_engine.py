"""Online evaluation engine: event-loop throughput and parallel sweeps.

Two measurements, both with hard equivalence gates:

1. **Event-loop throughput** — the same seeded arrival stream is replayed
   through the reference event loop and the optimized fast loop for three
   selector scenarios (RAMSIS and Greedy on per-worker queues, Jellyfish+
   on the central queue).  Timings are best-of-N with the engines
   interleaved, which cancels most scheduler noise on shared runners.  The
   metrics must be **float-identical** per scenario, and the best
   per-worker speedup must clear ``RAMSIS_BENCH_MIN_SPEEDUP`` (default 3x;
   relaxed to 1.5x at smoke scale, where runs are too short to time well).
2. **Sweep wall-clock** — a small constant-load grid is evaluated serially
   and through the parallel sweep engine (``jobs=2``, shared policy
   cache).  The point sequences must be identical; the parallel timing is
   reported but not asserted — on single-core CI runners process fan-out
   cannot win.

Results land in ``benchmarks/out/sim_engine.{txt,json}`` and a copy of the
JSON at the repo root (``BENCH_sim_engine.json``) for trend diffing.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List

import numpy as np

from benchmarks._common import bench_scale, emit, host_metadata
from repro.arrivals.distributions import PoissonArrivals
from repro.arrivals.processes import sample_arrival_times
from repro.arrivals.traces import LoadTrace
from repro.cache import PolicyCache
from repro.core.config import WorkerMDPConfig
from repro.core.generator import generate_policy
from repro.experiments.runner import clear_caches
from repro.experiments.sweep import SweepCell, run_sweep
from repro.experiments.tasks import image_task
from repro.profiles.latency import LinearLatencyModel
from repro.profiles.models import ModelProfile, ModelSet
from repro.selectors import (
    GreedyDeadlineSelector,
    JellyfishPlusSelector,
    RamsisSelector,
)
from repro.sim.simulator import Simulation, SimulationConfig

#: Cluster shape of the throughput scenarios.
WORKERS = 8
SLO_MS = 100.0
MAX_BATCH = 8


def _smoke() -> bool:
    return os.environ.get("RAMSIS_BENCH_SCALE", "bench") == "smoke"


def _min_speedup() -> float:
    env = os.environ.get("RAMSIS_BENCH_MIN_SPEEDUP")
    if env:
        return float(env)
    return 1.5 if _smoke() else 3.0


def _bench_models() -> ModelSet:
    """Deterministic three-model zoo: cheap policies, zero-variance p95."""
    return ModelSet(
        [
            ModelProfile(
                name="fast",
                accuracy=0.60,
                latency=LinearLatencyModel(2.0, 8.0, std_ms=0.0),
                family="bench",
            ),
            ModelProfile(
                name="medium",
                accuracy=0.75,
                latency=LinearLatencyModel(3.0, 20.0, std_ms=0.0),
                family="bench",
            ),
            ModelProfile(
                name="slow",
                accuracy=0.90,
                latency=LinearLatencyModel(4.0, 60.0, std_ms=0.0),
                family="bench",
            ),
        ],
        task="bench",
    )


def _time_scenario(
    models: ModelSet,
    factory: Callable[[], object],
    trace: LoadTrace,
    arrivals: np.ndarray,
    reps: int,
) -> Dict[str, float]:
    """Best-of-``reps`` interleaved timing of both engines, one scenario."""
    best = {"reference": float("inf"), "fast": float("inf")}
    metrics = {}
    for _ in range(reps):
        for engine in ("reference", "fast"):
            sim = Simulation(
                SimulationConfig(
                    model_set=models,
                    slo_ms=SLO_MS,
                    num_workers=WORKERS,
                    max_batch_size=MAX_BATCH,
                )
            )
            start = time.perf_counter()
            result = sim.run(
                factory(), trace, arrival_times=arrivals, engine=engine
            )
            elapsed = time.perf_counter() - start
            best[engine] = min(best[engine], elapsed)
            metrics[engine] = result
    assert metrics["fast"] == metrics["reference"], (
        "fast engine metrics diverge from the reference loop"
    )
    queries = metrics["fast"].total_queries
    return {
        "queries": queries,
        "reference_qps": queries / best["reference"],
        "fast_qps": queries / best["fast"],
        "speedup": best["reference"] / best["fast"],
    }


def test_event_loop_throughput():
    models = _bench_models()
    qps = 300.0 if _smoke() else 800.0
    duration_ms = 10_000.0 if _smoke() else 60_000.0
    reps = 3 if _smoke() else 5
    trace = LoadTrace.constant(qps, duration_ms, name="bench-engine")
    arrivals = sample_arrival_times(
        trace, PoissonArrivals(qps), np.random.default_rng(3)
    )

    policy = generate_policy(
        WorkerMDPConfig.default_poisson(
            models,
            slo_ms=SLO_MS,
            load_qps=qps / WORKERS,
            num_workers=WORKERS,
            fld_resolution=10,
            max_batch_size=MAX_BATCH,
        ),
        with_guarantees=False,
    ).policy

    scenarios = {
        "ramsis_per_worker": lambda: RamsisSelector(policy),
        "greedy_per_worker": GreedyDeadlineSelector,
        "jellyfish_central": JellyfishPlusSelector,
    }
    rows = {
        name: _time_scenario(models, factory, trace, arrivals, reps)
        for name, factory in scenarios.items()
    }

    per_worker_best = max(
        rows["ramsis_per_worker"]["speedup"], rows["greedy_per_worker"]["speedup"]
    )
    floor = _min_speedup()
    assert per_worker_best >= floor, (
        f"best per-worker event-loop speedup {per_worker_best:.2f}x "
        f"below the {floor:.1f}x floor"
    )

    lines = [
        f"simulator event loop: K={WORKERS}, {qps:g} QPS x "
        f"{duration_ms / 1000:g} s, best of {reps} (interleaved)",
    ]
    for name, row in rows.items():
        lines.append(
            f"{name:<20} ref {row['reference_qps']:>9.0f} q/s   "
            f"fast {row['fast_qps']:>9.0f} q/s   "
            f"speedup {row['speedup']:.2f}x"
        )
    data = {
        "host": host_metadata(),
        "workers": WORKERS,
        "qps": qps,
        "duration_ms": duration_ms,
        "reps": reps,
        "min_speedup_floor": floor,
        "scenarios": rows,
    }
    emit("sim_engine", "\n".join(lines), data=data, root=True)


def test_sweep_serial_vs_parallel(tmp_path):
    scale = bench_scale()
    task = image_task()
    loads = scale.constant_loads_qps[:3]
    cells: List[SweepCell] = [
        SweepCell(
            method=method,
            task=task,
            slo_ms=task.slos_ms[0],
            num_workers=scale.constant_workers_image,
            trace=LoadTrace.constant(
                load, scale.constant_duration_s * 1000.0, name=f"be-{load:g}"
            ),
            seed=29,
            oracle_load=True,
        )
        for load in loads
        for method in ("RAMSIS", "JF")
    ]

    clear_caches()
    start = time.perf_counter()
    serial = run_sweep(cells, scale)
    serial_s = time.perf_counter() - start

    clear_caches()
    cache = PolicyCache(directory=tmp_path / "sweep-cache")
    start = time.perf_counter()
    parallel = run_sweep(cells, scale, jobs=2, cache=cache)
    parallel_s = time.perf_counter() - start
    clear_caches()

    assert parallel == serial, "parallel sweep points differ from serial"

    speedup = serial_s / parallel_s
    text = (
        f"experiment sweep: {len(cells)} cells, jobs=2\n"
        f"serial:   {serial_s:8.3f} s\n"
        f"parallel: {parallel_s:8.3f} s ({speedup:.2f}x, "
        f"{os.cpu_count() or 1} cpu(s) — informational on 1-cpu hosts)"
    )
    emit(
        "sim_engine_sweep",
        text,
        data={
            "cells": len(cells),
            "jobs": 2,
            "serial_s": serial_s,
            "parallel_s": parallel_s,
            "speedup": speedup,
            "cpus": os.cpu_count() or 1,
            "identical": True,
        },
    )
