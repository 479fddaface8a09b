"""Tests for the serving runtime: clock, workload, single-loop serving.

``tests/test_runtime_shard.py`` pins the sharded tier's layout
invariance, overload accounting, hot-swap and reconstruction.  This file
pins what ties the runtime to the rest of the library: it serves the same
metrics as the simulator on the same arrivals, it runs every selector
call on the caller's thread, it treats arrival arrays exactly as
``Simulation.run`` does, and it refuses the central-queue selectors it
cannot serve.
"""

import asyncio
import dataclasses
import threading
import time

import numpy as np
import pytest

from repro.arrivals.traces import LoadTrace
from repro.core.generator import generate_policy
from repro.errors import SimulationError
from repro.runtime import ShardedController, WorkloadGenerator
from repro.runtime.clock import VirtualClock
from repro.selectors import (
    GreedyDeadlineSelector,
    JellyfishPlusSelector,
    RamsisSelector,
)
from repro.sim import (
    DeterministicLatency,
    OracleLoadMonitor,
    Simulation,
    SimulationConfig,
)

#: Aggressive compression keeps runtime tests fast (100x real time).
FAST = 0.01


def controller(models, shards=1, wps=4, **kwargs):
    kwargs.setdefault("latency_model", DeterministicLatency())
    kwargs.setdefault("time_scale", FAST)
    return ShardedController(
        models, slo_ms=100.0, num_shards=shards, workers_per_shard=wps, **kwargs
    )


class TestVirtualClock:
    def test_scaled_sleep(self):
        clock = VirtualClock(time_scale=0.01)
        start = time.monotonic()
        # The runtime's sleep: wall seconds until an absolute deadline.
        asyncio.run(asyncio.sleep(clock.wall_s_until(500.0)))  # 5 ms wall
        elapsed = time.monotonic() - start
        assert 0.003 <= elapsed <= 0.2
        assert clock.now_ms() >= 499.999

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            VirtualClock(time_scale=0.0)

    def test_wall_s_until(self):
        clock = VirtualClock(time_scale=0.01)
        # 1000 virtual ms at 0.01 scale is 10 ms of wall time.
        remaining = clock.wall_s_until(1_000.0)
        assert 0.0 < remaining <= 0.010
        assert clock.wall_s_until(-1.0) < 0.0

    def test_sleep_until_reaches_absolute_deadline(self):
        clock = VirtualClock(time_scale=1.0)
        time.sleep(0.2)  # the clock is already ~200 virtual ms in
        # The wait targets the absolute 300 ms deadline (~100 ms more),
        # not 300 ms more.
        asyncio.run(asyncio.sleep(clock.wall_s_until(300.0)))
        assert 299.999 <= clock.now_ms() < 450.0

    def test_restart_rezeros(self):
        clock = VirtualClock(time_scale=0.01)
        time.sleep(0.005)
        assert clock.now_ms() >= 500.0
        clock.restart()
        assert clock.now_ms() < 500.0


class TestWorkloadGenerator:
    def test_sample_matches_simulator_sampling(self):
        trace = LoadTrace.constant(200.0, 2_000.0)
        gen = WorkloadGenerator(trace, slo_ms=100.0, seed=4)
        a = gen.sample()
        b = gen.sample()
        assert np.array_equal(a, b)
        assert a.shape[0] == pytest.approx(400, rel=0.2)


class TestSimulatorParity:
    """Unpaced serving is the simulator's per-worker discipline.

    The runtime serves through the fast engine's event kernel, with the
    trace oracle's anticipated load: every decision and every float sum
    is the simulator's, so the metrics agree on every field with ``==``.
    """

    TRACE = LoadTrace.constant(700.0, 2_000.0)

    @pytest.fixture
    def ramsis_policy(self, tiny_config):
        return generate_policy(tiny_config).policy

    @pytest.mark.parametrize("shards,wps", [(1, 8), (2, 4), (8, 1)])
    @pytest.mark.parametrize("method", ["greedy", "ramsis"])
    def test_runtime_matches_fast_engine(
        self, tiny_models, ramsis_policy, method, shards, wps
    ):
        def make():
            if method == "greedy":
                return GreedyDeadlineSelector()
            return RamsisSelector(ramsis_policy)

        arrivals = WorkloadGenerator(self.TRACE, 100.0, seed=5).sample()
        report = controller(
            tiny_models, shards, wps, max_batch_size=8, paced=False, seed=5
        ).serve(lambda s: make(), self.TRACE, arrivals=arrivals)
        simulated = Simulation(
            SimulationConfig(
                model_set=tiny_models,
                slo_ms=100.0,
                num_workers=shards * wps,
                max_batch_size=8,
                latency_model=DeterministicLatency(),
                monitor=OracleLoadMonitor(self.TRACE),
                seed=5,
            )
        ).run(make(), self.TRACE, arrival_times=arrivals, engine="fast")

        served = dataclasses.asdict(report.metrics)
        expected = dataclasses.asdict(simulated)
        assert served["total_queries"] == arrivals.size > 0
        assert 0.0 < served["violation_rate"] < 0.5  # both outcomes occur
        for field, value in expected.items():
            assert served[field] == value, field
        assert report.metrics == simulated


class TestSingleLoop:
    """Shards are logical: one event loop on the calling thread."""

    @pytest.mark.parametrize("paced", [True, False])
    @pytest.mark.parametrize("with_run_dir", [False, True])
    def test_selects_on_calling_thread(
        self, tiny_models, tmp_path, paced, with_run_dir
    ):
        before = set(threading.enumerate())
        callers = set()
        extra_threads = set()

        class Watching(GreedyDeadlineSelector):
            def select(self, **kwargs):
                callers.add(threading.get_ident())
                extra_threads.update(
                    t.name for t in set(threading.enumerate()) - before
                )
                return super().select(**kwargs)

        report = controller(
            tiny_models, 2, 2, paced=paced, seed=2,
            run_dir=str(tmp_path) if with_run_dir else None,
        ).serve(lambda s: Watching(), LoadTrace.constant(150.0, 1_000.0))
        assert report.metrics.decisions > 0
        assert callers == {threading.get_ident()}
        # The run_dir snapshot publisher is the only other thread.
        assert extra_threads == ({"shard-snapshot"} if with_run_dir else set())
        assert set(threading.enumerate()) - before == set()

    @pytest.mark.parametrize("paced", [True, False])
    def test_zero_arrival_run_ends_promptly(self, tiny_models, paced):
        start = time.monotonic()
        report = controller(tiny_models, 2, 4, paced=paced).serve(
            lambda s: GreedyDeadlineSelector(),
            LoadTrace.constant(100.0, 1_000.0),
            arrivals=np.array([]),
        )
        elapsed = time.monotonic() - start
        assert report.submitted == 0
        assert report.metrics.total_queries == 0
        assert elapsed < 1.0

    def test_worker_error_propagates(self, tiny_models):
        class Broken(GreedyDeadlineSelector):
            def select(self, **kwargs):
                raise RuntimeError("selector failed")

        with pytest.raises(RuntimeError, match="selector failed"):
            controller(tiny_models, 2, 2, paced=False).serve(
                lambda s: Broken(), LoadTrace.constant(100.0, 500.0)
            )

    def test_replay_pacing_does_not_drift(self, tiny_models):
        """Arrivals are released against absolute virtual deadlines.

        5k arrivals over 0.5 s of wall time: relative sleeps would
        compound per-sleep overshoot into hundreds of milliseconds of
        drift by the last arrival; pacing to the absolute deadline keeps
        every arrival's wall lag at scheduling-jitter scale.
        """
        from repro.obs.audit import GuaranteeAuditor

        class ArrivalTimes(GuaranteeAuditor):
            def __init__(self):
                super().__init__()
                self.seen = []

            def instant(self, name, track, ts_ms, category="sim", args=None):
                if name == "arrival":
                    self.seen.append((time.monotonic(), ts_ms))
                super().instant(name, track, ts_ms, category, args)

        n, duration_ms, scale = 5_000, 5_000.0, 0.1
        arrivals = np.linspace(0.0, duration_ms, n, endpoint=False)
        probes = [ArrivalTimes(), ArrivalTimes()]
        report = controller(
            tiny_models, 2, 4, paced=True, time_scale=scale
        ).serve(
            lambda s: GreedyDeadlineSelector(),
            LoadTrace.constant(n / (duration_ms / 1_000.0), duration_ms),
            arrivals=arrivals,
            auditors=probes,
        )
        assert report.submitted == n
        offsets = [w - t * scale / 1000.0 for p in probes for w, t in p.seen]
        assert len(offsets) == n
        max_lag_wall_ms = (max(offsets) - min(offsets)) * 1000.0
        # Generous for CI noise, far below the drift of relative sleeps.
        assert max_lag_wall_ms < 150.0


class TestArrivalOrder:
    def test_shuffled_arrivals_serve_as_sorted(self, tiny_models):
        trace = LoadTrace.constant(200.0, 2_000.0)
        arrivals = WorkloadGenerator(trace, 100.0, seed=3).sample()
        shuffled = np.random.default_rng(0).permutation(arrivals)
        assert not np.array_equal(shuffled, arrivals)

        def serve(times):
            return controller(tiny_models, 1, 4, paced=False).serve(
                lambda s: GreedyDeadlineSelector(), trace, arrivals=times
            )

        assert serve(shuffled).metrics == serve(arrivals).metrics

    def test_rejects_multidimensional_arrivals(self, tiny_models):
        with pytest.raises(SimulationError, match="1-D"):
            controller(tiny_models, paced=False).serve(
                lambda s: GreedyDeadlineSelector(),
                LoadTrace.constant(100.0, 1_000.0),
                arrivals=np.zeros((2, 3)),
            )


class TestCentralScope:
    """Central-queue selectors are the simulator's, not the runtime's."""

    def test_serve_rejects_central_selector(self, tiny_models):
        with pytest.raises(SimulationError, match="central queue"):
            controller(tiny_models, paced=False).serve(
                lambda s: JellyfishPlusSelector(),
                LoadTrace.constant(100.0, 1_000.0),
            )

    def test_hot_swap_rejects_central_selector_atomically(self, tiny_models):
        """A rejected swap publishes nothing, not even the valid shards'."""
        ctl = controller(tiny_models, 2, 2, paced=False)
        originals, callers = [], []

        class Counting(GreedyDeadlineSelector):
            def select(self, **kwargs):
                callers.append(self)
                if len(callers) == 1:
                    with pytest.raises(SimulationError, match="central queue"):
                        ctl.hot_swap(mixed)
                return super().select(**kwargs)

        def original(shard_index):
            originals.append(Counting())
            return originals[-1]

        def mixed(shard_index):
            # Shard 0's selector is valid; shard 1's is central-queue.
            if shard_index == 0:
                return Counting()
            return JellyfishPlusSelector()

        report = ctl.serve(original, LoadTrace.constant(100.0, 1_000.0))
        assert report.policy_swaps == 0
        assert len(callers) == report.metrics.decisions > 1
        assert {id(c) for c in callers} <= {id(o) for o in originals}
