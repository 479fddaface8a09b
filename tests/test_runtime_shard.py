"""Tests for the sharded serving tier.

The tier's headline property is layout-independence: because query ``i``
goes to global worker ``i mod G`` and the event kernel runs one
deterministic virtual timeline, an ``S x W`` run must produce
*float-exactly* the same metrics, event feeds and audit verdicts as a
``1 x S*W`` run on the same trace — paced or not.  These tests pin that,
plus the overload accounting identities, attribution exactness, hot-swap
atomicity, the merged-feed reconstruction path that ``ramsis report`` /
``ramsis explain`` consume, and (as properties over random traces) the
same invariants together with agreement with the simulator.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrivals.traces import LoadTrace
from repro.errors import SimulationError
from repro.obs.aggregate import merge_run_dir
from repro.obs.attribution import LatencyAttributor
from repro.obs.audit import GuaranteeAuditor
from repro.obs.reconstruct import reconstruct_metrics
from repro.runtime import AdmissionControl, ShardedController
from repro.core.policy import Action, Policy
from repro.core.policy_set import PolicySet
from repro.runtime.shard import DROPPED_MODEL, REJECTED_MODEL
from repro.selectors import GreedyDeadlineSelector, RamsisSelector
from repro.sim import OracleLoadMonitor, Simulation, SimulationConfig
from repro.sim.latency_model import DeterministicLatency
from tests.conftest import make_tiny_model_set

#: Aggressive compression keeps paced runs fast (100x real time).
FAST = 0.01

TRACE = LoadTrace.constant(150.0, 2_000.0)
#: Far beyond what four workers can drain: forces admission/drop paths.
OVERLOAD = LoadTrace.constant(4_000.0, 1_000.0)


def run_sharded(models, shards, wps, *, paced=False, seed=1, trace=TRACE,
                **kwargs):
    controller = ShardedController(
        models,
        slo_ms=100.0,
        num_shards=shards,
        workers_per_shard=wps,
        latency_model=DeterministicLatency(),
        time_scale=FAST,
        seed=seed,
        paced=paced,
        **kwargs,
    )
    return controller.serve(lambda s: GreedyDeadlineSelector(), trace)


class TestConstruction:
    def test_rejects_zero_shards(self, tiny_models):
        with pytest.raises(SimulationError):
            ShardedController(tiny_models, 100.0, num_shards=0, workers_per_shard=1)

    def test_rejects_zero_workers(self, tiny_models):
        with pytest.raises(SimulationError):
            ShardedController(tiny_models, 100.0, num_shards=1, workers_per_shard=0)

    def test_rejects_bad_admission(self):
        with pytest.raises(SimulationError):
            AdmissionControl(max_queue_depth=0)

    def test_auditor_count_validated(self, tiny_models):
        controller = ShardedController(
            tiny_models, 100.0, num_shards=2, workers_per_shard=1,
            latency_model=DeterministicLatency(), time_scale=FAST,
        )
        with pytest.raises(SimulationError):
            controller.serve(lambda s: GreedyDeadlineSelector(), TRACE,
                             auditors=[None])


class TestDeterminism:
    """§4.4/§5.1 preservation: results are a function of the trace alone."""

    def test_layouts_float_exact(self, tiny_models):
        r22 = run_sharded(tiny_models, 2, 2, paced=True)
        r14 = run_sharded(tiny_models, 1, 4, paced=True)
        r41 = run_sharded(tiny_models, 4, 1, paced=False)
        assert r22.submitted == r14.submitted == r41.submitted > 0
        # Dataclass equality: every aggregate (violation rate, accuracy,
        # percentiles, per-model counts) must match bit for bit.
        assert r22.metrics == r14.metrics
        assert r22.metrics == r41.metrics

    def test_repeat_runs_identical(self, tiny_models):
        a = run_sharded(tiny_models, 2, 2, paced=False)
        b = run_sharded(tiny_models, 2, 2, paced=False)
        assert a.metrics == b.metrics

    def test_report_accounting(self, tiny_models):
        r = run_sharded(tiny_models, 2, 2, paced=False)
        assert r.rejected == r.dropped == 0
        assert r.served == r.submitted == r.metrics.total_queries
        assert r.admitted == r.submitted
        assert r.qps > 0
        assert r.num_shards == 2 and r.workers_per_shard == 2

    def test_paced_reports_added_latency(self, tiny_models):
        r = run_sharded(tiny_models, 1, 2, paced=True)
        # Wall-clock lag behind the virtual timeline exists but is small
        # (scheduling jitter, not seconds of drift).
        assert 0.0 <= r.p99_added_latency_ms < 1_000.0

    def test_unpaced_has_no_added_latency_samples(self, tiny_models):
        r = run_sharded(tiny_models, 2, 1, paced=False)
        assert r.p99_added_latency_ms == 0.0


class TestReconstruction:
    """run_dir feeds merge back into the exact same aggregates."""

    def test_merged_feed_reconstructs_exactly(self, tiny_models, tmp_path):
        r = run_sharded(tiny_models, 2, 2, run_dir=str(tmp_path))
        merged = merge_run_dir(tmp_path)
        summary = reconstruct_metrics(merged.tracer)
        assert summary.total_queries == r.metrics.total_queries
        assert summary.satisfied_queries == r.metrics.satisfied_queries
        assert summary.decisions == r.metrics.decisions
        # Float-exact, not approx: the fold order is pinned.
        assert summary.violation_rate == r.metrics.violation_rate
        assert (summary.accuracy_per_satisfied_query
                == r.metrics.accuracy_per_satisfied_query)
        assert summary.mean_batch_size == r.metrics.mean_batch_size
        assert summary.arrivals == r.submitted

    def test_merged_feed_layout_independent(self, tiny_models, tmp_path):
        d22, d14 = tmp_path / "s22", tmp_path / "s14"
        run_sharded(tiny_models, 2, 2, run_dir=str(d22))
        run_sharded(tiny_models, 1, 4, run_dir=str(d14))
        a = reconstruct_metrics(merge_run_dir(d22).tracer)
        b = reconstruct_metrics(merge_run_dir(d14).tracer)
        assert a == b

    def test_artifacts_present(self, tiny_models, tmp_path):
        run_sharded(tiny_models, 2, 2, run_dir=str(tmp_path),
                    snapshot_interval_s=0.05)
        names = {p.name for p in tmp_path.iterdir()}
        for gid in range(4):
            assert f"shard-{gid}.jsonl" in names
        # Final live snapshots: one per shard, pids offset past worker gids.
        assert "metrics-4.json" in names and "metrics-5.json" in names
        assert "attribution-4.json" in names and "attribution-5.json" in names


class TestOverload:
    def test_admission_reject_accounting(self, tiny_models):
        r = run_sharded(
            tiny_models, 2, 2, trace=OVERLOAD, seed=3,
            admission=AdmissionControl(max_queue_depth=2, min_slack_ms=5.0),
        )
        assert r.rejected > 0
        # Closed accounting: every query is exactly one of the three.
        assert r.submitted == r.rejected + r.dropped + r.served
        assert r.metrics.total_queries == r.submitted
        assert r.metrics.model_query_counts[REJECTED_MODEL] == r.rejected
        assert r.admitted == r.submitted - r.rejected

    def test_drop_late_accounting(self, tiny_models):
        r = run_sharded(tiny_models, 2, 2, trace=OVERLOAD, seed=3,
                        drop_late=True)
        assert r.dropped > 0
        assert r.submitted == r.rejected + r.dropped + r.served
        assert r.metrics.model_query_counts[DROPPED_MODEL] == r.dropped

    def test_min_slack_rejects_hopeless(self, tiny_models):
        # A slack floor above the SLO rejects every query at arrival.
        r = run_sharded(
            tiny_models, 1, 2, seed=5,
            admission=AdmissionControl(min_slack_ms=1_000.0),
        )
        assert r.rejected == r.submitted > 0
        assert r.served == 0

    def test_overload_determinism(self, tiny_models):
        kwargs = dict(
            trace=OVERLOAD, seed=3, drop_late=True,
            admission=AdmissionControl(max_queue_depth=4),
        )
        a = run_sharded(tiny_models, 2, 2, **kwargs)
        b = run_sharded(tiny_models, 4, 1, **kwargs)
        assert a.metrics == b.metrics
        assert (a.rejected, a.dropped) == (b.rejected, b.dropped)

    def test_attribution_phase_split_exact(self, tiny_models):
        attributors = [
            LatencyAttributor(slo_ms=100.0, record_queries=True)
            for _ in range(2)
        ]
        controller = ShardedController(
            tiny_models, slo_ms=100.0, num_shards=2, workers_per_shard=2,
            latency_model=DeterministicLatency(), time_scale=FAST, seed=3,
            paced=False, drop_late=True,
            admission=AdmissionControl(max_queue_depth=4),
        )
        r = controller.serve(lambda s: GreedyDeadlineSelector(), OVERLOAD,
                             attributors=attributors)
        breakdowns = [b for a in attributors for b in a.breakdowns]
        assert len(breakdowns) == r.submitted
        # The split is exact by construction: components sum float-== to
        # the end-to-end latency for every query, drops included.
        for b in breakdowns:
            assert (b.queue_wait_ms + b.batch_wait_ms + b.service_ms
                    + b.drop_ms) == b.response_ms
        dropped = [b for b in breakdowns if b.dropped]
        assert len(dropped) == r.dropped + r.rejected
        assert all(b.service_ms == 0.0 for b in dropped)


class TestHotSwap:
    def test_requires_active_run(self, tiny_models):
        controller = ShardedController(
            tiny_models, 100.0, num_shards=1, workers_per_shard=1,
            latency_model=DeterministicLatency(), time_scale=FAST,
        )
        with pytest.raises(SimulationError):
            controller.hot_swap(lambda s: GreedyDeadlineSelector())

    def test_mid_run_swap_no_disruption(self, tiny_models):
        """Swapping in an equivalent selector mid-run changes nothing.

        The swap is triggered from inside a dispatch decision (so it is
        guaranteed to land mid-run), installing fresh selectors of the
        same kind — results must match a swap-free run float-exactly,
        which is precisely the "no dispatch stall, no half-applied
        policy" property.
        """
        baseline = run_sharded(tiny_models, 2, 2, paced=False)

        controller = ShardedController(
            tiny_models, slo_ms=100.0, num_shards=2, workers_per_shard=2,
            latency_model=DeterministicLatency(), time_scale=FAST, seed=1,
            paced=False,
        )
        swapped = threading.Event()

        class SwapOnce(GreedyDeadlineSelector):
            def select(self, **kwargs):
                action = super().select(**kwargs)
                if not swapped.is_set():
                    swapped.set()
                    controller.hot_swap(lambda s: GreedyDeadlineSelector())
                return action

        report = controller.serve(lambda s: SwapOnce(), TRACE)
        assert swapped.is_set()
        assert report.policy_swaps == 1
        assert report.metrics == baseline.metrics


def _ghost_policy(policy):
    """``policy`` with every action on ``fast`` renamed to an unknown model."""
    actions = {
        state: Action("ghost", a.batch_size, a.is_late) if a.model == "fast" else a
        for state, a in policy.states().items()
    }
    return Policy(policy.grid, policy.max_queue, actions, policy.metadata)


class TestUnknownModel:
    """A policy naming a model outside the model set is refused at bind."""

    @pytest.fixture
    def ghost(self, tiny_config):
        from repro.core.generator import generate_policy

        return _ghost_policy(generate_policy(tiny_config).policy)

    @pytest.mark.parametrize("as_set", [False, True])
    def test_serve_rejects_before_serving(self, tiny_models, ghost, as_set):
        policies = PolicySet([ghost]) if as_set else ghost
        calls = []

        def factory(shard_index):
            calls.append(shard_index)
            return RamsisSelector(policies)

        controller = ShardedController(
            tiny_models, slo_ms=100.0, num_shards=2, workers_per_shard=2,
            latency_model=DeterministicLatency(), time_scale=FAST, paced=False,
        )
        with pytest.raises(SimulationError, match="ghost"):
            controller.serve(factory, TRACE)
        assert calls == [0]  # refused at the first shard's bind

    def test_hot_swap_rejects_atomically(self, tiny_models, ghost):
        baseline = run_sharded(tiny_models, 2, 2)
        controller = ShardedController(
            tiny_models, slo_ms=100.0, num_shards=2, workers_per_shard=2,
            latency_model=DeterministicLatency(), time_scale=FAST, seed=1,
            paced=False,
        )
        originals, callers = [], []

        class Counting(GreedyDeadlineSelector):
            def select(self, **kwargs):
                callers.append(self)
                if len(callers) == 1:
                    with pytest.raises(SimulationError, match="ghost"):
                        controller.hot_swap(mixed)
                return super().select(**kwargs)

        def original(shard_index):
            originals.append(Counting())
            return originals[-1]

        def mixed(shard_index):
            # Shard 0's selector binds; shard 1's names an unknown model.
            if shard_index == 0:
                return Counting()
            return RamsisSelector(ghost)

        report = controller.serve(original, TRACE)
        assert report.policy_swaps == 0
        assert len(callers) == report.metrics.decisions > 1
        assert {id(c) for c in callers} <= {id(o) for o in originals}
        assert report.metrics == baseline.metrics


#: Four global workers in every layout, so all layouts are comparable.
LAYOUTS = [(1, 4), (2, 2), (4, 1)]


@st.composite
def serving_cases(draw):
    """A short random trace plus overload, drop and hot-swap settings."""
    # Mean gaps from heavy overload (late actions, full queues) to light.
    scale = draw(st.sampled_from([0.5, 2.0, 8.0]))
    n = draw(st.integers(0, 80))
    gaps = draw(st.lists(st.floats(0.0, scale), min_size=n, max_size=n))
    return dict(
        arrivals=np.cumsum(np.asarray(gaps, dtype=np.float64)),
        layout=draw(st.sampled_from(LAYOUTS)),
        depth=draw(st.none() | st.integers(1, 4)),
        min_slack=draw(st.none() | st.floats(0.0, 120.0)),
        drop_late=draw(st.booleans()),
        swap_at=draw(st.integers(0, 40)),
    )


class TestKernelProperties:
    """Invariants of the kernel-backed runtime on random traces."""

    @staticmethod
    def _serve(models, arrivals, layout, admission, drop_late,
               swap_at=None, attributors=None):
        shards, wps = layout
        controller = ShardedController(
            models, slo_ms=100.0, num_shards=shards, workers_per_shard=wps,
            latency_model=DeterministicLatency(), time_scale=FAST, seed=1,
            admission=admission, drop_late=drop_late, paced=False,
        )
        calls = []  # "old" / "new": which selectors made each decision

        class Old(GreedyDeadlineSelector):
            tag = "old"

            def select(self, **kwargs):
                if self.tag == "old" and len(calls) == swap_at:
                    controller.hot_swap(lambda s: New())
                calls.append(self.tag)
                return super().select(**kwargs)

        class New(Old):
            tag = "new"

        make = Old if swap_at is not None else GreedyDeadlineSelector
        duration_ms = float(arrivals[-1]) + 1.0 if arrivals.size else 1.0
        trace = LoadTrace.constant(100.0, duration_ms)
        report = controller.serve(
            lambda s: make(), trace, arrivals=arrivals, attributors=attributors
        )
        return report, trace, calls

    @given(case=serving_cases())
    @settings(max_examples=40, deadline=None)
    def test_invariants(self, case):
        tiny_models = make_tiny_model_set()
        arrivals, layout = case["arrivals"], case["layout"]
        admission = None
        if case["depth"] is not None or case["min_slack"] is not None:
            admission = AdmissionControl(
                max_queue_depth=case["depth"], min_slack_ms=case["min_slack"]
            )
        attributors = [
            LatencyAttributor(slo_ms=100.0, record_queries=True)
            for _ in range(layout[0])
        ]
        report, trace, calls = self._serve(
            tiny_models, arrivals, layout, admission, case["drop_late"],
            swap_at=case["swap_at"], attributors=attributors,
        )
        n = arrivals.size
        assert report.submitted == n
        assert report.submitted == report.rejected + report.dropped + report.served
        assert report.metrics.total_queries == n
        # The swap lands during decision swap_at; every later decision is
        # the new selectors'.
        swapped = case["swap_at"] < len(calls)
        assert report.policy_swaps == int(swapped)
        old = case["swap_at"] + 1 if swapped else len(calls)
        assert calls == ["old"] * old + ["new"] * (len(calls) - old)

        # Exactly one terminal event per query id, with an exact split.
        breakdowns = [b for a in attributors for b in a.breakdowns]
        assert sorted(b.query_id for b in breakdowns) == list(range(n))
        for b in breakdowns:
            assert (b.queue_wait_ms + b.batch_wait_ms + b.service_ms
                    + b.drop_ms) == b.response_ms
        assert sum(b.dropped for b in breakdowns) == report.rejected + report.dropped

        # The swap and the layout change nothing.
        for other in LAYOUTS:
            plain, _, _ = self._serve(
                tiny_models, arrivals, other, admission, case["drop_late"]
            )
            assert plain.metrics == report.metrics

        if admission is None:
            simulated = Simulation(
                SimulationConfig(
                    model_set=tiny_models, slo_ms=100.0, num_workers=4,
                    latency_model=DeterministicLatency(),
                    monitor=OracleLoadMonitor(trace),
                    drop_late=case["drop_late"],
                )
            ).run(GreedyDeadlineSelector(), trace, arrival_times=arrivals,
                  engine="fast")
            assert simulated == report.metrics


class TestAudit:
    def test_per_shard_auditors_zero_breaches(self, tiny_config):
        from repro.core.generator import generate_policy
        from repro.core.guarantees import stationary_occupancy
        from repro.core.mdp import build_worker_mdp

        generated = generate_policy(tiny_config)
        policy = generated.policy
        mdp = build_worker_mdp(tiny_config)
        occupancy = stationary_occupancy(mdp, policy).decision_conditional()
        auditors = [
            GuaranteeAuditor(
                generated.guarantees, policy=policy,
                expected_occupancy=occupancy,
            )
            for _ in range(2)
        ]
        controller = ShardedController(
            tiny_config.model_set, slo_ms=tiny_config.slo_ms, num_shards=2,
            workers_per_shard=2, latency_model=DeterministicLatency(),
            time_scale=FAST, seed=2, paced=False,
        )
        trace = LoadTrace.constant(25.0, 2_000.0)
        report = controller.serve(
            lambda s: RamsisSelector(policy), trace, auditors=auditors
        )
        assert report.submitted > 0
        for auditor in auditors:
            audit = auditor.finalize()
            assert audit.violation_breaches == 0
            assert audit.accuracy_breaches == 0
