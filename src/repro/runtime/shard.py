"""Sharded asyncio serving tier: the repo's one serving runtime.

The paper's prototype (§6) is one central controller with per-worker
model selectors.  :class:`ShardedController` reproduces it as ``S``
controller *shards*, each owning a worker group, its own selector,
auditor, attributor and metrics registry.  Shards are *logical*
partitions: every worker's dispatch coroutine runs on one asyncio event
loop in the calling thread (in-process threads under the GIL would only
add cost), so the layout fixes how selectors and observability are
partitioned, never what is decided:

- **Consistent round-robin.**  Query ``i`` is assigned to global worker
  ``i mod G`` (``G = num_shards * workers_per_shard``) and worker ``g``
  lives on shard ``g mod S``.  Per-worker arrival streams therefore depend
  only on the worker's *global* index, never on the shard layout — an
  ``S x W`` run and a ``1 x S*W`` run give every worker the identical
  stream, which is what preserves the §4.4 per-worker view kernels and the
  §5.1 guarantees per shard.
- **Deterministic virtual timelines.**  Each worker replays its stream as
  a discrete-event timeline in *virtual* milliseconds (arrival-first
  tie-break, exactly like the simulator's event loop); asyncio supplies
  the real-time execution — scaled sleeps for inference, ``asyncio.Event``
  wake-ups on arrival — but every decision, admission verdict and recorded
  timestamp is taken from the virtual timeline.  Metrics and event feeds
  are thus float-exactly identical across shard layouts and repeat runs.
- **No polling.**  Workers block on arrival events and batch-completion
  sleeps only; there is no periodic wake-up anywhere in the dispatch path.
- **Admission control and drop-late.**  :class:`AdmissionControl` bounds
  per-worker queues and rejects hopeless queries at (virtual) arrival
  time; ``drop_late=True`` mirrors the simulator's drop-the-queue
  semantics when the selected action is already late.
- **Live policy hot-swap.**  Dispatch reads the shard's ``selector``
  attribute on every decision, so :meth:`ShardedController.hot_swap` can
  atomically install freshly built selectors (e.g. from the persistent
  :class:`~repro.cache.PolicyCache`) without stalling a single batch;
  auditors follow along through ``RamsisSelector.on_policy_change``.
- **Per-shard observability.**  With a ``run_dir``, every worker writes a
  :class:`~repro.obs.aggregate.ShardTracer` feed (``shard-<gid>.jsonl``)
  in the simulator's event schema, and each shard publishes periodic
  atomic metrics/attribution snapshots from a publisher thread (the one
  thread besides the caller's, so snapshots land while the loop is busy)
  — so ``ramsis top``, ``ramsis report`` and ``ramsis explain`` work
  unchanged against a sharded run.

Only per-worker-queue selectors are served: the central-queue baselines
(``QueueScope.CENTRAL``) need the simulator's central discipline.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Sequence, Tuple

import numpy as np

from repro.arrivals.distributions import ArrivalDistribution
from repro.arrivals.traces import LoadTrace
from repro.errors import SimulationError
from repro.obs.metrics import MetricsRegistry
from repro.profiles.models import ModelSet
from repro.runtime.clock import VirtualClock
from repro.runtime.workload import WorkloadGenerator
from repro.selectors.base import ModelSelector, QueueScope, SelectorContext
from repro.sim.latency_model import LatencyModel, StochasticLatency
from repro.sim.metrics import MetricsCollector, SimulationMetrics
from repro.sim.monitor import OracleLoadMonitor
from repro.sim.queries import Query
from repro.sim.simulator import sorted_arrivals

__all__ = [
    "AdmissionControl",
    "ShardedController",
    "ShardedReport",
    "REJECTED_MODEL",
    "DROPPED_MODEL",
]

#: Sentinel model labels for terminal events that never ran inference.
REJECTED_MODEL = "<rejected>"
DROPPED_MODEL = "<dropped>"

_INF = float("inf")


@dataclass(frozen=True)
class AdmissionControl:
    """Overload policy evaluated at (virtual) arrival time.

    Both checks are deterministic functions of the worker's virtual
    timeline, so admission decisions — like everything else in the
    sharded runtime — are identical across shard layouts and repeat runs.

    Parameters
    ----------
    max_queue_depth:
        Reject when the target worker already holds this many queued
        queries (the in-flight batch does not count).  ``None`` leaves
        the queue unbounded.
    min_slack_ms:
        Slack-aware rejection: estimate the earliest service start as
        ``max(arrival, in-flight completion)`` and reject when the
        query's remaining slack at that point falls below this floor.
        Conservative by construction — queued-but-undispatched work is
        not estimated (the depth bound exists for that).  ``None``
        disables the check.
    """

    max_queue_depth: Optional[int] = None
    min_slack_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise SimulationError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )


@dataclass(frozen=True)
class ShardedReport:
    """Outcome of one sharded serving run.

    ``submitted == rejected + dropped + served`` and every query appears
    exactly once in ``metrics`` (rejections and drops under the sentinel
    model labels), so the accounting is closed — the overload tests
    assert these identities exactly.
    """

    metrics: SimulationMetrics
    wall_seconds: float
    submitted: int
    rejected: int
    dropped: int
    served: int
    num_shards: int
    workers_per_shard: int
    #: End-to-end throughput: terminal events per wall second.
    qps: float
    #: Paced mode only: p99 wall-clock lag of batch completions behind
    #: their virtual completion instants (milliseconds of wall time).
    p99_added_latency_ms: float
    #: Hot-swap epochs performed during the run.
    policy_swaps: int = 0

    @property
    def admitted(self) -> int:
        """Queries that passed admission control."""
        return self.submitted - self.rejected


class _WorkerState:
    """One worker's deterministic timeline plus its asyncio plumbing."""

    __slots__ = (
        "gid", "arrivals", "released", "ai", "queue", "in_flight",
        "t_done", "event", "latency", "tracer", "submitted", "rejected",
        "dropped", "decisions", "completions", "added_wall_ms",
    )

    def __init__(self, gid: int, arrivals: List[float], latency: LatencyModel):
        self.gid = gid
        self.arrivals = arrivals
        self.released = 0
        self.ai = 0
        self.queue: Deque[Query] = deque()
        #: ``(model_name, model_accuracy, served)`` or ``None`` when idle.
        self.in_flight: Optional[Tuple[str, float, List[Query]]] = None
        self.t_done = _INF
        self.event: Optional[asyncio.Event] = None
        self.latency = latency
        self.tracer = None
        self.submitted = 0
        self.rejected = 0
        self.dropped = 0
        #: Replay buffers folded into the final collector in global worker
        #: order — the fold order is a pure function of the worker's
        #: stream, never of the shard layout or wall-clock interleaving.
        self.decisions: List[Tuple[int, str]] = []
        self.completions: List[Tuple[str, float, float, bool]] = []
        self.added_wall_ms: List[float] = []


class _Shard:
    """One logical controller shard: a worker group and its selector."""

    def __init__(self, index: int, workers: List[_WorkerState]):
        self.index = index
        self.workers = workers
        self.selector: Optional[ModelSelector] = None
        self.auditor = None
        self.attributor = None
        self.registry: Optional[MetricsRegistry] = None
        self.live: Optional[MetricsCollector] = None


class ShardedController:
    """N logical controller shards serving one trace deterministically.

    Parameters
    ----------
    model_set, slo_ms, max_batch_size:
        The served models, the latency SLO and the largest batch.
    latency_model:
        Execution-latency model (default: stochastic, seeded
        ``seed + 1``).  Worker ``g`` clones it with ``seed + 17 * g`` —
        the same per-global-worker seeding regardless of shard layout.
    time_scale:
        Wall seconds per virtual second in paced mode (``0.1`` replays
        10x faster than real time, preserving every relative timing).
    seed:
        Seeds arrival sampling and the per-worker latency clones.
    num_shards, workers_per_shard:
        The shard topology; ``G = num_shards * workers_per_shard`` global
        workers in total, all served on one event loop.
    admission:
        Optional :class:`AdmissionControl` applied at arrival.
    drop_late:
        Drop the whole worker queue when the selected action is already
        late (the simulator's ``drop_late`` semantics).
    paced:
        ``True`` replays arrivals on the scaled wall clock (asyncio
        event wake-ups, scaled inference sleeps) and measures added
        latency; ``False`` runs the same event-driven loops flat out —
        the sustained-throughput stress mode.
    run_dir:
        With a directory, every worker writes a ``shard-<gid>.jsonl``
        event feed and every shard publishes periodic live
        metrics/attribution snapshots there;
        :func:`repro.obs.aggregate.merge_run_dir` folds the feeds back
        into one run — float-exactly, in any shard layout.

    Anticipated load comes from the trace oracle
    (:class:`~repro.sim.monitor.OracleLoadMonitor`, §7.2's monitor
    setting): a deterministic function of virtual time, so decisions are
    layout-independent and match the simulator's.
    """

    def __init__(
        self,
        model_set: ModelSet,
        slo_ms: float,
        num_shards: int,
        workers_per_shard: int,
        max_batch_size: int = 32,
        latency_model: Optional[LatencyModel] = None,
        time_scale: float = 0.05,
        seed: int = 0,
        admission: Optional[AdmissionControl] = None,
        drop_late: bool = False,
        paced: bool = True,
        run_dir: Optional[str] = None,
        snapshot_interval_s: float = 0.5,
    ) -> None:
        if num_shards < 1:
            raise SimulationError(f"num_shards must be >= 1, got {num_shards}")
        if workers_per_shard < 1:
            raise SimulationError(
                f"workers_per_shard must be >= 1, got {workers_per_shard}"
            )
        self._model_set = model_set
        self._slo_ms = slo_ms
        self._num_shards = num_shards
        self._workers_per_shard = workers_per_shard
        self._total_workers = num_shards * workers_per_shard
        self._max_batch_size = max_batch_size
        self._latency_model = latency_model or StochasticLatency(seed=seed + 1)
        self._time_scale = time_scale
        self._seed = seed
        self._admission = admission
        self._drop_late = drop_late
        self._paced = paced
        self._run_dir = run_dir
        self._snapshot_interval_s = snapshot_interval_s
        self._shards: List[_Shard] = []
        self._clock: Optional[VirtualClock] = None
        self._anticipated_load: Optional[Callable[[float], float]] = None
        self._policy_swaps = 0

    # ------------------------------------------------------------------
    # Hot swap
    # ------------------------------------------------------------------
    def hot_swap(self, selector_factory: Callable[[int], ModelSelector]) -> None:
        """Atomically install fresh selectors on every shard, mid-run.

        Builds and binds the new selector per shard *before* publishing
        it, then swaps the shard's ``selector`` reference — a single
        atomic store the dispatch loop picks up on its next decision, so
        no batch is ever stalled or served by a half-initialized
        selector.  A :class:`~repro.selectors.ramsis.RamsisSelector`
        built with ``on_policy_change`` re-arms the shard's auditor as a
        side effect of its first post-swap decision.  A central-queue
        selector is rejected before any shard's selector changes.
        """
        if not self._shards:
            raise SimulationError("hot_swap() requires an active or completed run")
        fresh = self._build_selectors(selector_factory)
        for shard, selector in zip(self._shards, fresh):
            shard.selector = selector
        self._policy_swaps += 1

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve(
        self,
        selector_factory: Callable[[int], ModelSelector],
        trace: LoadTrace,
        pattern: Optional[ArrivalDistribution] = None,
        arrivals: Optional[np.ndarray] = None,
        auditors: Optional[Sequence[object]] = None,
        attributors: Optional[Sequence[object]] = None,
    ) -> ShardedReport:
        """Serve one trace across the shards; blocks until drained.

        ``selector_factory(shard_index)`` builds each shard's selector;
        it must keep per-worker queues (``QueueScope.PER_WORKER``).
        ``arrivals`` replays an explicit timestamp array (sorted first
        when it is not monotone, exactly as ``Simulation.run`` does)
        instead of sampling ``trace`` under ``pattern``.
        ``auditors`` / ``attributors`` optionally attach one
        :class:`~repro.obs.audit.GuaranteeAuditor` /
        :class:`~repro.obs.attribution.LatencyAttributor` per shard —
        they receive the shard's lifecycle events (virtual timestamps)
        as a direct tap.

        Every worker's dispatch loop (and, paced, the arrival replay)
        runs as a coroutine on one event loop in the calling thread, so
        selectors and observers are only ever called from this thread.
        """
        if auditors is not None and len(auditors) != self._num_shards:
            raise SimulationError("need one auditor entry per shard")
        if attributors is not None and len(attributors) != self._num_shards:
            raise SimulationError("need one attributor entry per shard")
        selectors = self._build_selectors(selector_factory)

        if arrivals is None:
            arrivals = WorkloadGenerator(
                trace, self._slo_ms, pattern, seed=self._seed
            ).sample()
        else:
            arrivals = sorted_arrivals(arrivals)
        submitted = int(arrivals.shape[0])
        self._anticipated_load = OracleLoadMonitor(trace).anticipated_load_qps

        # Global round-robin: query i -> worker i mod G; worker g -> shard
        # g mod S.  Each worker's stream is a pure function of its global
        # index.
        total = self._total_workers
        workers_by_gid = [
            _WorkerState(
                gid,
                arrivals[gid::total].tolist(),
                self._latency_model.clone(self._seed + 17 * gid),
            )
            for gid in range(total)
        ]
        shards = [
            _Shard(s, workers_by_gid[s::self._num_shards])
            for s in range(self._num_shards)
        ]
        for shard, selector in zip(shards, selectors):
            shard.selector = selector
            if auditors is not None:
                shard.auditor = auditors[shard.index]
            if attributors is not None:
                shard.attributor = attributors[shard.index]
        self._shards = shards
        self._policy_swaps = 0

        run_path = None
        if self._run_dir is not None:
            from pathlib import Path

            from repro.obs.aggregate import ShardTracer
            from repro.obs.attribution import LatencyAttributor

            run_path = Path(self._run_dir)
            run_path.mkdir(parents=True, exist_ok=True)
            for w in workers_by_gid:
                w.tracer = ShardTracer(
                    run_path / f"shard-{w.gid}.jsonl", pid=w.gid
                )
            for shard in shards:
                shard.registry = MetricsRegistry()
                shard.live = MetricsCollector(
                    track_responses=False, registry=shard.registry
                )
                if shard.attributor is None:
                    shard.attributor = LatencyAttributor(slo_ms=self._slo_ms)

        if not self._paced:
            for w in workers_by_gid:
                w.released = len(w.arrivals)

        self._clock = VirtualClock(self._time_scale)
        snapshot_stop = threading.Event()
        snapshot_thread: Optional[threading.Thread] = None
        if run_path is not None:

            def _publish() -> None:
                while not snapshot_stop.wait(self._snapshot_interval_s):
                    self._write_snapshots(run_path)

            snapshot_thread = threading.Thread(
                target=_publish, name="shard-snapshot", daemon=True
            )
            snapshot_thread.start()

        import time as _time

        start_wall = _time.monotonic()
        try:
            asyncio.run(self._serve_loop(workers_by_gid))
        finally:
            snapshot_stop.set()
            if snapshot_thread is not None:
                snapshot_thread.join(timeout=5.0)
            if run_path is not None:
                for w in workers_by_gid:
                    w.tracer.close()
        wall = _time.monotonic() - start_wall
        if run_path is not None:
            self._write_snapshots(run_path)

        # Float-exact fold: one collector, global worker order, each
        # worker's records in its own (deterministic) event order.  The
        # same flat fold `reconstruct_metrics` performs on the merged
        # feed, so trace reconstruction matches these metrics exactly.
        collector = MetricsCollector()
        rejected = dropped = 0
        added: List[float] = []
        for w in workers_by_gid:
            for batch, model_name in w.decisions:
                collector.record_decision(batch, model_name=model_name)
            for model_name, accuracy, response_ms, satisfied in w.completions:
                collector.record_completion(
                    model_name=model_name,
                    model_accuracy=accuracy,
                    response_ms=response_ms,
                    satisfied=satisfied,
                )
            rejected += w.rejected
            dropped += w.dropped
            added.extend(w.added_wall_ms)
        metrics = collector.finalize()

        if added:
            from repro._util import percentile

            p99_added = percentile(sorted(added), 99.0)
        else:
            p99_added = 0.0
        return ShardedReport(
            metrics=metrics,
            wall_seconds=wall,
            submitted=submitted,
            rejected=rejected,
            dropped=dropped,
            served=submitted - rejected - dropped,
            num_shards=self._num_shards,
            workers_per_shard=self._workers_per_shard,
            qps=(metrics.total_queries / wall) if wall > 0 else 0.0,
            p99_added_latency_ms=p99_added,
            policy_swaps=self._policy_swaps,
        )

    def _build_selectors(
        self, selector_factory: Callable[[int], ModelSelector]
    ) -> List[ModelSelector]:
        """One bound per-worker-queue selector per shard, in shard order."""
        context = SelectorContext(
            model_set=self._model_set,
            slo_ms=self._slo_ms,
            num_workers=self._total_workers,
            max_batch_size=self._max_batch_size,
        )
        selectors = []
        for index in range(self._num_shards):
            selector = selector_factory(index)
            if selector.queue_scope is QueueScope.CENTRAL:
                raise SimulationError(
                    f"selector {selector.name} needs a central queue; the "
                    "runtime serves per-worker queues only (use the "
                    "simulator for central-queue baselines)"
                )
            selector.bind(context)
            selectors.append(selector)
        return selectors

    # ------------------------------------------------------------------
    # The event loop: worker dispatch coroutines plus the paced replay
    # ------------------------------------------------------------------
    async def _serve_loop(self, workers: List[_WorkerState]) -> None:
        shards = self._shards
        coros = [
            self._run_worker(shards[w.gid % self._num_shards], w)
            for w in workers
        ]
        if self._paced:
            for w in workers:
                w.event = asyncio.Event()
            coros.append(self._replay(workers))
        # Virtual time starts once the loop is up, so loop start-up is
        # never charged to the first arrivals as added latency.
        self._clock.restart()
        await asyncio.gather(*coros)

    async def _replay(self, workers: List[_WorkerState]) -> None:
        """Release every arrival at its scaled wall time, in global order.

        Global query ``i`` is worker ``i mod G``'s ``i div G``-th
        arrival, so walking ``i`` visits the sorted global schedule
        without materialising it.  A release appends nothing (workers
        already know their streams) — it only advances the worker's
        ``released`` watermark and sets its event, waking the dispatch
        loop.
        """
        wall_s_until = self._clock.wall_s_until
        total = len(workers)
        for i in range(sum(len(w.arrivals) for w in workers)):
            k, gid = divmod(i, total)
            w = workers[gid]
            delay_s = wall_s_until(w.arrivals[k])
            if delay_s > 0:
                await asyncio.sleep(delay_s)
            w.released = k + 1
            w.event.set()

    async def _run_worker(self, shard: _Shard, w: _WorkerState) -> None:
        """One worker's event-driven deterministic dispatch loop."""
        arrivals = w.arrivals
        n = len(arrivals)
        paced = self._paced
        wall_s_until = self._clock.wall_s_until
        events = 0
        while w.ai < n or w.in_flight is not None:
            next_arrival = arrivals[w.ai] if w.ai < n else _INF
            next_done = w.t_done if w.in_flight is not None else _INF
            # Arrival-first tie-break: identical to the simulator's
            # event loop, so per-worker timelines agree event for event.
            if next_arrival <= next_done:
                if paced:
                    while w.released <= w.ai:
                        w.event.clear()
                        await w.event.wait()
                k = w.ai
                w.ai += 1
                self._on_arrival(shard, w, k, next_arrival)
            else:
                if paced:
                    delay_s = wall_s_until(next_done)
                    if delay_s > 0:
                        await asyncio.sleep(delay_s)
                self._on_batch_done(shard, w, next_done)
            events += 1
            if not paced and (events & 2047) == 0:
                # Cooperative yield so sibling workers interleave even
                # when no sleep is ever awaited.
                await asyncio.sleep(0)
        assert not w.queue, "worker exited with queued queries"

    # ------------------------------------------------------------------
    # Deterministic event handlers (virtual-time domain)
    # ------------------------------------------------------------------
    def _on_arrival(self, shard: _Shard, w: _WorkerState, k: int, t: float) -> None:
        gid = w.gid
        query = Query.create(gid + k * self._total_workers, t, self._slo_ms)
        w.submitted += 1
        tracer = w.tracer
        if tracer is not None:
            tracer.instant(
                "arrival",
                "balancer",
                t,
                args={"query": query.query_id, "worker": gid},
            )
        if shard.auditor is not None:
            shard.auditor.instant(
                "arrival",
                "balancer",
                t,
                args={"query": query.query_id, "worker": gid},
            )

        admission = self._admission
        if admission is not None:
            reject = False
            if (
                admission.max_queue_depth is not None
                and len(w.queue) >= admission.max_queue_depth
            ):
                reject = True
            elif admission.min_slack_ms is not None:
                start = t if w.in_flight is None else max(t, w.t_done)
                if query.deadline_ms - start < admission.min_slack_ms:
                    reject = True
            if reject:
                w.rejected += 1
                self._record_terminal(
                    shard, w, query, t, REJECTED_MODEL, 0.0, rejected=True
                )
                return

        w.queue.append(query)
        if w.in_flight is None:
            self._dispatch(shard, w, t)

    def _dispatch(self, shard: _Shard, w: _WorkerState, t: float) -> None:
        head = w.queue[0]
        queue_len = len(w.queue)
        slack_ms = head.slack_at(t)
        anticipated = self._anticipated_load(t)
        action = shard.selector.select(
            queue_length=queue_len,
            earliest_slack_ms=slack_ms,
            now_ms=t,
            anticipated_load_qps=anticipated,
        )
        if action.is_late and self._drop_late:
            # Drop the whole queue (the (n, T_j) abstraction only knows
            # the earliest deadline is missed) and stay idle.
            while w.queue:
                victim = w.queue.popleft()
                w.dropped += 1
                self._record_terminal(
                    shard, w, victim, t, DROPPED_MODEL, t - victim.arrival_ms
                )
            return
        batch = min(action.batch_size, queue_len)
        if batch < 1:
            raise SimulationError(
                f"selector {shard.selector.name} returned batch {batch}"
            )
        served = [w.queue.popleft() for _ in range(batch)]
        model = self._model_set.get(action.model)
        exec_ms = w.latency.execution_ms(model, batch)
        w.decisions.append((batch, model.name))
        if shard.live is not None:
            shard.live.record_decision(batch, model_name=model.name)
        w.in_flight = (model.name, model.accuracy, served)
        w.t_done = t + exec_ms

        tracer = w.tracer
        auditor = shard.auditor
        if tracer is not None or auditor is not None:
            track = f"worker-{w.gid}"
            serve_args = {
                "worker": w.gid,
                "model": model.name,
                "batch": batch,
                "queue_len": queue_len,
                "slack_ms": slack_ms,
                "anticipated_qps": anticipated,
            }
            if tracer is not None:
                tracer.complete("serve", track, t, exec_ms, args=serve_args)
                for query in served:
                    tracer.instant(
                        "service_start",
                        track,
                        t,
                        args={
                            "query": query.query_id,
                            "model": model.name,
                            "batch": batch,
                            "wait_ms": t - query.arrival_ms,
                        },
                    )
            if auditor is not None:
                auditor.complete("serve", track, t, exec_ms, args=serve_args)
        if shard.attributor is not None:
            shard.attributor.observe_decision(w.gid, model.name, batch, exec_ms)
            for query in served:
                shard.attributor.observe_service_start(
                    query.query_id, w.gid, model.name, batch, t - query.arrival_ms
                )

    def _on_batch_done(self, shard: _Shard, w: _WorkerState, t: float) -> None:
        model_name, accuracy, served = w.in_flight
        w.in_flight = None
        w.t_done = _INF
        for query in served:
            satisfied = t <= query.deadline_ms
            response_ms = t - query.arrival_ms
            w.completions.append((model_name, accuracy, response_ms, satisfied))
            if shard.live is not None:
                shard.live.record_completion(
                    model_name=model_name,
                    model_accuracy=accuracy,
                    response_ms=response_ms,
                    satisfied=satisfied,
                )
            args = {
                "query": query.query_id,
                "worker": w.gid,
                "model": model_name,
                "satisfied": satisfied,
                "accuracy": accuracy,
                "response_ms": response_ms,
            }
            if w.tracer is not None:
                w.tracer.instant("completion", f"worker-{w.gid}", t, args=args)
            if shard.auditor is not None:
                shard.auditor.instant(
                    "completion", f"worker-{w.gid}", t, args=args
                )
            if shard.attributor is not None:
                shard.attributor.observe_completion(
                    query.query_id, w.gid, model_name, response_ms, satisfied,
                    t_ms=t,
                )
        if self._paced:
            lag_virtual = self._clock.now_ms() - t
            w.added_wall_ms.append(max(0.0, lag_virtual) * self._time_scale)
        if w.queue:
            self._dispatch(shard, w, t)

    def _record_terminal(
        self,
        shard: _Shard,
        w: _WorkerState,
        query: Query,
        t: float,
        model_name: str,
        response_ms: float,
        rejected: bool = False,
    ) -> None:
        """Terminal accounting for a query that never ran inference."""
        w.completions.append((model_name, 0.0, response_ms, False))
        if shard.live is not None:
            shard.live.record_completion(
                model_name=model_name,
                model_accuracy=0.0,
                response_ms=response_ms,
                satisfied=False,
            )
        args = {
            "query": query.query_id,
            "worker": w.gid,
            "model": model_name,
            "satisfied": False,
            "dropped": True,
            "accuracy": 0.0,
            "response_ms": response_ms,
        }
        if rejected:
            args["rejected"] = True
        if w.tracer is not None:
            w.tracer.instant("completion", f"worker-{w.gid}", t, args=args)
        if shard.auditor is not None:
            shard.auditor.instant("completion", f"worker-{w.gid}", t, args=args)
        if shard.attributor is not None:
            shard.attributor.observe_completion(
                query.query_id, w.gid, model_name, response_ms, False,
                t_ms=t, dropped=True,
            )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _write_snapshots(self, run_path) -> None:
        from repro.obs.aggregate import write_live_snapshot

        for shard in self._shards:
            if shard.registry is None and shard.attributor is None:
                continue
            write_live_snapshot(
                run_path,
                registry=shard.registry,
                attributor=shard.attributor,
                pid=self._total_workers + shard.index,
            )
