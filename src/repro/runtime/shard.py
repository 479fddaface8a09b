"""Sharded serving tier: the repo's one serving runtime.

The paper's prototype (§6) is one central controller with per-worker
model selectors.  :class:`ShardedController` reproduces it as ``S``
controller *shards*, each owning a worker group, its own selector,
auditor, attributor and metrics registry.  Shards are *logical*
partitions of selectors and observability: the controller is a pacing
shell over the simulator's per-worker event kernel
(:func:`repro.sim.kernel.serve_per_worker`), which runs every worker's
timeline in one loop in the calling thread.  The layout therefore fixes
how selectors and observability are partitioned, never what is decided:

- **Consistent round-robin.**  Query ``i`` is assigned to global worker
  ``i mod G`` (``G = num_shards * workers_per_shard``) and worker ``g``
  lives on shard ``g mod S``.  Per-worker arrival streams therefore depend
  only on the worker's *global* index, never on the shard layout — an
  ``S x W`` run and a ``1 x S*W`` run give every worker the identical
  stream, which is what preserves the §4.4 per-worker view kernels and the
  §5.1 guarantees per shard.
- **One virtual timeline.**  Every decision, admission verdict and
  recorded timestamp is taken in virtual milliseconds by the kernel the
  simulator runs, so metrics equal the simulator's fast engine on every
  field and are float-exactly identical across shard layouts, repeat
  runs, and paced or unpaced serving.
- **Pacing hook.**  Paced mode passes the kernel a ``pace`` hook that
  sleeps until each event's scaled wall time
  (:meth:`~repro.runtime.clock.VirtualClock.wall_s_until`, an absolute
  deadline, so oversleeps never accumulate) and records how far batch
  completions lag it.  Unpaced serving is the bare kernel.
- **Admission control and drop-late.**  :class:`AdmissionControl` bounds
  per-worker queues and rejects hopeless queries at (virtual) arrival
  time; ``drop_late=True`` mirrors the simulator's drop-the-queue
  semantics when the selected action is already late.
- **Live policy hot-swap.**  The kernel reads the per-worker selector
  list on every decision, so :meth:`ShardedController.hot_swap` can
  atomically install freshly built selectors (e.g. from the persistent
  :class:`~repro.cache.PolicyCache`) without stalling a single batch;
  auditors follow along through ``RamsisSelector.on_policy_change``.
- **Per-shard observability.**  Each worker's kernel observer fans its
  events out, in global virtual-time order, to its shard's auditor,
  attributor and live collector and — with a ``run_dir`` — to its own
  :class:`~repro.obs.aggregate.ShardTracer` feed (``shard-<gid>.jsonl``)
  in the simulator's event schema.  Each shard publishes periodic atomic
  metrics/attribution snapshots from a publisher thread (the one thread
  besides the caller's, so snapshots land while the loop is busy) — so
  ``ramsis top``, ``ramsis report`` and ``ramsis explain`` work
  unchanged against a sharded run.

Only per-worker-queue selectors are served: the central-queue baselines
(``QueueScope.CENTRAL``) need the simulator's central discipline.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro._util import percentile
from repro.arrivals.distributions import ArrivalDistribution
from repro.arrivals.traces import LoadTrace
from repro.errors import SimulationError
from repro.obs.metrics import MetricsRegistry
from repro.profiles.models import ModelSet
from repro.runtime.clock import VirtualClock
from repro.runtime.workload import WorkloadGenerator
from repro.selectors.base import ModelSelector, QueueScope, SelectorContext
from repro.sim.kernel import DROPPED_MODEL, REJECTED_MODEL, serve_per_worker
from repro.sim.latency_model import LatencyModel, StochasticLatency
from repro.sim.metrics import MetricsCollector, SimulationMetrics
from repro.sim.monitor import OracleLoadMonitor
from repro.sim.simulator import sorted_arrivals

__all__ = [
    "AdmissionControl",
    "ShardedController",
    "ShardedReport",
    "REJECTED_MODEL",
    "DROPPED_MODEL",
]


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

    def admits(self, queue_depth: int, slack_ms: float) -> bool:
        """The event kernel's ``admit`` check: ``queue_depth`` queued
        queries ahead, ``slack_ms`` left at the earliest service start."""
        if self.max_queue_depth is not None and queue_depth >= self.max_queue_depth:
            return False
        return self.min_slack_ms is None or slack_ms >= self.min_slack_ms


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


class _Shard:
    """One logical controller shard's observability."""

    def __init__(self, index: int):
        self.index = index
        self.auditor = None
        self.attributor = None
        self.registry: Optional[MetricsRegistry] = None
        self.live: Optional[MetricsCollector] = None


class _WorkerTap:
    """One worker's :class:`~repro.sim.kernel.KernelObserver`.

    Fans each event out to the worker's
    :class:`~repro.obs.aggregate.ShardTracer` feed and to its shard's live
    collector, auditor and attributor, in the simulator's event schema
    with virtual timestamps.
    """

    __slots__ = ("track", "tracer", "sinks", "attributor", "live", "accuracy_of", "t_ms")

    def __init__(self, gid: int, shard: _Shard, tracer, accuracy_of) -> None:
        self.track = f"worker-{gid}"
        self.tracer = tracer
        #: The feed and the auditor take the same arrival, serve and
        #: completion events (service starts go to the feed only).
        self.sinks = [sink for sink in (tracer, shard.auditor) if sink is not None]
        self.attributor = shard.attributor
        self.live = shard.live
        self.accuracy_of = accuracy_of
        #: Virtual time of the latest decision (its service starts share it).
        self.t_ms = 0.0

    def observe_arrival(self, query_id: int, worker: int, t_ms: float) -> None:
        if self.sinks:
            args = {"query": query_id, "worker": worker}
            for sink in self.sinks:
                sink.instant("arrival", "balancer", t_ms, args=args)

    def observe_decision(
        self, worker, model, batch, exec_ms, t_ms, queue_len, slack_ms,
        anticipated_qps,
    ) -> None:
        self.t_ms = t_ms
        if self.live is not None:
            self.live.record_decision(batch, model_name=model)
        if self.sinks:
            args = {
                "worker": worker,
                "model": model,
                "batch": batch,
                "queue_len": queue_len,
                "slack_ms": slack_ms,
                "anticipated_qps": anticipated_qps,
            }
            for sink in self.sinks:
                sink.complete("serve", self.track, t_ms, exec_ms, args=args)
        if self.attributor is not None:
            self.attributor.observe_decision(worker, model, batch, exec_ms)

    def observe_service_start(self, query_id, worker, model, batch, wait_ms) -> None:
        if self.tracer is not None:
            self.tracer.instant(
                "service_start",
                self.track,
                self.t_ms,
                args={
                    "query": query_id,
                    "model": model,
                    "batch": batch,
                    "wait_ms": wait_ms,
                },
            )
        if self.attributor is not None:
            self.attributor.observe_service_start(
                query_id, worker, model, batch, wait_ms
            )

    def observe_completion(
        self, query_id, worker, model, response_ms, satisfied, t_ms,
        dropped=False,
    ) -> None:
        accuracy = 0.0 if dropped else self.accuracy_of[model]
        if self.live is not None:
            self.live.record_completion(
                model_name=model,
                model_accuracy=accuracy,
                response_ms=response_ms,
                satisfied=satisfied,
            )
        if self.sinks:
            args = {
                "query": query_id,
                "worker": worker,
                "model": model,
                "satisfied": satisfied,
                "accuracy": accuracy,
                "response_ms": response_ms,
            }
            if dropped:
                args["dropped"] = True
                if model == REJECTED_MODEL:
                    args["rejected"] = True
            for sink in self.sinks:
                sink.instant("completion", self.track, t_ms, args=args)
        if self.attributor is not None:
            self.attributor.observe_completion(
                query_id, worker, model, response_ms, satisfied,
                t_ms=t_ms, dropped=dropped,
            )


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
        ``True`` holds every event until its scaled wall time (arrivals
        and inference completions alike) and measures added latency;
        ``False`` runs the same event kernel flat out — the
        sustained-throughput stress mode.
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
        #: Global worker g's selector, read by the kernel on every decision.
        self._selectors: List[ModelSelector] = []
        self._policy_swaps = 0

    # ------------------------------------------------------------------
    # Hot swap
    # ------------------------------------------------------------------
    def hot_swap(self, selector_factory: Callable[[int], ModelSelector]) -> None:
        """Atomically install fresh selectors on every shard, mid-run.

        Builds and binds the new selector per shard *before* publishing
        any, then rewrites the per-worker selector list the event kernel
        reads on every decision — so no batch is ever stalled or served by
        a half-initialized selector.  A
        :class:`~repro.selectors.ramsis.RamsisSelector` built with
        ``on_policy_change`` re-arms the shard's auditor as a side effect
        of its first post-swap decision.  A selector that cannot bind (a
        central-queue selector, or a policy naming an unknown model) is
        rejected before any shard's selector changes.
        """
        if not self._shards:
            raise SimulationError("hot_swap() requires an active or completed run")
        self._selectors[:] = self._per_worker(self._build_selectors(selector_factory))
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
        they receive the shard's lifecycle events (virtual timestamps,
        global virtual-time order) as a direct tap.

        The whole run is one call of the event kernel
        (:func:`~repro.sim.kernel.serve_per_worker`) in the calling
        thread, so selectors and observers are only ever called from it.
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

        shards = [_Shard(s) for s in range(self._num_shards)]
        for shard in shards:
            if auditors is not None:
                shard.auditor = auditors[shard.index]
            if attributors is not None:
                shard.attributor = attributors[shard.index]
        self._shards = shards
        self._selectors = self._per_worker(selectors)
        self._policy_swaps = 0

        # Global round-robin: query i -> worker i mod G; worker g -> shard
        # g mod S.  Each worker's stream, shard taps and latency clone are
        # a pure function of its global index.
        total = self._total_workers
        tracers: List[Optional[object]] = [None] * total
        run_path = None
        if self._run_dir is not None:
            from pathlib import Path

            from repro.obs.aggregate import ShardTracer
            from repro.obs.attribution import LatencyAttributor

            run_path = Path(self._run_dir)
            run_path.mkdir(parents=True, exist_ok=True)
            tracers = [
                ShardTracer(run_path / f"shard-{gid}.jsonl", pid=gid)
                for gid in range(total)
            ]
            for shard in shards:
                shard.registry = MetricsRegistry()
                shard.live = MetricsCollector(
                    track_responses=False, registry=shard.registry
                )
                if shard.attributor is None:
                    shard.attributor = LatencyAttributor(slo_ms=self._slo_ms)
        observers = None
        if run_path is not None or auditors is not None or attributors is not None:
            accuracy_of = {m.name: m.accuracy for m in self._model_set}
            observers = [
                _WorkerTap(gid, shards[gid % self._num_shards], tracers[gid],
                           accuracy_of)
                for gid in range(total)
            ]

        clock = VirtualClock(self._time_scale)
        added: List[float] = []
        pace = None
        if self._paced:
            wall_s_until = clock.wall_s_until
            now_ms = clock.now_ms
            scale = self._time_scale

            def pace(t_ms: float, completion: bool) -> None:
                delay_s = wall_s_until(t_ms)
                if delay_s > 0:
                    time.sleep(delay_s)
                if completion:
                    added.append(max(0.0, now_ms() - t_ms) * scale)

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

        latency_models = [
            self._latency_model.clone(self._seed + 17 * gid) for gid in range(total)
        ]
        admission = self._admission
        start_wall = time.monotonic()
        clock.restart()
        try:
            metrics = serve_per_worker(
                arrivals,
                self._slo_ms,
                self._model_set,
                self._selectors,
                latency_models,
                OracleLoadMonitor(trace),
                drop_late=self._drop_late,
                admit=admission.admits if admission is not None else None,
                observers=observers,
                pace=pace,
            )
        finally:
            snapshot_stop.set()
            if snapshot_thread is not None:
                snapshot_thread.join(timeout=5.0)
            for tracer in tracers:
                if tracer is not None:
                    tracer.close()
        wall = time.monotonic() - start_wall
        if run_path is not None:
            self._write_snapshots(run_path)

        counts = metrics.model_query_counts
        rejected = counts.get(REJECTED_MODEL, 0)
        dropped = counts.get(DROPPED_MODEL, 0)
        p99_added = percentile(sorted(added), 99.0) if added else 0.0
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

    def _per_worker(self, selectors: List[ModelSelector]) -> List[ModelSelector]:
        """Global worker ``g``'s selector: shard ``g mod S``'s."""
        return [selectors[g % self._num_shards] for g in range(self._total_workers)]

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
