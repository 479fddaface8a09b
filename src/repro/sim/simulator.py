"""The discrete-event ISS simulator (§6).

Replays a trace of query arrivals against a cluster of ``K`` workers and a
model selector, tracking queue states, worker busy periods, and per-query
outcomes.  Two scheduling disciplines are supported, matching how the paper
runs RAMSIS and its baselines in the same framework:

- **per-worker queues** (RAMSIS, §3.2): the load balancer assigns each
  arriving query to a worker queue; each worker's model selector serves its
  own queue in deadline order;
- **central queue** (Jellyfish+/ModelSwitching, §7): idle workers eagerly
  grab batches from the shared queue, batch size capped by the baseline's
  adaptive-batching rule.

The event loop merges the (pre-sampled, sorted) arrival stream with a heap
of service completions, so the run cost is O((arrivals + decisions) log K).
Queries are never dropped — like the paper's evaluation, late queries are
"better served late than never" (§4.3.1).

Two interchangeable event-loop engines implement the same semantics:

- :meth:`Simulation.reference_event_loop` — the straightforward loop with
  per-query :class:`~repro.sim.queries.Query` objects and inline
  observability hooks.  It serves both as the traced path (tracer or
  registry attached) and as the golden reference the equivalence suite
  pins the fast engine against.
- the **fast path** — used automatically when no tracer/registry is
  attached: queries are array-backed records (index into the arrival /
  deadline arrays instead of an object per query), queue lengths are
  maintained incrementally rather than rebuilt per arrival, deterministic
  execution latencies resolve through a per-worker ``(model, batch) ->
  exec_ms`` table, and metric accumulation is inlined.  The default
  configuration (per-worker queues, round-robin balancer, built-in
  monitor) runs :func:`repro.sim.kernel.serve_per_worker`, the one
  per-worker event kernel, which the serving runtime
  (:class:`~repro.runtime.shard.ShardedController`) runs as well; the
  central queue and custom balancers or monitors take the general fast
  body here.  Results are float-identical to the reference loop
  (asserted by ``tests/test_sim_equivalence.py``).
"""

from __future__ import annotations

import enum
import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.arrivals.distributions import ArrivalDistribution, PoissonArrivals
from repro.arrivals.processes import sample_arrival_times
from repro.arrivals.traces import LoadTrace
from repro.balancers import LoadBalancer, RoundRobinBalancer
from repro.errors import SimulationError
from repro.obs.attribution import LatencyAttributor
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.profiles.models import ModelSet
from repro.sim.latency_model import DeterministicLatency, LatencyModel
from repro.sim.kernel import serve_per_worker
from repro.sim.metrics import MetricsCollector, SimulationMetrics
from repro.sim.monitor import LoadMonitor, OracleLoadMonitor
from repro.sim.queries import Query
from repro.selectors.base import ModelSelector, QueueScope, SelectorContext

__all__ = ["QueueDiscipline", "SimulationConfig", "Simulation", "sorted_arrivals"]


def sorted_arrivals(arrival_times: np.ndarray) -> np.ndarray:
    """Arrival timestamps as a sorted 1-D float64 array.

    Both serving entry points (``Simulation.run`` and
    ``ShardedController.serve``) number queries by position, so an
    unsorted array must be sorted before query ``i`` is assigned.  Trace
    sampling and the experiment runner's shared realizations are already
    sorted; a linear monotonicity check skips the O(n log n) re-sort (and
    its copy) in that common case.
    """
    arrivals = np.ascontiguousarray(arrival_times, dtype=np.float64)
    if arrivals.ndim != 1:
        raise SimulationError(
            f"arrival_times must be 1-D, got shape {arrivals.shape}"
        )
    if arrivals.size > 1 and np.any(arrivals[1:] < arrivals[:-1]):
        arrivals = np.sort(arrivals)
    return arrivals


class QueueDiscipline(enum.Enum):
    """Where pending queries wait (see module docstring)."""

    PER_WORKER = "per_worker"
    CENTRAL = "central"


@dataclass
class SimulationConfig:
    """Cluster and instrumentation configuration for one simulation."""

    model_set: ModelSet
    slo_ms: float
    num_workers: int
    max_batch_size: int = 32
    latency_model: LatencyModel = field(default_factory=DeterministicLatency)
    balancer: LoadBalancer = field(default_factory=RoundRobinBalancer)
    monitor: Optional[LoadMonitor] = None
    seed: int = 0
    track_responses: bool = True
    #: §4.3.1 alternative: when the selector returns a late (unsatisfiable)
    #: action, drop the queued queries instead of serving them late.
    #: Dropped queries count as SLO violations.  Default off, as in the
    #: paper's evaluation.
    drop_late: bool = False
    #: Heterogeneous clusters (§7: homogeneity is not fundamental): worker
    #: ``i``'s execution latencies are multiplied by ``factors[i]``.
    #: ``None`` means a homogeneous cluster (all 1.0).
    worker_speed_factors: Optional[Tuple[float, ...]] = None
    #: Opt-in observability (repro.obs).  ``tracer`` records per-query
    #: lifecycle events and per-batch service spans; ``registry`` receives
    #: counters/gauges/histograms (queue depth, anticipated vs. realized
    #: load, batch sizes, per-model dispatch counts).  Both default off.
    tracer: Optional[Tracer] = None
    registry: Optional[MetricsRegistry] = None
    #: Streaming tail-latency attribution (repro.obs.attribution).  Both
    #: engines feed its ``observe_*`` hooks with the same float
    #: expressions, so fast and reference runs attribute identically —
    #: attaching an attributor alone does *not* force the reference
    #: engine the way a tracer/registry does.
    attributor: Optional["LatencyAttributor"] = None

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise SimulationError(
                f"num_workers must be >= 1, got {self.num_workers}"
            )
        if self.slo_ms <= 0:
            raise SimulationError(f"slo_ms must be > 0, got {self.slo_ms}")
        if self.max_batch_size < 1:
            raise SimulationError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.worker_speed_factors is not None:
            if len(self.worker_speed_factors) != self.num_workers:
                raise SimulationError(
                    f"worker_speed_factors has {len(self.worker_speed_factors)} "
                    f"entries for {self.num_workers} workers"
                )
            if any(f <= 0 for f in self.worker_speed_factors):
                raise SimulationError("worker speed factors must be > 0")


class Simulation:
    """One reusable simulation driver.

    Each :meth:`run` is independent: queues, monitor, balancer, and the
    latency model's randomness are reset from the configured seed.
    """

    def __init__(self, config: SimulationConfig) -> None:
        self._config = config

    @property
    def config(self) -> SimulationConfig:
        """The cluster configuration."""
        return self._config

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def run(
        self,
        selector: Union[ModelSelector, Sequence[ModelSelector]],
        trace: LoadTrace,
        pattern: Optional[ArrivalDistribution] = None,
        arrival_times: Optional[np.ndarray] = None,
        engine: str = "auto",
    ) -> SimulationMetrics:
        """Serve one realization of ``trace`` with ``selector``.

        ``pattern`` defaults to Poisson (the paper's inter-arrival model);
        pass ``arrival_times`` to replay an explicit timestamp array
        instead of sampling.  ``selector`` may be a sequence of
        ``num_workers`` selectors — one per worker, the heterogeneous-
        cluster setting where each worker type runs its own policy.

        ``engine`` selects the event loop: ``"auto"`` (default) runs the
        fast path unless a tracer or registry is attached, ``"fast"``
        forces the fast path (observability hooks are skipped),
        ``"reference"`` forces the golden reference loop.  All engines
        produce float-identical :class:`SimulationMetrics`.
        """
        cfg = self._config
        if arrival_times is None:
            rng = np.random.default_rng(cfg.seed)
            if pattern is None:
                pattern = PoissonArrivals(max(trace.mean_qps, 1e-9))
            arrival_times = sample_arrival_times(trace, pattern, rng)
        arrivals = sorted_arrivals(arrival_times)

        if isinstance(selector, ModelSelector):
            selectors: List[ModelSelector] = [selector] * cfg.num_workers
        else:
            selectors = list(selector)
            if len(selectors) != cfg.num_workers:
                raise SimulationError(
                    f"{len(selectors)} selectors for {cfg.num_workers} workers"
                )
            if len({s.queue_scope for s in selectors}) != 1:
                raise SimulationError(
                    "per-worker selectors must share one queue scope"
                )
        context = SelectorContext(
            model_set=cfg.model_set,
            slo_ms=cfg.slo_ms,
            num_workers=cfg.num_workers,
            max_batch_size=cfg.max_batch_size,
        )
        for s in dict.fromkeys(selectors):  # bind each distinct selector once
            s.bind(context)
        discipline = (
            QueueDiscipline.PER_WORKER
            if selectors[0].queue_scope is QueueScope.PER_WORKER
            else QueueDiscipline.CENTRAL
        )
        if engine == "auto":
            observed = (
                cfg.tracer is not None and cfg.tracer.enabled
            ) or cfg.registry is not None
            engine = "reference" if observed else "fast"
        if engine not in ("fast", "reference"):
            raise SimulationError(
                f"unknown engine {engine!r} (expected 'auto', 'fast', 'reference')"
            )
        tracer = cfg.tracer
        if tracer is not None and tracer.enabled:
            # Wall-clock phase around the whole event loop — the phase
            # profiler's per-run unit for engine time.  Untraced runs
            # (both engines) skip it entirely.
            with tracer.span(
                "event_loop",
                track="engine",
                args={"engine": engine, "queries": int(arrivals.size)},
            ):
                if engine == "fast":
                    return self._event_loop_fast(selectors, arrivals, discipline)
                return self.reference_event_loop(selectors, arrivals, discipline)
        if engine == "fast":
            return self._event_loop_fast(selectors, arrivals, discipline)
        return self.reference_event_loop(selectors, arrivals, discipline)

    # ------------------------------------------------------------------
    # Reference event loop (also the traced path)
    # ------------------------------------------------------------------
    def reference_event_loop(
        self,
        selectors: List[ModelSelector],
        arrivals: np.ndarray,
        discipline: QueueDiscipline,
    ) -> SimulationMetrics:
        """The golden event loop: per-query objects, inline obs hooks.

        This is the original implementation; the fast path is pinned to
        it by the equivalence suite.  It is also the loop that runs when
        a tracer or metrics registry is attached, so observability
        behavior is unchanged by the fast path's existence.
        """
        cfg = self._config
        monitor = cfg.monitor if cfg.monitor is not None else LoadMonitor()
        monitor.reset()
        monitor.attach_registry(cfg.registry)
        balancer = cfg.balancer
        balancer.reset()
        latency_model = cfg.latency_model.clone(cfg.seed + 1)
        registry = cfg.registry
        metrics = MetricsCollector(
            track_responses=cfg.track_responses, registry=registry
        )
        model_set = cfg.model_set

        # Observability is opt-in; `tracing` guards every hook so the
        # default run pays only a boolean check per event.
        tracer = cfg.tracer if cfg.tracer is not None else NULL_TRACER
        tracing = tracer.enabled
        attributor = cfg.attributor
        attributing = attributor is not None
        if registry is not None:
            gauge_anticipated = registry.gauge(
                "sim_anticipated_load_qps",
                help="load the monitor reports to selectors",
            )
            gauge_realized = registry.gauge(
                "sim_realized_load_qps",
                help="trailing moving-average arrival rate",
            )
        else:
            gauge_anticipated = gauge_realized = None

        num_workers = cfg.num_workers
        per_worker = discipline is QueueDiscipline.PER_WORKER
        queues: List[Deque[Query]] = [
            deque() for _ in range(num_workers if per_worker else 1)
        ]
        if registry is not None:
            # One depth gauge per queue: worker-indexed under the
            # per-worker discipline, a single shared one under central.
            queue_gauges: List[Optional[object]] = [
                registry.gauge(
                    "sim_queue_depth",
                    help="pending queries per queue",
                    labels={"worker": str(i) if per_worker else "central"},
                )
                for i in range(len(queues))
            ]
        else:
            queue_gauges = [None] * len(queues)
        busy = [False] * num_workers
        idle_workers: List[int] = list(range(num_workers - 1, -1, -1))

        # Completion heap entries: (time, sequence, worker, model_name, batch)
        completions: List[Tuple[float, int, int, str, List[Query]]] = []
        sequence = 0

        speed = (
            cfg.worker_speed_factors
            if cfg.worker_speed_factors is not None
            else (1.0,) * num_workers
        )

        def dispatch(worker: int, queue: Deque[Query], now: float) -> bool:
            """Consult the worker's selector and start service; False when
            the decision dropped the queue and the worker stays idle."""
            nonlocal sequence
            head = queue[0]
            queue_len = len(queue)
            earliest_slack_ms = head.slack_at(now)
            anticipated = monitor.anticipated_load_qps(now)
            action = selectors[worker].select(
                queue_length=queue_len,
                earliest_slack_ms=earliest_slack_ms,
                now_ms=now,
                anticipated_load_qps=anticipated,
            )
            batch = min(action.batch_size, queue_len)
            if batch < 1:
                raise SimulationError(
                    f"selector {selectors[worker].name} returned batch {batch}"
                )
            if action.is_late and cfg.drop_late:
                # Drop the whole queue (the (n, T_j) abstraction knows only
                # the earliest deadline is missed; see DESIGN.md §3) and
                # leave the worker idle.
                while queue:
                    dropped = queue.popleft()
                    metrics.record_completion(
                        model_name="<dropped>",
                        model_accuracy=0.0,
                        response_ms=now - dropped.arrival_ms,
                        satisfied=False,
                    )
                    if attributing:
                        attributor.observe_completion(
                            dropped.query_id,
                            worker,
                            "<dropped>",
                            now - dropped.arrival_ms,
                            False,
                            t_ms=now,
                            dropped=True,
                        )
                    if tracing:
                        tracer.instant(
                            "completion",
                            f"worker-{worker}",
                            now,
                            args={
                                "query": dropped.query_id,
                                "worker": worker,
                                "model": "<dropped>",
                                "satisfied": False,
                                "dropped": True,
                                "accuracy": 0.0,
                                "response_ms": now - dropped.arrival_ms,
                            },
                        )
                if tracing:
                    tracer.counter(
                        "queue_depth",
                        f"worker-{worker}" if per_worker else "central",
                        now,
                        0,
                    )
                return False
            served = [queue.popleft() for _ in range(batch)]
            model = model_set.get(action.model)
            exec_ms = latency_model.execution_ms(model, batch) * speed[worker]
            metrics.record_decision(batch, model_name=model.name)
            busy[worker] = True
            sequence += 1
            heapq.heappush(
                completions, (now + exec_ms, sequence, worker, model.name, served)
            )
            if attributing:
                attributor.observe_decision(worker, model.name, batch, exec_ms)
                for query in served:
                    attributor.observe_service_start(
                        query.query_id,
                        worker,
                        model.name,
                        batch,
                        now - query.arrival_ms,
                    )
            if tracing:
                track = f"worker-{worker}"
                tracer.complete(
                    "serve",
                    track,
                    now,
                    exec_ms,
                    args={
                        "worker": worker,
                        "model": model.name,
                        "batch": batch,
                        "queue_len": queue_len,
                        "slack_ms": earliest_slack_ms,
                        "anticipated_qps": anticipated,
                    },
                )
                for query in served:
                    tracer.instant(
                        "service_start",
                        track,
                        now,
                        args={
                            "query": query.query_id,
                            "model": model.name,
                            "batch": batch,
                            "wait_ms": now - query.arrival_ms,
                        },
                    )
                tracer.counter(
                    "queue_depth",
                    track if per_worker else "central",
                    now,
                    len(queue),
                )
            if registry is not None:
                gauge_anticipated.set(anticipated, t_ms=now)
                gauge_realized.set(monitor.realized_load_qps(now), t_ms=now)
                queue_gauges[worker if per_worker else 0].set(
                    len(queue), t_ms=now
                )
            return True

        arrival_index = 0
        total_arrivals = arrivals.shape[0]
        next_query_id = 0

        while arrival_index < total_arrivals or completions:
            next_arrival = (
                arrivals[arrival_index]
                if arrival_index < total_arrivals
                else float("inf")
            )
            next_done = completions[0][0] if completions else float("inf")

            if next_arrival <= next_done:
                now = float(next_arrival)
                arrival_index += 1
                monitor.record_arrival(now)
                query = Query.create(next_query_id, now, cfg.slo_ms)
                next_query_id += 1
                if per_worker:
                    worker = balancer.assign([len(q) for q in queues])
                    queues[worker].append(query)
                    if tracing:
                        tracer.instant(
                            "arrival",
                            "balancer",
                            now,
                            args={"query": query.query_id, "worker": worker},
                        )
                        tracer.counter(
                            "queue_depth",
                            f"worker-{worker}",
                            now,
                            len(queues[worker]),
                        )
                    if registry is not None:
                        queue_gauges[worker].set(len(queues[worker]), t_ms=now)
                    if not busy[worker]:
                        dispatch(worker, queues[worker], now)
                else:
                    queues[0].append(query)
                    if tracing:
                        tracer.instant(
                            "arrival",
                            "balancer",
                            now,
                            args={"query": query.query_id},
                        )
                        tracer.counter(
                            "queue_depth", "central", now, len(queues[0])
                        )
                    if registry is not None:
                        queue_gauges[0].set(len(queues[0]), t_ms=now)
                    if idle_workers:
                        worker = idle_workers.pop()
                        if not dispatch(worker, queues[0], now):
                            idle_workers.append(worker)
            else:
                now, _, worker, model_name, served = heapq.heappop(completions)
                model = model_set.get(model_name)
                for query in served:
                    satisfied = now <= query.deadline_ms
                    metrics.record_completion(
                        model_name=model_name,
                        model_accuracy=model.accuracy,
                        response_ms=now - query.arrival_ms,
                        satisfied=satisfied,
                    )
                    if attributing:
                        attributor.observe_completion(
                            query.query_id,
                            worker,
                            model_name,
                            now - query.arrival_ms,
                            satisfied,
                            t_ms=now,
                        )
                    if tracing:
                        tracer.instant(
                            "completion",
                            f"worker-{worker}",
                            now,
                            args={
                                "query": query.query_id,
                                "worker": worker,
                                "model": model_name,
                                "satisfied": satisfied,
                                "accuracy": model.accuracy,
                                "response_ms": now - query.arrival_ms,
                            },
                        )
                busy[worker] = False
                if per_worker:
                    if queues[worker]:
                        dispatch(worker, queues[worker], now)
                else:
                    if not queues[0] or not dispatch(worker, queues[0], now):
                        idle_workers.append(worker)

        return metrics.finalize()

    # ------------------------------------------------------------------
    # Fast event loop (no observability)
    # ------------------------------------------------------------------
    def _event_loop_fast(
        self,
        selectors: List[ModelSelector],
        arrivals: np.ndarray,
        discipline: QueueDiscipline,
    ) -> SimulationMetrics:
        """Array-backed event loop, float-identical to the reference.

        Queries are plain indices into the arrival/deadline arrays (no
        per-query object), queue lengths are maintained incrementally for
        the balancer, deterministic execution latencies resolve through a
        per-worker ``(model, batch) -> exec_ms`` memo, and the metric
        accumulators are local variables bulk-loaded into the collector at
        the end.  Every floating-point operation happens in the same
        order as in :meth:`reference_event_loop`.

        The balancer receives the *live* queue-length list (the reference
        loop builds a fresh one per arrival); balancers must treat it as
        read-only, which both built-ins do.
        """
        cfg = self._config
        monitor = cfg.monitor if cfg.monitor is not None else LoadMonitor()
        monitor.reset()
        monitor.attach_registry(None)
        balancer = cfg.balancer
        balancer.reset()
        latency_model = cfg.latency_model.clone(cfg.seed + 1)
        num_workers = cfg.num_workers
        per_worker = discipline is QueueDiscipline.PER_WORKER
        # Attribution hooks are guarded by one bool: the detached path
        # pays a single falsy check per event (gated <=1% by
        # benchmarks/bench_attribution.py).
        attributor = cfg.attributor
        attributing = attributor is not None
        monitor_type = type(monitor)
        inline_arrivals = monitor_type in (LoadMonitor, OracleLoadMonitor)
        round_robin = type(balancer) is RoundRobinBalancer
        if per_worker and round_robin and inline_arrivals:
            # The default configuration: the shared per-worker kernel (the
            # serving runtime's event loop too), one latency model shared
            # by every worker as in the reference loop.
            return serve_per_worker(
                arrivals,
                cfg.slo_ms,
                cfg.model_set,
                selectors,
                [latency_model] * num_workers,
                monitor,
                speed=cfg.worker_speed_factors,
                drop_late=cfg.drop_late,
                track_responses=cfg.track_responses,
                observers=[attributor] * num_workers if attributing else None,
            )

        model_set = cfg.model_set
        slo_ms = cfg.slo_ms
        drop_late = cfg.drop_late
        track_responses = cfg.track_responses
        speed = (
            cfg.worker_speed_factors
            if cfg.worker_speed_factors is not None
            else (1.0,) * num_workers
        )

        # Array-backed query records: query i *is* index i (queries are
        # created in arrival order, so ids coincide with positions).
        # Python-float lists index faster than ndarray elements and keep
        # the arithmetic bit-identical to Query.create's float fields.
        arrival_list: List[float] = arrivals.tolist()
        total_arrivals = len(arrival_list)
        deadline_list = [t + slo_ms for t in arrival_list]

        accuracy_of = {m.name: m.accuracy for m in model_set}
        profile_of = {m.name: m for m in model_set}
        # Per-worker (model, batch) -> exec_ms memo; exec = p95 * speed is
        # one multiplication either way, so caching the product is exact.
        cache_latency = latency_model.cacheable
        exec_memo: List[dict] = [dict() for _ in range(num_workers)]
        execution_ms = latency_model.execution_ms

        queues: List[Deque[int]] = [
            deque() for _ in range(num_workers if per_worker else 1)
        ]
        queue_lens = [0] * len(queues)
        busy = [False] * num_workers
        idle_workers: List[int] = list(range(num_workers - 1, -1, -1))

        # Completion heap entries: (time, sequence, worker, model_name,
        # accuracy, served indices) — accuracy rides along so the
        # completion path never re-resolves the model by name.
        completions: List[tuple] = []
        sequence = 0

        # Inlined MetricsCollector accumulators (absorbed at the end).
        m_total = 0
        m_satisfied = 0
        m_satisfied_by_accuracy: dict = {}
        m_response_sum = 0.0
        m_responses: List[float] = []
        m_model_counts: dict = {}
        m_decisions = 0
        m_batch_sum = 0

        heappush = heapq.heappush
        heappop = heapq.heappop
        record_arrival = monitor.record_arrival
        anticipated_load = monitor.anticipated_load_qps
        assign = balancer.assign
        selects = [s.select for s in selectors]
        inf = float("inf")

        # Inline the built-in monitor and balancer: for the stock
        # LoadMonitor / OracleLoadMonitor the per-event work is a deque
        # append plus window eviction, and for RoundRobinBalancer a
        # wrapping counter — both identical to the method
        # implementations, minus the call overhead.  Custom subclasses
        # fall back to the method calls.
        inline_anticipated = monitor_type is LoadMonitor
        mon_arrivals, window_ms = monitor.hot_state()
        mon_append = mon_arrivals.append
        mon_popleft = mon_arrivals.popleft
        rr_next = 0

        # The reference loop's `dispatch` closure is inlined once at the
        # bottom of the loop (both event branches fall through to it), so
        # the metric accumulators stay plain locals — no closure call, no
        # nonlocal cell writes per decision.  Both branches establish the
        # same contract before falling through: `worker` may serve `queue`
        # (central: the worker is already popped from the idle pool and is
        # re-appended on a drop, matching the reference's pop/dispatch/
        # append-on-False sequence).
        arrival_list.append(inf)  # sentinel: index == total_arrivals
        arrival_index = 0
        queue0 = queues[0]

        while arrival_index < total_arrivals or completions:
            next_arrival = arrival_list[arrival_index]
            next_done = completions[0][0] if completions else inf

            if next_arrival <= next_done:
                now = next_arrival
                query = arrival_index
                arrival_index += 1
                if inline_arrivals:
                    # LoadMonitor.record_arrival: append + window eviction
                    # (the just-appended element bounds the scan).
                    mon_append(now)
                    cutoff = now - window_ms
                    while mon_arrivals[0] < cutoff:
                        mon_popleft()
                else:
                    record_arrival(now)
                if per_worker:
                    if round_robin:
                        worker = rr_next
                        rr_next += 1
                        if rr_next == num_workers:
                            rr_next = 0
                    else:
                        worker = assign(queue_lens)
                    queue = queues[worker]
                    queue.append(query)
                    queue_lens[worker] += 1
                    if busy[worker]:
                        continue
                    qidx = worker
                else:
                    queue0.append(query)
                    queue_lens[0] += 1
                    if not idle_workers:
                        continue
                    worker = idle_workers.pop()
                    queue = queue0
                    qidx = 0
            else:
                now, _seq, worker, model_name, accuracy, served = heappop(
                    completions
                )
                count = m_model_counts.get(model_name, 0)
                satisfied_before = m_satisfied
                for query in served:
                    m_total += 1
                    response_ms = now - arrival_list[query]
                    m_response_sum += response_ms
                    if track_responses:
                        m_responses.append(response_ms)
                    count += 1
                    if now <= deadline_list[query]:
                        m_satisfied += 1
                        if attributing:
                            attributor.observe_completion(
                                query, worker, model_name,
                                response_ms, True, t_ms=now,
                            )
                    elif attributing:
                        attributor.observe_completion(
                            query, worker, model_name,
                            response_ms, False, t_ms=now,
                        )
                m_model_counts[model_name] = count
                if m_satisfied != satisfied_before:
                    m_satisfied_by_accuracy[accuracy] = (
                        m_satisfied_by_accuracy.get(accuracy, 0)
                        + m_satisfied - satisfied_before
                    )
                busy[worker] = False
                if per_worker:
                    queue = queues[worker]
                    if not queue:
                        continue
                    qidx = worker
                else:
                    if not queue0:
                        idle_workers.append(worker)
                        continue
                    queue = queue0
                    qidx = 0

            # ---- inlined dispatch ------------------------------------
            queue_len = len(queue)
            if inline_anticipated:
                # LoadMonitor.anticipated_load_qps == realized_load_qps.
                cutoff = now - window_ms
                while mon_arrivals and mon_arrivals[0] < cutoff:
                    mon_popleft()
                if not mon_arrivals:
                    anticipated = 0.0
                else:
                    horizon = now if now < window_ms else window_ms
                    anticipated = (
                        len(mon_arrivals) / horizon * 1000.0
                        if horizon > 0
                        else 0.0
                    )
            else:
                anticipated = anticipated_load(now)
            action = selects[worker](
                queue_len,
                deadline_list[queue[0]] - now,
                now,
                anticipated,
            )
            batch = action.batch_size
            if batch > queue_len:
                batch = queue_len
            if batch < 1:
                raise SimulationError(
                    f"selector {selectors[worker].name} returned batch {batch}"
                )
            if action.is_late and drop_late:
                # Drop the whole queue and leave the worker idle (see the
                # reference loop for the rationale).
                popleft = queue.popleft
                while queue:
                    dropped = popleft()
                    m_total += 1
                    m_response_sum += now - arrival_list[dropped]
                    if track_responses:
                        m_responses.append(now - arrival_list[dropped])
                    if attributing:
                        attributor.observe_completion(
                            dropped, worker, "<dropped>",
                            now - arrival_list[dropped], False,
                            t_ms=now, dropped=True,
                        )
                m_model_counts["<dropped>"] = (
                    m_model_counts.get("<dropped>", 0) + queue_len
                )
                queue_lens[qidx] = 0
                if not per_worker:
                    idle_workers.append(worker)
                continue
            if batch == queue_len:
                served = list(queue)
                queue.clear()
            else:
                popleft = queue.popleft
                served = [popleft() for _ in range(batch)]
            queue_lens[qidx] = queue_len - batch
            model_name = action.model
            if cache_latency:
                memo = exec_memo[worker]
                exec_ms = memo.get((model_name, batch))
                if exec_ms is None:
                    exec_ms = (
                        execution_ms(profile_of[model_name], batch)
                        * speed[worker]
                    )
                    memo[(model_name, batch)] = exec_ms
            else:
                exec_ms = (
                    execution_ms(profile_of[model_name], batch) * speed[worker]
                )
            m_decisions += 1
            m_batch_sum += batch
            busy[worker] = True
            sequence += 1
            heappush(
                completions,
                (
                    now + exec_ms,
                    sequence,
                    worker,
                    model_name,
                    accuracy_of[model_name],
                    served,
                ),
            )
            if attributing:
                attributor.observe_decision(worker, model_name, batch, exec_ms)
                for query in served:
                    attributor.observe_service_start(
                        query, worker, model_name, batch,
                        now - arrival_list[query],
                    )

        metrics = MetricsCollector(track_responses=track_responses)
        metrics.absorb(
            total=m_total,
            satisfied=m_satisfied,
            satisfied_by_accuracy=m_satisfied_by_accuracy,
            response_sum=m_response_sum,
            responses=m_responses,
            model_counts=m_model_counts,
            decisions=m_decisions,
            batch_sum=m_batch_sum,
        )
        return metrics.finalize()
