"""The per-worker event kernel shared by the simulator and the runtime.

:func:`serve_per_worker` is the one fast implementation of the paper's
per-worker discipline (§3.2): query ``i`` joins worker ``i mod K``'s
queue (round-robin), and each worker's selector serves its own queue in
deadline order.  Arrivals and service completions merge into one
virtual-time event stream with an arrival-first tie-break, exactly as in
:meth:`Simulation.reference_event_loop
<repro.sim.simulator.Simulation.reference_event_loop>`, the oracle the
equivalence suite pins this kernel against.

Two callers share it:

- :meth:`Simulation.run <repro.sim.simulator.Simulation.run>` for its
  default configuration (per-worker queues, round-robin balancer,
  built-in monitor);
- :meth:`ShardedController.serve
  <repro.runtime.shard.ShardedController.serve>`, which adds arrival-time
  admission control, a per-worker observer fan-out and, in paced mode, a
  ``pace`` hook that holds each event until its scaled wall time.

Neither hook changes a decision, so the runtime's metrics equal the
simulator's on every field, paced or not.

Observers receive each event on the worker it belongs to, in global
virtual-time order, through the :class:`KernelObserver` hooks (which
:class:`~repro.obs.attribution.LatencyAttributor` implements directly).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Protocol, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.profiles.models import ModelSet
from repro.selectors.base import ModelSelector
from repro.sim.latency_model import LatencyModel
from repro.sim.metrics import MetricsCollector, SimulationMetrics
from repro.sim.monitor import LoadMonitor

__all__ = [
    "DROPPED_MODEL",
    "REJECTED_MODEL",
    "KernelObserver",
    "serve_per_worker",
]

#: Sentinel model labels for terminal events that never ran inference.
DROPPED_MODEL = "<dropped>"
REJECTED_MODEL = "<rejected>"


class KernelObserver(Protocol):
    """The per-event hooks :func:`serve_per_worker` calls.

    ``observe_decision`` carries the decision context (virtual time,
    queue length, head slack, anticipated load); the ``service_start``
    hooks that follow it, one per served query, share its time.  A
    dropped or rejected query completes with ``dropped=True`` under
    :data:`DROPPED_MODEL` / :data:`REJECTED_MODEL`.
    """

    def observe_arrival(self, query_id: int, worker: int, t_ms: float) -> None:
        ...

    def observe_decision(
        self,
        worker: int,
        model: str,
        batch: int,
        exec_ms: float,
        t_ms: float,
        queue_len: int,
        slack_ms: float,
        anticipated_qps: float,
    ) -> None:
        ...

    def observe_service_start(
        self, query_id: int, worker: int, model: str, batch: int, wait_ms: float
    ) -> None:
        ...

    def observe_completion(
        self,
        query_id: int,
        worker: int,
        model: str,
        response_ms: float,
        satisfied: bool,
        t_ms: float,
        dropped: bool = False,
    ) -> None:
        ...


def serve_per_worker(
    arrivals: np.ndarray,
    slo_ms: float,
    model_set: ModelSet,
    selectors: List[ModelSelector],
    latency_models: Sequence[LatencyModel],
    monitor: LoadMonitor,
    *,
    speed: Optional[Sequence[float]] = None,
    drop_late: bool = False,
    track_responses: bool = True,
    admit: Optional[Callable[[int, float], bool]] = None,
    observers: Optional[Sequence[KernelObserver]] = None,
    pace: Optional[Callable[[float, bool], None]] = None,
) -> SimulationMetrics:
    """Serve sorted ``arrivals`` on ``len(selectors)`` round-robin workers.

    Parameters
    ----------
    arrivals:
        Sorted arrival timestamps (ms); query ``i`` arrives at
        ``arrivals[i]`` with deadline ``arrivals[i] + slo_ms``.
    selectors, latency_models:
        Worker ``w`` decides with ``selectors[w]`` (read on every
        decision, so a caller may rewrite the list mid-run) and executes
        with ``latency_models[w]``, scaled by ``speed[w]`` (default 1.0).
        Pass the same object for several workers to share it.
    monitor:
        A built-in :class:`~repro.sim.monitor.LoadMonitor` or
        :class:`~repro.sim.monitor.OracleLoadMonitor` (its arrival window
        is updated inline); reset it first.
    drop_late:
        When the selected action is late, drop the whole queue and leave
        the worker idle (§4.3.1's alternative).
    admit:
        Arrival-time admission check ``admit(queue_depth, slack_ms)``:
        the target worker's queued queries and the new query's slack at
        its earliest service start (arrival, or the in-flight batch's
        completion if later).  A ``False`` rejects the query.
    observers:
        One :class:`KernelObserver` per worker, or ``None``.
    pace:
        ``pace(t_ms, completion)`` runs before each event is handled
        (``completion`` is ``True`` for a batch completion); a paced
        caller sleeps there until the event's wall time.

    Every float operation happens in :meth:`reference_event_loop
    <repro.sim.simulator.Simulation.reference_event_loop>`'s order, so the
    metrics are float-identical to it.
    """
    num_workers = len(selectors)
    if speed is None:
        speed = (1.0,) * num_workers
    observing = observers is not None
    pacing = pace is not None
    admitting = admit is not None
    # One check per arrival on the unhooked path (the simulator's).
    arrival_hooks = observing or pacing or admitting

    # Array-backed query records: query i *is* index i.  Python-float
    # lists index faster than ndarray elements and keep the arithmetic
    # bit-identical to Query.create's float fields.
    arrival_list: List[float] = arrivals.tolist()
    total_arrivals = len(arrival_list)
    deadline_list = [t + slo_ms for t in arrival_list]

    accuracy_of = {m.name: m.accuracy for m in model_set}
    profile_of = {m.name: m for m in model_set}
    # Per-worker (model, batch) -> exec_ms memo for deterministic latency
    # models; exec = p95 * speed is one multiplication either way, so
    # caching the product is exact.  ``None`` marks an uncacheable model.
    exec_memo: List[Optional[dict]] = [
        {} if m.cacheable else None for m in latency_models
    ]
    execution_ms = [m.execution_ms for m in latency_models]

    queues: List[Deque[int]] = [deque() for _ in range(num_workers)]
    busy = [False] * num_workers
    done_at = [0.0] * num_workers

    # Completion heap entries: (time, sequence, worker, model_name,
    # served indices).
    completions: List[tuple] = []
    sequence = 0

    # Inlined MetricsCollector accumulators (absorbed at the end).  Queries
    # are counted per terminal model and deadline misses per served
    # model; the satisfied counts per accuracy follow from the two.
    m_response_sum = 0.0
    m_responses: List[float] = []
    m_model_counts: Dict[str, int] = {}
    m_missed: Dict[str, int] = {}
    m_decisions = 0
    m_batch_sum = 0

    heappush = heapq.heappush
    heappop = heapq.heappop
    # The built-in monitors' arrival window (a deque append plus
    # eviction) is inlined, and so is the plain moving-average monitor's
    # anticipated load; the oracle's stays a trace lookup.
    inline_anticipated = type(monitor) is LoadMonitor
    anticipated_load = monitor.anticipated_load_qps
    mon_arrivals, window_ms = monitor.hot_state()
    mon_append = mon_arrivals.append
    mon_popleft = mon_arrivals.popleft
    rr_next = 0
    inf = float("inf")
    arrival_list.append(inf)  # sentinel: index == total_arrivals
    arrival_index = 0

    while arrival_index < total_arrivals or completions:
        next_arrival = arrival_list[arrival_index]
        next_done = completions[0][0] if completions else inf

        if next_arrival <= next_done:
            now = next_arrival
            query = arrival_index
            arrival_index += 1
            mon_append(now)
            cutoff = now - window_ms
            while mon_arrivals[0] < cutoff:
                mon_popleft()
            worker = rr_next
            rr_next += 1
            if rr_next == num_workers:
                rr_next = 0
            queue = queues[worker]
            if arrival_hooks:
                if pacing:
                    pace(now, False)
                if observing:
                    observers[worker].observe_arrival(query, worker, now)
                if admitting:
                    # Service starts at arrival, or when the in-flight
                    # batch completes (never before now).
                    start = done_at[worker] if busy[worker] else now
                    if not admit(len(queue), deadline_list[query] - start):
                        # Response time 0.0: nothing to add to the sum.
                        if track_responses:
                            m_responses.append(0.0)
                        m_model_counts[REJECTED_MODEL] = (
                            m_model_counts.get(REJECTED_MODEL, 0) + 1
                        )
                        if observing:
                            observers[worker].observe_completion(
                                query, worker, REJECTED_MODEL, 0.0, False,
                                now, True,
                            )
                        continue
            queue.append(query)
            if busy[worker]:
                continue
        else:
            if pacing:
                pace(next_done, True)
            now, _seq, worker, model_name, served = heappop(completions)
            missed = 0
            if observing:
                observe_completion = observers[worker].observe_completion
                for query in served:
                    response_ms = now - arrival_list[query]
                    m_response_sum += response_ms
                    if track_responses:
                        m_responses.append(response_ms)
                    if now <= deadline_list[query]:
                        observe_completion(
                            query, worker, model_name, response_ms, True, now
                        )
                    else:
                        missed += 1
                        observe_completion(
                            query, worker, model_name, response_ms, False, now
                        )
            else:
                for query in served:
                    response_ms = now - arrival_list[query]
                    m_response_sum += response_ms
                    if track_responses:
                        m_responses.append(response_ms)
                    if now > deadline_list[query]:
                        missed += 1
            m_model_counts[model_name] = (
                m_model_counts.get(model_name, 0) + len(served)
            )
            if missed:
                m_missed[model_name] = m_missed.get(model_name, 0) + missed
            busy[worker] = False
            queue = queues[worker]
            if not queue:
                continue

        # ---- dispatch: `worker` is idle and `queue` is non-empty -------
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
                    len(mon_arrivals) / horizon * 1000.0 if horizon > 0 else 0.0
                )
        else:
            anticipated = anticipated_load(now)
        slack_ms = deadline_list[queue[0]] - now
        selector = selectors[worker]
        action = selector.select(
            queue_length=queue_len,
            earliest_slack_ms=slack_ms,
            now_ms=now,
            anticipated_load_qps=anticipated,
        )
        batch = action.batch_size
        if batch > queue_len:
            batch = queue_len
        if batch < 1:
            raise SimulationError(
                f"selector {selector.name} returned batch {batch}"
            )
        if action.is_late and drop_late:
            # Drop the whole queue (the (n, T_j) abstraction knows only
            # the earliest deadline is missed; see DESIGN.md §3) and
            # leave the worker idle.
            for dropped in queue:
                response_ms = now - arrival_list[dropped]
                m_response_sum += response_ms
                if track_responses:
                    m_responses.append(response_ms)
                if observing:
                    observers[worker].observe_completion(
                        dropped, worker, DROPPED_MODEL, response_ms, False,
                        now, True,
                    )
            m_model_counts[DROPPED_MODEL] = (
                m_model_counts.get(DROPPED_MODEL, 0) + queue_len
            )
            queue.clear()
            continue
        if batch == queue_len:
            served = list(queue)
            queue.clear()
        else:
            popleft = queue.popleft
            served = [popleft() for _ in range(batch)]
        model_name = action.model
        memo = exec_memo[worker]
        if memo is not None:
            exec_ms = memo.get((model_name, batch))
            if exec_ms is None:
                exec_ms = (
                    execution_ms[worker](profile_of[model_name], batch)
                    * speed[worker]
                )
                memo[(model_name, batch)] = exec_ms
        else:
            exec_ms = (
                execution_ms[worker](profile_of[model_name], batch)
                * speed[worker]
            )
        m_decisions += 1
        m_batch_sum += batch
        busy[worker] = True
        t_done = now + exec_ms
        done_at[worker] = t_done
        sequence += 1
        heappush(completions, (t_done, sequence, worker, model_name, served))
        if observing:
            observer = observers[worker]
            observer.observe_decision(
                worker, model_name, batch, exec_ms,
                now, queue_len, slack_ms, anticipated,
            )
            for query in served:
                observer.observe_service_start(
                    query, worker, model_name, batch, now - arrival_list[query]
                )

    # Sentinel models (drops, rejections) are never satisfied.
    satisfied_by_accuracy: Dict[float, int] = {}
    for name, count in m_model_counts.items():
        if name in accuracy_of:
            accuracy = accuracy_of[name]
            satisfied_by_accuracy[accuracy] = (
                satisfied_by_accuracy.get(accuracy, 0)
                + count - m_missed.get(name, 0)
            )
    metrics = MetricsCollector(track_responses=track_responses)
    metrics.absorb(
        total=sum(m_model_counts.values()),
        satisfied=sum(satisfied_by_accuracy.values()),
        satisfied_by_accuracy=satisfied_by_accuracy,
        response_sum=m_response_sum,
        responses=m_responses,
        model_counts=m_model_counts,
        decisions=m_decisions,
        batch_sum=m_batch_sum,
    )
    return metrics.finalize()
