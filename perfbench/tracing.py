"""Span recorders for the traced run, installed from the benchmark's files.

``install`` replaces each layer's public entry points (class methods and
module functions) with wrappers that record one span per call: name,
start, end, parent (the innermost open span on the same thread) and
thread.  Spans stay in memory; ``fold`` turns them into the per-layer
metrics when the child ends, and ``dump`` writes them out.

A layer's time is its spans' self time: span duration minus the
durations of its direct child spans.  Spans on the main thread are timed
by wall clock.  Spans on the runtime's shard threads are timed by that
thread's CPU clock instead: the two shard threads share the interpreter
lock, and a wall-clock span on one of them would absorb the other
thread's turns whenever the lock changed hands inside it.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

_perf = time.perf_counter
_thread_cpu = time.thread_time
_process_cpu = time.process_time

# Span record fields (a list per span keeps the hot path cheap).
NAME, START, END, DUR_CPU, PARENT, INFO = range(6)


class _ThreadLog:
    __slots__ = ("thread", "main", "spans", "stack")

    def __init__(self) -> None:
        current = threading.current_thread()
        self.thread = current.name
        self.main = current is threading.main_thread()
        self.spans: List[list] = []
        self.stack: List[int] = []


class Recorder:
    """Per-thread span logs plus the patches that feed them."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: List[_ThreadLog] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
            self._local.log = log
        return log

    def wrap(
        self,
        name: str,
        fn: Callable,
        info: Optional[Callable[[tuple, Any], Any]] = None,
        process_cpu: bool = False,
    ) -> Callable:
        """``fn`` recording a span per call; ``info(args, result)`` is kept
        with the span, and ``process_cpu`` stores the whole process's CPU
        time in place of the calling thread's."""
        cpu_clock = _process_cpu if process_cpu else _thread_cpu

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log = self._log()
            stack = log.stack
            record = [name, 0.0, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(log.spans))
            log.spans.append(record)
            c0 = cpu_clock()
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = _perf()
                record[DUR_CPU] = cpu_clock() - c0
                record[START] = t0
                stack.pop()
            if info is not None:
                record[INFO] = info(args, result)
            return result

        return wrapper

    def patch(self, owner: Any, attr: str, name: str, **kwargs: Any) -> None:
        raw = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(name, raw, **kwargs))
        self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    @property
    def logs(self) -> List[_ThreadLog]:
        return list(self._logs)

    def span_count(self) -> int:
        return sum(len(log.spans) for log in self._logs)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (times in seconds)."""
        with path.open("w") as fh:
            for log in self._logs:
                for index, s in enumerate(log.spans):
                    fh.write(
                        json.dumps(
                            {
                                "thread": log.thread,
                                "id": index,
                                "parent": s[PARENT],
                                "name": s[NAME],
                                "start": s[START],
                                "end": s[END],
                                "cpu": s[DUR_CPU],
                                "info": s[INFO],
                            }
                        )
                        + "\n"
                    )


def install(recorder: Recorder) -> None:
    """Wrap every layer entry point the per-layer metrics are folded from."""
    from repro.arrivals import traces
    from repro.cache.store import PolicyCache
    from repro.core import generator
    from repro.core.bank import StackedBankMDP
    from repro.core.mdp import WorkerMDP
    from repro.experiments import tasks
    from repro.obs import aggregate, report
    from repro.obs.attribution import LatencyAttributor
    from repro.obs.audit import GuaranteeAuditor
    from repro.runtime.shard import ShardedController
    from repro.runtime.workload import WorkloadGenerator
    from repro.selectors.ramsis import RamsisSelector
    from repro.sim.latency_model import DeterministicLatency
    from repro.sim.simulator import Simulation

    last_policy: Dict[Any, Any] = {}

    def switched(args: tuple, _result: Any) -> int:
        selector = args[0]
        policy = selector.active_policy
        previous = last_policy.get(selector)
        last_policy[selector] = policy
        return int(previous is not None and policy is not previous)

    def served(_args: tuple, report: Any) -> Tuple[int, int, int]:
        return (report.metrics.decisions, report.rejected, report.dropped)

    p = recorder.patch
    p(tasks, "image_task", "profiles.zoo")
    p(traces, "synthesize_twitter_trace", "arrivals.trace")
    p(WorkloadGenerator, "sample", "arrivals.sample")
    # A refinement round with several cells solves as one stacked bank; a
    # round with a single cell takes generate_policy's per-load path.
    p(StackedBankMDP, "__init__", "core.kernel_build", info=lambda a, _r: len(a[1]))
    p(StackedBankMDP, "solve", "core.sweep",
      info=lambda _a, r: max(s.iterations for s in r))
    p(StackedBankMDP, "evaluate", "core.stationary")
    p(generator, "build_worker_mdp", "core.kernel_build", info=lambda _a, _r: 1)
    p(generator, "value_iteration", "core.sweep", info=lambda _a, r: r.iterations)
    p(generator, "evaluate_policy", "core.stationary")
    p(WorkerMDP, "extract_policy", "core.extract")
    p(PolicyCache, "put", "cache.put", info=lambda _a, r: r.stat().st_size if r else 0)
    p(PolicyCache, "get", "cache.get", info=lambda _a, r: int(r is not None))
    p(RamsisSelector, "select", "selectors.select", info=switched)
    p(DeterministicLatency, "execution_ms", "latency")
    p(Simulation, "run", "sim.run")
    p(ShardedController, "serve", "runtime.serve", info=served, process_cpu=True)
    for hook in ("instant", "complete", "note_policy"):
        p(GuaranteeAuditor, hook, "obs.audit")
    p(GuaranteeAuditor, "finalize", "obs.finalize")
    for hook in ("observe_decision", "observe_service_start", "observe_completion"):
        p(LatencyAttributor, hook, "obs.attr")
    for hook in ("instant", "complete"):
        p(aggregate.ShardTracer, hook, "obs.feed")
    p(aggregate, "merge_run_dir", "obs.merge")
    p(aggregate, "write_merged_artifacts", "obs.artifacts")
    p(report, "render_run_report", "obs.report_render")


#: Per-layer metrics folded from spans: metric -> (span name, statistic).
_FOLDS = {
    "profiles.zoo_s": ("profiles.zoo", "self"),
    "arrivals.trace_s": ("arrivals.trace", "self"),
    "arrivals.sample_s": ("arrivals.sample", "self"),
    "core.kernel_build_s": ("core.kernel_build", "self"),
    "core.sweep_s": ("core.sweep", "self"),
    "core.sweeps": ("core.sweep", "info"),
    "core.extract_s": ("core.extract", "self"),
    "core.stationary_s": ("core.stationary", "self"),
    "core.cells": ("core.kernel_build", "info"),
    "core.rounds": ("core.sweep", "count"),
    "cache.put_s": ("cache.put", "self"),
    "cache.puts": ("cache.put", "count"),
    "cache.bytes_written": ("cache.put", "info"),
    "cache.get_s": ("cache.get", "self"),
    "cache.gets": ("cache.get", "count"),
    "selectors.select_s": ("selectors.select", "self"),
    "selectors.decisions": ("selectors.select", "count"),
    "selectors.policy_switches": ("selectors.select", "info"),
    "sim.run_s": ("sim.run", "total"),
    "runtime.serve_s": ("runtime.serve", "total"),
    "obs.audit_s": ("obs.audit", "self"),
    "obs.audit_events": ("obs.audit", "count"),
    "obs.attr_s": ("obs.attr", "self"),
    "obs.attr_events": ("obs.attr", "count"),
    "obs.feed_s": ("obs.feed", "self"),
    "obs.finalize_s": ("obs.finalize", "self"),
    "obs.merge_s": ("obs.merge", "self"),
    "obs.artifacts_s": ("obs.artifacts", "self"),
    "obs.report_render_s": ("obs.report_render", "self"),
}


def fold(recorder: Recorder) -> Dict[str, float]:
    """The per-layer metrics of everything recorded so far."""
    self_s: Dict[str, float] = {}
    total_s: Dict[str, float] = {}
    count: Dict[str, int] = {}
    info: Dict[str, float] = {}
    sim_latency_s = 0.0
    sim_latency_calls = 0
    serves: List[list] = []
    shard_top: List[Tuple[float, float]] = []  # (start, cpu) of shard-thread roots
    batches = rejected = dropped = 0

    for log in recorder.logs:
        spans = log.spans
        dur = [
            (s[END] - s[START]) if log.main else s[DUR_CPU] for s in spans
        ]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                child[s[PARENT]] += dur[i]
        for i, s in enumerate(spans):
            name = s[NAME]
            own = dur[i] - child[i]
            self_s[name] = self_s.get(name, 0.0) + own
            total_s[name] = total_s.get(name, 0.0) + dur[i]
            count[name] = count.get(name, 0) + 1
            if name == "runtime.serve":
                serves.append(s)
                if s[INFO] is not None:
                    batches += s[INFO][0]
                    rejected += s[INFO][1]
                    dropped += s[INFO][2]
            elif isinstance(s[INFO], (int, float)):
                info[name] = info.get(name, 0.0) + s[INFO]
            if name == "latency" and log.main and _under(spans, i, "sim.run"):
                sim_latency_s += own
                sim_latency_calls += 1
            if not log.main and s[PARENT] < 0:
                shard_top.append((s[START], dur[i]))

    out: Dict[str, float] = {}
    for metric, (name, stat) in _FOLDS.items():
        source = {"self": self_s, "total": total_s, "count": count, "info": info}[stat]
        out[metric] = float(source.get(name, 0))
    gets = count.get("cache.get", 0)
    out["cache.hit_ratio"] = info.get("cache.get", 0.0) / gets if gets else 0.0
    out["sim.latency_s"] = sim_latency_s
    out["sim.latency_calls"] = float(sim_latency_calls)
    # The runtime's own CPU time: the process CPU of each serve() call
    # minus the selector, latency-model and observability spans its shard
    # threads recorded inside it.
    self_cpu = 0.0
    for s in serves:
        inside = sum(d for start, d in shard_top if s[START] <= start <= s[END])
        self_cpu += s[DUR_CPU] - inside
    out["runtime.self_s"] = self_cpu
    out["runtime.batches"] = float(batches)
    out["runtime.rejected"] = float(rejected)
    out["runtime.dropped"] = float(dropped)
    out["trace.spans"] = float(recorder.span_count())
    return out


def _under(spans: List[list], index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False
