"""The benchmark's workloads, their inputs and their correctness checks.

Every workload serves or solves for the 26-model image zoo
(``image_task()``, middle SLO) on an 8-worker cluster: serving runs on a
``ShardedController`` with 2 shards x 4 workers, and the Twitter-shaped
trace is scaled to that cluster the way the repo's default experiment
preset scales it.  The workload seed only drives the arrival sampler; the
program receives the sampled arrival array, never the seed.

Layer functions are always reached through their module (``tasks.
image_task()``, ``aggregate.merge_run_dir(...)``) so that the traced run's
span recorders (``tracing.py``), which replace module and class
attributes, see every call.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import _util
from repro.arrivals import traces
from repro.cache import PolicyCache
from repro.core.config import WorkerMDPConfig
from repro.core.generator import PolicyGenerator
from repro.core.policy_set import PolicySet
from repro.experiments import tasks
from repro.experiments.scale import ExperimentScale
from repro.obs import aggregate
from repro.obs import report as obs_report
from repro.obs.attribution import LatencyAttributor
from repro.obs.audit import GuaranteeAuditor
from repro.obs.reconstruct import reconstruct_from_jsonl
from repro.runtime.shard import DROPPED_MODEL, REJECTED_MODEL, ShardedController
from repro.runtime.workload import WorkloadGenerator
from repro.selectors import RamsisSelector
from repro.sim.latency_model import DeterministicLatency
from repro.sim.metrics import SimulationMetrics
from repro.sim.monitor import OracleLoadMonitor
from repro.sim.simulator import Simulation, SimulationConfig

WORKLOADS = ("bank-cold", "serve-twitter", "serve-explain", "serve-paced")
SERVE_WORKLOADS = WORKLOADS[1:]
#: File in a prepared bank directory holding the reference bank's digest.
REFERENCE_DIGEST = "reference.sha256"

NUM_SHARDS = 2
WORKERS_PER_SHARD = 4
NUM_WORKERS = NUM_SHARDS * WORKERS_PER_SHARD

#: Relative gap allowed between two float folds of the same values taken
#: in different orders (runtime vs. simulator, record order vs. the
#: timestamp-sorted merged feed).  The ROADMAP documents this gap as a
#: last-ulp difference; 1e-12 is about 4500 ulps at 1.0, far below any
#: real divergence.
FOLD_ORDER_RTOL = 1e-12


@dataclass(frozen=True)
class Sizes:
    """How much work one cold child process does."""

    name: str
    #: ``ExperimentScale`` preset: trace scaling, FLD resolution, batch cap.
    scale: str
    #: Length of the synthesized Twitter trace, in virtual seconds.
    trace_s: float
    #: Initial load-grid points of the policy bank, and its §6 budget.
    bank_grid: int
    bank_policies: int
    #: Prefix of the trace served with full observability.  Each shard's
    #: attributor re-sorts a reservoir that grows to 4096 samples on every
    #: completion; at full size the prefix gives each shard about 2.3x
    #: that many completions, so by that cost model about 70% of the
    #: attributor's work runs at the full-reservoir cost.
    explain_s: float
    #: Fixed wall arrival rates (q/s) of the paced replays.
    paced_rates: Tuple[int, ...]
    paced_reference: int
    #: Wall seconds of arrivals replayed at each rate.
    paced_wall_s: float
    #: p99 added latency and p99 overrun (wall ms) a rate must stay within
    #: to count towards ``paced_max_qps``.
    paced_limit_ms: float


FULL = Sizes(
    name="full",
    scale="default",
    trace_s=300.0,
    bank_grid=5,
    bank_policies=10,
    explain_s=72.0,
    paced_rates=(6000, 12000, 24000, 36000, 48000, 96000),
    paced_reference=12000,
    paced_wall_s=0.5,
    paced_limit_ms=10.0,
)
#: Seconds-long variant for the benchmark's own tests.
TINY = Sizes(
    name="tiny",
    scale="smoke",
    trace_s=20.0,
    bank_grid=2,
    bank_policies=3,
    explain_s=5.0,
    paced_rates=(2000, 4000),
    paced_reference=2000,
    paced_wall_s=0.2,
    paced_limit_ms=50.0,
)
SIZES = {s.name: s for s in (FULL, TINY)}


class CheckError(Exception):
    """A correctness check failed: the program's output is wrong."""


@dataclass
class Inputs:
    """Everything a workload reads, generated from the seed."""

    sizes: Sizes
    scale: ExperimentScale
    task: Any
    slo_ms: float
    trace: Any
    #: Sampled arrival times (virtual ms); ``None`` on ``bank-cold``.
    arrivals: Optional[np.ndarray]


def make_inputs(sizes: Sizes, seed: int, with_arrivals: bool) -> Inputs:
    """Zoo, scaled Twitter trace and (for serving) the seeded arrivals."""
    scale = getattr(ExperimentScale, sizes.scale)()
    task = tasks.image_task()
    trace = traces.synthesize_twitter_trace(
        duration_s=sizes.trace_s, interval_s=sizes.trace_s / 30.0
    ).scaled(1.0 / scale.cluster_scale)
    arrivals = None
    if with_arrivals:
        arrivals = WorkloadGenerator(trace, task.middle_slo_ms, seed=seed).sample()
    return Inputs(sizes, scale, task, task.middle_slo_ms, trace, arrivals)


# ----------------------------------------------------------------------
# Policy bank
# ----------------------------------------------------------------------
def build_bank(
    inputs: Inputs, cache: Optional[PolicyCache], solver: str = "stacked"
) -> PolicySet:
    """The §6-refined bank over the trace's load range.

    Cells already in ``cache`` are read back instead of solved, so the same
    call builds the bank cold or restores it.
    """
    config = WorkerMDPConfig.default_poisson(
        inputs.task.model_set,
        slo_ms=inputs.slo_ms,
        load_qps=inputs.trace.mean_qps,
        num_workers=NUM_WORKERS,
        fld_resolution=inputs.scale.fld_resolution,
        max_batch_size=inputs.scale.max_batch_size,
    )
    generator = PolicyGenerator(config, cache=cache, solver=solver)
    grid = np.linspace(
        inputs.trace.min_qps, inputs.trace.peak_qps, inputs.sizes.bank_grid
    ).tolist()
    return PolicySet.generate(
        generator, grid, max_policies=inputs.sizes.bank_policies
    )


def reference_bank(inputs: Inputs) -> PolicySet:
    """The same refined bank, every cell solved on its own, uncached.

    Each cell goes through the per-load ``loop`` backend, the reference
    the repo's solver-equivalence suite compares the stacked backend
    against, so a wrong stacked solve cannot also be the reference.
    """
    return build_bank(inputs, None, solver="loop")


def bank_bytes(bank: PolicySet) -> List[str]:
    """Each policy's canonical serialization, in load order."""
    return [json.dumps(p.to_json_dict(), sort_keys=True) for p in bank]


def digest_dir(directory: Path) -> str:
    """sha256 over a directory's file names and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def read_bank(inputs: Inputs, cache_dir: Path) -> PolicySet:
    """Restore the bank from a filled cache; every cell must be a hit."""
    cache = PolicyCache(cache_dir)
    bank = build_bank(inputs, cache)
    if cache.misses or cache.hits != len(bank):
        raise CheckError(
            f"bank not read back from the cache: {cache.hits} hits, "
            f"{cache.misses} misses for {len(bank)} policies"
        )
    return bank


def check_bank(
    inputs: Inputs,
    bank: PolicySet,
    cache_dir: Path,
    saved_dir: Path,
    reference_digest: str,
) -> None:
    """Saved bytes match the digest recorded from the per-load reference
    solve; the saved bank and the cache both give back the generated bank."""
    if digest_dir(saved_dir) != reference_digest:
        raise CheckError(
            "saved bank bytes do not match the digest recorded from the "
            "per-load reference solve"
        )
    if bank_bytes(PolicySet.load(saved_dir)) != bank_bytes(bank):
        raise CheckError("saved bank does not load back to the generated bank")
    if bank_bytes(read_bank(inputs, cache_dir)) != bank_bytes(bank):
        raise CheckError("bank read back from the cache differs from the generated one")


def check_matches_reference(saved_dir: Path, reference: PolicySet, ref_dir: Path) -> None:
    """A saved bank holds exactly the reference bank's policy files, byte for byte."""
    reference.save(ref_dir)
    saved = sorted(p.name for p in saved_dir.iterdir())
    wanted = sorted(p.name for p in ref_dir.iterdir())
    if saved != wanted:
        raise CheckError(
            f"bank has policies {saved}, the per-load reference has {wanted}"
        )
    for name in wanted:
        if (saved_dir / name).read_bytes() != (ref_dir / name).read_bytes():
            raise CheckError(
                f"saved policy {name} differs from the per-load reference solve"
            )


# ----------------------------------------------------------------------
# Serving helpers
# ----------------------------------------------------------------------
def make_controller(inputs: Inputs, **kwargs: Any) -> ShardedController:
    return ShardedController(
        inputs.task.model_set,
        slo_ms=inputs.slo_ms,
        num_shards=NUM_SHARDS,
        workers_per_shard=WORKERS_PER_SHARD,
        max_batch_size=inputs.scale.max_batch_size,
        latency_model=DeterministicLatency(),
        **kwargs,
    )


def audited_selectors(
    bank: PolicySet, auditors: Sequence[GuaranteeAuditor]
) -> Callable[[int], RamsisSelector]:
    """Load-adaptive selector per shard, re-arming that shard's auditor."""
    return lambda shard: RamsisSelector(bank, on_policy_change=auditors[shard].note_policy)


def check_accounting(report: Any, submitted: int) -> None:
    """Every submitted query ends exactly once: rejected, dropped or served."""
    counts = report.metrics.model_query_counts
    rejected = counts.get(REJECTED_MODEL, 0)
    dropped = counts.get(DROPPED_MODEL, 0)
    served = report.metrics.total_queries - rejected - dropped
    if not (
        report.submitted == submitted
        and rejected == report.rejected
        and dropped == report.dropped
        and submitted == rejected + dropped + served
        and served == report.served
    ):
        raise CheckError(
            f"accounting not closed: submitted {report.submitted} of {submitted}, "
            f"rejected {report.rejected}/{rejected}, dropped {report.dropped}/"
            f"{dropped}, served {report.served}/{served}"
        )


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= FOLD_ORDER_RTOL * max(abs(a), abs(b))


def check_runtime_matches_sim(runtime: SimulationMetrics, sim: SimulationMetrics) -> None:
    """Same decisions exactly; rates equal up to the fold-order gap."""
    exact = ("total_queries", "satisfied_queries", "decisions", "model_query_counts")
    for field in exact:
        if getattr(runtime, field) != getattr(sim, field):
            raise CheckError(
                f"runtime and simulator disagree on {field}: "
                f"{getattr(runtime, field)} vs {getattr(sim, field)}"
            )
    rates = (
        "violation_rate",
        "accuracy_per_satisfied_query",
        "mean_response_ms",
        "mean_batch_size",
    )
    for field in rates:
        if not _close(getattr(runtime, field), getattr(sim, field)):
            raise CheckError(
                f"runtime and simulator disagree on {field}: "
                f"{getattr(runtime, field)!r} vs {getattr(sim, field)!r}"
            )


def check_reconstruction(events_path: Path, report: Any) -> None:
    """The merged feed folds back to the served metrics.

    Counts must match exactly.  ``merged.jsonl`` is written in timestamp
    order while the runtime folds worker by worker, so the accuracy sum
    is compared up to the fold-order gap.
    """
    summary = reconstruct_from_jsonl(events_path)
    m = report.metrics
    pairs = (
        ("arrivals", summary.arrivals, report.submitted),
        ("completions", summary.total_queries, m.total_queries),
        ("satisfied", summary.satisfied_queries, m.satisfied_queries),
        ("decisions", summary.decisions, m.decisions),
    )
    for name, got, want in pairs:
        if got != want:
            raise CheckError(f"merged feed has {got} {name}, served run has {want}")
    if summary.violation_rate != m.violation_rate or not _close(
        summary.accuracy_per_satisfied_query, m.accuracy_per_satisfied_query
    ) or summary.mean_batch_size != m.mean_batch_size:
        raise CheckError("merged feed rates differ from the served metrics")


def check_paced_matches_unpaced(paced: Any, unpaced: Any, rate: int) -> None:
    """Pacing changes wall timing only, never the virtual timeline."""
    if paced.metrics != unpaced.metrics:
        raise CheckError(f"paced run at {rate} q/s changed the virtual-time metrics")


def _quality(report: Any, audits: Sequence[Any]) -> Dict[str, float]:
    m = report.metrics
    return {
        "slo_miss_rate": (m.total_queries - m.satisfied_queries) / report.submitted,
        "accuracy": m.accuracy_per_satisfied_query,
        "guarantee_breaches": float(
            sum(a.violation_breaches + a.accuracy_breaches for a in audits)
        ),
    }


def _metrics_digest(*parts: Any) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


class ArrivalLateness(GuaranteeAuditor):
    """A shard auditor that also notes when each arrival reached it.

    Arrival ``i`` is due at ``t0 + t_i * time_scale`` wall seconds; the
    unknown ``t0`` is taken as the earliest observed offset, so an arrival's
    lateness is how far behind that best case it was handled.
    """

    def __init__(self) -> None:
        super().__init__()
        self.seen: List[Tuple[float, float]] = []

    def instant(self, name, track, ts_ms, category="sim", args=None):  # noqa: D102
        if name == "arrival":
            self.seen.append((time.perf_counter(), ts_ms))
        super().instant(name, track, ts_ms, category, args)


def lateness_ms(probes: Sequence[ArrivalLateness], time_scale: float) -> List[float]:
    """Wall ms each arrival was handled behind schedule, ascending."""
    offsets = [w - t * time_scale / 1000.0 for p in probes for w, t in p.seen]
    if not offsets:
        raise CheckError("paced run reported no arrivals to its auditors")
    base = min(offsets)
    return sorted((o - base) * 1000.0 for o in offsets)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Marks:
    """Monotonic timestamps of the child's first timed call and final output.

    ``on_done`` runs once the final output is written, before the checks
    (the traced run stops recording there).
    """

    def __init__(self, on_done: Optional[Callable[[], None]] = None) -> None:
        self.first: Optional[float] = None
        self.final: Optional[float] = None
        self.on_done = on_done

    def start(self) -> None:
        self.first = time.monotonic()

    def done(self) -> None:
        self.final = time.monotonic()
        if self.on_done is not None:
            self.on_done()


def run_bank_cold(
    inputs: Inputs, reference_digest: str, work: Path, marks: Marks
) -> Dict[str, Any]:
    cache_dir, saved_dir = work / "cache", work / "bank"
    marks.start()
    t0 = time.perf_counter()
    bank = build_bank(inputs, PolicyCache(cache_dir))
    bank_s = time.perf_counter() - t0
    bank.save(saved_dir)
    digest = digest_dir(saved_dir)
    marks.done()
    check_bank(inputs, bank, cache_dir, saved_dir, reference_digest)
    return {
        "digest": digest,
        "attempted": len(bank),
        "failed": 0,
        "bank_cells": len(bank),
        "stage": {"bank_s": bank_s},
    }


def run_serve_twitter(
    inputs: Inputs, bank: PolicySet, work: Path, marks: Marks
) -> Dict[str, Any]:
    arrivals, trace = inputs.arrivals, inputs.trace
    marks.start()
    auditors = [GuaranteeAuditor() for _ in range(NUM_SHARDS)]
    controller = make_controller(inputs, paced=False)
    t0 = time.perf_counter()
    report = controller.serve(
        audited_selectors(bank, auditors), trace, arrivals=arrivals, auditors=auditors
    )
    serve_s = time.perf_counter() - t0
    audits = [a.finalize() for a in auditors]
    sim = Simulation(
        SimulationConfig(
            model_set=inputs.task.model_set,
            slo_ms=inputs.slo_ms,
            num_workers=NUM_WORKERS,
            max_batch_size=inputs.scale.max_batch_size,
            monitor=OracleLoadMonitor(trace),
        )
    )
    t0 = time.perf_counter()
    sim_metrics = sim.run(RamsisSelector(bank), trace, arrival_times=arrivals, engine="fast")
    sim_s = time.perf_counter() - t0
    marks.done()
    check_accounting(report, len(arrivals))
    check_runtime_matches_sim(report.metrics, sim_metrics)
    return {
        "digest": _metrics_digest(report.metrics, sim_metrics, _quality(report, audits)),
        "attempted": report.submitted,
        "failed": report.rejected + report.dropped,
        "stage": {
            "serve_qps": report.metrics.total_queries / serve_s,
            "sim_qps": sim_metrics.total_queries / sim_s,
            **_quality(report, audits),
        },
    }


def run_serve_explain(
    inputs: Inputs, bank: PolicySet, work: Path, marks: Marks
) -> Dict[str, Any]:
    horizon_ms = inputs.sizes.explain_s * 1000.0
    trace = inputs.trace.truncated(horizon_ms)
    arrivals = inputs.arrivals[inputs.arrivals < horizon_ms]
    run_dir = work / "run"
    marks.start()
    auditors = [GuaranteeAuditor() for _ in range(NUM_SHARDS)]
    attributors = [LatencyAttributor(slo_ms=inputs.slo_ms) for _ in range(NUM_SHARDS)]
    controller = make_controller(inputs, paced=False, run_dir=str(run_dir))
    t0 = time.perf_counter()
    report = controller.serve(
        audited_selectors(bank, auditors),
        trace,
        arrivals=arrivals,
        auditors=auditors,
        attributors=attributors,
    )
    serve_s = time.perf_counter() - t0
    audits = [a.finalize() for a in auditors]
    feed_bytes = sum(p.stat().st_size for p in run_dir.glob("shard-*.jsonl"))
    t0 = time.perf_counter()
    (run_dir / "audit.json").write_text(
        json.dumps(
            {
                "ok": all(a.ok for a in audits),
                "breaches": sum(a.violation_breaches + a.accuracy_breaches for a in audits),
                "shards": [a.to_json_dict() for a in audits],
            }
        )
    )
    merged = aggregate.merge_run_dir(run_dir)
    artifacts = aggregate.write_merged_artifacts(merged, run_dir)
    text = obs_report.render_run_report(run_dir)
    (run_dir / "report.txt").write_text(text)
    report_s = time.perf_counter() - t0
    marks.done()
    check_accounting(report, len(arrivals))
    check_reconstruction(artifacts["events"], report)
    return {
        "report": report,
        "digest": _metrics_digest(report.metrics, _quality(report, audits)),
        "attempted": report.submitted,
        "failed": report.rejected + report.dropped,
        "stage": {
            "serve_qps": report.metrics.total_queries / serve_s,
            "report_s": report_s,
            **_quality(report, audits),
            "obs.feed_bytes": feed_bytes,
            "obs.artifact_bytes": sum(p.stat().st_size for p in artifacts.values()),
        },
    }


def run_serve_paced(
    inputs: Inputs, bank: PolicySet, work: Path, marks: Marks
) -> Dict[str, Any]:
    sizes = inputs.sizes
    marks.start()
    runs = []
    for rate in sizes.paced_rates:
        arrivals = inputs.arrivals[: int(rate * sizes.paced_wall_s)]
        virtual_rate = arrivals.size / ((arrivals[-1] - arrivals[0]) / 1000.0)
        time_scale = virtual_rate / rate
        probes = [ArrivalLateness() for _ in range(NUM_SHARDS)]
        controller = make_controller(inputs, paced=True, time_scale=time_scale)
        report = controller.serve(
            audited_selectors(bank, probes), inputs.trace, arrivals=arrivals, auditors=probes
        )
        late = lateness_ms(probes, time_scale)
        audits = [p.finalize() for p in probes]
        runs.append((rate, arrivals, report, _util.percentile(late, 99.0), audits))
    marks.done()

    stage: Dict[str, float] = {"paced_max_qps": 0.0}
    sustained = True
    attempted = failed = 0
    for rate, arrivals, report, overrun, audits in runs:
        check_accounting(report, arrivals.size)
        auditors = [GuaranteeAuditor() for _ in range(NUM_SHARDS)]
        unpaced = make_controller(inputs, paced=False).serve(
            audited_selectors(bank, auditors), inputs.trace, arrivals=arrivals, auditors=auditors
        )
        check_paced_matches_unpaced(report, unpaced, rate)
        added = report.p99_added_latency_ms
        stage[f"runtime.paced_p99_added_ms.{rate}"] = added
        stage[f"runtime.paced_overrun_ms.{rate}"] = overrun
        # The highest rate that meets the limit with every lower rate too.
        sustained = sustained and max(added, overrun) <= sizes.paced_limit_ms
        if sustained:
            stage["paced_max_qps"] = float(rate)
        if rate == sizes.paced_reference:
            stage["paced_p99_added_ms"] = added
            stage.update(_quality(report, audits))
        attempted += report.submitted
        failed += report.rejected + report.dropped
    return {
        "digest": _metrics_digest([r[2].metrics for r in runs]),
        "attempted": attempted,
        "failed": failed,
        "stage": stage,
    }


SERVE_RUNNERS = {
    "serve-twitter": run_serve_twitter,
    "serve-explain": run_serve_explain,
    "serve-paced": run_serve_paced,
}


def prepare_bank(sizes: Sizes, target: Path) -> None:
    """Build the bank once per source tree and check it (atomically).

    ``target/cache`` is the serving workloads' bank cache, and
    ``target/reference.sha256`` the digest of the saved reference bank,
    against which every ``bank-cold`` child checks the bank it saves.  The
    stacked bank must already equal the reference here, so no serving run
    reads a wrong bank.
    """
    tmp = target.with_name(target.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    inputs = make_inputs(sizes, seed=0, with_arrivals=False)
    build_bank(inputs, PolicyCache(tmp / "cache")).save(tmp / "bank")
    check_matches_reference(tmp / "bank", reference_bank(inputs), tmp / "reference")
    (tmp / REFERENCE_DIGEST).write_text(digest_dir(tmp / "reference"))
    shutil.rmtree(tmp / "bank")
    shutil.rmtree(tmp / "reference")
    tmp.rename(target)
