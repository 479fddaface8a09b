"""Prototype-style serving runtime (§6 "Prototype Implementation").

The paper's prototype is a client-server deployment: a central controller
VM runs a workload generator, a load balancer, and per-worker model
selector processes; worker VMs execute inference behind TorchServe.  This
subpackage reproduces that architecture *in process*, on the wall clock:

- :class:`~repro.runtime.shard.ShardedController` — the serving tier:
  round-robin balancing onto per-worker queues, one selector per logical
  shard, admission control / drop-late under overload, live policy
  hot-swap, and per-shard auditor + snapshot feeds.  It is a pacing
  shell over the simulator's per-worker event kernel
  (:func:`repro.sim.kernel.serve_per_worker`), run in the calling
  thread; shards partition selectors and observability, not threads;
- :class:`~repro.runtime.workload.WorkloadGenerator` — samples the query
  arrival stream from a trace + inter-arrival pattern exactly as the
  simulator does;
- :class:`~repro.runtime.clock.VirtualClock` — maps virtual milliseconds
  onto scaled wall-clock seconds for paced replay.

A ``time_scale`` compresses wall-clock time uniformly (e.g. 0.1 makes a
150 ms inference sleep 15 ms) so demonstrations finish quickly while every
relative timing — deadlines, arrivals, service — is preserved.  Decisions
are taken on the kernel's virtual timeline, so paced, unpaced and
simulated runs of the same arrivals agree exactly; the discrete-event
simulator remains the tool for large experiments and for the
central-queue baselines.
"""

from repro.runtime.shard import (
    AdmissionControl,
    ShardedController,
    ShardedReport,
)
from repro.runtime.workload import WorkloadGenerator

__all__ = [
    "AdmissionControl",
    "ShardedController",
    "ShardedReport",
    "WorkloadGenerator",
]
