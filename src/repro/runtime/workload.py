"""Workload generation (§6 "Prototype Implementation").

The prototype's workload generator process produces a stream of query
arrivals according to a query load trace under a stochastic inter-arrival
pattern.  :class:`WorkloadGenerator` samples the arrival timestamps
(identically to the simulator, so runs are comparable); the serving
runtime replays them on its virtual clock.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.arrivals.distributions import ArrivalDistribution, PoissonArrivals
from repro.arrivals.processes import sample_arrival_times
from repro.arrivals.traces import LoadTrace

__all__ = ["WorkloadGenerator"]


class WorkloadGenerator:
    """Samples a trace's arrival stream for the serving runtime.

    ``slo_ms`` names the workload's latency SLO; sampling does not
    depend on it (queries get their deadlines when the runtime serves
    them).
    """

    def __init__(
        self,
        trace: LoadTrace,
        slo_ms: float,
        pattern: Optional[ArrivalDistribution] = None,
        seed: int = 0,
    ) -> None:
        self._trace = trace
        self.slo_ms = slo_ms
        self._pattern = pattern or PoissonArrivals(max(trace.mean_qps, 1e-9))
        self._seed = seed

    def sample(self) -> np.ndarray:
        """The arrival timestamps (ms, sorted) the runtime replays."""
        rng = np.random.default_rng(self._seed)
        return np.sort(sample_arrival_times(self._trace, self._pattern, rng))
