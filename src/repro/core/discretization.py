"""Slack-time discretization (§4.2).

A worker-MDP state is ``(n, T_j)`` where ``T_j`` is the *slack time* of the
queued query with the earliest deadline.  Slack is continuous in general;
RAMSIS replaces it with a finite, strictly increasing grid of time lengths
``T_w = (T_0, T_1, ...)`` such that every continuous slack ``delta`` maps to
the grid value ``T_j`` with ``T_j <= delta < T_{j+1}`` — i.e. slack is
*rounded down*, which is why a policy can only be conservative, never
optimistic, about how much time remains (§5.1 intuition (1)).

Two strategies are implemented, per the paper:

- **Model-based Discretization (MD, §4.2.1)** — the grid is the set of all
  distinct inference latencies ``l_w(m, b)`` (for supported batch sizes up
  to ``B_w``), since action validity only ever compares slack to a latency.
- **Fixed Length Discretization (FLD, §4.2.2)** — an even grid of ``D + 1``
  points spanning ``[0, SLO]``; ``D`` trades policy-generation runtime for
  conservatism (Appendix C).

Both grids always contain ``0`` (exhausted slack) and ``SLO`` (the slack of
a query the instant it arrives, needed for the arrival transition, Eq. 1).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.profiles.models import ModelSet

__all__ = ["TimeGrid", "model_based_grid", "fixed_length_grid"]


@dataclass(frozen=True)
class TimeGrid:
    """A finite, strictly increasing grid of slack times in ``[0, SLO]``.

    ``values[0] == 0`` and ``values[-1] == slo_ms`` always hold.
    """

    values: Tuple[float, ...]
    slo_ms: float

    def __post_init__(self) -> None:
        if not self.values:
            raise ConfigurationError("time grid must be non-empty")
        if self.values[0] != 0.0:
            raise ConfigurationError("time grid must start at 0")
        if abs(self.values[-1] - self.slo_ms) > 1e-9:
            raise ConfigurationError(
                f"time grid must end at the SLO ({self.slo_ms} ms); "
                f"got {self.values[-1]}"
            )
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ConfigurationError("time grid must be strictly increasing")

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, j: int) -> float:
        return self.values[j]

    @property
    def slo_index(self) -> int:
        """Index of the ``SLO`` grid point (a fresh arrival's slack)."""
        return len(self.values) - 1

    def floor_index(self, slack_ms: float) -> int:
        """Largest ``j`` with ``values[j] <= slack_ms`` (clamped to 0).

        Negative slack (a deadline already missed) maps to index 0, whose
        grid value 0 means "no action can satisfy the earliest deadline".
        """
        if slack_ms <= 0.0:
            return 0
        # bisect on the tuple == np.searchsorted(..., side="right") without
        # the per-call tuple->array conversion; this is the online
        # selector's hot path (one lookup per MS&S decision).
        j = bisect_right(self.values, slack_ms) - 1
        values_len = len(self.values)
        if j < 0:
            return 0
        if j >= values_len:
            return values_len - 1
        return j

    def upper(self, j: int) -> float:
        """Exclusive upper bound of bin ``j``.

        Slack strictly below ``SLO`` is guaranteed for every state reached
        through service transitions (an arrival strictly precedes the
        decision completing after it), so the top bin — whose value *is*
        the SLO — is only entered via the arrival action (Eq. 1) and has a
        zero-width continuation window.
        """
        if j < 0 or j >= len(self.values):
            raise IndexError(f"grid index {j} out of range")
        if j + 1 < len(self.values):
            return self.values[j + 1]
        return self.slo_ms

    def as_array(self) -> np.ndarray:
        """Grid values as a float array (copy)."""
        return np.asarray(self.values, dtype=np.float64)

    @cached_property
    def uppers(self) -> np.ndarray:
        """Read-only array of :meth:`upper` for every bin, built once.

        Kernel construction reads the bin bounds once per service latency;
        caching them skips a Python call per bin per latency.
        """
        uppers = np.asarray(self.values[1:] + (self.slo_ms,), dtype=np.float64)
        uppers.flags.writeable = False
        return uppers


def model_based_grid(
    model_set: ModelSet, slo_ms: float, max_batch_size: int
) -> TimeGrid:
    """MD (§4.2.1): all distinct inference latencies ``<= SLO``.

    ``O(|M_w| * B_w)`` distinct time lengths suffice to decide action
    validity exactly, so MD never under-estimates slack at a decision point
    by more than the gap to the next relevant latency.
    """
    if slo_ms <= 0:
        raise ConfigurationError(f"slo_ms must be > 0, got {slo_ms}")
    latencies = {0.0, float(slo_ms)}
    for model in model_set:
        for b in range(1, max_batch_size + 1):
            latency = model.latency_ms(b)
            if latency <= slo_ms:
                latencies.add(float(latency))
    return TimeGrid(values=tuple(sorted(latencies)), slo_ms=float(slo_ms))


def fixed_length_grid(slo_ms: float, resolution: int) -> TimeGrid:
    """FLD (§4.2.2): ``D + 1`` evenly spaced points over ``[0, SLO]``.

    ``resolution`` is the paper's hyper-parameter ``D``; the evaluation uses
    ``D = 100`` (equivalent to MD in achieved accuracy, Appendix C) and
    ``D = 10`` for the fastest policy generation.
    """
    if slo_ms <= 0:
        raise ConfigurationError(f"slo_ms must be > 0, got {slo_ms}")
    if resolution < 1:
        raise ConfigurationError(f"FLD resolution D must be >= 1, got {resolution}")
    step = slo_ms / resolution
    values = tuple(step * i for i in range(resolution))
    return TimeGrid(values=values + (float(slo_ms),), slo_ms=float(slo_ms))
