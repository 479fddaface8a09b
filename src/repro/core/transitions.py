"""Worker-MDP transition probabilities (§4.4, Appendix I).

A service action ``a = (m, b)`` taken in state ``s = (n, T_j)`` occupies the
worker for the profiled latency ``l = l_w(m, b)``.  The next state is
determined by (I) how many queries arrive at the worker during ``l`` and
(II) *when* the first of them arrives — the first arrival after the decision
defines the earliest deadline, hence the slack bin, of the next state.

The paper decomposes ``l`` into intervals (Fig. 4):

- **B** ``[0, T_B)``: before the first arrival's slack window — zero worker
  arrivals allowed;
- **C** ``[T_B, T_B + T_C)``: the window in which the first worker arrival
  must land for the next slack to quantize to bin ``j'``;
- **D** ``[T_B + T_C, l]``: the remainder, absorbing the rest of the
  arrivals.

For a next state ``(n', T_{j'})`` the window is the set of first-arrival
times ``u`` with ``T_{j'} <= SLO - (l - u) < T_{j'+1}``, intersected with
``[0, l]``; exactly the paper's ``T_B = max(0, l + T_{j'} - SLO)`` etc.

Two views are implemented (see :class:`repro.core.config.TransitionView`):

- :class:`SplitViewKernelBuilder` — the worker's arrival process is the
  arrival family at ``load / K``.  Exact for ``K = 1``: with one worker the
  round-robin phase is degenerate and the interval-A conditioning of Eq. 2
  cancels between numerator and denominator, so transition rows do not
  depend on the current slack at all — only on ``(m, b, n)``.
- :class:`ExactRoundRobinKernelBuilder` — the paper's Eq. 2 in full: the
  worker receives every K-th central-queue arrival, transition rows are
  conditioned on the round-robin *phase* ``r = k_A % K``, and the phase
  distribution is inferred from interval A (the time the earliest queued
  query has already spent waiting).

Shortest-queue-first balancing (Appendix I) reuses the split-view builder
with the conditional per-worker rate of Gupta et al. [18]; see
:func:`repro.balancers.sqf_worker_rate_qps`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.arrivals.distributions import ArrivalDistribution
from repro.core.discretization import TimeGrid

__all__ = [
    "StateSpace",
    "SplitViewKernelBuilder",
    "EquilibriumRenewalKernelBuilder",
    "ExactRoundRobinKernelBuilder",
    "RenewalGaps",
    "GammaGaps",
    "DeterministicGaps",
    "gaps_for_distribution",
]

#: Probability mass below which kernel entries are treated as exactly zero.
_MASS_EPSILON = 1e-12


@dataclass(frozen=True)
class StateSpace:
    """Index layout of a worker MDP's states.

    - index 0: the empty-queue state (``n = 0``; slack unconstrained) —
      the paper's ``(0, T_j)`` states collapse to one because the only
      action there is the arrival action (§4.3.4, Eq. 1);
    - index 1: the special full-queue state ``(phi, 0)`` (§4.2.3);
    - indices ``2 ..``: occupied states ``(n, j)`` for ``n`` in
      ``1..max_queue`` and ``j`` in ``0..len(grid)-1``, row-major in ``n``.
    """

    max_queue: int
    grid_size: int

    EMPTY: int = 0
    FULL: int = 1

    @property
    def size(self) -> int:
        """Total number of states."""
        return 2 + self.max_queue * self.grid_size

    def index(self, n: int, j: int) -> int:
        """State id of occupied state ``(n, j)``."""
        if not 1 <= n <= self.max_queue:
            raise ValueError(f"queue length {n} outside [1, {self.max_queue}]")
        if not 0 <= j < self.grid_size:
            raise ValueError(f"grid index {j} outside [0, {self.grid_size})")
        return 2 + (n - 1) * self.grid_size + j

    def decode(self, state_id: int) -> Tuple[int, int]:
        """Inverse of :meth:`index`; EMPTY decodes to ``(0, -1)`` and FULL
        to ``(max_queue, 0)`` (its §4.2.3 transition-equivalent)."""
        if state_id == self.EMPTY:
            return (0, -1)
        if state_id == self.FULL:
            return (self.max_queue, 0)
        offset = state_id - 2
        if not 0 <= offset < self.max_queue * self.grid_size:
            raise ValueError(f"state id {state_id} out of range")
        return (offset // self.grid_size + 1, offset % self.grid_size)

    def occupied_view(self, vector: np.ndarray) -> np.ndarray:
        """Reshape the occupied block of a state vector to ``(N, J)``."""
        return vector[2:].reshape(self.max_queue, self.grid_size)


def _service_windows(
    grid: TimeGrid, latency_ms: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per next-slack-bin interval lengths ``(T_B, T_C, T_D)``.

    Bin ``j'`` corresponds to first-arrival times in
    ``[T_j' + l - SLO, T_{j'+1} + l - SLO)`` clamped to ``[0, l]``.
    """
    values = grid.as_array()
    lo = np.clip(values + latency_ms - grid.slo_ms, 0.0, latency_ms)
    hi = np.clip(grid.uppers + latency_ms - grid.slo_ms, 0.0, latency_ms)
    # Bin 0 also absorbs *negative* slack: when the service outlasts the
    # SLO (a forced late action, §4.3.1), arrivals in [0, l - SLO) have
    # already missed their deadlines and quantize to slack 0.
    lo[0] = 0.0
    hi = np.maximum(hi, lo)
    return lo, hi - lo, latency_ms - hi


class SplitViewKernelBuilder:
    """Transition rows under the per-worker split view.

    Rows are keyed by the service latency ``l`` and, for partial-batch
    (variable batching) actions, by the leftover-queue geometry; they do not
    depend on the current state's slack (see module docstring).
    """

    def __init__(
        self,
        grid: TimeGrid,
        worker_arrivals: ArrivalDistribution,
        max_queue: int,
    ) -> None:
        self._grid = grid
        self._arrivals = worker_arrivals
        self._space = StateSpace(max_queue=max_queue, grid_size=len(grid))
        self._service_cache: Dict[float, np.ndarray] = {}
        self._count_cache: Dict[float, np.ndarray] = {}

    @property
    def space(self) -> StateSpace:
        """The state space the kernels are laid out over."""
        return self._space

    # ------------------------------------------------------------------
    # Full-drain rows (maximal batching, Eq. 2 with b = n)
    # ------------------------------------------------------------------
    def service_row(self, latency_ms: float) -> np.ndarray:
        """Transition row after draining the whole queue in ``latency_ms``.

        Returns a probability vector over the full state space:
        ``P[EMPTY]`` is zero arrivals, occupied entries follow the
        B/C/D window decomposition, and ``P[FULL]`` absorbs the truncated
        tail (Eq. 3).
        """
        key = round(float(latency_ms), 9)
        cached = self._service_cache.get(key)
        if cached is not None:
            return cached

        space = self._space
        row = np.zeros(space.size, dtype=np.float64)
        n_max = space.max_queue
        row[space.EMPTY] = self._arrivals.pmf(0, latency_ms)

        t_b, t_c, t_d = _service_windows(self._grid, latency_ms)
        occupied = space.occupied_view(row)  # (N, J) view into `row`
        live = np.nonzero(t_c > 0.0)[0]
        if live.size:
            # One batched pmf evaluation per window family; each matrix row
            # is bit-identical to the per-bin pmf_vector call it replaces.
            p_b0s = self._arrivals.pmf_matrix(0, t_b[live])[:, 0]
            pmf_cs = self._arrivals.pmf_matrix(n_max, t_c[live])
            pmf_ds = self._arrivals.pmf_matrix(n_max, t_d[live])
            for i, j in enumerate(live):
                p_b0 = p_b0s[i]
                if p_b0 <= _MASS_EPSILON:
                    continue
                conv = np.convolve(pmf_cs[i], pmf_ds[i])[: n_max + 1]
                # k_C >= 1: subtract the k_C = 0 term of the convolution.
                probs = p_b0 * (conv - pmf_cs[i][0] * pmf_ds[i])
                occupied[:, j] = np.maximum(probs[1:], 0.0)

        total = row.sum()
        row[space.FULL] = max(0.0, 1.0 - total)
        self._service_cache[key] = row
        return row

    def service_rows(self, latencies: Sequence[float]) -> np.ndarray:
        """``(len(latencies), S)`` stack of :meth:`service_row` results."""
        out = np.empty((len(latencies), self._space.size), dtype=np.float64)
        for i, latency_ms in enumerate(latencies):
            out[i] = self.service_row(latency_ms)
        return out

    # ------------------------------------------------------------------
    # Partial-drain rows (variable batching, b < n)
    # ------------------------------------------------------------------
    def arrival_counts(self, latency_ms: float) -> np.ndarray:
        """``P[k arrivals during latency_ms]`` for ``k = 0..max_queue``;
        the implicit tail mass is the overflow-to-FULL probability."""
        key = round(float(latency_ms), 9)
        cached = self._count_cache.get(key)
        if cached is not None:
            return cached
        counts = self._arrivals.pmf_vector(self._space.max_queue, latency_ms)
        self._count_cache[key] = counts
        return counts

    def partial_row(
        self, latency_ms: float, leftover: int, leftover_slack_ms: float
    ) -> np.ndarray:
        """Transition row when ``leftover >= 1`` queries remain queued.

        The earliest remaining deadline is the conservative closure
        ``T_j - l`` (DESIGN.md §3): it lower-bounds the true leftover slack
        and is never later than any new arrival's deadline, so the next
        state's slack bin is deterministic; only the arrival count is
        random.
        """
        if leftover < 1:
            raise ValueError("partial_row requires leftover >= 1")
        space = self._space
        row = np.zeros(space.size, dtype=np.float64)
        j_left = self._grid.floor_index(leftover_slack_ms)
        counts = self.arrival_counts(latency_ms)
        for k in range(space.max_queue - leftover + 1):
            row[space.index(leftover + k, j_left)] = counts[k]
        row[space.FULL] = max(0.0, 1.0 - row.sum())
        return row


class RenewalGaps:
    """Inter-arrival gap distribution of a worker's renewal arrival process.

    The equilibrium-renewal kernel builder needs three primitives:

    - ``gap_cdf(u)``: CDF of one gap;
    - ``kfold_cdf(k, t)``: CDF of the sum of ``k`` i.i.d. gaps (``k >= 1``);
    - ``mean_ms``: the mean gap.

    Subclasses provide vectorized implementations.
    """

    mean_ms: float

    def gap_cdf(self, u: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def kfold_cdf(self, k: int, t: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def equilibrium_cdf(self, t: float) -> float:
        """CDF of the forward recurrence time (time to the next arrival
        seen from an arbitrary time point): ``(1/mean) int_0^t (1-F)``.

        Default implementation by fixed Gauss-Legendre quadrature;
        subclasses override with closed forms.
        """
        if t <= 0.0:
            return 0.0
        nodes, weights = np.polynomial.legendre.leggauss(48)
        u = 0.5 * t * (nodes + 1.0)
        integrand = 1.0 - self.gap_cdf(u)
        return float((0.5 * t) * (weights @ integrand) / self.mean_ms)

    def equilibrium_density(self, u: np.ndarray) -> np.ndarray:
        """Density of the forward recurrence time: ``(1 - F(u)) / mean``."""
        return (1.0 - self.gap_cdf(np.asarray(u, dtype=np.float64))) / self.mean_ms


class GammaGaps(RenewalGaps):
    """Gamma(shape, scale) gaps — Erlang when ``shape`` is an integer.

    Round-robin thinning of a Poisson process with ``K`` workers yields
    Erlang(``K``) worker gaps; thinning a Gamma(``a``) renewal process
    yields Gamma(``a * K``) gaps.  ``shape = 1`` is the Poisson worker.
    """

    def __init__(self, shape: float, scale_ms: float) -> None:
        if shape <= 0 or scale_ms <= 0:
            raise ValueError("shape and scale_ms must be > 0")
        self.shape = float(shape)
        self.scale_ms = float(scale_ms)
        self.mean_ms = self.shape * self.scale_ms

    def gap_cdf(self, u: np.ndarray) -> np.ndarray:
        from scipy.special import gammainc

        x = np.maximum(np.asarray(u, dtype=np.float64), 0.0) / self.scale_ms
        return gammainc(self.shape, x)

    def kfold_cdf(self, k: int, t: np.ndarray) -> np.ndarray:
        from scipy.special import gammainc

        if k < 1:
            raise ValueError("kfold_cdf requires k >= 1")
        x = np.maximum(np.asarray(t, dtype=np.float64), 0.0) / self.scale_ms
        return gammainc(k * self.shape, x)

    def equilibrium_cdf(self, t: float) -> float:
        # int_0^t (1 - F) = t - t F(t) + shape*scale*F_{shape+1}(t); / mean.
        from scipy.special import gammainc

        if t <= 0.0:
            return 0.0
        x = t / self.scale_ms
        integral = (
            t
            - t * float(gammainc(self.shape, x))
            + self.mean_ms * float(gammainc(self.shape + 1.0, x))
        )
        return min(integral / self.mean_ms, 1.0)


class DeterministicGaps(RenewalGaps):
    """Fixed inter-arrival gaps — the zero-burstiness limit."""

    def __init__(self, gap_ms: float) -> None:
        if gap_ms <= 0:
            raise ValueError("gap_ms must be > 0")
        self.gap_ms = float(gap_ms)
        self.mean_ms = self.gap_ms

    def gap_cdf(self, u: np.ndarray) -> np.ndarray:
        return (np.asarray(u, dtype=np.float64) >= self.gap_ms).astype(np.float64)

    def kfold_cdf(self, k: int, t: np.ndarray) -> np.ndarray:
        if k < 1:
            raise ValueError("kfold_cdf requires k >= 1")
        return (np.asarray(t, dtype=np.float64) >= k * self.gap_ms).astype(
            np.float64
        )

    def equilibrium_cdf(self, t: float) -> float:
        return min(max(t, 0.0) / self.gap_ms, 1.0)


def gaps_for_distribution(distribution: ArrivalDistribution) -> RenewalGaps:
    """Gap model of a per-worker arrival distribution.

    Poisson maps to exponential gaps (Gamma shape 1), Gamma to Gamma gaps,
    deterministic to fixed gaps.
    """
    from repro.arrivals.distributions import (
        DeterministicArrivals,
        GammaArrivals,
        PoissonArrivals,
    )

    if isinstance(distribution, GammaArrivals):
        return GammaGaps(
            shape=distribution.shape,
            scale_ms=distribution.mean_interarrival_ms / distribution.shape,
        )
    if isinstance(distribution, PoissonArrivals):
        return GammaGaps(shape=1.0, scale_ms=distribution.mean_interarrival_ms)
    if isinstance(distribution, DeterministicArrivals):
        return DeterministicGaps(distribution.mean_interarrival_ms)
    raise TypeError(
        f"no renewal-gap model for {type(distribution).__name__}; "
        "use the POISSON_SPLIT or EXACT_ROUND_ROBIN view instead"
    )


#: Gauss-Legendre points per slack window.
_QUAD_POINTS = 8
#: Gauss-Legendre points for whole-service count integrals.
_COUNT_QUAD_POINTS = 64


@lru_cache(maxsize=None)
def _gauss_legendre(points: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre ``(nodes, weights)`` on ``[-1, 1]``, computed once
    and shared read-only by every caller."""
    nodes, weights = np.polynomial.legendre.leggauss(points)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _window_nodes(
    grid: TimeGrid, latency_ms: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quadrature geometry of one service latency's live slack windows.

    Returns ``(live, half, u)``: the next-slack bins whose first-arrival
    window has positive width, their half-widths, and the ``(live, Q)``
    Gauss-Legendre first-arrival times ``u`` inside each window.
    """
    nodes, _ = _gauss_legendre(_QUAD_POINTS)
    lo, width, _ = _service_windows(grid, latency_ms)
    live = np.nonzero(width > 0.0)[0]
    half = 0.5 * width[live]
    u = lo[live][:, None] + half[:, None] * (nodes[None, :] + 1.0)
    return live, half, u


def _count_pmf(gaps, remaining: np.ndarray, n_max: int) -> np.ndarray:
    """``pmf[..., a, i] = P[a further arrivals in remaining[i]]`` for
    ``a = 0..n_max - 1`` (arrivals after the first one).

    ``gaps`` is a :class:`RenewalGaps` or a load-batched stack of them
    whose ``kfold_cdf`` prepends a load axis; the leading axes of the
    result are those of ``kfold_cdf``.  Every step is elementwise in
    ``remaining``, so column ``i`` depends on ``remaining[i]`` alone.
    """
    first = gaps.kfold_cdf(1, remaining)
    pmf = np.empty(first.shape[:-1] + (n_max, remaining.size), dtype=np.float64)
    pmf[..., 0, :] = first
    for k in range(2, n_max + 1):
        pmf[..., k - 1, :] = gaps.kfold_cdf(k, remaining)
    # CDFs -> adjacent differences in place, top row first so each
    # subtraction still reads an undifferenced CDF below it.
    for a in range(n_max - 1, 0, -1):
        np.subtract(pmf[..., a - 1, :], pmf[..., a, :], out=pmf[..., a, :])
    np.subtract(1.0, pmf[..., 0, :], out=pmf[..., 0, :])
    return np.clip(pmf, 0.0, 1.0, out=pmf)


def _renormalize(rows: np.ndarray) -> np.ndarray:
    """Scale every row whose mass exceeds 1 back to 1, in place.

    Quadrature overshoot is only possible for discontinuous gap densities
    (e.g. deterministic gaps).  Returns the per-row totals after scaling.
    """
    totals = rows.sum(axis=-1)
    over = totals > 1.0
    np.divide(rows, totals[..., None], out=rows, where=over[..., None])
    return np.where(over, 1.0, totals)


def _renewal_service_rows(
    grid: TimeGrid, gaps, max_queue: int, latencies: Dict[float, float]
) -> Dict[float, np.ndarray]:
    """Full-drain rows for ``latencies`` (cache key -> raw latency).

    Each value has shape ``lead + (S,)``, where ``lead`` is ``()`` for a
    :class:`RenewalGaps` and ``(L,)`` for a load stack.  The k-fold CDF
    pass runs once over the distinct remaining times of all latencies
    (see :class:`EquilibriumRenewalKernelBuilder`); the einsum,
    renormalisation and FULL fill then run per latency and per load on
    the same operand shapes and strides as a one-latency build.
    """
    if not latencies:
        return {}
    space = StateSpace(max_queue=max_queue, grid_size=len(grid))
    _, weights = _gauss_legendre(_QUAD_POINTS)
    # The window geometry is cheap and deterministic, so it is rebuilt per
    # latency below instead of being held for every latency at once.
    distinct = np.unique(
        np.concatenate(
            [(lat - _window_nodes(grid, lat)[2]).ravel() for lat in latencies.values()]
        )
    )
    table = _count_pmf(gaps, distinct, max_queue)  # lead + (N, U)

    out: Dict[float, np.ndarray] = {}
    for key, lat in latencies.items():
        empty = 1.0 - gaps.equilibrium_cdf(lat)
        rows = np.zeros(np.shape(empty) + (space.size,), dtype=np.float64)
        rows[..., space.EMPTY] = empty
        live, half, u = _window_nodes(grid, lat)
        if live.size:
            wfe = (weights[None, :] * half[:, None]) * gaps.equilibrium_density(u)
            # np.take keeps the gathered pmf C-contiguous, so its reshape is
            # the same view a one-latency build would einsum over.
            idx = np.searchsorted(distinct, (lat - u).ravel())
            pmf = np.take(table, idx, axis=-1)  # lead + (N, live * Q)
            for i in np.ndindex(rows.shape[:-1]):
                occupied = space.occupied_view(rows[i])
                occupied[:, live] = np.einsum(
                    "nlq,lq->nl",
                    pmf[i].reshape(max_queue, live.size, _QUAD_POINTS),
                    wfe[i],
                )
        totals = _renormalize(rows)
        rows[..., space.FULL] = np.maximum(0.0, 1.0 - totals)
        out[key] = rows
    return out


def _renewal_arrival_counts(gaps, max_queue: int, latency_ms: float) -> np.ndarray:
    """``P[k arrivals during latency_ms]`` for ``k = 0..max_queue``, shape
    ``lead + (max_queue + 1,)`` (``lead`` as in
    :func:`_renewal_service_rows`)."""
    empty = 1.0 - gaps.equilibrium_cdf(latency_ms)
    counts = np.zeros(np.shape(empty) + (max_queue + 1,), dtype=np.float64)
    counts[..., 0] = empty
    if latency_ms > 0.0:
        nodes_c, weights_c = _gauss_legendre(_COUNT_QUAD_POINTS)
        half = 0.5 * latency_ms
        u = half * (nodes_c + 1.0)
        wfe = (weights_c * half) * gaps.equilibrium_density(u)
        pmf = _count_pmf(gaps, latency_ms - u, max_queue)  # lead + (N, Qc)
        for i in np.ndindex(counts.shape[:-1]):
            counts[i][1:] = pmf[i] @ wfe[i]
    np.clip(counts, 0.0, 1.0, out=counts)
    _renormalize(counts)
    return counts


class EquilibriumRenewalKernelBuilder:
    """Transition rows for a worker whose arrivals form a renewal process.

    Used by the ``ROUND_ROBIN_MARGINAL`` view: round-robin thinning of the
    central arrival process gives each worker a *renewal* process (Erlang
    gaps for a Poisson central queue), whose increments are **not**
    independent — the naive product form of Eq. 2 does not apply.  Instead,
    rows are computed from the renewal structure directly:

    - the first arrival after a decision epoch has the *equilibrium*
      (forward-recurrence) distribution ``f_e(u) = (1 - F(u)) / mean`` —
      the stationary-phase analogue of the paper's interval-A phase
      conditioning;
    - subsequent arrivals renew with ordinary gaps, so the count of further
      arrivals in the remaining ``l - u`` has pmf
      ``F_{k}(l-u) - F_{k+1}(l-u)``.

    ``P[n' = a, slack bin j']`` is the window integral
    ``int_W f_e(u) * (F_{a-1}(l-u) - F_a(l-u)) du`` evaluated with
    Gauss-Legendre quadrature per window (exact window geometry, smooth
    integrands).  For exponential gaps this reproduces the Poisson split
    view exactly (memorylessness), which the test suite asserts.

    Remaining times are deduplicated across latencies.  For a window the
    latency does not clip, ``l - u = SLO - T_j' - half * (node + 1)``
    depends only on the slack grid, so the quadrature points of different
    latencies mostly land on the same floats.  :meth:`service_rows`
    therefore evaluates the ``max_queue`` k-fold CDFs once over the
    ``np.unique`` remaining times of every uncached latency and gathers
    each latency's columns back.  The CDFs are elementwise, so the gather
    reproduces the per-latency values exactly; it must use ``np.take``
    (C-contiguous), not ``table[:, idx]`` (F-ordered), or the einsum
    reduces over different strides and rows change in the last ulp.
    """

    def __init__(
        self,
        grid: TimeGrid,
        gaps: RenewalGaps,
        max_queue: int,
    ) -> None:
        self._grid = grid
        self._gaps = gaps
        self._space = StateSpace(max_queue=max_queue, grid_size=len(grid))
        self._service_cache: Dict[float, np.ndarray] = {}
        self._count_cache: Dict[float, np.ndarray] = {}

    @property
    def space(self) -> StateSpace:
        """The state space the kernels are laid out over."""
        return self._space

    def service_rows(self, latencies: Sequence[float]) -> np.ndarray:
        """``(len(latencies), S)`` full-drain rows, one per latency.

        Rows are cached by ``round(latency, 9)``; the first raw latency
        seen for a key defines its row.  All uncached latencies share one
        deduplicated k-fold CDF pass (see class docstring).
        """
        keys = [round(float(lat), 9) for lat in latencies]
        pending: Dict[float, float] = {}
        for key, lat in zip(keys, latencies):
            if key not in self._service_cache:
                pending.setdefault(key, float(lat))
        self._service_cache.update(
            _renewal_service_rows(
                self._grid, self._gaps, self._space.max_queue, pending
            )
        )
        out = np.empty((len(keys), self._space.size), dtype=np.float64)
        for i, key in enumerate(keys):
            out[i] = self._service_cache[key]
        return out

    def service_row(self, latency_ms: float) -> np.ndarray:
        """Transition row after a full drain taking ``latency_ms``."""
        return self.service_rows([latency_ms])[0]

    def arrival_counts(self, latency_ms: float) -> np.ndarray:
        """``P[k arrivals during latency_ms]`` for ``k = 0..max_queue``."""
        key = round(float(latency_ms), 9)
        cached = self._count_cache.get(key)
        if cached is not None:
            return cached
        counts = _renewal_arrival_counts(
            self._gaps, self._space.max_queue, latency_ms
        )
        self._count_cache[key] = counts
        return counts

    def partial_row(
        self, latency_ms: float, leftover: int, leftover_slack_ms: float
    ) -> np.ndarray:
        """Transition row for a partial drain (see split-view analogue)."""
        if leftover < 1:
            raise ValueError("partial_row requires leftover >= 1")
        space = self._space
        row = np.zeros(space.size, dtype=np.float64)
        j_left = self._grid.floor_index(leftover_slack_ms)
        counts = self.arrival_counts(latency_ms)
        for k in range(space.max_queue - leftover + 1):
            row[space.index(leftover + k, j_left)] = counts[k]
        row[space.FULL] = max(0.0, 1.0 - row.sum())
        return row


class ExactRoundRobinKernelBuilder:
    """The paper's exact Eq. 2 for ``K`` round-robin workers.

    Rows are produced *per phase* ``r`` (central arrivals since this
    worker's last arrival, mod ``K``); the caller mixes them with the
    phase distribution inferred from interval A via :meth:`phase_weights`.
    """

    def __init__(
        self,
        grid: TimeGrid,
        central_arrivals: ArrivalDistribution,
        num_workers: int,
        max_queue: int,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self._grid = grid
        self._arrivals = central_arrivals
        self._k = num_workers
        self._space = StateSpace(max_queue=max_queue, grid_size=len(grid))
        self._cache: Dict[float, np.ndarray] = {}

    @property
    def space(self) -> StateSpace:
        """The state space the kernels are laid out over."""
        return self._space

    @property
    def num_workers(self) -> int:
        """``K`` — the round-robin fan-out."""
        return self._k

    def phase_weights(self, n: int, slack_ms: float) -> np.ndarray:
        """Distribution of the round-robin phase ``r`` given state ``(n, T_j)``.

        Interval A (length ``SLO - T_j``) saw the ``n - 1`` worker arrivals
        after the earliest queued query, so the central queue received
        ``k_A in [(n-1)K, nK - 1]`` queries; ``r = k_A % K`` enumerates that
        range.  This is the denominator conditioning of Eq. 2.
        """
        t_a = max(self._grid.slo_ms - slack_ms, 0.0)
        k = self._k
        lo = (n - 1) * k
        pmf = self._arrivals.pmf_vector(lo + k - 1, t_a)
        weights = pmf[lo : lo + k].astype(np.float64, copy=True)
        total = weights.sum()
        if total <= _MASS_EPSILON:
            # Degenerate conditioning (deep in the distribution tail):
            # fall back to a uniform phase, which keeps rows well-defined.
            return np.full(k, 1.0 / k)
        return weights / total

    def phase_weights_table(self, n_max: int, slack_ms: float) -> np.ndarray:
        """``(n_max, K)`` phase distributions for every queue length at once.

        Row ``n - 1`` equals ``phase_weights(n, slack_ms)`` bit-for-bit:
        the counting pmfs are prefix-stable in ``kmax`` (element ``i`` of
        ``pmf_vector(kmax, t)`` does not depend on ``kmax``), so one long
        pmf evaluation replaces the ``n_max`` per-queue-length calls.
        """
        t_a = max(self._grid.slo_ms - slack_ms, 0.0)
        k = self._k
        big = self._arrivals.pmf_vector(n_max * k - 1, t_a)
        out = np.empty((n_max, k), dtype=np.float64)
        for n in range(1, n_max + 1):
            lo = (n - 1) * k
            weights = big[lo : lo + k].astype(np.float64, copy=True)
            total = weights.sum()
            if total <= _MASS_EPSILON:
                out[n - 1] = 1.0 / k
            else:
                out[n - 1] = weights / total
        return out

    def service_rows_by_phase(self, latency_ms: float) -> np.ndarray:
        """``(K, S)`` matrix of transition rows, one per phase ``r``."""
        key = round(float(latency_ms), 9)
        cached = self._cache.get(key)
        if cached is not None:
            return cached

        space = self._space
        k = self._k
        n_max = space.max_queue
        rows = np.zeros((k, space.size), dtype=np.float64)
        t_b, t_c, t_d = _service_windows(self._grid, latency_ms)

        for r in range(k):
            # n' = 0: at most K - r - 1 central arrivals during the service.
            rows[r, space.EMPTY] = self._arrivals.cdf(k - r - 1, latency_ms)

        n_arr = np.arange(1, n_max + 1)
        occupied = rows[:, 2:].reshape(k, n_max, len(self._grid))
        for j in range(len(self._grid)):
            if t_c[j] <= 0.0:
                continue
            sup_c = self._arrivals.support_bound(t_c[j])
            sup_d = self._arrivals.support_bound(t_d[j])
            need = (n_max + 1) * k  # largest window offset we will read
            pmf_c = self._arrivals.pmf_vector(max(sup_c, need), t_c[j])
            pmf_d = self._arrivals.pmf_vector(max(sup_d, 1), t_d[j])
            sup_b = min(
                self._arrivals.support_bound(t_b[j]), k - 1
            )  # k_B < K - r <= K
            pmf_b = self._arrivals.pmf_vector(sup_b, t_b[j])

            # The next-queue mass depends on (r, k_b) only through
            # c_min = K - r - k_b: the window [n'K - r - k_b, (n'+1)K - r -
            # k_b) rewrites to [(n'-1)K + c_min, n'K + c_min).  Compute one
            # mass vector over n' per distinct c_min (K of them instead of
            # K(K+1)/2 convolutions) and reuse it across phases.
            mass_by_cmin: Dict[int, Optional[np.ndarray]] = {}

            def mass_for(c_min: int) -> Optional[np.ndarray]:
                if c_min in mass_by_cmin:
                    return mass_by_cmin[c_min]
                masked = pmf_c.copy()
                masked[:c_min] = 0.0
                if masked.sum() <= _MASS_EPSILON:
                    mass_by_cmin[c_min] = None
                    return None
                g = np.convolve(masked, pmf_d)
                cum = np.concatenate(([0.0], np.cumsum(g)))
                top = len(cum) - 1
                lo_t = (n_arr - 1) * k + c_min  # >= c_min >= 1
                hi_idx = np.minimum(n_arr * k + c_min, top)
                mass = cum[hi_idx] - cum[np.minimum(lo_t, top)]
                mass[lo_t >= top] = 0.0
                mass_by_cmin[c_min] = mass
                return mass

            for r in range(k):
                for k_b in range(min(sup_b, k - r - 1) + 1):
                    p_b = pmf_b[k_b]
                    if p_b <= _MASS_EPSILON:
                        continue
                    mass = mass_for(k - r - k_b)
                    if mass is None:
                        continue
                    add = mass > 0.0
                    occupied[r, add, j] += p_b * mass[add]

        totals = rows.sum(axis=1)
        rows[:, space.FULL] = np.maximum(0.0, 1.0 - totals)
        self._cache[key] = rows
        return rows
