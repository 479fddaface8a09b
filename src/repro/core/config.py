"""Offline inputs to RAMSIS policy generation (§3.1.1).

:class:`WorkerMDPConfig` bundles everything the offline phase needs to
construct one worker's MDP: the latency SLO, the arrival distribution
(query load + inter-arrival pattern), the model latency/accuracy profiles,
and the knobs the paper exposes (discretization strategy, batching
strategy, Pareto pruning, queue bound).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional

from repro.arrivals.distributions import ArrivalDistribution, PoissonArrivals
from repro.core.discretization import TimeGrid, fixed_length_grid, model_based_grid
from repro.errors import ConfigurationError
from repro.profiles.models import ModelSet

__all__ = [
    "BatchingMode",
    "Discretization",
    "TransitionView",
    "WorkerMDPConfig",
    "DEFAULT_FLD_RESOLUTION",
    "DEFAULT_DISCOUNT",
]

#: The paper's evaluation default (§6 "Policy Generation"): FLD with D = 100.
DEFAULT_FLD_RESOLUTION = 100

#: Discount factor for value iteration.  The paper does not publish its
#: discount; 0.98 keeps policies far-sighted enough to avoid the full-queue
#: state while converging in a few hundred sweeps.
DEFAULT_DISCOUNT = 0.98


class BatchingMode(enum.Enum):
    """Batch-size constraint on the action space (§4.3.2)."""

    #: All queued queries are served in one batch: ``a = (m, n)``.  The
    #: paper's default — variable-batching policies pick ``b = n`` in 80 %
    #: of decisions anyway, and policy generation is far cheaper (Table 2).
    MAXIMAL = "max"
    #: Any batch of the ``b <= n`` earliest-deadline queries: ``a = (m, b)``.
    VARIABLE = "variable"


class Discretization(enum.Enum):
    """Slack-time discretization strategy (§4.2)."""

    MODEL_BASED = "MD"
    FIXED_LENGTH = "FLD"


class TransitionView(enum.Enum):
    """How the per-worker arrival process is derived from the central one.

    ``EXACT_ROUND_ROBIN`` implements the paper's §4.4.2 derivation: the
    worker receives every K-th central-queue arrival, and transition
    probabilities marginalize over the round-robin *phase* inferred from
    interval A.  Exact, but policy generation cost grows with ``K``.

    ``ROUND_ROBIN_MARGINAL`` (default) replaces the phase-conditioned joint
    with the worker's marginal renewal process under round-robin thinning —
    for Poisson central arrivals, Erlang(``K``) inter-arrivals at rate
    ``load / K``.  This keeps the regularity that round-robin induces (the
    effect §4.4.2's conditioning captures) while collapsing the phase
    dimension, so kernels do not depend on the current slack and policy
    generation is fast at any ``K``.  Exact for ``K = 1``.

    ``POISSON_SPLIT`` treats the worker's arrival process as the central
    family at rate ``load / K`` — a *random* split.  For ``K > 1`` this is
    burstier than round-robin reality, hence strictly conservative
    (accuracy lower bounds still hold); exact for ``K = 1``.  Kept as an
    ablation (benchmarks/bench_ablation_views.py).
    """

    EXACT_ROUND_ROBIN = "exact_rr"
    ROUND_ROBIN_MARGINAL = "rr_marginal"
    POISSON_SPLIT = "split"


@dataclass(frozen=True)
class WorkerMDPConfig:
    """All offline inputs for one worker's model-selection MDP.

    Parameters
    ----------
    model_set:
        Models pre-loaded on the worker (``M_w``).  At least one must serve
        a single query within ``slo_ms``: under either discretization a
        set that cannot is rejected with
        :class:`~repro.errors.ProfileError` (model-based grids derive from
        ``B_w``, and a fixed-length MDP would have no satisfiable action).
    slo_ms:
        Response-latency SLO: maximum time from arrival at the central
        queue to the inference response.
    arrivals:
        Arrival distribution at the *central queue* — a load (QPS) plus an
        inter-arrival pattern (Poisson by default).
    num_workers:
        ``K``, the number of workers the central load is balanced across.
    max_queue:
        ``N_w``, the worker-queue bound beyond which the special full-queue
        state is entered (§4.2.3).  Defaults to ``B_w + 3``, mirroring the
        paper's ``N_w = 32`` for ``B_w = 29``.
    max_batch_size:
        Largest *supported* batch size (server-side cap); the effective
        ``B_w`` also requires the latency to fit the SLO.
    discretization / fld_resolution:
        §4.2 strategy and the FLD ``D`` knob.
    batching:
        §4.3.2 strategy.
    pareto_prune:
        Prune models off the accuracy-latency Pareto front (§4.3.3).
    view:
        Transition-probability construction (see :class:`TransitionView`).
    discount:
        Value-iteration discount factor.
    """

    model_set: ModelSet
    slo_ms: float
    arrivals: ArrivalDistribution
    num_workers: int = 1
    max_queue: Optional[int] = None
    max_batch_size: int = 32
    discretization: Discretization = Discretization.FIXED_LENGTH
    fld_resolution: int = DEFAULT_FLD_RESOLUTION
    batching: BatchingMode = BatchingMode.MAXIMAL
    pareto_prune: bool = True
    view: TransitionView = TransitionView.ROUND_ROBIN_MARGINAL
    discount: float = DEFAULT_DISCOUNT
    #: Ablation knob: weight the §4.1 reward by the batch size, turning the
    #: objective from accuracy-per-decision into accuracy-per-query.  The
    #: paper uses the unweighted form; see benchmarks/bench_ablation_reward.
    reward_per_query: bool = False
    #: §4.3.1's alternative formulation: drop queries whose deadlines cannot
    #: be satisfied instead of serving them late.  With the (n, T_j) state
    #: abstraction only the earliest deadline is known, so the consistent
    #: closure drops the whole queue (slack of the remainder is unknown and
    #: conservatively zero) and the worker idles until the next arrival.
    #: Default off — the paper's evaluation never drops ("better served
    #: late than never").
    drop_late: bool = False
    #: Semi-MDP extension (the paper cites Das et al. [8] for semi-Markov
    #: complexity but discounts per decision epoch): when set, each action's
    #: continuation is discounted by ``discount ** (latency / reference)``
    #: so long services are discounted proportionally to the real time they
    #: consume.  The reference duration defaults to the per-worker mean
    #: inter-arrival time (making the idle/arrival epoch's discount exactly
    #: ``discount``).  Off by default, matching the paper.
    duration_aware_discount: bool = False
    discount_reference_ms: Optional[float] = None

    def effective_reference_ms(self) -> float:
        """The semi-MDP reference duration (mean per-worker gap by default)."""
        if self.discount_reference_ms is not None:
            if self.discount_reference_ms <= 0:
                raise ConfigurationError("discount_reference_ms must be > 0")
            return self.discount_reference_ms
        return self.per_worker_arrivals().mean_interarrival_ms

    def __post_init__(self) -> None:
        if self.slo_ms <= 0:
            raise ConfigurationError(f"slo_ms must be > 0, got {self.slo_ms}")
        if self.num_workers < 1:
            raise ConfigurationError(
                f"num_workers must be >= 1, got {self.num_workers}"
            )
        if self.max_batch_size < 1:
            raise ConfigurationError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.max_queue is not None and self.max_queue < 1:
            raise ConfigurationError(f"max_queue must be >= 1, got {self.max_queue}")
        if not 0.0 < self.discount < 1.0:
            raise ConfigurationError(
                f"discount must be in (0, 1), got {self.discount}"
            )
        if self.fld_resolution < 1:
            raise ConfigurationError(
                f"fld_resolution must be >= 1, got {self.fld_resolution}"
            )
        # Raises ProfileError when no model serves one query within the SLO.
        self.model_set.max_batch_size(self.slo_ms, cap=1)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def load_qps(self) -> float:
        """Central-queue query load in queries per second."""
        return self.arrivals.load_qps

    def effective_models(self) -> ModelSet:
        """The model set after optional Pareto pruning."""
        if self.pareto_prune:
            return self.model_set.pareto_front()
        return self.model_set

    def feasible_max_batch(self) -> int:
        """``B_w``: largest supported batch whose latency meets the SLO."""
        return self.model_set.max_batch_size(self.slo_ms, cap=self.max_batch_size)

    def effective_max_queue(self) -> int:
        """``N_w``: explicit value, or ``B_w + 3`` (paper used 32 for 29)."""
        if self.max_queue is not None:
            return self.max_queue
        return self.feasible_max_batch() + 3

    def build_grid(self) -> TimeGrid:
        """Construct the configured slack-time grid."""
        if self.discretization is Discretization.MODEL_BASED:
            return model_based_grid(
                self.effective_models(), self.slo_ms, self.feasible_max_batch()
            )
        return fixed_length_grid(self.slo_ms, self.fld_resolution)

    def with_load(self, load_qps: float) -> "WorkerMDPConfig":
        """Same configuration at a different query load."""
        return replace(self, arrivals=self.arrivals.with_load(load_qps))

    def per_worker_arrivals(self) -> ArrivalDistribution:
        """The per-worker arrival distribution implied by the view."""
        if self.view is TransitionView.ROUND_ROBIN_MARGINAL:
            return self.arrivals.split_round_robin(self.num_workers)
        return self.arrivals.split(self.num_workers)

    @staticmethod
    def default_poisson(
        model_set: ModelSet, slo_ms: float, load_qps: float, num_workers: int = 1, **kwargs
    ) -> "WorkerMDPConfig":
        """Convenience constructor for the paper's standard setting."""
        return WorkerMDPConfig(
            model_set=model_set,
            slo_ms=slo_ms,
            arrivals=PoissonArrivals(load_qps),
            num_workers=num_workers,
            **kwargs,
        )
