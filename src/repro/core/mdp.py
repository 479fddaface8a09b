"""The per-worker model-selection MDP (§4).

:class:`WorkerMDP` assembles the state space (§4.2), action constraints
(§4.3), rewards (§4.1), and transition kernels (§4.4) for one worker, and
exposes vectorized Bellman backups that the solvers in
:mod:`repro.core.solvers` drive to convergence.

State layout (see :class:`repro.core.transitions.StateSpace`): one empty
state, one full-queue state, and ``N_w * |T_w|`` occupied states.

Action constraints implemented exactly as in the paper:

- **latency** (§4.3.1): ``(m, b)`` is valid in ``(n, T_j)`` iff
  ``l_w(m, b) <= T_j``; when no action qualifies, the forced fallback
  ``(m_min, n)`` runs the whole queue on the fastest model (late, reward 0);
- **batch size** (§4.3.2): maximal batching fixes ``b = n``; variable
  batching allows every ``1 <= b <= n``;
- **model** (§4.3.3): models off the accuracy-latency Pareto front are
  pruned before the MDP is built (config flag).

The reward is ``Accuracy(a) * SLOSatisfied(s, a)`` (§4.1); an optional
per-query weighting (``reward_per_query``) multiplies by the batch size,
which the paper does not do — exposed as an ablation knob.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import (
    BatchingMode,
    TransitionView,
    WorkerMDPConfig,
)
from repro.core.discretization import TimeGrid
from repro.core.policy import Action, Policy, PolicyMetadata
from repro.core.transitions import (
    EquilibriumRenewalKernelBuilder,
    ExactRoundRobinKernelBuilder,
    SplitViewKernelBuilder,
    StateSpace,
    gaps_for_distribution,
)
from repro.errors import ConfigurationError

__all__ = [
    "WorkerMDP",
    "build_worker_mdp",
    "resolve_solver",
    "BackupResult",
    "SOLVER_BACKENDS",
]

#: Encoded "no action possible other than the forced fallback".
_FALLBACK = -1

#: Recognized solver backends (see :func:`resolve_solver`).
SOLVER_BACKENDS = ("auto", "tensor", "loop", "stacked")


def resolve_solver(solver: str) -> str:
    """Resolve a ``solver=`` knob to a concrete backend.

    ``"loop"`` is the reference implementation (per-action / per-state
    Python iteration in the fold and policy-evaluation paths);
    ``"tensor"`` is the stacked-contraction backend
    (:class:`repro.core.tensor.TensorizedWorkerMDP`), float-identical on
    the value-iteration path and ≥3x faster at bench scale (gated by
    ``benchmarks/bench_state_space.py``).  ``"auto"`` picks the tensor
    backend — the equivalence suite keeps that substitution honest.

    ``"stacked"`` is a *bank-level* backend: whole load grids solve as
    one batched tensor program (:mod:`repro.core.bank`), dispatched in
    :meth:`PolicyGenerator.generate_many`.  A single-MDP construction
    under it resolves to the tensor backend — one load's stacked solve
    *is* the tensor solve.
    """
    if solver not in SOLVER_BACKENDS:
        raise ConfigurationError(
            f"unknown solver {solver!r}; expected one of {SOLVER_BACKENDS}"
        )
    return "tensor" if solver in ("auto", "stacked") else solver


@dataclass
class BackupResult:
    """One Bellman backup: new values plus the greedy action table.

    ``greedy`` maps state id -> encoded action ``(model_index, batch)``;
    fallback states carry ``(_FALLBACK, n)``.
    """

    values: np.ndarray
    greedy: Dict[int, Tuple[int, int]]


class WorkerMDP:
    """A fully-materialized worker MDP ready for solving.

    Use :func:`build_worker_mdp` (or ``WorkerMDP(config)``) to construct.
    """

    def __init__(self, config: WorkerMDPConfig) -> None:
        self._config = config
        models = sorted(
            config.effective_models(), key=lambda m: (m.latency_ms(1), -m.accuracy)
        )
        if not models:
            raise ConfigurationError("no models available after pruning")
        self._models = models
        self._grid: TimeGrid = config.build_grid()
        self._max_queue = config.effective_max_queue()
        self._num_models = len(models)

        n, j_count = self._max_queue, len(self._grid)
        # latency[m, b-1] = p95 latency of model m at batch b, b = 1..N_w.
        self._latency = np.array(
            [[m.latency_ms(b) for b in range(1, n + 1)] for m in models]
        )
        self._accuracy = np.array([m.accuracy for m in models])
        grid_values = self._grid.as_array()
        # valid[m, n-1, j]: is (m, b=n) allowed in (n, T_j)?
        self._valid = self._latency[:, :, None] <= grid_values[None, None, :]

        # Per-action discounts: plain MDPs discount once per epoch; the
        # semi-MDP extension discounts by real elapsed time.
        if config.duration_aware_discount:
            reference = config.effective_reference_ms()
            self._gamma_action = config.discount ** (self._latency / reference)
            mean_gap = config.per_worker_arrivals().mean_interarrival_ms
            self._gamma_empty = config.discount ** (mean_gap / reference)
        else:
            self._gamma_action = np.full_like(self._latency, config.discount)
            self._gamma_empty = config.discount

        reward_scale = (
            np.arange(1, n + 1, dtype=np.float64)
            if config.reward_per_query
            else np.ones(n)
        )
        # reward[m, n-1, j] for the full-drain action (m, n).
        self._reward = (
            self._accuracy[:, None, None] * reward_scale[None, :, None] * self._valid
        )

        if config.view is TransitionView.POISSON_SPLIT:
            self._split = SplitViewKernelBuilder(
                self._grid, config.per_worker_arrivals(), self._max_queue
            )
            self._exact: Optional[ExactRoundRobinKernelBuilder] = None
            self._space = self._split.space
            self._rows = self._build_split_rows()
            self._phase_weights = None
        elif config.view is TransitionView.ROUND_ROBIN_MARGINAL:
            self._split = EquilibriumRenewalKernelBuilder(
                self._grid,
                gaps_for_distribution(config.per_worker_arrivals()),
                self._max_queue,
            )
            self._exact = None
            self._space = self._split.space
            self._rows = self._build_split_rows()
            self._phase_weights = None
        elif config.view is TransitionView.EXACT_ROUND_ROBIN:
            self._exact = ExactRoundRobinKernelBuilder(
                self._grid, config.arrivals, config.num_workers, self._max_queue
            )
            self._split = None
            self._space = self._exact.space
            self._rows_by_phase = self._build_exact_rows()
            self._phase_weights = self._build_phase_weights()
        else:  # pragma: no cover - enum is exhaustive
            raise ConfigurationError(f"unknown view {config.view}")

        self._counts_cache: Dict[float, np.ndarray] = {}
        # Variable batching: everything about a partial-drain action that
        # does not depend on the value vector (validity, arrival counts,
        # leftover slack-bin map, reward, discount) is precomputed once
        # here instead of per Bellman sweep — the per-sweep work drops to
        # one windowed contraction and one masked compare per action.
        self._partial_plan = (
            self._build_partial_plan()
            if config.batching is BatchingMode.VARIABLE
            else []
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def config(self) -> WorkerMDPConfig:
        """The offline inputs this MDP was built from."""
        return self._config

    @property
    def solver(self) -> str:
        """The solve backend this instance implements (``"loop"`` here)."""
        return "loop"

    @property
    def grid(self) -> TimeGrid:
        """Slack-time grid."""
        return self._grid

    @property
    def space(self) -> StateSpace:
        """State index layout."""
        return self._space

    @property
    def num_states(self) -> int:
        """Total state count ``|S|``."""
        return self._space.size

    @property
    def num_models(self) -> int:
        """Models available to actions (after pruning)."""
        return self._num_models

    @property
    def model_names(self) -> Tuple[str, ...]:
        """Model names in action-index order (fastest first)."""
        return tuple(m.name for m in self._models)

    @property
    def max_queue(self) -> int:
        """``N_w``."""
        return self._max_queue

    def latency_ms(self, model_index: int, batch: int) -> float:
        """Profiled latency of an encoded action."""
        return float(self._latency[model_index, batch - 1])

    def accuracy_of(self, model_index: int) -> float:
        """Accuracy of a model by action index."""
        return float(self._accuracy[model_index])

    def valid_actions(self, n: int, j: int) -> List[Tuple[int, int]]:
        """Encoded valid actions ``(m, b)`` in occupied state ``(n, j)``.

        Empty when only the forced fallback applies.
        """
        actions: List[Tuple[int, int]] = []
        batches = (
            range(1, n + 1)
            if self._config.batching is BatchingMode.VARIABLE
            else (n,)
        )
        for b in batches:
            for m in range(self._num_models):
                if self._latency[m, b - 1] <= self._grid[j]:
                    actions.append((m, b))
        return actions

    # ------------------------------------------------------------------
    # Kernel assembly
    # ------------------------------------------------------------------
    def _build_split_rows(self) -> np.ndarray:
        """(M, N, S) full-drain transition rows under the split view."""
        assert self._split is not None
        rows = self._split.service_rows(self._latency.ravel())
        return rows.reshape(self._num_models, self._max_queue, self._space.size)

    def _build_exact_rows(self) -> np.ndarray:
        """(M, N, K, S) full-drain rows per phase under the exact view."""
        assert self._exact is not None
        k = self._exact.num_workers
        rows = np.zeros(
            (self._num_models, self._max_queue, k, self._space.size),
            dtype=np.float64,
        )
        for m in range(self._num_models):
            for n in range(1, self._max_queue + 1):
                rows[m, n - 1] = self._exact.service_rows_by_phase(
                    self._latency[m, n - 1]
                )
        return rows

    def _build_phase_weights(self) -> np.ndarray:
        """(N, J, K) phase distributions for every occupied state, plus the
        FULL state's weights stored separately in ``_full_phase``."""
        assert self._exact is not None
        n_max, j_count = self._max_queue, len(self._grid)
        k = self._exact.num_workers
        weights = np.zeros((n_max, j_count, k), dtype=np.float64)
        for j in range(j_count):
            # One batched pmf evaluation covers all queue lengths at this
            # slack (bit-identical to per-(n, j) phase_weights calls).
            weights[:, j, :] = self._exact.phase_weights_table(
                n_max, self._grid[j]
            )
        self._full_phase = self._exact.phase_weights(n_max, 0.0)
        return weights

    def _build_partial_plan(
        self,
    ) -> List[Tuple[int, int, np.ndarray, np.ndarray, float, np.ndarray, float, float]]:
        """Sweep-invariant data for every partial-drain action ``(m, b < n)``.

        Entries are ``(m, b, valid_j, counts, residual, j_map, reward,
        gamma)`` in the exact ``(m, b)`` order the per-sweep loop used to
        iterate, so greedy tie-breaking is unchanged.
        """
        grid_values = self._grid.as_array()
        n_max, j_count = self._max_queue, len(self._grid)
        plan = []
        for m in range(self._num_models):
            for b in range(1, n_max):  # partial drains only (b < n <= N)
                latency = self._latency[m, b - 1]
                valid_j = latency <= grid_values  # (J,)
                if not valid_j.any():
                    continue
                counts = self._counts_for(latency)  # (N + 1,)
                residual = max(0.0, 1.0 - float(counts.sum()))
                # Leftover slack T_j - l quantizes to a per-j bin index.
                j_map = np.array(
                    [
                        self._grid.floor_index(grid_values[j] - latency)
                        for j in range(j_count)
                    ]
                )
                reward = self._accuracy[m] * (
                    float(b) if self._config.reward_per_query else 1.0
                )
                plan.append(
                    (
                        m,
                        b,
                        valid_j,
                        counts,
                        residual,
                        j_map,
                        reward,
                        float(self._gamma_action[m, b - 1]),
                    )
                )
        return plan

    # ------------------------------------------------------------------
    # Bellman backup
    # ------------------------------------------------------------------
    def backup(self, values: np.ndarray, want_greedy: bool = False) -> BackupResult:
        """One synchronous Bellman optimality backup.

        Returns updated values; when ``want_greedy`` also returns the
        greedy (argmax) action per state, used for policy extraction.
        """
        gamma = self._config.discount
        space = self._space
        n_max, j_count, m_count = self._max_queue, len(self._grid), self._num_models

        # Expected continuation value of every full-drain action (m, n).
        if self._split is not None:
            ev_serve = self._rows @ values  # (M, N)
            ev_state = np.broadcast_to(
                ev_serve[:, :, None], (m_count, n_max, j_count)
            )
            ev_full = ev_serve[0, n_max - 1]
        else:
            # (M, N, K) then mixed with per-state phase weights -> (M, N, J)
            ev_phase = self._rows_by_phase @ values
            ev_state = np.einsum("mnk,njk->mnj", ev_phase, self._phase_weights)
            ev_full = float(ev_phase[0, n_max - 1] @ self._full_phase)

        # Per-action discounting: gamma_action[m, n-1] is 'gamma' for plain
        # MDPs and gamma**(l/reference) for the semi-MDP extension.
        q_full_drain = (
            self._reward + self._gamma_action[:, :, None] * ev_state
        )  # (M, N, J)
        q_masked = np.where(self._valid, q_full_drain, -np.inf)
        best_q = q_masked.max(axis=0)  # (N, J)
        best_m = q_masked.argmax(axis=0)
        best_b = np.broadcast_to(
            np.arange(1, n_max + 1)[:, None], (n_max, j_count)
        ).copy()

        # Forced fallback where nothing is valid (§4.3.1): serve the whole
        # queue late on the fastest model — or, in drop mode, discard it
        # and idle (an instantaneous transition to the empty state).
        if self._config.drop_late:
            drop_gamma = (
                1.0 if self._config.duration_aware_discount else gamma
            )
            fallback_q = np.full(
                (n_max, j_count), drop_gamma * values[space.EMPTY]
            )
        else:
            fallback_q = self._gamma_action[0][:, None] * ev_state[0]
        no_valid = ~self._valid.any(axis=0)
        best_q = np.where(no_valid, fallback_q, best_q)
        best_m = np.where(no_valid, _FALLBACK, best_m)

        if self._config.batching is BatchingMode.VARIABLE:
            best_q, best_m, best_b = self._fold_partial_actions(
                values, best_q, best_m, best_b
            )

        new_values = np.empty_like(values)
        occupied = space.occupied_view(new_values)
        occupied[:, :] = best_q
        new_values[space.EMPTY] = self._gamma_empty * values[
            space.index(1, self._grid.slo_index)
        ]
        if self._config.drop_late:
            drop_gamma = 1.0 if self._config.duration_aware_discount else gamma
            new_values[space.FULL] = drop_gamma * values[space.EMPTY]
        else:
            new_values[space.FULL] = (
                self._gamma_action[0, n_max - 1] * ev_full
            )

        greedy: Dict[int, Tuple[int, int]] = {}
        if want_greedy:
            for n in range(1, n_max + 1):
                for j in range(j_count):
                    greedy[space.index(n, j)] = (
                        int(best_m[n - 1, j]),
                        int(best_b[n - 1, j]),
                    )
            greedy[space.FULL] = (_FALLBACK, n_max)
        return BackupResult(values=new_values, greedy=greedy)

    def _fold_partial_actions(
        self,
        values: np.ndarray,
        best_q: np.ndarray,
        best_m: np.ndarray,
        best_b: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Mix in variable-batching actions ``(m, b)`` with ``b < n``.

        For each such action the leftover queue keeps ``n - b`` queries
        whose earliest slack is the conservative ``T_j - l`` (DESIGN.md §3),
        so the slack bin of the next state is deterministic and only the
        arrival count is stochastic.
        """
        space = self._space
        n_max, j_count = self._max_queue, len(self._grid)
        v_occ = space.occupied_view(values)
        v_full = values[space.FULL]

        # vpad[i + k] is the value of "base i+1 plus k arrivals"; rows past
        # N_w stand in for the overflow (FULL) state, so one windowed
        # contraction below covers both the in-range mass and the tail.
        vpad = np.vstack(
            [v_occ, np.full((n_max + 1, j_count), v_full, dtype=np.float64)]
        )
        windows = np.lib.stride_tricks.sliding_window_view(
            vpad, n_max + 1, axis=0
        )  # (N + 1, J, N + 1); windows[i, :, k] == vpad[i + k]

        for m, b, valid_j, counts, residual, j_map, reward, gamma_mb in (
            self._partial_plan
        ):
            max_base = n_max - b
            # ev[base-1, j] = E[V(next) | leftover = base, slack bin j]
            ev = windows[:max_base] @ counts
            if residual > 0.0:
                ev = ev + residual * v_full
            # States (n, j) with n > b: rows b..N-1 of the (N, J) block.
            q_part = reward + gamma_mb * ev[:, j_map]  # (max_base, J)
            q_part = np.where(valid_j[None, :], q_part, -np.inf)
            region = slice(b, n_max)
            better = q_part > best_q[region]
            best_q[region] = np.where(better, q_part, best_q[region])
            best_m[region] = np.where(better, m, best_m[region])
            best_b[region] = np.where(better, b, best_b[region])
        return best_q, best_m, best_b

    def _counts_for(self, latency: float) -> np.ndarray:
        """Arrival-count distribution over the service time.

        Split view: direct.  Exact view: phase-marginalized with the
        stationary (uniform) phase, a documented simplification — the
        partial-drain path is an extension; the paper's Table 2 variable
        batching numbers use a single worker, where both coincide.
        """
        if self._split is not None:
            return self._split.arrival_counts(latency)
        assert self._exact is not None
        key = round(float(latency), 9)
        cached = self._counts_cache.get(key)
        if cached is not None:
            return cached
        k = self._exact.num_workers
        n_max = self._max_queue
        pmf = self._config.arrivals.pmf_vector((n_max + 1) * k - 1, latency)
        counts = np.zeros(n_max + 1, dtype=np.float64)
        # Uniform phase: P(worker gets a | phase r) averaged over r.
        for r in range(k):
            for a in range(n_max + 1):
                lo, hi = a * k - r, (a + 1) * k - r - 1
                lo = max(lo, 0)
                if lo <= hi:
                    counts[a] += pmf[lo : hi + 1].sum() / k
        self._counts_cache[key] = counts
        return counts

    # ------------------------------------------------------------------
    # Fixed-policy backup (policy evaluation / iteration)
    # ------------------------------------------------------------------
    def backup_policy(
        self, values: np.ndarray, action_table: Dict[int, Tuple[int, int]]
    ) -> np.ndarray:
        """One expectation backup under a fixed action table."""
        space = self._space
        new_values = np.empty_like(values)
        new_values[space.EMPTY] = self._gamma_empty * values[
            space.index(1, self._grid.slo_index)
        ]
        for state_id in range(space.size):
            if state_id == space.EMPTY:
                continue
            n, j = space.decode(state_id)
            m, b = action_table.get(state_id, (_FALLBACK, n))
            row = self.transition_row(state_id, (m, b))
            reward = self.reward_of(state_id, (m, b))
            discount = self.discount_of(state_id, (m, b))
            new_values[state_id] = reward + discount * float(row @ values)
        return new_values

    def discount_of(self, state_id: int, action: Tuple[int, int]) -> float:
        """Continuation discount of an encoded action (semi-MDP aware)."""
        config = self._config
        if state_id == self._space.EMPTY:
            return self._gamma_empty
        m, b = action
        if m == _FALLBACK:
            if config.drop_late:
                return 1.0 if config.duration_aware_discount else config.discount
            n, _ = self._space.decode(state_id)
            return float(self._gamma_action[0, n - 1])
        return float(self._gamma_action[m, b - 1])

    def reward_of(self, state_id: int, action: Tuple[int, int]) -> float:
        """Reward ``Accuracy * SLOSatisfied`` of an encoded action."""
        space = self._space
        if state_id == space.EMPTY:
            return 0.0
        n, j = space.decode(state_id)
        m, b = action
        if m == _FALLBACK:
            return 0.0
        slack = 0.0 if state_id == space.FULL else self._grid[j]
        if self._latency[m, b - 1] > slack:
            return 0.0
        scale = float(b) if self._config.reward_per_query else 1.0
        return float(self._accuracy[m]) * scale

    def transition_row(
        self, state_id: int, action: Tuple[int, int]
    ) -> np.ndarray:
        """Full transition row for one (state, encoded action) pair."""
        space = self._space
        if state_id == space.EMPTY:
            row = np.zeros(space.size)
            row[space.index(1, self._grid.slo_index)] = 1.0
            return row
        n, j = space.decode(state_id)
        m, b = action
        if m == _FALLBACK:
            if self._config.drop_late:
                row = np.zeros(space.size)
                row[space.EMPTY] = 1.0
                return row
            m, b = 0, n
        if b > n:
            raise ConfigurationError(f"batch {b} exceeds queue length {n}")
        latency = self._latency[m, b - 1]
        if b == n:
            if self._split is not None:
                return self._rows[m, n - 1]
            weights = (
                self._full_phase
                if state_id == space.FULL
                else self._phase_weights[n - 1, j]
            )
            return weights @ self._rows_by_phase[m, n - 1]
        # Partial drain.
        slack = 0.0 if state_id == space.FULL else self._grid[j]
        leftover_slack = slack - latency
        if self._split is not None:
            return self._split.partial_row(latency, n - b, leftover_slack)
        counts = self._counts_for(latency)
        row = np.zeros(space.size)
        j_left = self._grid.floor_index(leftover_slack)
        for k in range(self._max_queue - (n - b) + 1):
            row[space.index(n - b + k, j_left)] = counts[k]
        row[space.FULL] = max(0.0, 1.0 - row.sum())
        return row

    def policy_rows(
        self, table: Dict[int, Tuple[int, int]]
    ) -> np.ndarray:
        """The ``(S, S)`` transition matrix of the chain ``table`` induces.

        Full-drain actions under a split-family view share the
        precomputed ``(M, N, S)`` row bank, so those states gather in one
        fancy-indexed copy; everything else (partial drains, drop-mode
        fallbacks, the exact view's phase mixtures) goes through
        :meth:`transition_row`.  Both solver backends assemble through
        this method, which is what makes the §5.1 stationary analysis
        bit-identical across them (power iteration is a matrix-vector
        loop on the returned array).
        """
        space = self._space
        size = space.size
        rows = np.zeros((size, size), dtype=np.float64)
        rows[space.EMPTY, space.index(1, self._grid.slo_index)] = 1.0
        gather_ids: List[int] = []
        gather_m: List[int] = []
        gather_n: List[int] = []
        split_rows = self._rows if self._split is not None else None
        for state_id in range(size):
            if state_id == space.EMPTY:
                continue
            n, _ = space.decode(state_id)
            action = table.get(state_id, (_FALLBACK, n))
            if split_rows is not None:
                m, b = action
                if m == _FALLBACK and not self._config.drop_late:
                    m, b = 0, n
                if m != _FALLBACK and b == n:
                    gather_ids.append(state_id)
                    gather_m.append(m)
                    gather_n.append(n - 1)
                    continue
            rows[state_id] = self.transition_row(state_id, action)
        if gather_ids:
            rows[gather_ids] = split_rows[gather_m, gather_n]
        return rows

    # ------------------------------------------------------------------
    # Policy extraction
    # ------------------------------------------------------------------
    def extract_policy(self, values: np.ndarray, task: Optional[str] = None) -> Policy:
        """Greedy policy for ``values``, packaged for online use."""
        result = self.backup(values, want_greedy=True)
        actions: Dict[Tuple[int, int], Action] = {}
        for n in range(1, self._max_queue + 1):
            for j in range(len(self._grid)):
                m, b = result.greedy[self._space.index(n, j)]
                if m == _FALLBACK:
                    actions[(n, j)] = Action(
                        model=self._models[0].name, batch_size=n, is_late=True
                    )
                else:
                    actions[(n, j)] = Action(
                        model=self._models[m].name, batch_size=b
                    )
        cfg = self._config
        metadata = PolicyMetadata(
            task=task or cfg.model_set.task,
            slo_ms=cfg.slo_ms,
            load_qps=cfg.load_qps,
            num_workers=cfg.num_workers,
            arrival_family=type(cfg.arrivals).__name__,
            discretization=cfg.discretization.value,
            fld_resolution=cfg.fld_resolution,
            batching=cfg.batching.value,
            view=cfg.view.value,
            discount=cfg.discount,
        )
        return Policy(
            grid=self._grid,
            max_queue=self._max_queue,
            actions=actions,
            metadata=metadata,
        )

    def initial_values(self) -> np.ndarray:
        """Zero value vector of the right shape."""
        return np.zeros(self._space.size, dtype=np.float64)


def build_worker_mdp(
    config: WorkerMDPConfig, solver: str = "auto"
) -> WorkerMDP:
    """Construct a worker MDP from its offline inputs.

    ``solver`` selects the solve backend: ``"loop"`` keeps the reference
    per-action/per-state implementation, ``"tensor"`` builds the
    stacked-contraction backend, and ``"auto"`` (default) resolves to
    tensor — see :func:`resolve_solver`.
    """
    if resolve_solver(solver) == "tensor":
        # Local import: tensor subclasses WorkerMDP from this module.
        from repro.core.tensor import TensorizedWorkerMDP

        return TensorizedWorkerMDP(config)
    return WorkerMDP(config)
