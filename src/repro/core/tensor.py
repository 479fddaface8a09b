"""Tensorized single-load MDP (``solver="stacked"`` with one load).

:class:`TensorizedWorkerMDP` is a drop-in :class:`~repro.core.mdp.WorkerMDP`
whose Bellman sweeps are stacked tensor contractions instead of per-action /
per-state Python loops:

- the **optimality backup** stacks every variable-batching partial-drain
  action into one candidate tensor and resolves the greedy choice with a
  single first-maximum ``argmax`` reduction (the FSRL-style dense
  ``Q[a, s] = r[a, s] + gamma[a, s] * (P[a] @ v)[s]`` layout, specialized
  to this MDP's factored kernels);
- **policy evaluation** (:meth:`backup_policy`) assembles the
  policy-induced chain once per action table — reward, discount, and
  transition-row arrays — so every subsequent expectation sweep is one
  ``r + g * (P_pi @ v)`` matrix-vector product instead of ``|S|`` Python
  row constructions;
- the same cached ``P_pi`` feeds the §5.1 stationary analysis
  (:func:`repro.core.guarantees.stationary_distribution`), whose power
  iteration is a pure matrix-vector loop on it.

Exactness contract
------------------
The existing loop implementation stays available (``solver="loop"``) as
the reference oracle, and the tensor backend is **float-identical** to it
on the value-iteration path: every candidate Q value is produced by the
same NumPy kernel calls on the same operands (batched matmuls are only
reused where slicing a larger product is bitwise equal to the smaller
one), and the stacked argmax keeps the loop's first-strict-maximum
tie-breaking.  ``tests/test_solver_equivalence.py`` asserts exact
(``==``) value-function agreement and byte-identical ``Policy.save``
output across views, batching modes, and extensions;
``benchmarks/bench_state_space.py`` gates the speedup floor in CI.

Policy evaluation swaps per-state ``dot`` calls for one ``gemv``, which
reassociates the reductions — policy iteration therefore agrees with the
loop backend at the greedy-table level (asserted) rather than bitwise.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.mdp import _FALLBACK, WorkerMDP

__all__ = ["TensorizedWorkerMDP"]


class TensorizedWorkerMDP(WorkerMDP):
    """A :class:`WorkerMDP` with tensorized solve-path hot loops.

    Construction (kernels, rewards, partial-drain plan) is inherited
    unchanged — both backends solve the *same* arrays — so the only
    differences are how each Bellman sweep traverses them.
    """

    def __init__(self, config) -> None:
        super().__init__(config)
        self._stack_partial_plan()
        # Policy-evaluation cache: one assembled chain per action table.
        self._pe_table: Optional[Dict[int, Tuple[int, int]]] = None
        self._pe_rows: Optional[np.ndarray] = None
        self._pe_reward: Optional[np.ndarray] = None
        self._pe_discount: Optional[np.ndarray] = None
        self._fold_want_greedy = False

    @property
    def solver(self) -> str:
        return "stacked"

    # ------------------------------------------------------------------
    # Stacked partial-drain plan
    # ------------------------------------------------------------------
    def _stack_partial_plan(self) -> None:
        """Stack the per-action partial-drain plan into batched arrays.

        The loop backend iterates ``_partial_plan`` entries one by one;
        here everything except the per-entry value contraction (whose
        matmul call must stay bitwise identical to the oracle's) is
        hoisted into ``(P, ...)`` arrays consumed by one batched pass.
        """
        plan = self._partial_plan
        n_max, j_count = self._max_queue, len(self._grid)
        p_count = len(plan)
        self._plan_m = np.array([e[0] for e in plan], dtype=np.intp)
        self._plan_b = np.array([e[1] for e in plan], dtype=np.intp)
        self._plan_valid = (
            np.array([e[2] for e in plan], dtype=bool)
            if plan
            else np.zeros((0, j_count), dtype=bool)
        )
        self._plan_counts = [e[3] for e in plan]
        self._plan_residual = np.array([e[4] for e in plan], dtype=np.float64)
        self._plan_jmap = (
            np.array([e[5] for e in plan], dtype=np.intp)
            if plan
            else np.zeros((0, j_count), dtype=np.intp)
        )
        self._plan_reward = np.array([e[6] for e in plan], dtype=np.float64)
        self._plan_gamma = np.array([e[7] for e in plan], dtype=np.float64)
        # region[p, n-1]: does entry p's action (b < n) apply in queue n?
        region = np.zeros((p_count, n_max), dtype=bool)
        for p, b in enumerate(self._plan_b):
            region[p, b:] = True
        # Valid candidate cells: queue-region x slack-validity.
        self._plan_mask = region[:, :, None] & self._plan_valid[:, None, :]
        self._plan_dead = ~self._plan_mask
        # Flat gather indices: q_cand[p, n, j] reads ev_stack[p, n,
        # jmap[p, j]], resolved once into one fancy-index vector so each
        # sweep is a single ``take`` instead of ``take_along_axis`` index
        # construction.
        base = (
            np.arange(p_count, dtype=np.intp)[:, None, None] * n_max
            + np.arange(n_max, dtype=np.intp)[None, :, None]
        ) * j_count
        self._plan_take = np.ascontiguousarray(
            base + self._plan_jmap[:, None, :]
        )
        # Greedy lookup tables with the incoming full-drain best at slot 0.
        self._plan_m_lut = np.concatenate(([0], self._plan_m))
        self._plan_b_lut = np.concatenate(([0], self._plan_b))
        # Reusable sweep buffers.  ``_fold_ev`` rows below each entry's
        # ``b`` are never written and never read (masked to -inf), so the
        # buffer is allocated once and left unzeroed between sweeps.
        self._fold_vpad = np.empty((2 * n_max + 1, j_count), dtype=np.float64)
        self._fold_ev = np.empty((p_count, n_max, j_count), dtype=np.float64)

    # ------------------------------------------------------------------
    # Optimality backup: stacked candidates + first-max argmax
    # ------------------------------------------------------------------
    def backup(self, values: np.ndarray, want_greedy: bool = False):
        self._fold_want_greedy = want_greedy
        return super().backup(values, want_greedy)

    def _fold_partial_actions(
        self,
        values: np.ndarray,
        best_q: np.ndarray,
        best_m: np.ndarray,
        best_b: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stacked-candidate replacement for the oracle's per-action loop.

        Bitwise identical to the sequential fold: each entry's expected
        continuation value uses the *same* windowed matmul (slicing a
        batched ``@`` is bitwise equal to the smaller product), scalar
        reward/discount broadcasting performs the same per-element float
        ops, and ``argmax`` takes the first maximum — exactly the strict
        ``>`` update order of the loop with the incoming full-drain best
        as candidate 0.
        """
        plan_size = len(self._plan_counts)
        if plan_size == 0:
            return best_q, best_m, best_b
        space = self._space
        n_max = self._max_queue
        v_full = values[space.FULL]

        vpad = self._fold_vpad
        vpad[:n_max] = space.occupied_view(values)
        vpad[n_max:] = v_full
        windows = np.lib.stride_tricks.sliding_window_view(
            vpad, n_max + 1, axis=0
        )

        # ev_stack[p, b_p + i] = E[V(next) | leftover base i + 1] — the one
        # per-entry kernel call, aligned to queue rows at assignment time
        # and written straight into the reusable buffer.
        ev_stack = self._fold_ev
        for p, b in enumerate(self._plan_b):
            np.matmul(
                windows[: n_max - b], self._plan_counts[p], out=ev_stack[p, b:]
            )
        # Overflow tail mass, batched (exact: adds 0.0 where residual is 0).
        ev_stack += self._plan_residual[:, None, None] * v_full
        # Leftover-slack requantization: one flat gather for every entry.
        q_cand = ev_stack.take(self._plan_take)
        q_cand *= self._plan_gamma[:, None, None]
        q_cand += self._plan_reward[:, None, None]
        np.copyto(q_cand, -np.inf, where=self._plan_dead)

        if not self._fold_want_greedy:
            # Plain max: same result as the loop's sequential strict-``>``
            # fold (float max is exact and order-independent).
            return (
                np.maximum(q_cand.max(axis=0), best_q, out=best_q),
                best_m,
                best_b,
            )
        cand = np.concatenate([best_q[None], q_cand], axis=0)
        winner = cand.argmax(axis=0)
        best_q = np.take_along_axis(cand, winner[None], axis=0)[0]
        keep = winner == 0
        best_m = np.where(keep, best_m, self._plan_m_lut[winner])
        best_b = np.where(keep, best_b, self._plan_b_lut[winner])
        return best_q, best_m, best_b

    # ------------------------------------------------------------------
    # Policy evaluation: assemble the chain once, then matrix-vector sweeps
    # ------------------------------------------------------------------
    def _policy_eval_arrays(
        self, action_table: Dict[int, Tuple[int, int]]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Reward / discount / transition arrays of the induced chain.

        Cached against the action table — policy iteration evaluates the
        same table for hundreds of sweeps, so assembly cost is paid once
        per improvement round instead of once per sweep per state.
        """
        if self._pe_table is not None and action_table == self._pe_table:
            return self._pe_reward, self._pe_discount, self._pe_rows
        space = self._space
        size = space.size
        rows = self.policy_rows(action_table)
        reward = np.zeros(size, dtype=np.float64)
        discount = np.empty(size, dtype=np.float64)
        discount[space.EMPTY] = self._gamma_empty
        for state_id in range(size):
            if state_id == space.EMPTY:
                continue
            n, _ = space.decode(state_id)
            action = action_table.get(state_id, (_FALLBACK, n))
            reward[state_id] = self.reward_of(state_id, action)
            discount[state_id] = self.discount_of(state_id, action)
        self._pe_table = dict(action_table)
        self._pe_rows = rows
        self._pe_reward = reward
        self._pe_discount = discount
        return reward, discount, rows

    def backup_policy(
        self, values: np.ndarray, action_table: Dict[int, Tuple[int, int]]
    ) -> np.ndarray:
        """One expectation backup as a single matrix-vector product."""
        reward, discount, rows = self._policy_eval_arrays(action_table)
        return reward + discount * (rows @ values)

    def policy_rows(
        self, table: Dict[int, Tuple[int, int]]
    ) -> np.ndarray:
        """Chain rows for ``table``, served from the evaluation cache.

        Falls through to the (shared, oracle-identical) assembly in
        :class:`WorkerMDP` on a cache miss, so the stationary analysis and
        policy evaluation read the same array without reassembling it.
        """
        if self._pe_table is not None and table == self._pe_table:
            return self._pe_rows
        return super().policy_rows(table)
