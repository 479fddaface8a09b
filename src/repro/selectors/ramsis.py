"""The RAMSIS online model selector (§3.2.2).

Per-worker model selectors service queries from their worker queue in
deadline order according to the offline-generated MS policies.  Given the
anticipated load from the monitor, the selector picks the lowest-load
pre-computed policy that meets it; if none does and a generator is
attached, a new policy is generated on the fly.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.core.policy import Action, Policy
from repro.core.policy_set import PolicySet
from repro.errors import SimulationError
from repro.selectors.base import ModelSelector, QueueScope, SelectorContext

__all__ = ["RamsisSelector"]


class RamsisSelector(ModelSelector):
    """Policy-set-driven selector for per-worker queues.

    Parameters
    ----------
    policies:
        Either one :class:`Policy` (pinned — used by the constant-load
        experiments where the load is known) or a :class:`PolicySet` for
        load-adaptive selection.
    on_policy_change:
        Optional ``(policy, now_ms)`` hook invoked when the effective
        policy changes — once up front with the initial policy (at
        ``now_ms = 0``) and then on every switch at decision time.  The
        live guarantee auditor uses it to re-arm its drift detector and
        swap the audited §5.1 bounds.
    """

    queue_scope = QueueScope.PER_WORKER
    name = "RAMSIS"

    def __init__(
        self,
        policies: Union[Policy, PolicySet],
        on_policy_change: Optional[Callable[[Policy, float], None]] = None,
    ) -> None:
        if isinstance(policies, Policy):
            self._set: Optional[PolicySet] = None
            self._pinned: Optional[Policy] = policies
        else:
            self._set = policies
            self._pinned = None
        self._on_policy_change = on_policy_change
        self._active: Optional[Policy] = None
        if on_policy_change is not None and self._pinned is not None:
            self._active = self._pinned
            on_policy_change(self._pinned, 0.0)

    @property
    def active_policy(self) -> Optional[Policy]:
        """The policy most recently used to serve a decision."""
        return self._active if self._active is not None else self._pinned

    def bind(self, context: SelectorContext) -> None:
        """Bind, rejecting a policy whose actions name a model missing
        from ``context.model_set`` (pinned, or any policy of the set).

        The check runs before serving starts, so a malformed policy fails
        here instead of as a lookup error mid-run — and a hot swap that
        binds before publishing is refused as a whole.
        """
        known = set(context.model_set.names)
        policies = [self._pinned] if self._pinned is not None else list(self._set)
        for policy in policies:
            unknown = {a.model for a in policy.states().values()} - known
            if unknown:
                raise SimulationError(
                    f"policy for {policy.load_qps:g} q/s names model(s) "
                    f"{sorted(unknown)} missing from the served model set"
                )
        super().bind(context)

    def current_policy(self, anticipated_load_qps: float) -> Policy:
        """The policy in effect for the anticipated load."""
        if self._pinned is not None:
            return self._pinned
        assert self._set is not None
        return self._set.policy_for(anticipated_load_qps)

    def select(
        self,
        queue_length: int,
        earliest_slack_ms: float,
        now_ms: float,
        anticipated_load_qps: float,
    ) -> Action:
        # Inlined current_policy(): one decision per served batch makes
        # this the online hot path.
        policy = self._pinned
        if policy is None:
            assert self._set is not None
            policy = self._set.policy_for(anticipated_load_qps)
        if policy is not self._active:
            self._active = policy
            if self._on_policy_change is not None:
                self._on_policy_change(policy, now_ms)
        return policy.action_for(queue_length, earliest_slack_ms)
