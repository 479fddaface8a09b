"""High-level offline policy generation (§3.1).

:func:`generate_policy` is the one-call entry point: configuration in,
solved and annotated :class:`~repro.core.policy.Policy` out.
:class:`PolicyGenerator` resolves load grids through two caches and one
solver:

- an **in-memory** cache keyed by ``(load, workers, tolerance)`` so sweeps
  within one process never solve the same MDP twice;
- an optional **persistent disk** cache (:class:`repro.cache.PolicyCache`)
  keyed by a content hash of the canonicalized config, so experiment
  invocations share solved policies across processes and runs;
- the **stacked bank**: the cache misses of one
  :meth:`PolicyGenerator.generate_many` call solve together as one
  :func:`repro.core.bank.solve_stacked_bank` program, byte-identical to
  independent per-load solves (``solver="loop"`` keeps the per-load
  reference oracle instead).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import WorkerMDPConfig
from repro.core.guarantees import PolicyGuarantees, evaluate_policy
from repro.core.mdp import build_worker_mdp, resolve_solver
from repro.core.policy import Policy, PolicyMetadata
from repro.core.solvers import value_iteration
from repro.obs.trace import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cache uses results)
    from repro.cache import PolicyCache
    from repro.obs.metrics import MetricsRegistry

__all__ = ["GenerationResult", "PolicyGenerator", "generate_policy"]


@dataclass(frozen=True)
class GenerationResult:
    """A generated policy plus its provenance and offline guarantees.

    ``residuals`` carries value iteration's per-sweep residual history
    when the caller asked for it (see :func:`generate_policy`).
    ``values`` is the converged value vector — kept so the §6 refinement
    loop can warm-start adjacent loads — and ``from_cache`` marks results
    restored from the persistent disk cache rather than solved.
    """

    policy: Policy
    guarantees: PolicyGuarantees
    iterations: int
    runtime_s: float
    residuals: Optional[Tuple[float, ...]] = None
    values: Optional[np.ndarray] = field(default=None, compare=False)
    from_cache: bool = field(default=False, compare=False)


def generate_policy(
    config: WorkerMDPConfig,
    tolerance: float = 1e-7,
    with_guarantees: bool = True,
    tracer: Optional[Tracer] = None,
    record_residuals: bool = False,
    initial: Optional[np.ndarray] = None,
    solver: str = "stacked",
) -> GenerationResult:
    """Build the worker MDP, solve it, and package the optimal MS policy.

    When ``with_guarantees`` is set (default), the §5.1 expectations are
    computed and embedded in the policy metadata — the policy-set
    refinement rule and the resource-planning example consume them.

    ``initial`` warm-starts value iteration from a previously converged
    value vector (e.g. an adjacent load's), cutting sweep counts without
    changing the fixed point.

    ``solver`` selects the Bellman-sweep backend (``"stacked"``, whose
    single-load case is the tensorized MDP, or the ``"loop"`` oracle; see
    :func:`repro.core.mdp.resolve_solver`).  Backends are value-identical
    — the equivalence suite asserts float-``==`` value functions and
    byte-identical saved policies — so results (and cache artifacts) are
    interchangeable across backends.

    An enabled ``tracer`` records the three offline phases (kernel/MDP
    construction, value iteration, guarantee evaluation) as nested spans
    on the ``generator`` track plus one event per solver sweep;
    ``record_residuals`` keeps the residual history on the result even
    without a tracer.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    start = time.perf_counter()
    with tracer.span("generate_policy", track="generator"):
        with tracer.span("build_worker_mdp", track="generator"):
            mdp = build_worker_mdp(config, solver=solver)
        with tracer.span("value_iteration", track="generator"):
            stats = value_iteration(
                mdp,
                tolerance=tolerance,
                initial=initial,
                tracer=tracer,
                record_residuals=record_residuals,
            )
        policy = mdp.extract_policy(stats.values)
        if with_guarantees:
            with tracer.span("evaluate_policy", track="generator"):
                guarantees = evaluate_policy(mdp, policy)
            policy = _annotate(policy, guarantees)
        else:
            guarantees = PolicyGuarantees(
                expected_accuracy=float("nan"),
                expected_violation_rate=float("nan"),
                per_epoch_accuracy=float("nan"),
                per_epoch_violation_rate=float("nan"),
                full_state_probability=float("nan"),
                idle_probability=float("nan"),
            )
    return GenerationResult(
        policy=policy,
        guarantees=guarantees,
        iterations=stats.iterations,
        runtime_s=time.perf_counter() - start,
        residuals=stats.residuals,
        values=stats.values,
    )


def _annotate(policy: Policy, guarantees: PolicyGuarantees) -> Policy:
    """Re-package a policy with expectation metadata filled in."""
    meta = policy.metadata
    annotated = PolicyMetadata(
        task=meta.task,
        slo_ms=meta.slo_ms,
        load_qps=meta.load_qps,
        num_workers=meta.num_workers,
        arrival_family=meta.arrival_family,
        discretization=meta.discretization,
        fld_resolution=meta.fld_resolution,
        batching=meta.batching,
        view=meta.view,
        discount=meta.discount,
        expected_accuracy=guarantees.expected_accuracy,
        expected_violation_rate=guarantees.expected_violation_rate,
    )
    return Policy(
        grid=policy.grid,
        max_queue=policy.max_queue,
        actions=policy.states(),
        metadata=annotated,
    )


#: A cache miss awaiting a solve: (result slot, load, config, warm start).
_Pending = Tuple[int, float, WorkerMDPConfig, Optional[np.ndarray]]


class PolicyGenerator:
    """Caching wrapper around the stacked bank solver.

    Resolution order for every cell: in-memory cache -> persistent disk
    cache (when ``cache`` is given) -> solve.  The in-memory key is
    ``(load, workers, tolerance)`` on top of a base configuration; the
    disk key is a content hash of the full canonicalized config plus the
    solver tolerance (see :mod:`repro.cache.keys`).
    """

    def __init__(
        self,
        base_config: WorkerMDPConfig,
        tolerance: float = 1e-7,
        cache: Optional["PolicyCache"] = None,
        tracer: Optional[Tracer] = None,
        registry: Optional["MetricsRegistry"] = None,
        solver: str = "stacked",
    ) -> None:
        self._base = base_config
        self._tolerance = tolerance
        #: ``"stacked"`` or the ``"loop"`` oracle.  Not part of the cache
        #: keys: both are value-identical (the equivalence suite gates
        #: this), so artifacts are shared.
        self._solver = resolve_solver(solver)
        self._cache: Dict[Tuple[float, int, float], GenerationResult] = {}
        self._disk = cache
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._registry = registry

    @property
    def base_config(self) -> WorkerMDPConfig:
        """The configuration all generated policies share (minus load/K)."""
        return self._base

    @property
    def disk_cache(self) -> Optional["PolicyCache"]:
        """The persistent cache layer, if one is attached."""
        return self._disk

    @property
    def solver(self) -> str:
        """The backend cells solve with (``stacked`` default)."""
        return self._solver

    def _count_cell(self, source: str) -> None:
        if self._registry is not None:
            self._registry.counter(
                "policy_bank_cells_total",
                "Policy-bank cells resolved, by source",
                labels={"source": source},
            ).inc()

    def _key(self, load_qps: float, workers: int) -> Tuple[float, int, float]:
        return (round(load_qps, 9), workers, self._tolerance)

    def _config_for(self, load_qps: float, workers: int) -> WorkerMDPConfig:
        config = self._base.with_load(load_qps)
        if workers != config.num_workers:
            config = replace(config, num_workers=workers)
        return config

    def generate(
        self,
        load_qps: float,
        num_workers: Optional[int] = None,
        initial: Optional[np.ndarray] = None,
    ) -> GenerationResult:
        """Policy for ``load_qps`` (and optionally a worker-count override).

        ``initial`` warm-starts value iteration on a cache miss; cached
        results are returned as-is (the fixed point does not depend on the
        seed, and warm/cold convergence to the same policy is asserted by
        the test suite).
        """
        q = float(load_qps)
        initials = None if initial is None else {q: initial}
        return self.generate_many([q], num_workers, initials=initials)[0]

    def generate_many(
        self,
        loads_qps: Sequence[float],
        num_workers: Optional[int] = None,
        initials: Optional[Mapping[float, Optional[np.ndarray]]] = None,
    ) -> List[GenerationResult]:
        """Policies for a batch of loads, in the order given.

        Cache layers are consulted first; the misses solve together as one
        stacked bank (a single miss is the ``L = 1`` bank), or one by one
        through :func:`generate_policy` under ``solver="loop"``.  Either
        way each result is byte-identical to an independent per-load solve
        and commits to both caches under its per-load key.

        ``initials`` optionally maps a load to a warm-start value vector
        (see :meth:`generate`).
        """
        workers = num_workers if num_workers is not None else self._base.num_workers
        loads = [float(q) for q in loads_qps]
        results: List[Optional[GenerationResult]] = [None] * len(loads)
        pending: List[_Pending] = []
        for i, q in enumerate(loads):
            key = self._key(q, workers)
            cached = self._cache.get(key)
            if cached is not None:
                self._count_cell("memory")
                results[i] = cached
                continue
            config = self._config_for(q, workers)
            if self._disk is not None:
                restored = self._disk.get(config, self._tolerance)
                if restored is not None:
                    self._cache[key] = restored
                    self._count_cell("disk")
                    results[i] = restored
                    continue
            initial = initials.get(q) if initials is not None else None
            pending.append((i, q, config, initial))

        if pending:
            solve = self._solve_loop if self._solver == "loop" else self._solve_stacked
            for (i, q, config, _), result in zip(pending, solve(pending, workers)):
                self._count_cell("solve")
                self._cache[self._key(q, workers)] = result
                if self._disk is not None:
                    self._disk.put(config, self._tolerance, result)
                results[i] = result
        return results  # type: ignore[return-value]

    def _solve_stacked(
        self, pending: List[_Pending], workers: int
    ) -> List[GenerationResult]:
        """Solve the pending cells as one stacked bank, in order."""
        from repro.core.bank import solve_stacked_bank

        with self._tracer.span(
            "policy_bank_stacked",
            track="policy_bank",
            args={"cells": len(pending), "workers": workers},
        ):
            return solve_stacked_bank(
                [config for _, _, config, _ in pending],
                tolerance=self._tolerance,
                initials=[initial for _, _, _, initial in pending],
                tracer=self._tracer,
            )

    def _solve_loop(
        self, pending: List[_Pending], workers: int
    ) -> List[GenerationResult]:
        """Solve the pending cells one by one on the loop oracle, in order."""
        solved = []
        for _, q, config, initial in pending:
            with self._tracer.span(
                f"cell {q:g}qps",
                track="policy_bank",
                args={"load_qps": q, "workers": workers},
            ):
                solved.append(
                    generate_policy(
                        config,
                        tolerance=self._tolerance,
                        tracer=self._tracer,
                        initial=initial,
                        solver="loop",
                    )
                )
        return solved

    def cache_size(self) -> int:
        """Number of distinct (load, workers) policies generated so far."""
        return len(self._cache)
