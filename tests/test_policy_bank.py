"""Policy-bank generation: one routing rule, caching, warm starts."""

from __future__ import annotations

import json
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import PolicyCache
from repro.core.generator import PolicyGenerator, generate_policy
from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import RecordingTracer

TOL = 1e-6
LOADS = [15.0, 25.0, 35.0, 45.0]


def _policy_bytes(result) -> str:
    return json.dumps(result.policy.to_json_dict(), sort_keys=True)


def _bank_bytes(results) -> str:
    return json.dumps(
        [r.policy.to_json_dict() for r in results], sort_keys=True
    )


# ----------------------------------------------------------------------
# Routing: every miss solves on the stacked bank, loop is the oracle
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def loop_reference():
    """Loop-oracle solves keyed by (load, warm-started), shared across
    hypothesis examples so each reference is solved once."""
    solved = {}

    def reference(config, load: float, initial):
        key = (load, initial is not None)
        if key not in solved:
            solved[key] = generate_policy(
                config.with_load(load), tolerance=TOL, initial=initial,
                solver="loop",
            )
        return solved[key]

    return reference


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    loads=st.lists(st.sampled_from(LOADS), min_size=1, max_size=len(LOADS),
                   unique=True),
    prewarm=st.sets(st.sampled_from(LOADS), max_size=2),
    layer=st.sampled_from(["memory", "disk"]),
    warm=st.booleans(),
)
def test_generate_many_matches_per_load_loop(tiny_config, loop_reference,
                                             loads, prewarm, layer, warm):
    seed = loop_reference(tiny_config, 20.0, None).values
    initials = {q: seed for q in loads} if warm else None
    with tempfile.TemporaryDirectory() as tmp:
        disk = (lambda: PolicyCache(directory=tmp)) if layer == "disk" else None
        generator = PolicyGenerator(
            tiny_config, tolerance=TOL, cache=None if disk is None else disk()
        )
        for q in sorted(prewarm):
            generator.generate(q)
        if disk is not None:
            generator = PolicyGenerator(tiny_config, tolerance=TOL, cache=disk())
        results = generator.generate_many(loads, initials=initials)
    assert [r.policy.load_qps for r in results] == loads
    for q, result in zip(loads, results):
        # A pre-warmed cell comes back as its cold solve; a miss honours
        # the warm start.
        ref = loop_reference(
            tiny_config, q, seed if warm and q not in prewarm else None
        )
        assert _policy_bytes(result) == _policy_bytes(ref)
        assert result.guarantees == ref.guarantees
        assert result.iterations == ref.iterations
        assert result.from_cache == (layer == "disk" and q in prewarm)


def test_generate_is_a_one_load_batch(tiny_config):
    one = PolicyGenerator(tiny_config, tolerance=TOL).generate(LOADS[1])
    (batch,) = PolicyGenerator(tiny_config, tolerance=TOL).generate_many(
        [LOADS[1]]
    )
    assert _policy_bytes(one) == _policy_bytes(batch)
    assert one.guarantees == batch.guarantees
    assert one.iterations == batch.iterations


def test_generator_rejects_unknown_solver(tiny_config):
    for name in ("auto", "tensor"):
        with pytest.raises(ConfigurationError):
            PolicyGenerator(tiny_config, solver=name)


def test_generate_many_preserves_load_order(tiny_config):
    generator = PolicyGenerator(tiny_config, tolerance=TOL)
    # Pre-warm one middle cell so the pending set is a strict subset.
    generator.generate(LOADS[2])
    results = generator.generate_many(LOADS)
    assert [r.policy.load_qps for r in results] == LOADS


def test_stacked_bank_emits_spans_and_counters(tiny_config):
    registry = MetricsRegistry()
    tracer = RecordingTracer()
    generator = PolicyGenerator(
        tiny_config, tolerance=TOL, tracer=tracer, registry=registry
    )
    generator.generate_many(LOADS)
    generator.generate(10.0)  # a single miss is a one-cell bank
    bank_spans = [s.name for s in tracer.spans if s.track == "policy_bank"]
    assert bank_spans == ["policy_bank_stacked", "policy_bank_stacked"]
    solves = registry.counter(
        "policy_bank_cells_total",
        labels={"source": "solve"},
    )
    assert solves.value == len(LOADS) + 1


# ----------------------------------------------------------------------
# Cache layers
# ----------------------------------------------------------------------
def test_memory_cache_hits_counted(tiny_config):
    registry = MetricsRegistry()
    generator = PolicyGenerator(tiny_config, tolerance=TOL, registry=registry)
    first = generator.generate_many(LOADS)
    second = generator.generate_many(LOADS)
    assert generator.cache_size() == len(LOADS)
    assert _bank_bytes(first) == _bank_bytes(second)
    hits = registry.counter(
        "policy_bank_cells_total", labels={"source": "memory"}
    )
    assert hits.value == len(LOADS)


def test_disk_cache_shared_across_generators(tiny_config, tmp_path):
    cache_a = PolicyCache(directory=tmp_path)
    bank = PolicyGenerator(
        tiny_config, tolerance=TOL, cache=cache_a
    ).generate_many(LOADS)
    assert cache_a.stores == len(LOADS)

    registry = MetricsRegistry()
    cache_b = PolicyCache(directory=tmp_path)
    restored = PolicyGenerator(
        tiny_config, tolerance=TOL, cache=cache_b, registry=registry
    ).generate_many(LOADS)
    assert cache_b.hits == len(LOADS)
    assert all(r.from_cache for r in restored)
    assert _bank_bytes(restored) == _bank_bytes(bank)
    disk_hits = registry.counter(
        "policy_bank_cells_total", labels={"source": "disk"}
    )
    assert disk_hits.value == len(LOADS)


def test_tolerance_partitions_the_cache(tiny_config, tmp_path):
    cache = PolicyCache(directory=tmp_path)
    PolicyGenerator(tiny_config, tolerance=1e-6, cache=cache).generate(25.0)
    fresh = PolicyCache(directory=tmp_path)
    result = PolicyGenerator(tiny_config, tolerance=1e-7, cache=fresh).generate(
        25.0
    )
    assert not result.from_cache
    assert fresh.misses == 1


# ----------------------------------------------------------------------
# Stacked bank backend
# ----------------------------------------------------------------------
def test_stacked_bank_matches_serial(tiny_config):
    serial = PolicyGenerator(
        tiny_config, tolerance=TOL, solver="loop"
    ).generate_many(LOADS)
    stacked = PolicyGenerator(
        tiny_config, tolerance=TOL, solver="stacked"
    ).generate_many(LOADS)
    assert _bank_bytes(serial) == _bank_bytes(stacked)
    for s, p in zip(serial, stacked):
        assert s.guarantees == p.guarantees
        assert s.iterations == p.iterations


def test_stacked_shares_cache_keys_with_serial(tiny_config, tmp_path):
    cache_a = PolicyCache(directory=tmp_path)
    bank = PolicyGenerator(
        tiny_config, tolerance=TOL, solver="loop", cache=cache_a
    ).generate_many(LOADS)
    assert cache_a.stores == len(LOADS)

    cache_b = PolicyCache(directory=tmp_path)
    restored = PolicyGenerator(
        tiny_config, tolerance=TOL, solver="stacked", cache=cache_b
    ).generate_many(LOADS)
    assert cache_b.hits == len(LOADS)
    assert all(r.from_cache for r in restored)
    assert _bank_bytes(restored) == _bank_bytes(bank)


def test_stacked_threads_initials(tiny_config):
    seed = PolicyGenerator(tiny_config, tolerance=TOL).generate(20.0)
    cold = PolicyGenerator(
        tiny_config, tolerance=TOL, solver="loop"
    ).generate_many(LOADS)
    warm = PolicyGenerator(
        tiny_config, tolerance=TOL, solver="stacked"
    ).generate_many(LOADS, initials={q: seed.values for q in LOADS})
    assert _bank_bytes(warm) == _bank_bytes(cold)
    assert all(w.iterations <= c.iterations for w, c in zip(warm, cold))


# ----------------------------------------------------------------------
# Warm starts
# ----------------------------------------------------------------------
def test_warm_start_matches_cold_policy(tiny_config):
    neighbour = generate_policy(tiny_config.with_load(20.0), tolerance=TOL)
    cold = generate_policy(tiny_config.with_load(25.0), tolerance=TOL)
    warm = generate_policy(
        tiny_config.with_load(25.0), tolerance=TOL, initial=neighbour.values
    )
    assert _policy_bytes(warm) == _policy_bytes(cold)
    assert warm.iterations <= cold.iterations


def test_generate_many_threads_initials(tiny_config):
    generator = PolicyGenerator(tiny_config, tolerance=TOL)
    seed = generator.generate(20.0)
    cold = PolicyGenerator(tiny_config, tolerance=TOL).generate(25.0)
    warm = generator.generate_many([25.0], initials={25.0: seed.values})[0]
    assert _policy_bytes(warm) == _policy_bytes(cold)


# ----------------------------------------------------------------------
# Policy serialization (deterministic artifact bytes)
# ----------------------------------------------------------------------
def test_policy_save_bytes_are_stable(tiny_config, tmp_path):
    result = generate_policy(tiny_config, tolerance=TOL)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    result.policy.save(a)
    result.policy.save(b)
    assert a.read_bytes() == b.read_bytes()
    # Keys are sorted, so a re-serialized round trip is also byte-stable.
    from repro.core.policy import Policy

    loaded = Policy.load(a)
    loaded.save(b)
    assert a.read_bytes() == b.read_bytes()
    assert np.isclose(loaded.metadata.expected_accuracy,
                      result.policy.metadata.expected_accuracy)
