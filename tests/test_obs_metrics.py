"""Tests for the metrics registry (repro.obs.metrics)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_inc(self):
        c = Counter("queries")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter("queries").inc(-1.0)


class TestGauge:
    def test_nan_before_first_set(self):
        assert math.isnan(Gauge("load").value)

    def test_last_write_wins(self):
        g = Gauge("load")
        g.set(10.0)
        g.set(20.0)
        assert g.value == 20.0

    def test_series_only_with_timestamps(self):
        g = Gauge("load")
        g.set(10.0)  # no t_ms: not in series
        g.set(20.0, t_ms=5.0)
        g.set(30.0, t_ms=6.0)
        assert g.series == ((5.0, 20.0), (6.0, 30.0))

    def test_series_bounded(self):
        g = Gauge("load", max_samples=3)
        for i in range(10):
            g.set(float(i), t_ms=float(i))
        assert len(g.series) == 3
        assert g.value == 9.0  # last value still tracked past the cap


class TestHistogram:
    def test_count_sum_mean(self):
        h = Histogram("lat", buckets=(10.0, 100.0))
        for v in (5.0, 50.0, 500.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 555.0
        assert h.mean == 185.0

    def test_empty_behaviour(self):
        h = Histogram("lat", buckets=(10.0,))
        assert h.mean == 0.0
        assert math.isnan(h.quantile(0.5))

    def test_cumulative_buckets(self):
        h = Histogram("lat", buckets=(10.0, 100.0))
        for v in (1.0, 10.0, 11.0, 1000.0):
            h.observe(v)
        cumulative = dict(h.cumulative_buckets())
        # le=10 includes the boundary value (Prometheus: value <= bound).
        assert cumulative[10.0] == 2
        assert cumulative[100.0] == 3
        assert cumulative[math.inf] == 4

    def test_quantiles_exact_below_capacity(self):
        """Below the reservoir capacity, quantiles match numpy's linear
        interpolation exactly."""
        rng = np.random.default_rng(7)
        samples = rng.exponential(scale=40.0, size=1000)
        h = Histogram("lat")
        for v in samples:
            h.observe(float(v))
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            expected = float(np.quantile(samples, q))
            assert h.quantile(q) == pytest.approx(expected, rel=1e-12)

    def test_quantiles_approximate_above_capacity(self):
        """Past the capacity the reservoir is a uniform sample: quantiles
        stay close for a well-behaved distribution."""
        rng = np.random.default_rng(3)
        samples = rng.uniform(0.0, 100.0, size=20_000)
        h = Histogram("lat", reservoir_size=4096)
        for v in samples:
            h.observe(float(v))
        assert h.quantile(0.5) == pytest.approx(50.0, abs=5.0)
        assert h.quantile(0.9) == pytest.approx(90.0, abs=5.0)

    def test_reservoir_deterministic(self):
        def fill():
            h = Histogram("lat", reservoir_size=64)
            for i in range(1000):
                h.observe(float(i % 97))
            return h.quantile(0.5)

        assert fill() == fill()

    def test_quantile_range_checked(self):
        h = Histogram("lat")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_buckets_must_be_nonempty(self):
        with pytest.raises(ValueError):
            Histogram("lat", buckets=())

    def test_nan_rejected(self):
        # NaN compares false with every bound, so it has no bucket and no
        # place in the ordered reservoir view.
        h = Histogram("lat", buckets=(1.0, 10.0))
        h.observe(5.0)
        before = h.state_dict()
        with pytest.raises(ValueError, match="NaN"):
            h.observe(math.nan)
        assert h.state_dict() == before

    def test_merge_nan_reservoir_rejected(self):
        h = Histogram("lat", buckets=(1.0, 10.0))
        h.observe(5.0)
        before = h.state_dict()
        state = dict(before, reservoir=[2.0, math.nan])
        with pytest.raises(ValueError, match="NaN"):
            h.merge_state(state)
        assert h.state_dict() == before


class TestMetricsRegistry:
    def test_get_or_create_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")

    def test_label_sets_are_distinct(self):
        reg = MetricsRegistry()
        c1 = reg.counter("queries", labels={"model": "resnet50"})
        c2 = reg.counter("queries", labels={"model": "alexnet"})
        assert c1 is not c2
        assert len(reg) == 2
        assert len(list(reg.collect("queries"))) == 2

    def test_label_order_irrelevant(self):
        reg = MetricsRegistry()
        a = reg.counter("q", labels={"x": "1", "y": "2"})
        b = reg.counter("q", labels={"y": "2", "x": "1"})
        assert a is b

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_kind_and_help_introspection(self):
        reg = MetricsRegistry()
        reg.histogram("lat", help="latency in ms")
        assert reg.kind_of("lat") == "histogram"
        assert reg.help_of("lat") == "latency in ms"
        assert reg.kind_of("nope") is None
        assert reg.help_of("nope") == ""

    def test_names_sorted(self):
        reg = MetricsRegistry()
        reg.counter("zeta")
        reg.gauge("alpha")
        assert reg.names() == ["alpha", "zeta"]

    def test_default_latency_buckets_sorted(self):
        assert list(DEFAULT_LATENCY_BUCKETS_MS) == sorted(
            DEFAULT_LATENCY_BUCKETS_MS
        )


class TestTailQuantiles:
    """Streaming-histogram tail quantiles vs numpy ground truth.

    Within reservoir capacity the interpolation formula is numpy's
    default (``linear``), so p99/p99.9 must match ``np.percentile``
    exactly.  Beyond capacity the reservoir subsamples; the estimate's
    *rank* error in the full empirical distribution must stay within
    ~3 binomial standard deviations for a 4096-slot reservoir
    (0.006 for p99, 0.003 for p99.9) — checked on a bimodal mixture and
    a heavy-tailed Pareto sample, the shapes tail latencies take.
    """

    def _rank_error(self, data, estimate, q):
        ordered = np.sort(data)
        rank = np.searchsorted(ordered, estimate, side="left") / len(ordered)
        return abs(rank - q)

    def test_exact_within_capacity_matches_numpy(self):
        rng = np.random.default_rng(42)
        data = rng.lognormal(mean=3.0, sigma=1.0, size=4000)
        h = Histogram("lat")
        for x in data:
            h.observe(float(x))
        for q in (0.5, 0.9, 0.99, 0.999):
            assert h.quantile(q) == pytest.approx(
                np.percentile(data, q * 100.0), rel=1e-12
            )

    def test_bimodal_tail_beyond_capacity(self):
        rng = np.random.default_rng(7)
        fast = rng.normal(20.0, 2.0, size=45_000)
        slow = rng.normal(400.0, 30.0, size=5_000)
        data = np.abs(np.concatenate([fast, slow]))
        rng.shuffle(data)
        h = Histogram("lat")
        for x in data:
            h.observe(float(x))
        assert h.count == 50_000
        assert self._rank_error(data, h.quantile(0.99), 0.99) < 0.006
        assert self._rank_error(data, h.quantile(0.999), 0.999) < 0.003
        # The bimodal structure itself must be visible: p99 sits in the
        # slow mode, far from the fast mode's mass.
        assert h.quantile(0.99) > 300.0

    def test_heavy_tail_beyond_capacity(self):
        rng = np.random.default_rng(19)
        # Pareto (alpha=1.5): infinite variance, the adversarial case
        # for any subsampled quantile sketch.
        data = 10.0 * (1.0 + rng.pareto(1.5, size=50_000))
        h = Histogram("lat")
        for x in data:
            h.observe(float(x))
        assert self._rank_error(data, h.quantile(0.99), 0.99) < 0.006
        assert self._rank_error(data, h.quantile(0.999), 0.999) < 0.003

    def test_attribution_exemplar_threshold_uses_histogram(self):
        # The attribution engine's rolling exemplar threshold is this
        # histogram's quantile: deterministic for a fixed feed order.
        from repro.obs.attribution import LatencyAttributor

        a = LatencyAttributor(exemplar_warmup=100, exemplar_capacity=8)
        b = LatencyAttributor(exemplar_warmup=100, exemplar_capacity=8)
        rng = np.random.default_rng(3)
        latencies = rng.uniform(1.0, 100.0, size=500)
        for attributor in (a, b):
            for i, lat in enumerate(latencies):
                attributor.observe_completion(i, 0, "m", float(lat), True)
        assert (
            a.to_json_dict()["exemplars"] == b.to_json_dict()["exemplars"]
        )


class _ListOnlyHistogram(Histogram):
    """Reference reservoir: the slot-order list alone, with the
    hand-rolled bucket search and a full sort on every quantile query.
    The ordered view must leave every observable value identical."""

    __slots__ = ()

    def observe(self, value):
        value = float(value)
        self._count += 1
        self._sum += value
        lo, hi = 0, len(self._bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._bounds[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        self._bucket_counts[lo] += 1
        if len(self._reservoir) < self._capacity:
            self._reservoir.append(value)
        else:
            slot = self._rng.randrange(self._count)
            if slot < self._capacity:
                self._reservoir[slot] = value

    def merge_state(self, state):
        for i, n in enumerate(state["bucket_counts"]):
            self._bucket_counts[i] += int(n)
        self._count += int(state["count"])
        self._sum += float(state["sum"])
        for value in state["reservoir"]:
            if len(self._reservoir) >= self._capacity:
                break
            self._reservoir.append(float(value))


def _oracle_quantile(reservoir, q):
    """Linear interpolation over a fresh sort of the slot-order list."""
    ordered = sorted(reservoir)
    if len(ordered) == 1:
        return ordered[0]
    rank = q * (len(ordered) - 1)
    lo, hi = math.floor(rank), math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


_SAMPLES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.5, 10.0, 100.0]),
    st.floats(-1e6, 1e6, allow_nan=False),
)
_OPS = st.one_of(
    st.tuples(st.just("observe"), _SAMPLES),
    st.tuples(st.just("merge"), st.lists(_SAMPLES, max_size=8)),
)


class TestOrderedReservoir:
    """The sorted view kept beside the reservoir answers every quantile
    exactly as a sort of the slot-order reservoir would, through appends,
    algorithm-R replacements and merges."""

    @settings(max_examples=150, deadline=None)
    @given(
        capacity=st.integers(1, 64),
        ops=st.lists(_OPS, min_size=1, max_size=200),
    )
    def test_quantiles_match_sorted_reservoir(self, capacity, ops):
        buckets = (1.0, 10.0)
        h = Histogram("lat", buckets=buckets, reservoir_size=capacity)
        ref = _ListOnlyHistogram("lat", buckets=buckets, reservoir_size=capacity)
        for kind, arg in ops:
            if kind == "observe":
                h.observe(arg)
                ref.observe(arg)
            else:
                donor = Histogram("donor", buckets=buckets)
                for value in arg:
                    donor.observe(value)
                h.merge_state(donor.state_dict())
                ref.merge_state(donor.state_dict())
            state = h.state_dict()
            # Slot order, buckets and sums (incl. the sign of zeros) are
            # exactly the reference's.
            assert repr(state) == repr(ref.state_dict())
            reservoir = state["reservoir"]
            n = len(reservoir)
            if n == 0:  # a merge of an empty snapshot
                assert math.isnan(h.quantile(0.5))
                continue
            qs = {0.0, 0.5, 0.99, 1.0}
            if n > 1:
                qs.update(i / (n - 1) for i in range(n))
            for q in sorted(qs):
                assert h.quantile(q) == _oracle_quantile(reservoir, q)

    def test_bucket_index_matches_hand_rolled_search(self):
        values = [-math.inf, -1.0, -0.0, 0.0, 1.0, 1.0 + 1e-12, 2.5,
                  9999.0, 10000.0, 10000.5, math.inf]
        h = Histogram("lat")
        ref = _ListOnlyHistogram("lat")
        for value in values:
            h.observe(value)
            ref.observe(value)
        assert h.cumulative_buckets() == ref.cumulative_buckets()
