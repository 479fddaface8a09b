"""Tests for transition kernels (§4.4) — the heart of the reproduction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.mdp as mdp_module
from repro.arrivals.distributions import (
    DeterministicArrivals,
    GammaArrivals,
    PoissonArrivals,
)
from repro.core.bank import _stacked_kernel_seeds
from repro.core.config import (
    BatchingMode,
    Discretization,
    TransitionView,
    WorkerMDPConfig,
)
from repro.core.discretization import fixed_length_grid, model_based_grid
from repro.core.mdp import WorkerMDP
from repro.core.tensor import TensorizedWorkerMDP
from repro.core.transitions import (
    DeterministicGaps,
    EquilibriumRenewalKernelBuilder,
    ExactRoundRobinKernelBuilder,
    GammaGaps,
    SplitViewKernelBuilder,
    StateSpace,
    gaps_for_distribution,
)
from repro.profiles.latency import LinearLatencyModel
from repro.profiles.models import ModelProfile, ModelSet

SLO = 120.0
GRID = fixed_length_grid(SLO, 12)
N_MAX = 10


class TestStateSpace:
    def test_size(self):
        sp = StateSpace(max_queue=4, grid_size=5)
        assert sp.size == 2 + 20

    def test_index_decode_roundtrip(self):
        sp = StateSpace(max_queue=4, grid_size=5)
        for n in range(1, 5):
            for j in range(5):
                assert sp.decode(sp.index(n, j)) == (n, j)

    def test_special_states(self):
        sp = StateSpace(max_queue=4, grid_size=5)
        assert sp.decode(sp.EMPTY) == (0, -1)
        assert sp.decode(sp.FULL) == (4, 0)

    def test_bounds_checked(self):
        sp = StateSpace(max_queue=4, grid_size=5)
        with pytest.raises(ValueError):
            sp.index(0, 0)
        with pytest.raises(ValueError):
            sp.index(5, 0)
        with pytest.raises(ValueError):
            sp.index(1, 5)
        with pytest.raises(ValueError):
            sp.decode(sp.size)

    def test_occupied_view_shares_memory(self):
        sp = StateSpace(max_queue=3, grid_size=4)
        v = np.zeros(sp.size)
        view = sp.occupied_view(v)
        view[1, 2] = 7.0
        assert v[sp.index(2, 2)] == 7.0


class TestSplitViewKernel:
    def setup_method(self):
        self.dist = PoissonArrivals(40.0)
        self.builder = SplitViewKernelBuilder(GRID, self.dist, max_queue=N_MAX)

    def test_row_is_distribution(self):
        for latency in (5.0, 33.3, 80.0, 150.0):
            row = self.builder.service_row(latency)
            assert row.min() >= 0.0
            assert row.sum() == pytest.approx(1.0, abs=1e-9)

    def test_empty_probability_matches_poisson(self):
        row = self.builder.service_row(50.0)
        assert row[self.builder.space.EMPTY] == pytest.approx(
            self.dist.pmf(0, 50.0)
        )

    def test_count_marginal_matches_poisson(self):
        """Summing slack bins recovers P[n' = k arrivals during service]."""
        row = self.builder.service_row(60.0)
        occ = self.builder.space.occupied_view(row)
        pois = self.dist.pmf_vector(N_MAX, 60.0)
        for k in range(1, N_MAX + 1):
            assert occ[k - 1].sum() == pytest.approx(pois[k], abs=1e-10)

    def test_slack_support_window(self):
        """For n' >= 1, slack lies in [SLO - l, SLO) exactly."""
        latency = 60.0
        row = self.builder.service_row(latency)
        occ = self.builder.space.occupied_view(row)
        grid_values = GRID.as_array()
        for j in range(len(GRID)):
            mass = occ[:, j].sum()
            if GRID.upper(j) <= SLO - latency or grid_values[j] >= SLO:
                assert mass == pytest.approx(0.0, abs=1e-12)

    def test_full_state_takes_tail(self):
        # Huge service time: queue overflows with near certainty.
        row = self.builder.service_row(1000.0)
        assert row[self.builder.space.FULL] > 0.5

    def test_rows_cached(self):
        a = self.builder.service_row(42.0)
        b = self.builder.service_row(42.0)
        assert a is b

    def test_partial_row_geometry(self):
        row = self.builder.partial_row(30.0, leftover=2, leftover_slack_ms=45.0)
        sp = self.builder.space
        assert row.sum() == pytest.approx(1.0, abs=1e-9)
        j_left = GRID.floor_index(45.0)
        counts = self.dist.pmf_vector(N_MAX, 30.0)
        for k in range(N_MAX - 2 + 1):
            assert row[sp.index(2 + k, j_left)] == pytest.approx(counts[k])

    def test_partial_row_requires_leftover(self):
        with pytest.raises(ValueError):
            self.builder.partial_row(30.0, leftover=0, leftover_slack_ms=0.0)


class TestEquilibriumRenewalKernel:
    def test_exponential_gaps_match_poisson_split(self):
        """Memorylessness: equilibrium renewal with exponential gaps must
        reproduce the Poisson split kernel exactly."""
        dist = PoissonArrivals(40.0)
        split = SplitViewKernelBuilder(GRID, dist, max_queue=N_MAX)
        renewal = EquilibriumRenewalKernelBuilder(
            GRID, GammaGaps(shape=1.0, scale_ms=25.0), max_queue=N_MAX
        )
        for latency in (10.0, 47.0, 90.0):
            a = split.service_row(latency)
            b = renewal.service_row(latency)
            assert np.allclose(a, b, atol=5e-6)

    def test_row_is_distribution(self):
        builder = EquilibriumRenewalKernelBuilder(
            GRID, GammaGaps(shape=6.0, scale_ms=25.0 / 6.0), max_queue=N_MAX
        )
        for latency in (5.0, 40.0, 110.0):
            row = builder.service_row(latency)
            assert row.min() >= -1e-12
            assert row.sum() == pytest.approx(1.0, abs=1e-8)

    def test_erlang_less_bursty_than_poisson(self):
        """With Erlang gaps (round-robin marginal), the count of arrivals
        during a service is less dispersed than Poisson at the same rate."""
        mean_gap = 25.0
        pois = EquilibriumRenewalKernelBuilder(
            GRID, GammaGaps(shape=1.0, scale_ms=mean_gap), max_queue=N_MAX
        )
        erl = EquilibriumRenewalKernelBuilder(
            GRID, GammaGaps(shape=8.0, scale_ms=mean_gap / 8.0), max_queue=N_MAX
        )
        latency = 50.0  # ~2 arrivals expected
        counts_p = pois.arrival_counts(latency)
        counts_e = erl.arrival_counts(latency)
        ks = np.arange(N_MAX + 1)

        def variance(c):
            mean = float((ks * c).sum())
            return float((((ks - mean) ** 2) * c).sum())

        assert variance(counts_e) < variance(counts_p)

    def test_arrival_counts_mean_matches_rate(self):
        builder = EquilibriumRenewalKernelBuilder(
            GRID, GammaGaps(shape=4.0, scale_ms=5.0), max_queue=N_MAX
        )
        latency = 60.0  # expected arrivals = 60 / 20 = 3
        counts = builder.arrival_counts(latency)
        mean = float((np.arange(N_MAX + 1) * counts).sum())
        # Tail mass beyond N_MAX is negligible here.
        assert mean == pytest.approx(3.0, rel=0.05)

    def test_deterministic_gaps(self):
        builder = EquilibriumRenewalKernelBuilder(
            GRID, DeterministicGaps(gap_ms=30.0), max_queue=N_MAX
        )
        counts = builder.arrival_counts(45.0)
        # 45ms with 30ms gaps and uniform phase: 1 or 2 arrivals.
        assert counts.sum() == pytest.approx(1.0, abs=1e-6)
        assert counts[0] == pytest.approx(0.0, abs=0.02)
        assert counts[1] + counts[2] == pytest.approx(1.0, abs=0.02)


class TestGapsForDistribution:
    def test_poisson_maps_to_exponential(self):
        gaps = gaps_for_distribution(PoissonArrivals(100.0))
        assert isinstance(gaps, GammaGaps)
        assert gaps.shape == 1.0
        assert gaps.mean_ms == pytest.approx(10.0)

    def test_gamma_maps_to_gamma(self):
        gaps = gaps_for_distribution(GammaArrivals(100.0, shape=3.0))
        assert isinstance(gaps, GammaGaps)
        assert gaps.shape == 3.0
        assert gaps.mean_ms == pytest.approx(10.0)

    def test_deterministic_maps_to_fixed(self):
        gaps = gaps_for_distribution(DeterministicArrivals(100.0))
        assert isinstance(gaps, DeterministicGaps)
        assert gaps.mean_ms == pytest.approx(10.0)


class TestExactRoundRobinKernel:
    def test_k1_matches_split_view(self):
        dist = PoissonArrivals(40.0)
        split = SplitViewKernelBuilder(GRID, dist, max_queue=N_MAX)
        exact = ExactRoundRobinKernelBuilder(
            GRID, dist, num_workers=1, max_queue=N_MAX
        )
        for latency in (15.0, 55.0, 100.0):
            rows = exact.service_rows_by_phase(latency)
            assert rows.shape[0] == 1
            assert np.allclose(rows[0], split.service_row(latency), atol=1e-9)

    def test_rows_are_distributions(self):
        exact = ExactRoundRobinKernelBuilder(
            GRID, PoissonArrivals(120.0), num_workers=3, max_queue=N_MAX
        )
        rows = exact.service_rows_by_phase(40.0)
        assert rows.shape == (3, exact.space.size)
        assert rows.min() >= -1e-12
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-8)

    def test_phase_weights_sum_to_one(self):
        exact = ExactRoundRobinKernelBuilder(
            GRID, PoissonArrivals(120.0), num_workers=4, max_queue=N_MAX
        )
        for n in (1, 3, 7):
            for slack in (0.0, 50.0, 120.0):
                w = exact.phase_weights(n, slack)
                assert w.shape == (4,)
                assert w.sum() == pytest.approx(1.0)
                assert (w >= 0).all()

    def test_phase_deterministic_right_after_arrival(self):
        """A fresh arrival (slack == SLO, n == 1) pins the phase to 0."""
        exact = ExactRoundRobinKernelBuilder(
            GRID, PoissonArrivals(120.0), num_workers=4, max_queue=N_MAX
        )
        w = exact.phase_weights(1, SLO)
        assert w[0] == pytest.approx(1.0)

    def test_higher_phase_means_sooner_arrival(self):
        """Phase r = K-1 (next central arrival is ours) makes an empty next
        queue less likely than phase r = 0."""
        exact = ExactRoundRobinKernelBuilder(
            GRID, PoissonArrivals(120.0), num_workers=4, max_queue=N_MAX
        )
        rows = exact.service_rows_by_phase(40.0)
        sp = exact.space
        assert rows[3, sp.EMPTY] < rows[0, sp.EMPTY]

    def test_marginal_close_to_equilibrium_renewal(self):
        """Uniformly mixing the exact phases approximates the equilibrium
        renewal marginal (they coincide as conditioning vanishes)."""
        k = 3
        central = PoissonArrivals(120.0)
        exact = ExactRoundRobinKernelBuilder(GRID, central, k, max_queue=N_MAX)
        renewal = EquilibriumRenewalKernelBuilder(
            GRID,
            gaps_for_distribution(central.split_round_robin(k)),
            max_queue=N_MAX,
        )
        latency = 50.0
        mixed = exact.service_rows_by_phase(latency).mean(axis=0)
        row = renewal.service_row(latency)
        assert np.allclose(mixed, row, atol=5e-3)


# ----------------------------------------------------------------------
# Bitwise oracle for the renewal kernel
# ----------------------------------------------------------------------
# A test-local per-latency quadrature: the k-fold CDFs run once per service
# latency over that latency's own remaining times, with no cross-latency
# deduplication.  The loop, tensor and stacked
# backends all share the production builder, so only an independent copy
# can catch a deduplication or gather bug that shifts every backend alike.
_ORACLE_QUAD = 8
_ORACLE_COUNT_QUAD = 64


def _oracle_windows(grid, latency_ms):
    values = grid.as_array()
    uppers = np.array([grid.upper(j) for j in range(len(grid))])
    lo = np.clip(values + latency_ms - grid.slo_ms, 0.0, latency_ms)
    hi = np.clip(uppers + latency_ms - grid.slo_ms, 0.0, latency_ms)
    lo[0] = 0.0
    hi = np.maximum(hi, lo)
    return lo, hi - lo


def _oracle_count_pmf(gaps, remaining, n_max):
    cdfs = np.empty((n_max, remaining.size), dtype=np.float64)
    for k in range(1, n_max + 1):
        cdfs[k - 1] = gaps.kfold_cdf(k, remaining)
    pmf = np.empty_like(cdfs)
    pmf[0] = 1.0 - cdfs[0]
    pmf[1:] = cdfs[:-1] - cdfs[1:]
    return np.clip(pmf, 0.0, 1.0)


def _oracle_nodes(grid, latency_ms):
    nodes, weights = np.polynomial.legendre.leggauss(_ORACLE_QUAD)
    lo, width = _oracle_windows(grid, latency_ms)
    live = np.nonzero(width > 0.0)[0]
    half = 0.5 * width[live]
    u = lo[live][:, None] + half[:, None] * (nodes[None, :] + 1.0)
    w = weights[None, :] * half[:, None]
    return live, u, w


def _oracle_service_row(grid, gaps, n_max, latency_ms):
    space = StateSpace(max_queue=n_max, grid_size=len(grid))
    row = np.zeros(space.size, dtype=np.float64)
    row[space.EMPTY] = 1.0 - gaps.equilibrium_cdf(latency_ms)
    occupied = space.occupied_view(row)
    live, u, w = _oracle_nodes(grid, latency_ms)
    if live.size:
        f_e = gaps.equilibrium_density(u)
        pmf = _oracle_count_pmf(gaps, (latency_ms - u).ravel(), n_max).reshape(
            n_max, live.size, _ORACLE_QUAD
        )
        occupied[:, live] = np.einsum("nlq,lq->nl", pmf, w * f_e)
    total = row.sum()
    if total > 1.0:
        row /= total
        total = 1.0
    row[space.FULL] = max(0.0, 1.0 - total)
    return row


def _oracle_arrival_counts(gaps, n_max, latency_ms):
    nodes_c, weights_c = np.polynomial.legendre.leggauss(_ORACLE_COUNT_QUAD)
    counts = np.zeros(n_max + 1, dtype=np.float64)
    counts[0] = 1.0 - gaps.equilibrium_cdf(latency_ms)
    if latency_ms > 0.0:
        half = 0.5 * latency_ms
        u = half * (nodes_c + 1.0)
        w = weights_c * half
        f_e = gaps.equilibrium_density(u)
        counts[1:] = _oracle_count_pmf(gaps, latency_ms - u, n_max) @ (w * f_e)
    np.clip(counts, 0.0, 1.0, out=counts)
    total = counts.sum()
    if total > 1.0:
        counts /= total
    return counts


def _first_raw(latencies):
    """First raw latency per ``round(l, 9)`` cache key, in call order."""
    first = {}
    for lat in latencies:
        first.setdefault(round(float(lat), 9), float(lat))
    return first


def _oracle_rows(grid, gaps, n_max, latencies):
    first = _first_raw(latencies)
    return np.array(
        [
            _oracle_service_row(grid, gaps, n_max, first[round(float(lat), 9)])
            for lat in latencies
        ]
    )


def _ladder_with_twin(overheads, per_items):
    """Drawn models, a slow one whose six-query batch outlasts any drawn
    SLO (clipped windows), and a twin of the first model whose latencies
    differ by ~1e-12 ms, so its keys mostly collide under ``round(l, 9)``
    while the raw floats differ."""
    models = [
        ModelProfile(
            name=f"m{i}",
            accuracy=0.5 + 0.1 * i,
            latency=LinearLatencyModel(o, p, std_ms=0.0),
            family="oracle",
        )
        for i, (o, p) in enumerate(zip(overheads, per_items))
    ]
    models.append(
        ModelProfile(
            name="slow",
            accuracy=0.95,
            latency=LinearLatencyModel(1.0, 40.0, std_ms=0.0),
            family="oracle",
        )
    )
    models.append(
        ModelProfile(
            name="twin",
            accuracy=0.45,
            latency=LinearLatencyModel(
                overheads[0] + 1e-12, per_items[0], std_ms=0.0
            ),
            family="oracle",
        )
    )
    return ModelSet(models, task="oracle")


_gap_models = st.one_of(
    st.builds(
        GammaGaps,
        shape=st.sampled_from([1.0, 8.0, 2.5]),
        scale_ms=st.floats(min_value=0.5, max_value=40.0),
    ),
    st.builds(DeterministicGaps, gap_ms=st.floats(min_value=1.0, max_value=60.0)),
)

#: Central arrivals and K giving Gamma(1), Gamma(8), Gamma(2.5) and
#: deterministic per-worker gaps under the round-robin marginal view.
_ARRIVAL_FAMILIES = [
    (lambda load: PoissonArrivals(load), 1),
    (lambda load: PoissonArrivals(load), 8),
    (lambda load: GammaArrivals(load, shape=1.25), 2),
    (lambda load: DeterministicArrivals(load), 2),
]


def _oracle_config(family, load, slo, md, batching, overheads, per_items):
    make, k = _ARRIVAL_FAMILIES[family]
    return WorkerMDPConfig(
        model_set=_ladder_with_twin(overheads, per_items),
        slo_ms=slo,
        arrivals=make(load),
        num_workers=k,
        max_batch_size=4,
        max_queue=6,
        discretization=(
            Discretization.MODEL_BASED if md else Discretization.FIXED_LENGTH
        ),
        fld_resolution=9,
        batching=batching,
        pareto_prune=False,
        view=TransitionView.ROUND_ROBIN_MARGINAL,
    )


_config_args = dict(
    family=st.integers(min_value=0, max_value=len(_ARRIVAL_FAMILIES) - 1),
    load=st.floats(min_value=20.0, max_value=400.0),
    slo=st.floats(min_value=40.0, max_value=200.0),
    md=st.booleans(),
    overheads=st.lists(
        st.floats(min_value=0.5, max_value=10.0), min_size=2, max_size=3
    ),
    per_items=st.lists(
        st.floats(min_value=2.0, max_value=60.0), min_size=3, max_size=3
    ),
)


class TestRenewalKernelOracle:
    """Deduplicated rows equal the per-latency quadrature bit for bit."""

    @given(
        gaps=_gap_models,
        slo=st.floats(min_value=20.0, max_value=300.0),
        md=st.booleans(),
        d=st.integers(min_value=1, max_value=30),
        n_max=st.integers(min_value=1, max_value=8),
        lats=st.lists(
            st.floats(min_value=0.5, max_value=600.0), min_size=1, max_size=8
        ),
        split=st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_service_rows_match_oracle(self, gaps, slo, md, d, n_max, lats, split):
        if md:
            grid = model_based_grid(
                _ladder_with_twin([1.0, 2.0], [d, 2.0 * d, 3.0 * d]), slo, 4
            )
        else:
            grid = fixed_length_grid(slo, d)
        # Keys shared by distinct raw floats: the first one seen wins.
        lats = lats + [lat * (1.0 + 1e-14) for lat in lats[:2]]
        builder = EquilibriumRenewalKernelBuilder(grid, gaps, n_max)
        # Two calls: the second mixes cached and uncached keys.
        cut = min(split, len(lats))
        rows = np.concatenate(
            [builder.service_rows(lats[:cut]), builder.service_rows(lats[cut:])]
        )
        oracle = _oracle_rows(grid, gaps, n_max, lats)
        assert np.array_equal(rows, oracle)
        assert np.array_equal(builder.service_row(lats[-1]), oracle[-1])

    @given(**_config_args)
    @settings(max_examples=30, deadline=None)
    def test_worker_mdp_rows_match_oracle(
        self, family, load, slo, md, overheads, per_items
    ):
        config = _oracle_config(
            family, load, slo, md, BatchingMode.MAXIMAL, overheads, per_items
        )
        mdp = WorkerMDP(config)
        gaps = gaps_for_distribution(config.per_worker_arrivals())
        lats = [
            mdp.latency_ms(m, n)
            for m in range(mdp.num_models)
            for n in range(1, mdp.max_queue + 1)
        ]
        assert max(lats) > slo  # some windows are clipped
        oracle = _oracle_rows(mdp.grid, gaps, mdp.max_queue, lats)
        assert np.array_equal(
            mdp._rows.reshape(len(lats), mdp.space.size), oracle
        )

    @given(
        **_config_args,
        extra_loads=st.lists(
            st.floats(min_value=20.0, max_value=400.0), min_size=1, max_size=3
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_stacked_seeds_match_oracle(
        self, family, load, slo, md, overheads, per_items, extra_loads
    ):
        base = _oracle_config(
            family, load, slo, md, BatchingMode.VARIABLE, overheads, per_items
        )
        configs = [base] + [base.with_load(x) for x in extra_loads]
        template = TensorizedWorkerMDP(base)
        seeds = _stacked_kernel_seeds(template, configs[1:])
        assert seeds is not None
        n_max = template.max_queue
        service = _first_raw(
            template.latency_ms(m, n)
            for m in range(template.num_models)
            for n in range(1, n_max + 1)
        )
        counts = _first_raw(
            template.latency_ms(m, b)
            for m in range(template.num_models)
            for b in range(1, n_max)
            if template.latency_ms(m, b) <= slo
        )
        assert counts
        for config, seed in zip(configs[1:], seeds):
            gaps = gaps_for_distribution(config.per_worker_arrivals())
            assert seed.service_rows.keys() == service.keys()
            for key, lat in service.items():
                expected = _oracle_service_row(template.grid, gaps, n_max, lat)
                assert np.array_equal(seed.service_rows[key], expected)
            assert seed.arrival_counts.keys() == counts.keys()
            for key, lat in counts.items():
                expected = _oracle_arrival_counts(gaps, n_max, lat)
                assert np.array_equal(seed.arrival_counts[key], expected)


class _CountingGammaGaps(GammaGaps):
    """GammaGaps that records the size of every ``kfold_cdf`` call."""

    def __init__(self, shape, scale_ms):
        super().__init__(shape, scale_ms)
        self.kfold_sizes = []

    def kfold_cdf(self, k, t):
        self.kfold_sizes.append(np.size(t))
        return super().kfold_cdf(k, t)


class TestRenewalKernelDeduplication:
    def test_one_kfold_pass_per_queue_length(self, monkeypatch):
        """One WorkerMDP build makes ``max_queue`` k-fold CDF calls in
        total, each over at most the distinct remaining times — not one
        pass per service latency."""
        created = []

        def counting_gaps(distribution):
            gaps = gaps_for_distribution(distribution)
            counted = _CountingGammaGaps(gaps.shape, gaps.scale_ms)
            created.append(counted)
            return counted

        monkeypatch.setattr(mdp_module, "gaps_for_distribution", counting_gaps)
        config = _oracle_config(
            1, 120.0, 100.0, False, BatchingMode.MAXIMAL, [1.0, 3.0], [5.0, 9.0, 30.0]
        )
        mdp = WorkerMDP(config)
        (gaps,) = created
        lats = _first_raw(
            mdp.latency_ms(m, n)
            for m in range(mdp.num_models)
            for n in range(1, mdp.max_queue + 1)
        )
        remaining = np.concatenate(
            [
                (lat - _oracle_nodes(mdp.grid, lat)[1]).ravel()
                for lat in lats.values()
            ]
        )
        distinct = np.unique(remaining).size
        assert distinct < remaining.size  # latencies do share remaining times
        assert len(gaps.kfold_sizes) == mdp.max_queue
        assert max(gaps.kfold_sizes) <= distinct
