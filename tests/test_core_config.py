"""Tests for WorkerMDPConfig."""

import pytest

from repro.arrivals.distributions import GammaArrivals, PoissonArrivals
from repro.core.config import (
    BatchingMode,
    Discretization,
    TransitionView,
    WorkerMDPConfig,
)
from repro.errors import ConfigurationError, ProfileError


class TestValidation:
    def test_rejects_bad_slo(self, tiny_models):
        with pytest.raises(ConfigurationError):
            WorkerMDPConfig(
                model_set=tiny_models, slo_ms=0.0, arrivals=PoissonArrivals(10.0)
            )

    def test_rejects_bad_workers(self, tiny_models):
        with pytest.raises(ConfigurationError):
            WorkerMDPConfig(
                model_set=tiny_models,
                slo_ms=100.0,
                arrivals=PoissonArrivals(10.0),
                num_workers=0,
            )

    def test_rejects_bad_discount(self, tiny_models):
        for discount in (0.0, 1.0, 1.5):
            with pytest.raises(ConfigurationError):
                WorkerMDPConfig(
                    model_set=tiny_models,
                    slo_ms=100.0,
                    arrivals=PoissonArrivals(10.0),
                    discount=discount,
                )

    def test_rejects_bad_queue_and_batch(self, tiny_models):
        with pytest.raises(ConfigurationError):
            WorkerMDPConfig(
                model_set=tiny_models,
                slo_ms=100.0,
                arrivals=PoissonArrivals(10.0),
                max_queue=0,
            )
        with pytest.raises(ConfigurationError):
            WorkerMDPConfig(
                model_set=tiny_models,
                slo_ms=100.0,
                arrivals=PoissonArrivals(10.0),
                max_batch_size=0,
            )

    @pytest.mark.parametrize("discretization", list(Discretization))
    def test_rejects_slo_no_model_meets(self, tiny_models, discretization):
        # tiny_models' fastest batch-1 latency is 10 ms.  The explicit
        # max_queue keeps FLD from deriving B_w: the check itself rejects.
        with pytest.raises(ProfileError, match="single query"):
            WorkerMDPConfig(
                model_set=tiny_models,
                slo_ms=9.0,
                arrivals=PoissonArrivals(10.0),
                max_queue=4,
                discretization=discretization,
            )


class TestDerivedQuantities:
    def test_load_property(self, tiny_config):
        assert tiny_config.load_qps == 25.0

    def test_effective_models_pruning(self, tiny_models):
        config = WorkerMDPConfig(
            model_set=tiny_models,
            slo_ms=100.0,
            arrivals=PoissonArrivals(10.0),
            pareto_prune=True,
        )
        assert len(config.effective_models()) == 3  # all on front already
        config2 = WorkerMDPConfig(
            model_set=tiny_models,
            slo_ms=100.0,
            arrivals=PoissonArrivals(10.0),
            pareto_prune=False,
        )
        assert len(config2.effective_models()) == 3

    def test_feasible_max_batch(self, tiny_config):
        # fast: l(b) = 2 + 8b <= 100 -> b <= 12, capped at 8.
        assert tiny_config.feasible_max_batch() == 8

    def test_default_max_queue_is_bw_plus_3(self, tiny_config):
        assert tiny_config.effective_max_queue() == 11

    def test_explicit_max_queue_wins(self, tiny_models):
        config = WorkerMDPConfig(
            model_set=tiny_models,
            slo_ms=100.0,
            arrivals=PoissonArrivals(10.0),
            max_queue=5,
        )
        assert config.effective_max_queue() == 5

    def test_build_grid_dispatch(self, tiny_models):
        fld = WorkerMDPConfig(
            model_set=tiny_models,
            slo_ms=100.0,
            arrivals=PoissonArrivals(10.0),
            discretization=Discretization.FIXED_LENGTH,
            fld_resolution=10,
        )
        assert len(fld.build_grid()) == 11
        md = WorkerMDPConfig(
            model_set=tiny_models,
            slo_ms=100.0,
            arrivals=PoissonArrivals(10.0),
            discretization=Discretization.MODEL_BASED,
        )
        grid = md.build_grid()
        assert grid.values[0] == 0.0 and grid.values[-1] == 100.0

    def test_with_load(self, tiny_config):
        changed = tiny_config.with_load(99.0)
        assert changed.load_qps == 99.0
        assert changed.slo_ms == tiny_config.slo_ms
        assert tiny_config.load_qps == 25.0  # original untouched

    def test_per_worker_arrivals_by_view(self, tiny_models):
        base = dict(
            model_set=tiny_models,
            slo_ms=100.0,
            arrivals=PoissonArrivals(40.0),
            num_workers=4,
        )
        marginal = WorkerMDPConfig(
            view=TransitionView.ROUND_ROBIN_MARGINAL, **base
        ).per_worker_arrivals()
        assert isinstance(marginal, GammaArrivals)
        assert marginal.shape == 4.0
        split = WorkerMDPConfig(
            view=TransitionView.POISSON_SPLIT, **base
        ).per_worker_arrivals()
        assert isinstance(split, PoissonArrivals)
        assert split.load_qps == pytest.approx(10.0)

    def test_default_constructor(self, tiny_models):
        config = WorkerMDPConfig.default_poisson(
            tiny_models, slo_ms=100.0, load_qps=20.0, num_workers=2
        )
        assert isinstance(config.arrivals, PoissonArrivals)
        assert config.num_workers == 2
        assert config.batching is BatchingMode.MAXIMAL
