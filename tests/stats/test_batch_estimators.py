"""Tests for batch means and the sequential stopping rule."""

import numpy as np
import pytest

from repro.stats import SequentialStoppingRule, batch_means


class TestBatchMeans:
    def test_iid_recovers_mean(self):
        rng = np.random.default_rng(3)
        data = rng.normal(7.0, 1.0, size=10_000)
        result = batch_means(data, n_batches=20)
        assert result.interval.contains(7.0)
        assert result.batch_size == int(0.9 * 10_000) // 20

    def test_warmup_discarded(self):
        # biased prefix: without warm-up removal the mean would be off
        data = np.concatenate([np.full(1000, 100.0), np.full(9000, 1.0)])
        result = batch_means(data, n_batches=10, warmup_fraction=0.1)
        assert result.warmup_discarded == 1000
        assert result.interval.mean == pytest.approx(1.0)

    def test_autocorrelation_reported(self):
        rng = np.random.default_rng(5)
        result = batch_means(rng.normal(size=4000), n_batches=20)
        assert abs(result.lag1_autocorrelation) < 0.5

    def test_too_few_observations_rejected(self):
        with pytest.raises(ValueError):
            batch_means([1.0, 2.0], n_batches=10)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            batch_means(np.ones(100), n_batches=1)
        with pytest.raises(ValueError):
            batch_means(np.ones(100), warmup_fraction=1.0)


class TestSequentialStoppingRule:
    def test_validation(self):
        with pytest.raises(ValueError):
            SequentialStoppingRule(min_replications=1)
        with pytest.raises(ValueError):
            SequentialStoppingRule(min_replications=100, max_replications=10)

    def test_satisfied_requires_min_n(self):
        from repro.stats import ConfidenceInterval

        rule = SequentialStoppingRule(min_replications=100, max_replications=1000)
        tight_but_few = ConfidenceInterval(1.0, 0.001, 0.95, 10)
        assert not rule.satisfied(tight_but_few)
        tight_enough = ConfidenceInterval(1.0, 0.001, 0.95, 200)
        assert rule.satisfied(tight_enough)
