"""Tests for confidence intervals and precision criteria."""

import math

import numpy as np
import pytest

from repro.stats import (
    ConfidenceInterval,
    normal_ci,
    relative_precision_reached,
)
from repro.stats.confidence import normal_quantile, t_quantile
from repro.stochastic import StreamFactory


class TestConfidenceInterval:
    def test_bounds(self):
        interval = ConfidenceInterval(10.0, 2.0, 0.95, 100)
        assert interval.low == 8.0
        assert interval.high == 12.0
        assert interval.contains(9.0)
        assert not interval.contains(13.0)

    def test_relative_half_width(self):
        assert ConfidenceInterval(10.0, 1.0, 0.95, 5).relative_half_width == 0.1
        assert math.isinf(ConfidenceInterval(0.0, 1.0, 0.95, 5).relative_half_width)

    def test_str(self):
        text = str(ConfidenceInterval(0.5, 0.01, 0.95, 100))
        assert "95%" in text and "n=100" in text


class TestNormalCI:
    def test_t_wider_than_normal_for_small_n(self):
        data = [1.0, 2.0, 3.0, 4.0, 5.0]
        t_interval = normal_ci(data, use_t=True)
        z_interval = normal_ci(data, use_t=False)
        assert t_interval.half_width > z_interval.half_width

    def test_single_sample(self):
        interval = normal_ci([2.0])
        assert interval.mean == 2.0
        assert math.isinf(interval.half_width)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normal_ci([])

    def test_confidence_bounds_validated(self):
        with pytest.raises(ValueError):
            normal_ci([1.0, 2.0], confidence=1.0)
        with pytest.raises(ValueError):
            normal_ci([1.0, 2.0], confidence=0.0)

    def test_coverage(self):
        factory = StreamFactory(17)
        covered = 0
        trials = 300
        for i in range(trials):
            stream = factory.stream(f"c{i}")
            data = [stream.normal(5.0, 1.0) for _ in range(25)]
            if normal_ci(data, 0.95).contains(5.0):
                covered += 1
        assert 0.90 <= covered / trials <= 0.99

    def test_higher_confidence_wider(self):
        data = list(np.linspace(0, 1, 50))
        assert (
            normal_ci(data, 0.99).half_width > normal_ci(data, 0.90).half_width
        )


class TestRelativePrecision:
    def test_paper_criterion(self):
        # the paper's rule: 95% CI within 0.1 relative width
        good = ConfidenceInterval(1e-6, 0.5e-7, 0.95, 10_000)
        bad = ConfidenceInterval(1e-6, 5e-7, 0.95, 100)
        assert relative_precision_reached(good, 0.1)
        assert not relative_precision_reached(bad, 0.1)

    def test_zero_mean_never_converged(self):
        zero = ConfidenceInterval(0.0, 0.0, 0.95, 1000)
        assert not relative_precision_reached(zero, 0.1)

    def test_width_validation(self):
        interval = ConfidenceInterval(1.0, 0.01, 0.95, 100)
        with pytest.raises(ValueError):
            relative_precision_reached(interval, 0.0)


class TestQuantiles:
    """The ``scipy.special`` quantiles equal ``scipy.stats`` bit for bit."""

    LEVELS = sorted(
        {float(q) for q in np.linspace(0.001, 0.999, 999)}
        | {0.9, 0.95, 0.975, 0.99, 0.995, 0.999, 0.9999}
    )

    @pytest.mark.parametrize("df", [1, 2, 5, 30, 255, 2815, 10**4, 10**6])
    def test_t_quantile_is_t_ppf(self, df):
        from scipy import stats

        ours = [t_quantile(df, q) for q in self.LEVELS]
        assert ours == [float(stats.t.ppf(q, df=df)) for q in self.LEVELS]

    def test_normal_quantile_is_norm_ppf(self):
        from scipy import stats

        ours = [normal_quantile(q) for q in self.LEVELS]
        assert ours == [float(stats.norm.ppf(q)) for q in self.LEVELS]
