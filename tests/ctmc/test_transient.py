"""Tests for uniformization transient solutions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from repro.ctmc import CTMC, transient_distribution, transient_reward


def random_generator(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q = rng.uniform(0.0, 2.0, size=(n, n))
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


class TestAgainstMatrixExponential:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_matches_expm(self, seed, t):
        q = random_generator(5, seed)
        p0 = np.zeros(5)
        p0[0] = 1.0
        chain = CTMC(q, p0)
        ours = transient_distribution(chain, [t])[0]
        exact = p0 @ expm(q * t)
        assert np.allclose(ours, exact, atol=1e-9)

    def test_multiple_times_single_pass(self):
        q = random_generator(4, 9)
        chain = CTMC(q)
        times = [0.0, 0.5, 2.0, 8.0]
        results = transient_distribution(chain, times)
        for t, row in zip(times, results):
            exact = chain.initial @ expm(q * t)
            assert np.allclose(row, exact, atol=1e-9)

    def test_time_zero_is_initial(self):
        chain = CTMC(random_generator(3, 4))
        assert np.allclose(
            transient_distribution(chain, [0.0])[0], chain.initial
        )


class TestNumericalProperties:
    def test_rows_are_distributions(self):
        chain = CTMC(random_generator(6, 11))
        results = transient_distribution(chain, [0.1, 1.0, 100.0])
        assert np.all(results >= -1e-12)
        assert np.allclose(results.sum(axis=1), 1.0, atol=1e-8)

    def test_large_rate_times_no_underflow(self):
        # Λt ≈ 3000: naive Poisson pmf would underflow exp(-3000)
        q = np.array([[-300.0, 300.0], [300.0, -300.0]])
        chain = CTMC(q)
        result = transient_distribution(chain, [10.0])[0]
        assert result.sum() == pytest.approx(1.0, abs=1e-6)
        assert result[0] == pytest.approx(0.5, abs=1e-6)

    def test_absorbing_probability_small_values(self):
        # tiny absorption rate: probability ~1e-13 must come out accurately
        lam = 1e-14
        q = np.array([[-lam, lam], [0.0, 0.0]])
        chain = CTMC(q)
        value = transient_distribution(chain, [10.0])[0][1]
        assert value == pytest.approx(1.0 - math.exp(-lam * 10.0), rel=1e-6)

    def test_no_transitions(self):
        chain = CTMC(np.zeros((3, 3)), np.array([0.2, 0.3, 0.5]))
        result = transient_distribution(chain, [5.0])
        assert np.allclose(result[0], chain.initial)

    def test_steady_state_detection_matches_full_sum(self):
        q = random_generator(4, 21)
        chain = CTMC(q)
        full = transient_distribution(chain, [50.0])[0]
        early = transient_distribution(chain, [50.0], steady_tol=1e-12)[0]
        assert np.allclose(full, early, atol=1e-7)

    def test_negative_times_rejected(self):
        chain = CTMC(random_generator(3, 2))
        with pytest.raises(ValueError):
            transient_distribution(chain, [-1.0])

    def test_empty_times(self):
        chain = CTMC(random_generator(3, 2))
        assert transient_distribution(chain, []).shape == (0, 3)


class TestTransientReward:
    def test_indicator_reward(self):
        q = np.array([[-1.0, 1.0], [0.0, 0.0]])
        chain = CTMC(q)
        values = transient_reward(chain, [1.0, 5.0], np.array([0.0, 1.0]))
        assert values[0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-9)
        assert values[1] == pytest.approx(1.0 - math.exp(-5.0), abs=1e-9)

    def test_callable_reward(self):
        chain = CTMC(random_generator(3, 5))
        values = transient_reward(chain, [1.0], lambda i: float(i))
        assert values.shape == (1,)

    def test_shape_mismatch_rejected(self):
        chain = CTMC(random_generator(3, 5))
        with pytest.raises(ValueError):
            transient_reward(chain, [1.0], np.array([1.0, 2.0]))


class _RightProduct:
    """Stands in for ``P.T``: ``self @ v`` computes ``v @ P`` instead."""

    def __init__(self, transition):
        self.transition = transition

    def __matmul__(self, v):
        return v @ self.transition


class _UntransposedDTMC:
    """An embedded DTMC whose transpose multiplies from the right."""

    def __init__(self, transition):
        self.transition = transition

    def transpose(self):
        return _RightProduct(self.transition)


class TestTransposedProduct:
    """``P.T @ v`` (transposed once) equals the ``v @ P`` loop bit for bit."""

    @pytest.fixture
    def chains(self, monkeypatch):
        from repro.core import AHSParameters
        from repro.core.analytical import AnalyticalEngine

        params = AHSParameters(max_platoon_size=2, base_failure_rate=1e-3)
        chain = AnalyticalEngine(params).failure_chain.chain
        reference = AnalyticalEngine(params).failure_chain.chain
        embedded = reference.embedded_dtmc
        monkeypatch.setattr(
            reference,
            "embedded_dtmc",
            lambda lam: _UntransposedDTMC(embedded(lam)),
        )
        return chain, reference

    @pytest.mark.parametrize("steady_tol", [0.0, 1e-14])
    def test_transient_distribution(self, chains, steady_tol):
        chain, reference = chains
        times = (0.5, 2.0, 6.0, 10.0)
        ours = transient_distribution(chain, times, steady_tol=steady_tol)
        expected = transient_distribution(
            reference, times, steady_tol=steady_tol
        )
        assert np.array_equal(ours, expected)

    def test_accumulated_reward(self, chains):
        from repro.ctmc import accumulated_reward

        chain, reference = chains
        reward = np.random.default_rng(3).uniform(size=chain.n_states)
        times = (0.5, 2.0, 6.0, 10.0)
        assert np.array_equal(
            accumulated_reward(chain, times, reward),
            accumulated_reward(reference, times, reward),
        )
