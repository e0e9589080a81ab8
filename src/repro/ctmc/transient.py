"""Transient CTMC solution by uniformization (Jensen's method).

``p(t) = Σ_k Poisson(Λt; k) · p0 · P^k`` with ``P = I + Q/Λ``.  One pass of
vector-matrix products serves every requested time point simultaneously
(the iterates ``v_k = p0 P^k`` are shared; only the Poisson weights differ).
Poisson weights are computed in log space so horizons with ``Λt`` in the
thousands do not underflow.  Steady-state detection truncates the series
early when the iterates stop moving (standard for chains that converge,
e.g. chains with absorbing unsafe states).
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from repro.ctmc.chain import CTMC

__all__ = [
    "transient_distribution",
    "transient_reward",
    "accumulated_reward",
]


def _poisson_log_weight(log_rate: float, rate: float, k: int) -> float:
    """log Poisson(rate; k) — stable for large rates."""
    return -rate + k * log_rate - math.lgamma(k + 1)


def _truncation_point(rate: float, tol: float) -> int:
    """Index K with Poisson tail mass beyond K below ``tol`` (conservative)."""
    if rate <= 0.0:
        return 0
    # mean + c*sqrt(mean) with a generous constant, floor for small rates
    return int(rate + 10.0 * math.sqrt(rate) + 20.0)


def transient_distribution(
    chain: CTMC,
    times: Sequence[float],
    tol: float = 1e-12,
    steady_tol: float = 0.0,
    max_iterations: Optional[int] = None,
) -> np.ndarray:
    """State-probability vectors at each requested time.

    Parameters
    ----------
    chain:
        The CTMC (initial distribution taken from the chain).
    times:
        Non-negative time points (any order; output rows match input order).
    tol:
        Poisson tail truncation tolerance.
    steady_tol:
        When > 0, stop iterating once ``||v_k − v_{k−1}||₁ < steady_tol``
        and assign the converged vector to all remaining weight.
    max_iterations:
        Safety cap on the number of vector-matrix products.

    Returns
    -------
    Array of shape ``(len(times), n_states)``; each row sums to 1 (within
    the truncation tolerance).
    """
    times_arr = np.asarray(list(times), dtype=float)
    if times_arr.size == 0:
        return np.zeros((0, chain.n_states))
    if (times_arr < 0).any():
        raise ValueError("times must be non-negative")

    lam = chain.uniformization_rate
    if lam <= 0.0:  # no transitions at all
        return np.tile(chain.initial, (times_arr.size, 1))

    # Slight inflation of Λ improves numerical behaviour of P's diagonal.
    lam *= 1.0 + 1e-9
    # ``v @ P`` would rebuild ``P.T`` on every product; transpose once
    transition_t = chain.embedded_dtmc(lam).transpose()

    rates = lam * times_arr
    k_max = max(_truncation_point(float(r), tol) for r in rates)
    if max_iterations is not None:
        k_max = min(k_max, int(max_iterations))

    log_rates = np.where(rates > 0, np.log(np.maximum(rates, 1e-300)), 0.0)
    result = np.zeros((times_arr.size, chain.n_states))
    accumulated = np.zeros(times_arr.size)

    v = chain.initial.copy()
    previous = None
    for k in range(k_max + 1):
        for j, rate in enumerate(rates):
            if rate == 0.0:
                weight = 1.0 if k == 0 else 0.0
            else:
                weight = math.exp(
                    _poisson_log_weight(float(log_rates[j]), float(rate), k)
                )
            if weight > 0.0:
                result[j] += weight * v
                accumulated[j] += weight

        if steady_tol > 0.0 and previous is not None:
            if float(np.abs(v - previous).sum()) < steady_tol:
                break
        previous = v
        v = transition_t @ v
        # Guard tiny negative round-off so probabilities stay probabilities.
        np.clip(v, 0.0, None, out=v)

    # Assign any un-accumulated Poisson weight to the last iterate (exact
    # when the iterates have converged; bounded by tol otherwise).
    remaining = 1.0 - accumulated
    result += remaining[:, None] * previous if previous is not None else 0.0
    return result


def accumulated_reward(
    chain: CTMC,
    times: Sequence[float],
    reward: np.ndarray | Callable[[int], float],
    tol: float = 1e-12,
) -> np.ndarray:
    """Expected accumulated reward ``E[∫₀ᵗ r(X_s) ds]`` at each time.

    Uniformization identity: with ``v_k = p0 Pᵏ`` and ``N ~ Poisson(Λt)``,

    ``∫₀ᵗ E[r(X_s)] ds = (1/Λ) Σ_k P(N ≥ k+1) · (v_k · r)``

    (each DTMC step is visited for an Exp(Λ) sojourn; the k-th iterate is
    occupied before the (k+1)-th Poisson event).  This is Möbius's
    *interval-of-time* reward variable — e.g. expected vehicle-hours
    spent in recovery maneuvers during a trip.
    """
    if callable(reward):
        reward = np.asarray([reward(i) for i in range(chain.n_states)])
    else:
        reward = np.asarray(reward, dtype=float)
    if reward.shape != (chain.n_states,):
        raise ValueError(f"reward shape {reward.shape} != ({chain.n_states},)")
    times_arr = np.asarray(list(times), dtype=float)
    if times_arr.size == 0:
        return np.zeros(0)
    if (times_arr < 0).any():
        raise ValueError("times must be non-negative")

    lam = chain.uniformization_rate
    if lam <= 0.0:  # frozen chain: reward accrues in the initial state
        return float(chain.initial @ reward) * times_arr

    lam *= 1.0 + 1e-9
    transition_t = chain.embedded_dtmc(lam).transpose()
    rates = lam * times_arr
    k_max = max(_truncation_point(float(r), tol) for r in rates)
    log_rates = np.where(rates > 0, np.log(np.maximum(rates, 1e-300)), 0.0)

    # survival function of the Poisson counts, built from the pmf:
    # P(N >= k+1) = 1 - CDF(k); accumulate the CDF iteratively in a
    # numerically safe way (log-space pmf terms)
    result = np.zeros(times_arr.size)
    cdf = np.zeros(times_arr.size)
    v = chain.initial.copy()
    for k in range(k_max + 1):
        pmf = np.empty(times_arr.size)
        for j, rate in enumerate(rates):
            if rate == 0.0:
                pmf[j] = 1.0 if k == 0 else 0.0
            else:
                pmf[j] = math.exp(
                    _poisson_log_weight(float(log_rates[j]), float(rate), k)
                )
        cdf += pmf
        survival = np.clip(1.0 - cdf, 0.0, 1.0)
        result += survival * float(v @ reward)
        if (survival <= tol).all():
            break
        v = transition_t @ v
        np.clip(v, 0.0, None, out=v)
    return result / lam


def transient_reward(
    chain: CTMC,
    times: Sequence[float],
    reward: np.ndarray | Callable[[int], float],
    **kwargs,
) -> np.ndarray:
    """Expected instant-of-time reward ``E[r(X_t)]`` at each time.

    ``reward`` is a per-state vector or a function of the state index.
    For an indicator reward this is exactly a state-probability measure —
    the paper's unsafety ``S(t)`` is the indicator of ``KO_total`` marked.
    """
    if callable(reward):
        reward = np.asarray([reward(i) for i in range(chain.n_states)])
    else:
        reward = np.asarray(reward, dtype=float)
    if reward.shape != (chain.n_states,):
        raise ValueError(
            f"reward shape {reward.shape} != ({chain.n_states},)"
        )
    distributions = transient_distribution(chain, times, **kwargs)
    return distributions @ reward
