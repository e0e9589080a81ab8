"""Confidence intervals and precision criteria."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special

__all__ = [
    "ConfidenceInterval",
    "normal_ci",
    "relative_precision_reached",
    "t_quantile",
    "normal_quantile",
]


def t_quantile(df: float, q: float) -> float:
    """Student-t quantile: the ``q``-th quantile with ``df`` degrees of freedom.

    Equals ``scipy.stats.t.ppf(q, df)`` bit for bit (that method's
    ``_ppf`` is this same ``stdtrit`` call), without importing
    :mod:`scipy.stats`, which dominates a cold start.
    """
    return float(special.stdtrit(df, q))


def normal_quantile(q: float) -> float:
    """Standard normal quantile; bit-equal to ``scipy.stats.norm.ppf(q)``."""
    return float(special.ndtri(q))


@dataclass(frozen=True)
class ConfidenceInterval:
    """A symmetric two-sided confidence interval."""

    mean: float
    half_width: float
    confidence: float
    n: int

    @property
    def low(self) -> float:
        """Lower bound."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper bound."""
        return self.mean + self.half_width

    @property
    def relative_half_width(self) -> float:
        """Half-width relative to the mean (inf when the mean is 0)."""
        if self.mean == 0.0:
            return math.inf
        return abs(self.half_width / self.mean)

    def contains(self, value: float) -> bool:
        """True when ``value`` lies inside the interval."""
        return self.low <= value <= self.high

    def __str__(self) -> str:
        return (
            f"{self.mean:.6g} ± {self.half_width:.3g} "
            f"({self.confidence:.0%}, n={self.n})"
        )


def normal_ci(
    samples: Sequence[float], confidence: float = 0.95, use_t: bool = True
) -> ConfidenceInterval:
    """CI for the mean of i.i.d. samples.

    Uses the Student-t quantile for small samples (``use_t=True``, default)
    and the normal quantile otherwise.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0,1), got {confidence}")
    data = np.asarray(samples, dtype=float)
    if data.size == 0:
        raise ValueError("need at least one sample")
    mean = float(data.mean())
    if data.size == 1:
        return ConfidenceInterval(mean, math.inf, confidence, 1)
    alpha = 1.0 - confidence
    if use_t:
        quantile = t_quantile(data.size - 1, 1.0 - alpha / 2.0)
    else:
        quantile = normal_quantile(1.0 - alpha / 2.0)
    half = quantile * float(data.std(ddof=1)) / math.sqrt(data.size)
    return ConfidenceInterval(mean, half, confidence, int(data.size))


def relative_precision_reached(
    interval: ConfidenceInterval, relative_width: float = 0.1
) -> bool:
    """Möbius-style stopping criterion.

    True when the CI half-width is within ``relative_width`` of the mean —
    the paper's "0.1 relative interval" at 95 % confidence.
    A zero mean never satisfies the criterion (nothing has been observed).
    """
    if relative_width <= 0.0:
        raise ValueError(f"relative_width must be > 0, got {relative_width}")
    return interval.relative_half_width <= relative_width
