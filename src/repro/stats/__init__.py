"""Output analysis for stochastic simulation.

Implements the estimation machinery the paper relies on: independent
replications with confidence intervals and the Möbius-style *relative
half-width* stopping rule ("converging within 95% probability in a 0.1
relative interval", §4.1), plus batch-means for steady-state measures.
"""

from repro.stats.confidence import (
    ConfidenceInterval,
    normal_ci,
    relative_precision_reached,
)
from repro.stats.batch import batch_means, BatchMeansResult
from repro.stats.estimators import SequentialStoppingRule

__all__ = [
    "ConfidenceInterval",
    "normal_ci",
    "relative_precision_reached",
    "batch_means",
    "BatchMeansResult",
    "SequentialStoppingRule",
]
