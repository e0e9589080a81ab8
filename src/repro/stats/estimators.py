"""The sequential stopping rule of replication-based estimation.

The paper estimates each point "as a mean of at least 10000 simulation
batches, converging within 95% probability in a 0.1 relative interval".
:class:`SequentialStoppingRule` states that protocol;
:meth:`repro.runtime.ParallelRunner.run` applies it: run replications in
rounds, stop when the relative-precision criterion holds (or a
replication budget is exhausted).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.stats.confidence import ConfidenceInterval, relative_precision_reached

__all__ = ["SequentialStoppingRule"]


@dataclass
class SequentialStoppingRule:
    """When to stop adding replications.

    Attributes
    ----------
    confidence:
        CI level (paper: 0.95).
    relative_width:
        Target relative half-width (paper: 0.1).
    min_replications:
        Never stop before this many replications.
    max_replications:
        Hard budget; estimation stops here even without convergence.
    """

    confidence: float = 0.95
    relative_width: float = 0.1
    min_replications: int = 1_000
    max_replications: int = 200_000

    def __post_init__(self) -> None:
        if self.min_replications < 2:
            raise ValueError("min_replications must be >= 2")
        if self.max_replications < self.min_replications:
            raise ValueError("max_replications < min_replications")

    def satisfied(self, interval: ConfidenceInterval) -> bool:
        """True when the precision target is met."""
        if interval.n < self.min_replications:
            return False
        return relative_precision_reached(interval, self.relative_width)
