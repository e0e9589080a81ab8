"""Multilevel (fixed-effort) splitting for time-bounded rare events.

The rare event (the AHS entering ``KO_total`` before the trip ends) is
decomposed through an *importance function* ``level_fn`` on markings: paths
that cross intermediate levels are restarted with fresh effort, so deep
failure combinations are explored without waiting for crude Monte Carlo
luck.  The estimator is the product of per-stage crossing fractions;
confidence intervals come from independent repetitions of the whole
splitting experiment.

The top level must be equivalent to the rare event itself (give ``level_fn``
a large value on target markings); stage trials inherit the entry state's
clock, so the time-bounded semantics are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.san.compiled import make_jump_engine
from repro.san.marking import Marking
from repro.san.model import SANModel
from repro.stats.confidence import ConfidenceInterval, normal_ci
from repro.stochastic.rng import RandomStream, StreamFactory

__all__ = ["FixedEffortSplitting", "SplittingResult"]


@dataclass
class SplittingResult:
    """Outcome of a splitting estimation."""

    probability: float
    interval: ConfidenceInterval
    stage_fractions: list[list[float]]
    repetitions: int
    trials_per_stage: int

    def __str__(self) -> str:
        return f"P = {self.probability:.4g} {self.interval}"


class FixedEffortSplitting:
    """Fixed-effort multilevel splitting on a Markovian SAN.

    Parameters
    ----------
    model:
        All-exponential SAN.
    level_fn:
        Importance function on markings; must be non-decreasing along
        "progress towards failure" for the method to be efficient (it stays
        *correct* regardless, only the variance suffers).
    levels:
        Strictly increasing thresholds; crossing ``levels[-1]`` *is* the
        rare event.
    trials_per_stage:
        Fixed effort per stage.
    engine:
        Jump-engine selection (see :data:`repro.san.compiled.ENGINES`);
        all engines produce bit-identical stage trajectories per seed.
        Splitting only runs path segments, which the stepped engine
        hands to a per-row compiled engine anyway, so for it a
        :class:`~repro.san.compiled.CompiledJumpEngine` is built
        directly and its lowering pass is skipped.
    """

    def __init__(
        self,
        model: SANModel,
        level_fn: Callable[[Marking], float],
        levels: Sequence[float],
        trials_per_stage: int = 500,
        engine: str = "compiled",
        observer=None,
    ) -> None:
        levels = [float(level) for level in levels]
        if len(levels) < 1:
            raise ValueError("need at least one level")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError(f"levels must be strictly increasing, got {levels}")
        if trials_per_stage < 2:
            raise ValueError("trials_per_stage must be >= 2")
        if engine == "stepped":
            engine = "compiled"
        self.simulator = make_jump_engine(model, engine=engine, observer=observer)
        self.model = model
        self.level_fn = level_fn
        self.levels = levels
        self.trials_per_stage = trials_per_stage

    # ------------------------------------------------------------------
    def _one_repetition(
        self, horizon: float, stream: RandomStream
    ) -> tuple[float, list[float]]:
        """One complete splitting pass → (probability estimate, fractions)."""
        # Stage 0 entry pool: the initial marking at time 0.
        pool: list[tuple[Marking, float]] = [
            (self.model.initial_marking(), 0.0)
        ]
        estimate = 1.0
        fractions: list[float] = []
        for target in self.levels:
            successes: list[tuple[Marking, float]] = []
            for _ in range(self.trials_per_stage):
                entry_marking, entry_time = pool[
                    stream.integers(0, len(pool))
                ]
                outcome = self.simulator.simulate(
                    entry_marking.copy(),
                    start_time=entry_time,
                    horizon=horizon,
                    stream=stream,
                    level_fn=self.level_fn,
                    level_target=target,
                )
                if outcome.crossed:
                    successes.append((outcome.marking, outcome.time))
            fraction = len(successes) / self.trials_per_stage
            fractions.append(fraction)
            estimate *= fraction
            if not successes:
                return 0.0, fractions
            pool = successes
        return estimate, fractions

    def repetition(self, horizon: float, stream: RandomStream) -> float:
        """One complete splitting pass driven by a single stream.

        The unit the adaptive orchestrator treats as a replication: the
        per-repetition product estimates are i.i.d., so they pool through
        the standard chunk-summary machinery (mean + CI over repetitions)
        exactly like crude Monte-Carlo indicators.
        """
        if horizon <= 0.0:
            raise ValueError(f"horizon must be > 0, got {horizon}")
        value, _ = self._one_repetition(horizon, stream)
        return value

    def estimate(
        self,
        horizon: float,
        factory: StreamFactory,
        repetitions: int = 10,
        confidence: float = 0.95,
    ) -> SplittingResult:
        """Estimate the rare-event probability before ``horizon``.

        Parameters
        ----------
        horizon:
            Trip duration (the time bound of the reachability event).
        factory:
            Randomness source; each repetition gets an independent stream.
        repetitions:
            Independent repetitions of the whole splitting experiment (the
            CI is built over their product estimates).
        confidence:
            CI level.
        """
        if repetitions < 2:
            raise ValueError("need at least 2 repetitions for a CI")
        if horizon <= 0.0:
            raise ValueError(f"horizon must be > 0, got {horizon}")
        streams = factory.stream_batch("splitting-rep", repetitions)
        estimates = []
        all_fractions: list[list[float]] = []
        for stream in streams:
            value, fractions = self._one_repetition(horizon, stream)
            estimates.append(value)
            all_fractions.append(fractions)
        interval = normal_ci(estimates, confidence)
        return SplittingResult(
            probability=float(np.mean(estimates)),
            interval=interval,
            stage_fractions=all_fractions,
            repetitions=repetitions,
            trials_per_stage=self.trials_per_stage,
        )
