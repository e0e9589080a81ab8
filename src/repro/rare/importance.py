"""Importance sampling by failure biasing.

Classic dependability-model IS: multiply the rates of designated "failure"
activities by a boost factor so that failure paths are common under the
sampling law, then weight each replication by the exact likelihood ratio.
The weight algebra lives in :class:`~repro.san.simulator.MarkovJumpSimulator`;
this module chooses the biasing and drives replications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.san.compiled import DEFAULT_ENGINE, make_jump_engine
from repro.san.marking import Marking
from repro.san.model import SANModel
from repro.san.simulator import SimulationRun
from repro.san.rewards import TransientEstimate
from repro.stats.confidence import normal_ci
from repro.stochastic.rng import StreamFactory

__all__ = ["FailureBiasing", "ImportanceSamplingEstimator"]


@dataclass
class FailureBiasing:
    """A biasing plan: which activities to boost and by how much.

    Attributes
    ----------
    boost:
        Rate multiplier applied to every matching activity (must be ≥ 1 to
        accelerate failures; values < 1 are allowed but decelerate).
    name_predicate:
        Selects activities by name (e.g. ``lambda n: n.startswith("FM")``).
    """

    boost: float
    name_predicate: Callable[[str], bool]

    def plan_for(self, model: SANModel) -> dict[str, float]:
        """Concrete activity-name → factor mapping for ``model``."""
        if self.boost <= 0 or not math.isfinite(self.boost):
            raise ValueError(f"boost must be finite and > 0, got {self.boost}")
        plan = {
            activity.name: self.boost
            for activity in model.timed_activities
            if self.name_predicate(activity.name)
        }
        if not plan:
            raise ValueError("biasing matched no activity in the model")
        return plan

    @classmethod
    def balanced(
        cls, model: SANModel, name_predicate: Callable[[str], bool], target_rate: float
    ) -> "FailureBiasing":
        """Boost chosen so the *smallest* matching rate reaches ``target_rate``.

        A simple heuristic that keeps failures visible without grotesquely
        distorting the dynamics (factors beyond ~1e4 degrade weight
        variance).
        """
        matching = [
            a
            for a in model.timed_activities
            if name_predicate(a.name) and a.rate is not None
            and not callable(a.rate)
        ]
        if not matching:
            raise ValueError("no constant-rate activity matches the predicate")
        smallest = min(float(a.rate) for a in matching)
        return cls(boost=max(1.0, target_rate / smallest), name_predicate=name_predicate)


class ImportanceSamplingEstimator:
    """Transient probability estimation under failure biasing.

    Parameters
    ----------
    model:
        All-exponential SAN.
    stop_predicate:
        Defines the (absorbing) target event, e.g. ``KO_total`` marked.
    biasing:
        The biasing plan; ``None`` degrades to crude Monte Carlo.
    engine:
        Jump-engine selection (see :data:`repro.san.compiled.ENGINES`;
        default :data:`~repro.san.compiled.DEFAULT_ENGINE`); all
        engines give bit-identical weighted estimates per seed.
    observer:
        Optional observability hook (see :mod:`repro.obs`) attached to
        the underlying engine.  Instrumentation never touches the RNG
        stream, so the likelihood-ratio weights are unchanged by it.
    batch_size:
        Lockstep width for the ``"stepped"`` engine (other engines
        ignore it); the weights are bit-identical at any width.
    """

    def __init__(
        self,
        model: SANModel,
        stop_predicate: Callable[[Marking], bool],
        biasing: Optional[FailureBiasing] = None,
        engine: str = DEFAULT_ENGINE,
        observer=None,
        batch_size: int = 256,
    ) -> None:
        bias = biasing.plan_for(model) if biasing is not None else None
        self.simulator = make_jump_engine(
            model, bias=bias, engine=engine, observer=observer,
            batch_size=batch_size,
        )
        self.batch_size = int(batch_size)
        self.stop_predicate = stop_predicate

    def runs(
        self, n_replications: int, horizon: float, factory: StreamFactory
    ) -> list[SimulationRun]:
        """Execute ``n_replications`` independent biased replications."""
        if n_replications < 1:
            raise ValueError("need at least one replication")
        streams = factory.stream_batch("is-rep", n_replications)
        run_batch = getattr(self.simulator, "run_batch", None)
        if callable(run_batch):
            runs: list[SimulationRun] = []
            for start in range(0, len(streams), self.batch_size):
                runs.extend(
                    run_batch(
                        streams[start:start + self.batch_size],
                        horizon,
                        self.stop_predicate,
                    )
                )
            return runs
        return [
            self.simulator.run(stream, horizon, self.stop_predicate)
            for stream in streams
        ]

    def estimate(
        self,
        times: Sequence[float],
        n_replications: int,
        factory: StreamFactory,
        confidence: float = 0.95,
    ) -> TransientEstimate:
        """Unbiased estimate of ``P(target reached by t)`` for each ``t``."""
        horizon = float(max(times))
        runs = self.runs(n_replications, horizon, factory)
        estimate = TransientEstimate.from_indicator_runs(
            times, runs, confidence, method="importance-sampling"
        )
        return estimate

    def diagnose_weights(self, runs: Sequence[SimulationRun]) -> dict[str, float]:
        """Weight-degeneracy diagnostics for hit replications.

        Returns max/mean weight among hits and the effective sample size
        ratio; an ESS ratio ≪ 1 signals an over-aggressive boost.
        """
        hits = np.array([r.weight for r in runs if r.stopped], dtype=float)
        if hits.size == 0:
            return {"hits": 0.0, "max_weight": 0.0, "mean_weight": 0.0, "ess_ratio": 0.0}
        ess = float(hits.sum() ** 2 / (hits**2).sum())
        return {
            "hits": float(hits.size),
            "max_weight": float(hits.max()),
            "mean_weight": float(hits.mean()),
            "ess_ratio": ess / hits.size,
        }
