"""Warm-start surrogates and per-point estimator selection.

Before a single replication is spent, every sweep point is evaluated with
the two cheap engines the library already has:

* the **lumped-CTMC analytical engine** (:mod:`repro.core.analytical`) —
  near-exact S(t) with a truncation-error bound, milliseconds per point;
* the **first-order overlap approximation**
  (:mod:`repro.core.approximation`) — a closed-form ST1 estimate used as
  a fallback oracle when the analytical build fails (e.g. custom models
  outside its decomposability assumptions).

The resulting :class:`SurrogatePrior` serves two jobs: (1) *estimator
auto-selection* — rarity decides between an analytical short-circuit,
plain Monte-Carlo, importance sampling and multilevel splitting; and
(2) *allocation priors* — the predicted replications-to-target for a
Bernoulli(p) indicator seeds the first adaptive round before any sample
variance has been measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.parameters import AHSParameters
from repro.stats.confidence import normal_quantile

__all__ = [
    "SweepPoint",
    "SurrogatePrior",
    "EstimatorPolicy",
    "ESTIMATORS",
    "warm_start",
]

#: estimators the orchestrator can assign to a point
ESTIMATORS = ("analytical", "simulation", "importance", "splitting")


@dataclass(frozen=True)
class SweepPoint:
    """One point of a sweep: a parameterisation plus evaluation times."""

    point_id: str
    params: AHSParameters
    times: tuple[float, ...]
    #: display label (defaults to the id)
    label: str = ""

    def __post_init__(self) -> None:
        if not self.times:
            raise ValueError(f"point {self.point_id!r} needs evaluation times")
        if min(self.times) < 0:
            raise ValueError(f"point {self.point_id!r} has negative times")
        if not self.label:
            object.__setattr__(self, "label", self.point_id)

    @property
    def horizon(self) -> float:
        return float(max(self.times))


@dataclass(frozen=True)
class EstimatorPolicy:
    """Rarity thresholds steering per-point estimator selection.

    Selection looks at the surrogate's unsafety at the point's horizon
    (its *rarity*):

    ========================  =========================================
    rarity                    estimator
    ========================  =========================================
    < ``analytical_cutoff``   analytical short-circuit (no Monte-Carlo
                              method can resolve the point within any
                              sane budget; the paper itself quotes the
                              λ=1e-7 ≈ 1e-13 case without simulating it)
    < ``splitting_cutoff``    multilevel splitting
    < ``importance_cutoff``   failure-biased importance sampling
    otherwise                 crude Monte-Carlo
    ========================  =========================================

    ``forced`` overrides selection wholesale; ``allowed`` restricts the
    menu (the first allowed estimator at or above the selected one's
    rarity band wins, falling back to plain simulation).
    """

    analytical_cutoff: float = 1e-8
    splitting_cutoff: float = 1e-6
    importance_cutoff: float = 1e-3
    forced: Optional[str] = None
    allowed: tuple[str, ...] = ESTIMATORS
    boost: float = 30.0
    splitting_trials: int = 100

    def __post_init__(self) -> None:
        if not (
            0.0
            < self.analytical_cutoff
            <= self.splitting_cutoff
            <= self.importance_cutoff
        ):
            raise ValueError(
                "cutoffs must satisfy 0 < analytical <= splitting <= importance"
            )
        for name in (self.forced, *self.allowed):
            if name is not None and name not in ESTIMATORS:
                raise ValueError(
                    f"unknown estimator {name!r}; choose from {ESTIMATORS}"
                )
        if not self.allowed:
            raise ValueError("allowed estimator list cannot be empty")

    def select(self, rarity: Optional[float]) -> tuple[str, str]:
        """(estimator, reason) for a point of the given rarity."""
        if self.forced is not None:
            return self.forced, "forced by configuration"
        if rarity is None:
            choice = "simulation"
            reason = "no surrogate estimate; defaulting to crude Monte-Carlo"
        elif rarity < self.analytical_cutoff:
            choice = "analytical"
            reason = (
                f"rarity {rarity:.2e} < {self.analytical_cutoff:g}: below "
                "any Monte-Carlo resolution; serving the analytical value"
            )
        elif rarity < self.splitting_cutoff:
            choice = "splitting"
            reason = (
                f"rarity {rarity:.2e} < {self.splitting_cutoff:g}: "
                "multilevel splitting"
            )
        elif rarity < self.importance_cutoff:
            choice = "importance"
            reason = (
                f"rarity {rarity:.2e} < {self.importance_cutoff:g}: "
                "failure-biased importance sampling"
            )
        else:
            choice = "simulation"
            reason = f"rarity {rarity:.2e}: crude Monte-Carlo"
        if choice not in self.allowed:
            fallback = (
                "simulation" if "simulation" in self.allowed else self.allowed[0]
            )
            reason += f" (not allowed; using {fallback})"
            choice = fallback
        return choice, reason


@dataclass(frozen=True)
class SurrogatePrior:
    """Cheap-engine knowledge about one point, pre-replication."""

    point_id: str
    #: analytical S(t) per evaluation time (None when the build failed)
    analytical: Optional[tuple[float, ...]]
    #: truncation-error bound of the analytical values (0.0 when exact)
    truncation_error: float
    #: first-order approximation S(t) per time (always computable)
    approximation: tuple[float, ...] = ()
    #: surrogate unsafety at the horizon — the selection signal
    rarity: Optional[float] = None
    estimator: str = "simulation"
    reason: str = ""

    def values(self) -> tuple[float, ...]:
        """The best surrogate curve available (analytical, else approx)."""
        if self.analytical is not None:
            return self.analytical
        return self.approximation

    def predicted_replications(
        self, target_relative_ci: float, confidence: float = 0.95
    ) -> Optional[int]:
        """Replications for a Bernoulli(p) mean to reach the target rel-CI.

        ``n ≈ z² (1−p) / (p · target²)`` — the standard planning formula;
        None when the surrogate saw nothing (rarity 0 or unknown).  For
        importance/splitting points this grossly overestimates (that is
        why they were selected), so it is only a *ranking* prior.
        """
        if self.rarity is None or self.rarity <= 0.0:
            return None
        p = min(self.rarity, 1.0 - 1e-12)
        z = normal_quantile(0.5 + confidence / 2.0)
        n = z * z * (1.0 - p) / (p * target_relative_ci * target_relative_ci)
        return max(int(math.ceil(n)), 1)

    def to_dict(self) -> dict:
        return {
            "point_id": self.point_id,
            "analytical": None
            if self.analytical is None
            else [float(v) for v in self.analytical],
            "truncation_error": self.truncation_error,
            "approximation": [float(v) for v in self.approximation],
            "rarity": self.rarity,
            "estimator": self.estimator,
            "reason": self.reason,
        }


# ----------------------------------------------------------------------
def _analytical_curve(point: SweepPoint) -> tuple[tuple[float, ...], float]:
    from repro.core.analytical import AnalyticalEngine

    result = AnalyticalEngine(point.params).unsafety(list(point.times))
    return (
        tuple(float(v) for v in result.unsafety),
        float(result.truncation_error.max(initial=0.0)),
    )


def _approximation_curve(point: SweepPoint) -> tuple[float, ...]:
    from repro.core.approximation import OverlapApproximation

    values = OverlapApproximation(point.params).unsafety(list(point.times))
    return tuple(float(v) for v in values)


def warm_start(
    points: Sequence[SweepPoint],
    policy: EstimatorPolicy = EstimatorPolicy(),
    runner=None,
) -> dict[str, SurrogatePrior]:
    """Surrogate priors (and estimator choices) for every point.

    With a :class:`~repro.runtime.ParallelRunner`, the analytical curves
    evaluate through :meth:`ParallelRunner.map` — each one is an
    :class:`~repro.core.partasks.AnalyticalCurveTask`, so sweep points
    already cached by plain figure runs are warm-start hits for free.
    """
    from repro.core.partasks import AnalyticalCurveTask

    analytical: list[Optional[tuple[tuple[float, ...], float]]] = []
    if runner is not None:
        tasks = [
            AnalyticalCurveTask(params=p.params, times=tuple(p.times))
            for p in points
        ]
        try:
            curves = runner.map(tasks)
        except Exception:
            curves = [None] * len(points)
        for point, curve in zip(points, curves):
            if curve is None:
                analytical.append(None)
                continue
            # map() has no truncation channel; recover the bound cheaply
            # only when the value will actually be served analytically
            analytical.append((tuple(float(v) for v in curve), 0.0))
    else:
        for point in points:
            try:
                analytical.append(_analytical_curve(point))
            except Exception:
                analytical.append(None)

    priors: dict[str, SurrogatePrior] = {}
    for point, curve in zip(points, analytical):
        try:
            approx = _approximation_curve(point)
        except Exception:
            approx = ()
        if curve is not None:
            values, truncation = curve
            horizon_index = max(
                range(len(point.times)), key=lambda i: point.times[i]
            )
            rarity = values[horizon_index]
        elif approx:
            values, truncation = None, 0.0
            horizon_index = max(
                range(len(point.times)), key=lambda i: point.times[i]
            )
            rarity = approx[horizon_index]
        else:
            values, truncation, rarity = None, 0.0, None
        estimator, reason = policy.select(rarity)
        priors[point.point_id] = SurrogatePrior(
            point_id=point.point_id,
            analytical=None if curve is None else curve[0],
            truncation_error=truncation,
            approximation=approx,
            rarity=None if rarity is None else float(rarity),
            estimator=estimator,
            reason=reason,
        )
    return priors
