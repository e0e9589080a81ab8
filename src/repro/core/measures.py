"""The unified unsafety-evaluation API.

``unsafety(params, times, method=...)`` evaluates the paper's measure
S(t) — the probability that the AHS has reached a catastrophic situation
by time t — with any of the library's engines:

========== ===========================================================
method     engine
========== ===========================================================
analytical lumped-CTMC uniformization (fast, reaches 1e-13; default)
simulation crude Monte-Carlo on the composed SAN (jump simulator)
importance failure-biased importance sampling (rare events, unbiased)
splitting  fixed-effort multilevel splitting
approx     closed-form first-order ST1 estimate
========== ===========================================================
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.analytical import AnalyticalEngine
from repro.core.approximation import OverlapApproximation
from repro.core.parameters import AHSParameters
from repro.san.compiled import DEFAULT_ENGINE, ENGINES
from repro.san.rewards import TransientEstimate
from repro.stats import SequentialStoppingRule

__all__ = [
    "unsafety",
    "UNSAFETY_METHODS",
    "mean_time_to_unsafety",
    "unsafety_hazard",
    "expected_degraded_vehicle_hours",
]

UNSAFETY_METHODS = ("analytical", "simulation", "importance", "splitting", "approx")


def unsafety(
    params: AHSParameters,
    times: Sequence[float],
    method: str = "analytical",
    n_replications: int = 10_000,
    seed: Optional[int] = None,
    boost: float = 30.0,
    splitting_levels: Optional[Sequence[float]] = None,
    trials_per_stage: int = 300,
    repetitions: int = 10,
    stopping_rule: Optional[SequentialStoppingRule] = None,
    runner=None,
    engine: str = DEFAULT_ENGINE,
    observer=None,
    batch_size: int = 256,
    events=None,
) -> TransientEstimate:
    """Evaluate S(t) at the requested times.

    Parameters
    ----------
    params:
        The model parameterisation.
    times:
        Trip durations at which S(t) is reported.
    method:
        One of :data:`UNSAFETY_METHODS`.
    n_replications:
        Replication budget for ``simulation`` and ``importance`` (the
        paper used "at least 10000 simulation batches").
    seed:
        Randomness seed for the simulation methods.
    boost:
        Failure-rate multiplier for ``importance``.
    splitting_levels:
        Importance-function thresholds for ``splitting``; defaults to
        one level per active failure (1, 2, 3) plus the KO top level.
    trials_per_stage / repetitions:
        Effort knobs for ``splitting``.
    stopping_rule:
        For ``simulation``: add rounds of replications until the paper's
        convergence criterion holds (95 % CI within 0.1 relative width
        by default) instead of a fixed ``n_replications``; the criterion
        is checked at multiples of the runner's ``chunk_size``.
    runner:
        Optional :class:`repro.runtime.ParallelRunner`.  All three
        simulation methods run through a runner: the caller's, which
        shards the replications across its worker processes (and serves
        them from its result cache when enabled), or else one built here
        (one in-process worker, no cache, closed before returning).  For
        a fixed seed the estimate is bit-identical for any worker count.
    engine:
        Jump-engine for the simulation-based methods, one of
        :data:`~repro.san.compiled.ENGINES`.  All give the same results
        per seed.  The default, :data:`~repro.san.compiled.
        DEFAULT_ENGINE` (``"stepped"``), advances a lockstep batch of
        replications with a whole-loop NumPy kernel (observed runs go
        to its per-row compiled delegate); ``"compiled"`` runs one
        replication at a time; ``"interpreted"`` is the reference
        executor, useful when debugging gate code.  Splitting always
        runs on the compiled engine.  ``analytical`` and ``approx``
        ignore it.
    batch_size:
        Lockstep width for the ``"stepped"`` engine (ignored by the
        others).  Purely a throughput knob — estimates,
        draw counts and IS weights are identical at every width.
    observer:
        Optional observability hook (typically
        :class:`repro.obs.Observation`) for the simulation-based methods.
        Without a ``runner`` it rides on the task into the in-process
        runner and is attached to the engine directly (traces, metrics
        and profiling all work; the profiler times the runner's
        ``compile``/``simulate``/``merge`` phases).  With a ``runner``
        the metric summaries are collected per chunk, merged in chunk
        order and absorbed back into ``observer.metrics``, the profiler
        is whatever the runner carries, and trace recorders are ignored
        — they cannot cross process boundaries.  Instrumentation never
        changes estimates, draw counts, or IS weights.
    events:
        Optional :class:`repro.obs.EventBus`; the runner announces run
        lifecycle and per-chunk progress on it as ``repro-events/1``
        envelopes.  A caller's ``runner`` borrows the bus for the run so
        chunk-level events flow into the same ledger.  Emission is
        driver-side bookkeeping only — estimates are byte-identical with
        the bus attached or not.

    Returns
    -------
    TransientEstimate
        Point estimates with half-widths (zero half-widths and a
        truncation-error bound for ``analytical``; ``approx`` carries no
        error information).  Simulation half-widths are Student-t
        intervals over replications.  ``method`` names the estimator:
        ``analytical``, ``approx``, ``simulation`` (fixed budget),
        ``simulation-sequential`` (``stopping_rule``),
        ``importance-sampling`` or ``splitting``, with ``-unconverged``
        appended when a stopping rule ran out of budget.
    """
    times_list = [float(t) for t in times]
    if not times_list:
        raise ValueError("need at least one time point")
    if min(times_list) < 0:
        raise ValueError("times must be non-negative")
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose one of {ENGINES}")

    if method == "analytical":
        result = AnalyticalEngine(params).unsafety(times_list)
        return TransientEstimate(
            times=result.times,
            values=result.unsafety,
            half_widths=np.zeros_like(result.unsafety),
            n_samples=0,
            method="analytical",
            truncation_error=float(result.truncation_error.max(initial=0.0)),
        )

    if method == "approx":
        values = OverlapApproximation(params).unsafety(times_list)
        return TransientEstimate(
            times=np.asarray(times_list),
            values=values,
            half_widths=np.zeros_like(values),
            n_samples=0,
            method="approx",
        )

    if method not in UNSAFETY_METHODS:
        raise ValueError(
            f"unknown method {method!r}; choose one of {UNSAFETY_METHODS}"
        )
    from repro.core.partasks import (
        ImportanceSimulationTask,
        SplittingReplicationTask,
        UnsafetySimulationTask,
    )
    from repro.runtime import ParallelRunner

    own_runner = runner is None
    recorder = getattr(observer, "metrics", None)
    if own_runner:
        # one in-process worker: the observer rides on the task and is
        # attached to the engine, so traces and metrics land in it directly
        wiring = {"observer": observer}
    else:
        # the caller's runner may ship chunks to workers: collect
        # per-chunk metric summaries there and absorb the pooled one
        wiring = {
            "metrics": recorder is not None,
            "metrics_level": "full" if recorder is None else recorder.level,
        }
    times_tuple = tuple(times_list)
    budget = {"n_replications": n_replications, "rule": None}
    if method == "splitting":
        if repetitions < 2:
            raise ValueError("need at least 2 repetitions for a CI")
        task = SplittingReplicationTask(
            params=params,
            times=times_tuple,
            levels=(
                SplittingReplicationTask.levels
                if splitting_levels is None
                else tuple(float(level) for level in splitting_levels)
            ),
            trials_per_stage=trials_per_stage,
            engine=engine,
            **wiring,
        )
        budget["n_replications"] = repetitions
        label = "splitting"
    elif method == "importance":
        task = ImportanceSimulationTask(
            params=params,
            times=times_tuple,
            engine=engine,
            batch_size=batch_size,
            boost=boost,
            **wiring,
        )
        label = "importance-sampling"
    else:
        task = UnsafetySimulationTask(
            params=params,
            times=times_tuple,
            engine=engine,
            batch_size=batch_size,
            **wiring,
        )
        label = "simulation"
        if stopping_rule is not None:
            budget = {"n_replications": None, "rule": stopping_rule}
            label = "simulation-sequential"

    if own_runner:
        runner = ParallelRunner(
            workers=1,
            events=events,
            profiler=getattr(observer, "profiler", None),
        )
    # lend the bus to a caller's runner for this run so its chunk
    # events land in the caller's ledger
    lent_bus = not own_runner and events is not None and runner.events is None
    if lent_bus:
        runner.events = events
    try:
        result = runner.run(task, seed=seed, **budget)
    finally:
        if lent_bus:
            runner.events = None
        if own_runner:
            runner.close()
    metrics = result.telemetry.activity_metrics
    if not own_runner and recorder is not None and metrics is not None:
        recorder.absorb(metrics)
    if not result.converged:
        label += "-unconverged"
    n_samples = result.n_replications
    if method == "splitting":
        n_samples *= trials_per_stage
    return TransientEstimate(
        times=np.asarray(times_list),
        values=result.values,
        half_widths=result.half_widths,
        n_samples=n_samples,
        method=label,
    )


def expected_degraded_vehicle_hours(
    params: AHSParameters, time: float
) -> float:
    """Expected vehicle-hours spent executing recovery maneuvers in [0, t].

    An interval-of-time reward (Möbius terminology) over the lumped
    failure chain: the reward of a state is its number of concurrently
    active maneuvers.  Post-KO states contribute zero (the model freezes
    at the absorbing unsafe state).  A fleet-operations quantity: how much
    degraded-mode driving a trip schedule should expect.
    """
    import numpy as np

    from repro.core.analytical import _active_total
    from repro.ctmc import accumulated_reward

    if time < 0:
        raise ValueError(f"time must be >= 0, got {time}")
    engine = AnalyticalEngine(params)
    chain = engine.failure_chain.chain
    reward = np.zeros(chain.n_states)
    for state_id, state in enumerate(engine.failure_chain.states):
        if state in ("KO", "TRUNC"):
            continue
        reward[state_id] = _active_total(state)
    return float(accumulated_reward(chain, [time], reward)[0])


def mean_time_to_unsafety(params: AHSParameters) -> float:
    """Expected time (hours) until the AHS reaches a catastrophic state.

    The reciprocal view of S(t): solved exactly on the lumped failure
    chain (``Q_TT τ = −1``).  At the paper's defaults this is on the
    order of millions of hours — the per-trip unsafety is tiny but the
    fleet-level exposure is what a deployment study would divide by.
    """
    from repro.ctmc import mean_time_to_absorption

    engine = AnalyticalEngine(params)
    return mean_time_to_absorption(engine.failure_chain.chain)


def unsafety_hazard(
    params: AHSParameters, time: float, dt: float = 0.5
) -> float:
    """Instantaneous hazard rate h(t) = S'(t) / (1 − S(t)) (1/hr).

    Estimated by a central difference of the numerical engine's S(t).
    For the paper's parameters the hazard is essentially flat after the
    first half hour (the occupancy process mixes quickly), which is why
    the figures look near-linear in trip duration.
    """
    if time <= dt:
        raise ValueError(f"time must exceed dt={dt}, got {time}")
    engine = AnalyticalEngine(params)
    result = engine.unsafety([time - dt, time, time + dt])
    derivative = (result.unsafety[2] - result.unsafety[0]) / (2.0 * dt)
    survival = 1.0 - result.unsafety[1]
    return float(derivative / survival)
