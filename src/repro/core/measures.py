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

import time
from typing import Optional, Sequence

import numpy as np

from repro.core.analytical import AnalyticalEngine
from repro.core.approximation import OverlapApproximation
from repro.core.composed import build_composed_model
from repro.core.parameters import AHSParameters
from repro.rare import (
    FailureBiasing,
    FixedEffortSplitting,
    ImportanceSamplingEstimator,
)
from repro.san.compiled import DEFAULT_ENGINE, ENGINES, make_jump_engine
from repro.san.rewards import TransientEstimate
from repro.stats import ReplicationEstimator, SequentialStoppingRule
from repro.stochastic import StreamFactory

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
        For ``simulation``: run replications sequentially until the
        paper's convergence criterion holds (95 % CI within 0.1 relative
        width by default) instead of a fixed ``n_replications``.
    runner:
        Optional :class:`repro.runtime.ParallelRunner`.  For
        ``simulation`` the replications are then sharded across worker
        processes (and served from the runner's result cache when
        enabled); for a fixed seed the estimate is bit-identical for any
        worker count.  Other methods ignore it.
    engine:
        Jump-engine for the simulation-based methods, one of
        :data:`~repro.san.compiled.ENGINES`.  All give the same results
        per seed.  The default, :data:`~repro.san.compiled.
        DEFAULT_ENGINE` (``"stepped"``), advances a lockstep batch of
        replications with a whole-loop NumPy kernel and runs single
        replications (the sequential-stopping path) on its per-row
        compiled delegate; ``"compiled"`` runs one replication at a
        time; ``"interpreted"`` is the reference executor, useful when
        debugging gate code.  Splitting always runs on the compiled
        engine.  ``analytical`` and ``approx`` ignore it.
    batch_size:
        Lockstep width for the ``"stepped"`` engine (ignored by the
        others).  Purely a throughput knob — estimates,
        draw counts and IS weights are identical at every width.
    observer:
        Optional observability hook (typically
        :class:`repro.obs.Observation`) for the simulation-based methods.
        Serial runs attach it to the engine directly (traces, metrics and
        profiling all work); with a ``runner`` the metric summaries are
        collected worker-side, merged in chunk order, and absorbed back
        into ``observer.metrics`` — trace recorders cannot cross process
        boundaries and are ignored on the parallel path.  Instrumentation
        never changes estimates, draw counts, or IS weights.
    events:
        Optional :class:`repro.obs.EventBus`; the simulation-based
        methods announce run lifecycle and (for crude Monte-Carlo)
        per-batch progress as ``repro-events/1`` envelopes.  With a
        ``runner`` the bus is lent to it for the run so chunk-level
        events flow into the same ledger.  Emission is driver-side
        bookkeeping only — estimates are byte-identical with the bus
        attached or not.

    Returns
    -------
    TransientEstimate
        Point estimates with half-widths (zero half-widths and a
        truncation-error bound for ``analytical``; ``approx`` carries no
        error information).
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

    metrics_recorder = getattr(observer, "metrics", None)
    profiler = getattr(observer, "profiler", None)

    if method == "simulation" and runner is not None:
        from repro.core.partasks import UnsafetySimulationTask

        task = UnsafetySimulationTask(
            params=params,
            times=tuple(times_list),
            engine=engine,
            metrics=metrics_recorder is not None,
            metrics_level=(
                metrics_recorder.level if metrics_recorder is not None else "full"
            ),
            batch_size=batch_size,
        )
        # lend the bus to the runner for this run so its chunk events
        # land in the caller's ledger
        lent_bus = events is not None and runner.events is None
        if lent_bus:
            runner.events = events
        try:
            result = runner.run(
                task,
                seed=seed,
                n_replications=(
                    None if stopping_rule is not None else n_replications
                ),
                rule=stopping_rule,
            )
        finally:
            if lent_bus:
                runner.events = None
        if (
            metrics_recorder is not None
            and result.telemetry.activity_metrics is not None
        ):
            metrics_recorder.absorb(result.telemetry.activity_metrics)
        method_name = "simulation-parallel"
        if stopping_rule is not None and not result.converged:
            method_name += "-unconverged"
        return TransientEstimate(
            times=np.asarray(times_list),
            values=result.values,
            half_widths=result.half_widths,
            n_samples=result.n_replications,
            method=method_name,
        )

    from repro.obs.profile import profile_span

    def emit(event) -> None:
        if events is not None:
            events.emit(event)

    if events is not None:
        from repro.obs.events import ChunkCompleted, RunFinished, RunStarted

    factory = StreamFactory(seed)
    with profile_span(profiler, "compile"):
        ahs = build_composed_model(params)
    horizon = max(times_list)

    if method == "simulation":
        with profile_span(profiler, "compile"):
            simulator = make_jump_engine(
                ahs.model, engine=engine, observer=observer,
                batch_size=batch_size,
            )
        predicate = ahs.unsafe_predicate()
        if stopping_rule is not None:
            # the paper's protocol: add batches until each (non-zero)
            # coordinate's CI is within the relative-width target
            times_arr = np.asarray(times_list)

            def sample(index: int) -> np.ndarray:
                run = simulator.run(
                    factory.stream(f"mc-{index}"), horizon, predicate
                )
                return np.where(times_arr >= run.stop_time, run.weight, 0.0)

            estimator = ReplicationEstimator(
                sample, rule=stopping_rule, round_size=stopping_rule.min_replications
            )
            emit_started = events is not None
            if emit_started:
                emit(
                    RunStarted(
                        kind="serial",
                        workers=1,
                        unit="replications",
                        engine=engine,
                        max_total=stopping_rule.max_replications,
                    )
                )
            with profile_span(profiler, "simulate"):
                means, halves, n_done, converged = estimator.estimate()
            if emit_started:
                emit(
                    RunFinished(
                        outcome="ok", units=n_done, converged=converged
                    )
                )
            return TransientEstimate(
                times=times_arr,
                values=means,
                half_widths=halves,
                n_samples=n_done,
                method="simulation-sequential"
                + ("" if converged else "-unconverged"),
            )
        if events is not None:
            emit(
                RunStarted(
                    kind="serial",
                    workers=1,
                    unit="replications",
                    engine=engine,
                    total=n_replications,
                )
            )
        with profile_span(profiler, "simulate"):
            streams = factory.stream_batch("mc", n_replications)
            run_batch = getattr(simulator, "run_batch", None)
            # sliced either way so per-batch progress can be announced;
            # slicing changes neither stream assignment nor run order, so
            # estimates are identical to the unsliced loop
            runs = []
            for chunk_index, start in enumerate(
                range(0, len(streams), batch_size)
            ):
                window = streams[start:start + batch_size]
                batch_started = time.perf_counter()
                if callable(run_batch):
                    runs.extend(run_batch(window, horizon, predicate))
                else:
                    runs.extend(
                        simulator.run(stream, horizon, predicate)
                        for stream in window
                    )
                if events is not None:
                    emit(
                        ChunkCompleted(
                            chunk_id=f"chunk-{chunk_index}",
                            n=len(window),
                            worker="serial",
                            elapsed_seconds=(
                                time.perf_counter() - batch_started
                            ),
                        )
                    )
        if events is not None:
            emit(RunFinished(outcome="ok", units=n_replications))
        return TransientEstimate.from_indicator_runs(
            times_list, runs, method="simulation"
        )

    if method == "importance":
        biasing = FailureBiasing(
            boost=boost, name_predicate=lambda name: name.startswith("L_FM")
        )
        with profile_span(profiler, "compile"):
            estimator = ImportanceSamplingEstimator(
                ahs.model,
                ahs.unsafe_predicate(),
                biasing,
                engine=engine,
                observer=observer,
                batch_size=batch_size,
            )
        if events is not None:
            emit(
                RunStarted(
                    kind="serial",
                    workers=1,
                    unit="replications",
                    engine=engine,
                    total=n_replications,
                    detail={"method": "importance", "boost": boost},
                )
            )
        with profile_span(profiler, "simulate"):
            estimate = estimator.estimate(times_list, n_replications, factory)
        if events is not None:
            emit(RunFinished(outcome="ok", units=n_replications))
        return estimate

    if method == "splitting":
        levels = (
            list(splitting_levels)
            if splitting_levels is not None
            else [1.0, 2.0, 3.0, 1000.0]
        )
        with profile_span(profiler, "compile"):
            splitter = FixedEffortSplitting(
                ahs.model,
                ahs.severity_level(),
                levels,
                trials_per_stage=trials_per_stage,
                engine=engine,
                observer=observer,
            )
        if events is not None:
            emit(
                RunStarted(
                    kind="serial",
                    workers=1,
                    unit="replications",
                    engine=engine,
                    total=repetitions * trials_per_stage,
                    detail={"method": "splitting"},
                )
            )
        # splitting estimates P(hit by horizon); evaluate per time point
        values = []
        halves = []
        with profile_span(profiler, "simulate"):
            for t in times_list:
                outcome = splitter.estimate(t, factory, repetitions=repetitions)
                values.append(outcome.probability)
                halves.append(outcome.interval.half_width)
        if events is not None:
            emit(RunFinished(outcome="ok", units=repetitions * trials_per_stage))
        return TransientEstimate(
            times=np.asarray(times_list),
            values=np.asarray(values),
            half_widths=np.asarray(halves),
            n_samples=repetitions * trials_per_stage,
            method="splitting",
        )

    raise ValueError(
        f"unknown method {method!r}; choose one of {UNSAFETY_METHODS}"
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
