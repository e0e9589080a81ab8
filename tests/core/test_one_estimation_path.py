"""One estimation path: every simulation method of ``unsafety()`` runs
through :meth:`repro.runtime.ParallelRunner.run`.

Without a caller's runner, ``unsafety`` builds a one-worker in-process
runner; the references below replay the engine loops the estimate must
match (the engine's ``run_batch`` over ``StreamFactory(seed)`` streams
in ``batch_size`` slices, and :meth:`FixedEffortSplitting.estimate` for
one time), so the runner path is checked against the plain loop, not
against itself.
"""

from __future__ import annotations

import io
import pickle

import numpy as np
import pytest

from repro.core import AHSParameters, build_composed_model, unsafety
from repro.core.partasks import (
    ImportanceSimulationTask,
    SplittingReplicationTask,
    UnsafetySimulationTask,
)
from repro.obs import Observation, TraceRecorder
from repro.rare import FailureBiasing, FixedEffortSplitting
from repro.runtime import ParallelRunner
from repro.san import make_jump_engine
from repro.san.rewards import TransientEstimate
from repro.stats import SequentialStoppingRule
from repro.stochastic import StreamFactory

PARAMS = AHSParameters(max_platoon_size=3, base_failure_rate=2e-2)
TIMES = (0.5, 1.0)
SEED = 2009
REPLICATIONS = 512
#: traced runs take the per-row path; 300 still crosses a chunk boundary
TRACED = 300
BATCH = 128
BOOST = 30.0
LEVELS = [1.0, 2.0, 1000.0]
TRIALS = 20
REPETITIONS = 4


def loop_estimate(label, bias=None, observer=None, n=REPLICATIONS):
    """Replications of the composed model, one engine, plain loop."""
    ahs = build_composed_model(PARAMS)
    plan = None if bias is None else bias.plan_for(ahs.model)
    engine = make_jump_engine(
        ahs.model, bias=plan, engine="stepped", observer=observer,
        batch_size=BATCH,
    )
    predicate = ahs.unsafe_predicate()
    streams = StreamFactory(SEED).stream_batch(label, n)
    runs = []
    for start in range(0, len(streams), BATCH):
        runs.extend(
            engine.run_batch(streams[start:start + BATCH], max(TIMES), predicate)
        )
    return TransientEstimate.from_indicator_runs(TIMES, runs)


def loop_splitting(observer=None):
    ahs = build_composed_model(PARAMS)
    splitter = FixedEffortSplitting(
        ahs.model, ahs.severity_level(), LEVELS,
        trials_per_stage=TRIALS, observer=observer,
    )
    return splitter.estimate(max(TIMES), StreamFactory(SEED), REPETITIONS)


def estimate(method, n=REPLICATIONS, **kwargs):
    times = (max(TIMES),) if method == "splitting" else TIMES
    return unsafety(
        PARAMS,
        times,
        method=method,
        n_replications=n,
        seed=SEED,
        boost=BOOST,
        splitting_levels=LEVELS,
        trials_per_stage=TRIALS,
        repetitions=REPETITIONS,
        batch_size=BATCH,
        **kwargs,
    )


def importance_biasing():
    return FailureBiasing(
        boost=BOOST, name_predicate=lambda name: name.startswith("L_FM")
    )


def test_every_method_reaches_the_runner_once(monkeypatch):
    calls = []
    original = ParallelRunner.run

    def spy(self, task, **kwargs):
        calls.append((type(task).__name__, kwargs["rule"] is not None))
        return original(self, task, **kwargs)

    monkeypatch.setattr(ParallelRunner, "run", spy)
    rule = SequentialStoppingRule(
        min_replications=256, max_replications=512, relative_width=0.5
    )
    assert estimate("simulation").method == "simulation"
    sequential = unsafety(
        PARAMS, TIMES, method="simulation", seed=SEED, stopping_rule=rule
    )
    assert sequential.method.startswith("simulation-sequential")
    assert estimate("importance").method == "importance-sampling"
    assert estimate("splitting").method == "splitting"
    assert calls == [
        ("UnsafetySimulationTask", False),
        ("UnsafetySimulationTask", True),
        ("ImportanceSimulationTask", False),
        ("SplittingReplicationTask", False),
    ]


def test_simulation_means_equal_the_loop_to_the_last_bit():
    reference = loop_estimate("mc")
    result = estimate("simulation")
    assert result.n_samples == REPLICATIONS
    assert np.array_equal(result.values, reference.values)
    assert result.values.max() > 0


def test_importance_means_agree_with_the_loop():
    reference = loop_estimate("is-rep", bias=importance_biasing())
    result = estimate("importance")
    assert result.values.max() > 0
    np.testing.assert_allclose(result.values, reference.values, rtol=1e-15)


def test_single_time_splitting_equals_the_estimator():
    reference = loop_splitting()
    result = estimate("splitting")
    assert result.values[0] == reference.probability
    assert result.half_widths[0] == reference.interval.half_width
    assert result.n_samples == REPETITIONS * TRIALS


def jsonl(recorder):
    buffer = io.StringIO()
    recorder.write_jsonl(buffer)
    return buffer.getvalue()


@pytest.mark.parametrize("method", ["simulation", "importance", "splitting"])
def test_traces_equal_the_loop(method):
    reference = TraceRecorder(capacity=200_000)
    if method == "splitting":
        loop_splitting(Observation(trace=reference))
    elif method == "importance":
        loop_estimate(
            "is-rep", bias=importance_biasing(),
            observer=Observation(trace=reference), n=TRACED,
        )
    else:
        loop_estimate("mc", observer=Observation(trace=reference), n=TRACED)
    recorder = TraceRecorder(capacity=200_000)
    estimate(method, n=TRACED, observer=Observation(trace=recorder))
    assert recorder.dropped == 0
    assert len(recorder) > 0
    assert jsonl(recorder) == jsonl(reference)


@pytest.mark.parametrize("method", ["importance", "splitting"])
def test_a_callers_runner_runs_importance_and_splitting(method):
    with ParallelRunner(workers=1) as runner:
        estimate(method, runner=runner)
        assert runner.last_telemetry is not None
        assert runner.last_telemetry.units > 0


@pytest.mark.parametrize(
    "cls",
    [UnsafetySimulationTask, ImportanceSimulationTask, SplittingReplicationTask],
)
def test_the_observer_stays_in_process(cls):
    bare = cls(params=PARAMS, times=TIMES)
    observed = cls(params=PARAMS, times=TIMES, observer=Observation())
    assert observed == bare
    assert observed.cache_token() == bare.cache_token()
    assert pickle.loads(pickle.dumps(observed)).observer is None
    # an observed context is never memoised: its recorders are the caller's
    assert observed.build_cached() is not observed.build_cached()
