"""The hard invariant: instrumentation never touches the RNG stream.

Every estimate, draw count, marking trajectory, and importance-sampling
likelihood-ratio weight must be bit-identical with observability on or
off, on both jump engines, across the compiled-equivalence model zoo.
The traces themselves must also agree across engines: the interpreted and
compiled executors tell the same story event for event, delta for delta.
"""

from __future__ import annotations

import json

import pytest

from repro.core.composed import build_composed_model
from repro.core.parameters import AHSParameters
from repro.rare import FailureBiasing, ImportanceSamplingEstimator
from repro.san import (
    CompiledJumpEngine,
    MarkovJumpSimulator,
    SANSimulator,
    make_jump_engine,
)
from repro.obs import MetricsRecorder, Observation, TraceRecorder
from repro.stochastic import StreamFactory

from tests.conftest import make_two_state_model
from tests.san.test_compiled_equivalence import (
    assert_runs_identical,
    make_branchy_model,
)

ENGINE_CLASSES = {
    "interpreted": MarkovJumpSimulator,
    "compiled": CompiledJumpEngine,
}


def full_observation() -> Observation:
    return Observation(
        trace=TraceRecorder(capacity=50_000),
        metrics=MetricsRecorder(level="full"),
    )


def run_with_and_without(
    engine: str, model, seed: int, horizon: float, stop_predicate=None, bias=None
):
    """(bare run, observed run, bare draws, observed draws, observation)."""
    cls = ENGINE_CLASSES[engine]
    observation = full_observation()
    bare = cls(model, bias=bias)
    observed = cls(model, bias=bias, observer=observation)
    stream_a = StreamFactory(seed).stream("inv")
    stream_b = StreamFactory(seed).stream("inv")
    run_a = bare.run(stream_a, horizon, stop_predicate)
    run_b = observed.run(stream_b, horizon, stop_predicate)
    return run_a, run_b, stream_a.draw_count, stream_b.draw_count, observation


ZOO = {
    "two-state": lambda: (make_two_state_model()[0], None),
    "branchy": lambda: (make_branchy_model()[0], None),
}


def _composed(n: int):
    ahs = build_composed_model(AHSParameters(max_platoon_size=n))
    return ahs.model, ahs.unsafe_predicate()


ZOO["composed-2"] = lambda: _composed(2)
ZOO["composed-3"] = lambda: _composed(3)


@pytest.mark.parametrize("engine", ["interpreted", "compiled"])
@pytest.mark.parametrize("name", sorted(ZOO))
def test_runs_bit_identical_with_observer(engine, name):
    model, predicate = ZOO[name]()
    run_a, run_b, draws_a, draws_b, observation = run_with_and_without(
        engine, model, seed=7, horizon=10.0, stop_predicate=predicate
    )
    assert_runs_identical(run_a, run_b, model.places)
    assert draws_a == draws_b
    # the observer actually saw the run it didn't perturb
    assert observation.metrics.summary().replications == 1
    assert observation.metrics.summary().total_firings == run_a.firings


@pytest.mark.parametrize("engine", ["interpreted", "compiled"])
def test_biased_weights_bit_identical_with_observer(engine):
    """IS likelihood-ratio weights are the most fragile field."""
    ahs = build_composed_model(AHSParameters(max_platoon_size=2))
    biasing = FailureBiasing(
        boost=100.0, name_predicate=lambda name: name.startswith("L_FM")
    )
    bias = biasing.plan_for(ahs.model)
    predicate = ahs.unsafe_predicate()
    for seed in (1, 2, 3):
        run_a, run_b, draws_a, draws_b, _ = run_with_and_without(
            engine, ahs.model, seed, horizon=10.0,
            stop_predicate=predicate, bias=bias,
        )
        assert run_a.weight == run_b.weight
        assert draws_a == draws_b


def test_importance_estimates_unchanged_by_observer():
    ahs = build_composed_model(AHSParameters(max_platoon_size=2))
    biasing = FailureBiasing(
        boost=50.0, name_predicate=lambda name: name.startswith("L_FM")
    )
    estimates = {}
    for label, observer in (("off", None), ("on", full_observation())):
        estimator = ImportanceSamplingEstimator(
            ahs.model, ahs.unsafe_predicate(), biasing, observer=observer
        )
        estimates[label] = estimator.estimate([5.0, 10.0], 30, StreamFactory(99))
    assert list(estimates["on"].values) == list(estimates["off"].values)
    assert list(estimates["on"].half_widths) == list(
        estimates["off"].half_widths
    )


def test_event_driven_simulator_unchanged_by_observer():
    model, _up, _down = make_two_state_model(fail_rate=2.0, repair_rate=3.0)
    observation = full_observation()
    bare = SANSimulator(model)
    observed = SANSimulator(model, observer=observation)
    stream_a = StreamFactory(11).stream("des")
    stream_b = StreamFactory(11).stream("des")
    run_a = bare.run(stream_a, horizon=20.0)
    run_b = observed.run(stream_b, horizon=20.0)
    assert_runs_identical(run_a, run_b, model.places)
    assert stream_a.draw_count == stream_b.draw_count
    assert observation.metrics.summary().total_firings == run_a.firings


@pytest.mark.parametrize("name", sorted(ZOO))
def test_traces_identical_across_engines(name):
    """Both engines must tell the same structured story: same events,
    same timestamps, same marking deltas, serialised identically."""
    model, predicate = ZOO[name]()
    payloads = {}
    for engine in ("interpreted", "compiled"):
        trace = TraceRecorder(capacity=50_000)
        simulator = make_jump_engine(
            model, engine=engine, observer=Observation(trace=trace)
        )
        simulator.run(StreamFactory(13).stream("tr"), 10.0, predicate)
        payloads[engine] = "\n".join(
            json.dumps(record, sort_keys=True) for record in trace.iter_dicts()
        )
        assert len(trace) > 0
    assert payloads["compiled"] == payloads["interpreted"]


def test_stepped_batch_observer_delegation_matches_compiled():
    """Regression: rows that fall back to scalar replay inside a stepped
    batch must keep the observer contract intact — ``wants_deltas``
    delta dicts and the serialised trace identical to the compiled
    engine, and observed results identical to unobserved ones."""
    model, predicate = _composed(2)
    payloads = {}
    runs_by_engine = {}
    for engine in ("compiled", "stepped"):
        trace = TraceRecorder(capacity=50_000, deltas=True)
        observation = Observation(trace=trace)
        simulator = make_jump_engine(
            model, engine=engine, observer=observation, batch_size=4
        )
        assert observation.wants_deltas
        streams = StreamFactory(23).stream_batch("sd", 8)
        run_batch = getattr(simulator, "run_batch", None)
        if callable(run_batch):
            runs = []
            for start in range(0, len(streams), 4):
                runs.extend(
                    run_batch(streams[start:start + 4], 8.0, predicate)
                )
        else:
            runs = [simulator.run(s, 8.0, predicate) for s in streams]
        payloads[engine] = "\n".join(
            json.dumps(record, sort_keys=True)
            for record in trace.iter_dicts()
        )
        runs_by_engine[engine] = runs
        assert len(trace) > 0
        assert any(event.delta for event in trace.events())
    assert payloads["stepped"] == payloads["compiled"]
    for run_c, run_s in zip(
        runs_by_engine["compiled"], runs_by_engine["stepped"]
    ):
        assert_runs_identical(run_c, run_s, model.places)

    # observation never perturbs the stepped batch itself
    plain = make_jump_engine(model, engine="stepped", batch_size=4)
    streams = StreamFactory(23).stream_batch("sd", 8)
    runs_plain = []
    for start in range(0, 8, 4):
        runs_plain.extend(
            plain.run_batch(streams[start:start + 4], 8.0, predicate)
        )
    for run_p, run_s in zip(runs_plain, runs_by_engine["stepped"]):
        assert_runs_identical(run_p, run_s, model.places)


class TestLedgerNeverTouchesTheStream:
    """The run ledger is driver-side I/O only: estimates and
    ``repro-estimates/1``/report artifacts are byte-identical with the
    event bus attached or not, on every execution layer."""

    def _bus(self, tmp_path, name):
        from repro.obs import EventBus, RunLedger

        ledger = RunLedger(tmp_path / f"{name}.jsonl")
        return EventBus(f"run-{name}", sinks=[ledger])

    @staticmethod
    def _estimate_bytes(estimate):
        return json.dumps(
            {
                "values": [repr(v) for v in estimate.values],
                "half_widths": [repr(h) for h in estimate.half_widths],
                "n": estimate.n_samples,
            },
            sort_keys=True,
        )

    @pytest.mark.parametrize("method", ["simulation", "importance", "splitting"])
    def test_serial_unsafety_byte_identical(self, tmp_path, method):
        from repro.core.measures import unsafety
        from repro.obs import validate_events
        from repro.obs.ledger import read_events

        params = AHSParameters(max_platoon_size=2, base_failure_rate=2e-2)
        kwargs = dict(
            times=(0.5, 1.0), method=method, n_replications=60, seed=13,
            trials_per_stage=30, repetitions=3,
        )
        bare = unsafety(params, **kwargs)
        bus = self._bus(tmp_path, method)
        ledgered = unsafety(params, events=bus, **kwargs)
        bus.close()
        assert self._estimate_bytes(ledgered) == self._estimate_bytes(bare)
        events = read_events(tmp_path / f"{method}.jsonl")
        assert validate_events(events) == []
        assert events[0]["data"]["kind"] == "run"
        assert events[-1]["event"] == "RunFinished"

    def test_runner_unsafety_byte_identical(self, tmp_path):
        from repro.core.measures import unsafety
        from repro.obs import validate_events
        from repro.obs.ledger import read_events
        from repro.runtime import ParallelRunner

        params = AHSParameters(max_platoon_size=2, base_failure_rate=2e-2)
        kwargs = dict(
            times=(0.5, 1.0), method="simulation", n_replications=64, seed=13
        )
        with ParallelRunner(workers=1, chunk_size=16) as runner:
            bare = unsafety(params, runner=runner, **kwargs)
        bus = self._bus(tmp_path, "runner")
        with ParallelRunner(workers=1, chunk_size=16) as runner:
            ledgered = unsafety(params, runner=runner, events=bus, **kwargs)
            # the lent bus was handed back after the run
            assert runner.events is None
        bus.close()
        assert self._estimate_bytes(ledgered) == self._estimate_bytes(bare)
        events = read_events(tmp_path / "runner.jsonl")
        assert validate_events(events) == []
        names = [e["event"] for e in events]
        assert names.count("RunStarted") == 1
        assert names.count("RunFinished") == 1
        assert "ChunkCompleted" in names

    def test_orchestrator_report_byte_identical(self, tmp_path):
        from repro.obs import validate_events
        from repro.obs.ledger import read_events
        from repro.orchestrate import (
            Budget,
            EstimatorPolicy,
            SweepPoint,
            orchestrate,
        )
        from repro.runtime import ParallelRunner

        points = [
            SweepPoint(
                "hot",
                AHSParameters(base_failure_rate=2e-2, max_platoon_size=2),
                (0.5, 1.0),
            )
        ]
        budget = Budget(replications=128, target_relative_ci=0.5)
        policy = EstimatorPolicy(forced="simulation")

        def report_bytes(report):
            record = report.to_dict()
            record.pop("telemetry", None)
            # wall-clock fields are the only non-deterministic content
            record.get("ledger", {}).pop("elapsed_seconds", None)
            return json.dumps(record, sort_keys=True, default=repr)

        def run(events=None, workers=1):
            with ParallelRunner(workers=workers, chunk_size=64) as runner:
                return orchestrate(
                    points, budget, runner, estimator_policy=policy,
                    seed=11, events=events,
                )

        bare = run()
        bus = self._bus(tmp_path, "orch")
        ledgered = run(events=bus)
        bus.close()
        assert report_bytes(ledgered) == report_bytes(bare)
        # worker invariance holds with the ledger attached too
        bus2 = self._bus(tmp_path, "orch-w2")
        ledgered_w2 = run(events=bus2, workers=2)
        bus2.close()
        assert report_bytes(ledgered_w2) == report_bytes(bare)
        events = read_events(tmp_path / "orch.jsonl")
        assert validate_events(events) == []
        names = [e["event"] for e in events]
        assert names[0] == "RunStarted"
        assert "RoundAllocated" in names
        assert "BudgetStopped" in names
        assert names[-1] == "RunFinished"


def test_metrics_identical_across_engines():
    model, predicate = _composed(2)
    summaries = {}
    for engine in ("interpreted", "compiled"):
        metrics = MetricsRecorder(level="full")
        simulator = make_jump_engine(
            model, engine=engine, observer=Observation(metrics=metrics)
        )
        for stream in StreamFactory(4).stream_batch("mc", 10):
            simulator.run(stream, 5.0, predicate)
        summaries[engine] = json.dumps(
            metrics.summary().to_dict(), sort_keys=True
        )
    assert summaries["compiled"] == summaries["interpreted"]
