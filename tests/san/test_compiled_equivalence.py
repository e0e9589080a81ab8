"""Bit-exact equivalence of the compiled and interpreted jump engines.

The compiled engine (:mod:`repro.san.compiled`) promises *exactly* the
results of :class:`~repro.san.simulator.MarkovJumpSimulator` for the same
random stream — same draw order, same selections, same importance-sampling
likelihood-ratio weights — just faster.  This suite enforces the contract
on a zoo of models: the conftest two-state SAN, a marking-dependent model
with instantaneous activities, the One_vehicle submodel, the composed
2n-replica AHS model (with its severity watcher and dynamicity movements),
biased importance sampling, splitting segments, and hypothesis-generated
random SANs.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.composed import build_composed_model, build_one_vehicle_model
from repro.core.configuration_model import SharedPlaces
from repro.core.parameters import AHSParameters
from repro.rare import FailureBiasing, ImportanceSamplingEstimator
from repro.rare.splitting import FixedEffortSplitting
from repro.san import (
    Case,
    CompiledJumpEngine,
    MarkovJumpSimulator,
    Place,
    SANModel,
    TimedActivity,
    compile_model,
    input_arc,
    make_jump_engine,
    output_arc,
)
from repro.san.activities import InstantaneousActivity
from repro.san.marking import MarkingFunction
from repro.san.rewards import RateReward
from repro.stochastic import StreamFactory

from tests.conftest import make_two_state_model


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def assert_runs_identical(reference, candidate, places):
    """Every SimulationRun field must match bit-for-bit."""
    assert candidate.end_time == reference.end_time
    assert candidate.stopped == reference.stopped
    assert candidate.stop_time == reference.stop_time
    assert candidate.weight == reference.weight
    assert candidate.firings == reference.firings
    for place in places:
        assert candidate.final_marking.get(place) == reference.final_marking.get(
            place
        ), place.name
    assert candidate.reward_integrals == reference.reward_integrals


def run_both(model, seed, horizon, stop_predicate=None, bias=None, rewards=None):
    """(interpreted run, compiled run, draw counts) under one seed."""
    interpreted = MarkovJumpSimulator(model, bias=bias)
    compiled = CompiledJumpEngine(model, bias=bias)
    stream_a = StreamFactory(seed).stream("eq")
    stream_b = StreamFactory(seed).stream("eq")
    run_a = interpreted.run(stream_a, horizon, stop_predicate, rate_rewards=rewards)
    run_b = compiled.run(stream_b, horizon, stop_predicate, rate_rewards=rewards)
    return run_a, run_b, stream_a.draw_count, stream_b.draw_count


# ----------------------------------------------------------------------
# model zoo: two-state
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_two_state_identical(seed):
    model, up, down = make_two_state_model()
    reward = RateReward("down_frac", MarkingFunction({"d": down}, lambda g: g["d"]))
    run_a, run_b, draws_a, draws_b = run_both(
        model, seed, horizon=25.0, rewards=[reward]
    )
    assert_runs_identical(run_a, run_b, [up, down])
    assert draws_a == draws_b
    assert run_a.firings > 0


def test_two_state_stop_predicate_identical():
    model, up, down = make_two_state_model(fail_rate=0.2, repair_rate=0.1)
    predicate = lambda m: m.get(down) >= 1  # noqa: E731
    run_a, run_b, draws_a, draws_b = run_both(
        model, seed=5, horizon=50.0, stop_predicate=predicate
    )
    assert_runs_identical(run_a, run_b, [up, down])
    assert draws_a == draws_b
    assert run_a.stopped


# ----------------------------------------------------------------------
# model zoo: marking-dependent rates/probabilities + instantaneous chain
# ----------------------------------------------------------------------
def make_branchy_model():
    """Multi-case timed activity with marking-dependent rate and case
    probabilities, plus a priority-ordered instantaneous overflow drain —
    exercises every compiled code path (chooser draws, stabilize, tracing).
    """
    src = Place("src", 3)
    left = Place("left", 0)
    right = Place("right", 0)
    sink = Place("sink", 0)
    model = SANModel("branchy")
    binding = {"s": src, "l": left, "r": right}
    model.add_activity(
        TimedActivity(
            "branch",
            rate=MarkingFunction(binding, lambda g: 0.5 + 0.75 * g["s"]),
            input_gates=[input_arc(src)],
            cases=[
                Case(
                    MarkingFunction(binding, lambda g: 1.0 / (2.0 + g["l"])),
                    [output_arc(left)],
                ),
                Case(
                    MarkingFunction(
                        binding, lambda g: 1.0 - 1.0 / (2.0 + g["l"])
                    ),
                    [output_arc(right)],
                ),
            ],
        )
    )
    model.add_activity(
        TimedActivity(
            "recycle",
            rate=0.9,
            input_gates=[input_arc(right)],
            cases=[Case(1.0, [output_arc(src)])],
        )
    )
    model.add_activity(
        InstantaneousActivity(
            "drain",
            input_gates=[input_arc(left, 2)],
            cases=[
                Case(0.5, [output_arc(sink)]),
                Case(0.5, [output_arc(sink), output_arc(src)]),
            ],
            priority=10,
        )
    )
    return model, [src, left, right, sink]


@pytest.mark.parametrize("seed", [2, 3, 11])
def test_branchy_model_identical(seed):
    model, places = make_branchy_model()
    run_a, run_b, draws_a, draws_b = run_both(model, seed, horizon=40.0)
    assert_runs_identical(run_a, run_b, places)
    assert draws_a == draws_b


# ----------------------------------------------------------------------
# model zoo: the AHS models
# ----------------------------------------------------------------------
def test_one_vehicle_model_identical():
    params = AHSParameters(max_platoon_size=3)
    shared = SharedPlaces(params)
    model = build_one_vehicle_model(shared, params)
    run_a, run_b, draws_a, draws_b = run_both(model, seed=17, horizon=100.0)
    assert_runs_identical(run_a, run_b, model.places)
    assert draws_a == draws_b


@pytest.mark.parametrize("n,seed", [(2, 1), (2, 2), (3, 9)])
def test_composed_model_identical(n, seed):
    ahs = build_composed_model(AHSParameters(max_platoon_size=n))
    predicate = ahs.unsafe_predicate()
    run_a, run_b, draws_a, draws_b = run_both(
        ahs.model, seed, horizon=10.0, stop_predicate=predicate
    )
    assert_runs_identical(run_a, run_b, ahs.model.places)
    assert draws_a == draws_b
    assert run_a.firings > 10  # the dynamicity churn makes this a real test


def test_composed_biased_importance_weights_identical():
    """IS likelihood-ratio weights — the most fragile field — must agree."""
    ahs = build_composed_model(AHSParameters(max_platoon_size=2))
    biasing = FailureBiasing(
        boost=100.0, name_predicate=lambda name: name.startswith("L_FM")
    )
    bias = biasing.plan_for(ahs.model)
    predicate = ahs.unsafe_predicate()
    for seed in (1, 2, 3):
        run_a, run_b, draws_a, draws_b = run_both(
            ahs.model, seed, horizon=10.0, stop_predicate=predicate, bias=bias
        )
        assert_runs_identical(run_a, run_b, ahs.model.places)
        assert draws_a == draws_b
        assert run_a.weight != 1.0  # bias actually engaged


def test_importance_estimator_engines_agree():
    ahs = build_composed_model(AHSParameters(max_platoon_size=2))
    biasing = FailureBiasing(
        boost=50.0, name_predicate=lambda name: name.startswith("L_FM")
    )
    estimates = {}
    for engine in ("interpreted", "compiled"):
        estimator = ImportanceSamplingEstimator(
            ahs.model, ahs.unsafe_predicate(), biasing, engine=engine
        )
        estimates[engine] = estimator.estimate(
            [5.0, 10.0], 40, StreamFactory(99)
        )
    assert list(estimates["compiled"].values) == list(
        estimates["interpreted"].values
    )
    assert list(estimates["compiled"].half_widths) == list(
        estimates["interpreted"].half_widths
    )


def test_splitting_engines_agree():
    """Splitting drives simulate() with entry markings, start times,
    level_fn/level_target — the compiled segment path must match exactly."""
    ahs = build_composed_model(AHSParameters(max_platoon_size=2))
    results = {}
    for engine in ("interpreted", "compiled"):
        splitter = FixedEffortSplitting(
            ahs.model,
            ahs.severity_level(),
            [1.0, 2.0, 1000.0],
            trials_per_stage=30,
            engine=engine,
        )
        results[engine] = splitter.estimate(
            5.0, StreamFactory(4), repetitions=3
        )
    assert results["compiled"].probability == results["interpreted"].probability
    assert (
        results["compiled"].stage_fractions
        == results["interpreted"].stage_fractions
    )


# ----------------------------------------------------------------------
# property-style: random small SANs
# ----------------------------------------------------------------------
@st.composite
def random_san(draw):
    n_places = draw(st.integers(2, 4))
    places = [Place(f"p{i}", 2 if i == 0 else 0) for i in range(n_places)]
    model = SANModel("random")
    for index in range(n_places):
        src, dst = index, (index + 1) % n_places
        rate = draw(st.floats(0.3, 4.0))
        split = draw(st.floats(0.15, 0.85))
        alt = draw(st.integers(0, n_places - 1))
        model.add_activity(
            TimedActivity(
                f"a{index}",
                rate=rate,
                input_gates=[input_arc(places[src])],
                cases=[
                    Case(split, [output_arc(places[dst])]),
                    Case(1.0 - split, [output_arc(places[alt])]),
                ],
            )
        )
    horizon = draw(st.floats(0.3, 3.0))
    seed = draw(st.integers(0, 2**31))
    return model, places, horizon, seed


@given(data=random_san())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_sans_identical(data):
    model, places, horizon, seed = data
    run_a, run_b, draws_a, draws_b = run_both(model, seed, horizon)
    assert_runs_identical(run_a, run_b, places)
    assert draws_a == draws_b


# ----------------------------------------------------------------------
# engine mechanics
# ----------------------------------------------------------------------
def test_compile_model_structure():
    model, places = make_branchy_model()
    compiled = compile_model(model)
    stats = compiled.stats()
    assert stats["slots"] == len(model.places)
    assert stats["timed_activities"] == len(model.timed_activities)
    assert stats["instantaneous_activities"] == len(
        model.instantaneous_activities
    )
    marking = compiled.new_marking()
    for place in places:
        assert marking.get(place) == place.initial


def test_compiled_marking_roundtrip():
    model, up, _down = make_two_state_model()
    compiled = compile_model(model)
    cm = compiled.new_marking()
    exported = cm.export()
    assert exported.as_dict() == cm.as_dict()
    # exported markings are fresh dict-backed Markings, safe to mutate
    exported.set(up, 0)
    assert cm.get(up) == 1


def test_fired_events_counter():
    model, _up, _down = make_two_state_model()
    engine = CompiledJumpEngine(model)
    assert engine.fired_events == 0
    run = engine.run(StreamFactory(1).stream(), 10.0)
    assert engine.fired_events == run.firings
    engine.run(StreamFactory(2).stream(), 10.0)
    assert engine.fired_events > run.firings  # cumulative across runs


def test_make_jump_engine_dispatch():
    model, _up, _down = make_two_state_model()
    assert isinstance(
        make_jump_engine(model, engine="interpreted"), MarkovJumpSimulator
    )
    assert isinstance(
        make_jump_engine(model, engine="compiled"), CompiledJumpEngine
    )
    with pytest.raises(ValueError, match="unknown engine"):
        make_jump_engine(model, engine="turbo")


def test_error_message_parity():
    model, up, down = make_two_state_model()
    with pytest.raises(ValueError, match="bias refers to unknown activities"):
        CompiledJumpEngine(model, bias={"nope": 2.0})
    with pytest.raises(ValueError, match="must be finite and > 0"):
        CompiledJumpEngine(model, bias={"fail": -1.0})
    from repro.stochastic.distributions import Deterministic

    semi_markov = SANModel("semi")
    place = Place("p", 1)
    semi_markov.add_activity(
        TimedActivity(
            "det",
            distribution=Deterministic(1.0),
            input_gates=[input_arc(place)],
            cases=[Case(1.0, [output_arc(place)])],
        )
    )
    with pytest.raises(TypeError, match="requires exponential activities"):
        CompiledJumpEngine(semi_markov)


def test_deadlock_identical():
    """A model that empties out: both engines must agree on the deadlock
    time (end_time == deadlock instant, not the horizon)."""
    a = Place("a", 2)
    b = Place("b", 0)
    model = SANModel("drain")
    model.add_activity(
        TimedActivity(
            "move",
            rate=1.5,
            input_gates=[input_arc(a)],
            cases=[Case(1.0, [output_arc(b)])],
        )
    )
    run_a, run_b, draws_a, draws_b = run_both(model, seed=8, horizon=1000.0)
    assert_runs_identical(run_a, run_b, [a, b])
    assert draws_a == draws_b
    assert run_a.firings == 2
    assert run_a.end_time < 1000.0


def test_survival_weight_at_horizon_identical():
    """Unstopped biased replications carry the survival correction
    exp(-(Λ-Λ̃)(T-t)); it must agree to the last bit."""
    model, up, down = make_two_state_model(fail_rate=1e-4, repair_rate=5.0)
    run_a, run_b, _, _ = run_both(
        model, seed=21, horizon=2.0, bias={"fail": 1000.0}
    )
    assert not run_a.stopped
    assert run_a.weight == run_b.weight
    assert run_a.weight != 1.0
    assert math.isfinite(run_a.weight)
