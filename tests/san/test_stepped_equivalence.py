"""Bit-exact equivalence of the stepped and compiled jump engines.

The stepped engine (:mod:`repro.san.stepped`) advances the whole batch
one *batch step* at a time — vectorized exponential draws, masked
cumulative-sum selection, fused delta-matrix firing, tabulated rate
refresh — but promises *exactly* the per-stream results of
:class:`~repro.san.compiled.CompiledJumpEngine`: same draw order, same
selections, same importance-sampling likelihood-ratio weights, at any
batch size.  This suite enforces the contract on the same model zoo as
``test_compiled_equivalence.py``, plus the stepped-specific machinery:
table bound growth, negative-rate parity, per-row fallback rows inside
a stepped batch, and the zero-fallback guarantee on every built-in AHS
strategy (the issue's VEC001–VEC003 criterion).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.composed import build_composed_model, build_one_vehicle_model
from repro.core.configuration_model import SharedPlaces
from repro.core.coordination import Strategy
from repro.core.parameters import AHSParameters
from repro.rare import FailureBiasing, ImportanceSamplingEstimator
from repro.san import (
    BatchedJumpEngine,
    Case,
    CompiledJumpEngine,
    Place,
    SANModel,
    SteppedJumpEngine,
    TimedActivity,
    input_arc,
    make_jump_engine,
    output_arc,
)
from repro.san.marking import MarkingFunction
from repro.san.rewards import RateReward, TransientEstimate
from repro.stochastic import StreamFactory

from tests.conftest import make_two_state_model
from tests.san.test_compiled_equivalence import (
    assert_runs_identical,
    make_branchy_model,
    random_san,
)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def run_stepped_both(
    model,
    seed,
    horizon,
    n_streams,
    batch_size,
    stop_predicate=None,
    bias=None,
    rewards=None,
):
    """(compiled runs, stepped runs, draw-count lists) under one seed."""
    compiled = CompiledJumpEngine(model, bias=bias)
    stepped = SteppedJumpEngine(model, bias=bias, batch_size=batch_size)
    streams_a = StreamFactory(seed).stream_batch("eq", n_streams)
    streams_b = StreamFactory(seed).stream_batch("eq", n_streams)
    runs_a = [
        compiled.run(s, horizon, stop_predicate, rate_rewards=rewards)
        for s in streams_a
    ]
    runs_b = []
    for start in range(0, n_streams, batch_size):
        runs_b.extend(
            stepped.run_batch(
                streams_b[start:start + batch_size],
                horizon,
                stop_predicate,
                rate_rewards=rewards,
            )
        )
    draws_a = [s.draw_count for s in streams_a]
    draws_b = [s.draw_count for s in streams_b]
    return runs_a, runs_b, draws_a, draws_b


def assert_batch_identical(runs_a, runs_b, draws_a, draws_b, places):
    assert len(runs_b) == len(runs_a)
    for run_a, run_b in zip(runs_a, runs_b):
        assert_runs_identical(run_a, run_b, places)
    assert draws_a == draws_b


# ----------------------------------------------------------------------
# model zoo identity at several batch widths
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_two_state_identical(seed):
    model, up, down = make_two_state_model()
    runs_a, runs_b, draws_a, draws_b = run_stepped_both(
        model, seed, horizon=25.0, n_streams=4, batch_size=4
    )
    assert_batch_identical(runs_a, runs_b, draws_a, draws_b, [up, down])
    assert runs_a[0].firings > 0


def test_run_matches_run_batch_of_one():
    model, up, down = make_two_state_model()
    engine = SteppedJumpEngine(model)
    run_single = engine.run(StreamFactory(5).stream("eq"), 25.0)
    [run_batch] = engine.run_batch([StreamFactory(5).stream("eq")], 25.0)
    assert_runs_identical(run_single, run_batch, [up, down])


@pytest.mark.parametrize("seed", [2, 3, 11])
def test_branchy_model_identical(seed):
    """Multi-case choosers stay scalar per firing row — the fallback-
    inside-a-stepped-batch path — and must still replay exactly."""
    model, places = make_branchy_model()
    runs_a, runs_b, draws_a, draws_b = run_stepped_both(
        model, seed, horizon=40.0, n_streams=6, batch_size=3
    )
    assert_batch_identical(runs_a, runs_b, draws_a, draws_b, places)


def test_one_vehicle_model_identical():
    params = AHSParameters(max_platoon_size=3)
    shared = SharedPlaces(params)
    model = build_one_vehicle_model(shared, params)
    runs_a, runs_b, draws_a, draws_b = run_stepped_both(
        model, seed=17, horizon=100.0, n_streams=4, batch_size=4
    )
    assert_batch_identical(runs_a, runs_b, draws_a, draws_b, model.places)


def test_deadlock_identical():
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
    runs_a, runs_b, draws_a, draws_b = run_stepped_both(
        model, seed=8, horizon=1000.0, n_streams=4, batch_size=4
    )
    assert_batch_identical(runs_a, runs_b, draws_a, draws_b, [a, b])
    assert runs_a[0].firings == 2
    assert runs_a[0].end_time < 1000.0


def test_survival_weight_at_horizon_identical():
    model, up, down = make_two_state_model(fail_rate=1e-4, repair_rate=5.0)
    runs_a, runs_b, _, _ = run_stepped_both(
        model,
        seed=21,
        horizon=2.0,
        n_streams=8,
        batch_size=8,
        bias={"fail": 1000.0},
    )
    for run_a, run_b in zip(runs_a, runs_b):
        assert not run_a.stopped
        assert run_a.weight == run_b.weight
        assert run_a.weight != 1.0
        assert math.isfinite(run_a.weight)


@pytest.mark.parametrize("batch_size", [1, 5, 16])
def test_composed_model_identical(batch_size):
    ahs = build_composed_model(AHSParameters(max_platoon_size=2))
    predicate = ahs.unsafe_predicate()
    runs_a, runs_b, draws_a, draws_b = run_stepped_both(
        ahs.model,
        seed=9,
        horizon=10.0,
        n_streams=16,
        batch_size=batch_size,
        stop_predicate=predicate,
    )
    assert_batch_identical(runs_a, runs_b, draws_a, draws_b, ahs.model.places)
    assert sum(r.firings for r in runs_a) > 100


def test_composed_biased_weights_identical_any_width():
    """IS likelihood-ratio weights — the most fragile field — must agree
    bit-for-bit whether the batch advances 1 or 16 rows in lockstep."""
    ahs = build_composed_model(AHSParameters(max_platoon_size=2))
    biasing = FailureBiasing(
        boost=100.0, name_predicate=lambda name: name.startswith("L_FM")
    )
    bias = biasing.plan_for(ahs.model)
    predicate = ahs.unsafe_predicate()
    for batch_size in (1, 16):
        runs_a, runs_b, draws_a, draws_b = run_stepped_both(
            ahs.model,
            seed=2,
            horizon=10.0,
            n_streams=16,
            batch_size=batch_size,
            stop_predicate=predicate,
            bias=bias,
        )
        assert_batch_identical(
            runs_a, runs_b, draws_a, draws_b, ahs.model.places
        )
        assert all(r.weight != 1.0 for r in runs_a)


def test_importance_estimator_stepped_agrees():
    ahs = build_composed_model(AHSParameters(max_platoon_size=2))
    biasing = FailureBiasing(
        boost=50.0, name_predicate=lambda name: name.startswith("L_FM")
    )
    estimates = {}
    for engine, width in (("compiled", 256), ("stepped", 16), ("stepped", 256)):
        estimator = ImportanceSamplingEstimator(
            ahs.model,
            ahs.unsafe_predicate(),
            biasing,
            engine=engine,
            batch_size=width,
        )
        estimates[(engine, width)] = estimator.estimate(
            [5.0, 10.0], 40, StreamFactory(99)
        )
    reference = estimates[("compiled", 256)]
    for width in (16, 256):
        candidate = estimates[("stepped", width)]
        # bit-identical, which trivially satisfies the pooled-CI criterion
        assert list(candidate.values) == list(reference.values)
        assert list(candidate.half_widths) == list(reference.half_widths)


def test_stepped_estimates_within_pooled_confidence_intervals():
    """The acceptance-style statistical check: estimates from B=16 and
    B=256 sweeps agree with the compiled engine within pooled 99% CIs
    (they are in fact bit-identical, so the margin is zero)."""
    ahs = build_composed_model(
        AHSParameters(max_platoon_size=2, base_failure_rate=5e-3)
    )
    predicate = ahs.unsafe_predicate()
    times = [5.0, 10.0]

    def estimate(engine_name, width):
        engine = make_jump_engine(
            ahs.model, engine=engine_name, batch_size=width
        )
        streams = StreamFactory(31).stream_batch("ci", 256)
        run_batch = getattr(engine, "run_batch", None)
        if callable(run_batch):
            runs = []
            for start in range(0, len(streams), width):
                runs.extend(run_batch(streams[start:start + width], 10.0, predicate))
        else:
            runs = [engine.run(s, 10.0, predicate) for s in streams]
        return TransientEstimate.from_indicator_runs(
            times, runs, confidence=0.99
        )

    reference = estimate("compiled", 256)
    for width in (16, 256):
        candidate = estimate("stepped", width)
        for ref_v, ref_h, cand_v, cand_h in zip(
            reference.values,
            reference.half_widths,
            candidate.values,
            candidate.half_widths,
        ):
            pooled = math.hypot(ref_h, cand_h)
            assert abs(cand_v - ref_v) <= max(pooled, 1e-15)
            assert cand_v == ref_v  # and in fact exactly equal


def test_rate_rewards_identical():
    model, up, down = make_two_state_model()
    reward = RateReward(
        "down_frac", MarkingFunction({"d": down}, lambda g: g["d"])
    )
    runs_a, runs_b, _, _ = run_stepped_both(
        model, seed=6, horizon=25.0, n_streams=8, batch_size=8,
        rewards=[reward],
    )
    for run_a, run_b in zip(runs_a, runs_b):
        assert run_a.reward_integrals == run_b.reward_integrals
        assert run_a.reward_integrals["down_frac"] > 0.0


@given(data=random_san())
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_sans_stepped_identical(data):
    model, places, horizon, seed = data
    runs_a, runs_b, draws_a, draws_b = run_stepped_both(
        model, seed, horizon, n_streams=4, batch_size=4
    )
    assert_batch_identical(runs_a, runs_b, draws_a, draws_b, places)


# ----------------------------------------------------------------------
# tabulated-refresh machinery
# ----------------------------------------------------------------------
def make_counter_model():
    """A counter that climbs far past the initial table bounds, read by
    a marking-dependent rate — every few firings outgrow a role bound
    and force a table rebuild mid-run."""
    counter = Place("counter", 1)
    drain = Place("drain", 0)
    model = SANModel("climber")
    model.add_activity(
        TimedActivity(
            "grow",
            rate=MarkingFunction(
                {"c": counter}, lambda g: 1.0 + 0.25 * g["c"]
            ),
            input_gates=[input_arc(counter)],
            cases=[Case(1.0, [output_arc(counter), output_arc(counter)])],
        )
    )
    model.add_activity(
        TimedActivity(
            "leak",
            rate=MarkingFunction({"c": counter}, lambda g: 0.05 * g["c"]),
            input_gates=[input_arc(counter)],
            cases=[Case(1.0, [output_arc(drain)])],
        )
    )
    return model, [counter, drain]


def test_table_bound_growth_identical():
    model, places = make_counter_model()
    runs_a, runs_b, draws_a, draws_b = run_stepped_both(
        model, seed=4, horizon=12.0, n_streams=8, batch_size=8
    )
    assert_batch_identical(runs_a, runs_b, draws_a, draws_b, places)
    assert any(
        places[0].initial < run.final_marking.get(places[0])
        for run in runs_a
    )


def test_tables_persist_across_batches():
    """A second batch on the same engine starts with warm tables and
    must replay exactly like a cold engine."""
    model, places = make_counter_model()
    engine = SteppedJumpEngine(model, batch_size=8)
    first = engine.run_batch(StreamFactory(3).stream_batch("w", 8), 12.0)
    again = engine.run_batch(StreamFactory(3).stream_batch("w", 8), 12.0)
    cold = SteppedJumpEngine(model, batch_size=8)
    reference = cold.run_batch(StreamFactory(3).stream_batch("w", 8), 12.0)
    for warm, ref in zip(again, reference):
        assert_runs_identical(warm, ref, places)
    for one, two in zip(first, again):
        assert_runs_identical(one, two, places)


def test_negative_rate_raises_like_direct_refresh():
    counter = Place("counter", 3)
    model = SANModel("negative")
    model.add_activity(
        TimedActivity(
            "bad",
            rate=MarkingFunction(
                {"c": counter}, lambda g: 2.0 - g["c"]
            ),
            input_gates=[input_arc(counter)],
            cases=[Case(1.0, [output_arc(counter), output_arc(counter)])],
        )
    )
    engine = SteppedJumpEngine(model, batch_size=4)
    with pytest.raises(ValueError, match="negative rate"):
        engine.run_batch(StreamFactory(1).stream_batch("neg", 4), 50.0)


# ----------------------------------------------------------------------
# zero-fallback guarantee on the built-in AHS models (issue satellite)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("n", [5, 10, 20])
def test_ahs_models_fully_lowered(strategy, n):
    """VEC001–VEC003 clean: every built-in AHS model at paper-scale n
    lowers completely on the batch engines — no `_CannotLower` fallbacks,
    tabulated insta gating, and every rate group tabulated."""
    ahs = build_composed_model(
        AHSParameters(max_platoon_size=n, strategy=strategy)
    )
    engine = SteppedJumpEngine(ahs.model)
    assert engine.fallback_reasons == {}
    stats = engine.lowering_stats()
    assert stats["fallback"] == 0
    assert stats["timed_activities"] == stats["lowered"]
    # straight-line firings (join/leave/change/transit) carry fused
    # delta-matrix programs; the branchy failure and maneuver ones are
    # served by write memos
    assert 0 < stats["fire_lowered"] < stats["fire_cases"]
    assert stats["fire_lowered"] + stats["fire_tabulated"] == (
        stats["fire_cases"]
    )
    assert stats["insta_lowered"] == 1
    # one instantaneous-gate table per gate-code group (the configure
    # replicas and to_KO), each within the span cap
    assert stats["insta_groups"] == 2
    assert stats["insta_tabulated"] == stats["insta_groups"]
    assert stats["groups_tabulated"] == len(engine._tables)


def test_lowering_covers_paper_model_gates():
    """The compile pass must lower *every* timed activity of the AHS model
    to column ops — including the per-vehicle maneuver activities, whose
    occupancy helpers are kept float()-free precisely so they trace."""
    ahs = build_composed_model(AHSParameters(max_platoon_size=3))
    engine = SteppedJumpEngine(ahs.model)
    stats = engine.lowering_stats()
    assert stats["timed_activities"] == stats["lowered"] + stats["fallback"]
    assert stats["fallback"] == 0
    assert engine.fallback_reasons == {}

    # a purely structural model lowers completely
    model, _up, _down = make_two_state_model()
    assert SteppedJumpEngine(model).lowering_stats()["fallback"] == 0


# ----------------------------------------------------------------------
# engine mechanics
# ----------------------------------------------------------------------
def test_make_jump_engine_dispatch_stepped():
    model, _up, _down = make_two_state_model()
    engine = make_jump_engine(model, engine="stepped", batch_size=32)
    assert isinstance(engine, SteppedJumpEngine)
    assert isinstance(engine, BatchedJumpEngine)
    assert engine.batch_size == 32
    assert engine.engine_name == "stepped"


def test_fired_events_counter_stepped():
    model, _up, _down = make_two_state_model()
    engine = SteppedJumpEngine(model, batch_size=4)
    assert engine.fired_events == 0
    runs = engine.run_batch(StreamFactory(1).stream_batch("ev", 4), 10.0)
    assert engine.fired_events == sum(r.firings for r in runs)


def test_constructor_validation():
    model, _up, _down = make_two_state_model()
    with pytest.raises(ValueError, match="batch_size"):
        SteppedJumpEngine(model, batch_size=0)
    with pytest.raises(ValueError, match="bias refers to unknown activities"):
        SteppedJumpEngine(model, bias={"nope": 2.0})
    with pytest.raises(ValueError, match="must be finite and > 0"):
        SteppedJumpEngine(model, bias={"fail": -1.0})
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
        SteppedJumpEngine(semi_markov)
