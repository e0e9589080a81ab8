"""The batch engines' lean paths: lazy delegate and deferred markings.

The batch engine builds its per-row compiled delegate only when a
single replication, an observed run or a ``simulate`` segment needs it,
and the stepped kernels (``SteppedJumpEngine.run_batch``,
``MultiPointContext.run``) hand back final markings whose dict is built
on first read.  Neither may change a result.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.composed import build_composed_model
from repro.core.parameters import AHSParameters
from repro.rare import FailureBiasing
from repro.san import (
    CompiledJumpEngine,
    Marking,
    MultiPointContext,
    MultiPointJob,
    SimulationRun,
    SteppedJumpEngine,
)
from repro.san.marking import DeferredMarking
from repro.stochastic import StreamFactory

from tests.conftest import make_two_state_model

HORIZON = 4.0


@pytest.fixture(scope="module")
def ahs():
    return build_composed_model(
        AHSParameters(max_platoon_size=3, base_failure_rate=1e-2)
    )


def _streams(n: int, name: str = "lean"):
    return StreamFactory(2024).stream_batch(name, n)


@pytest.mark.parametrize("engine_cls", [SteppedJumpEngine])
def test_run_batch_only_never_builds_the_delegate(ahs, engine_cls):
    engine = engine_cls(ahs.model)
    runs = engine.run_batch(_streams(16), HORIZON, ahs.unsafe_predicate())
    assert len(runs) == 16
    assert engine._delegate_engine is None


def test_tensor_run_never_builds_the_delegate(ahs):
    engine = SteppedJumpEngine(ahs.model)
    MultiPointContext(
        [MultiPointJob(engine, _streams(8), HORIZON, ahs.unsafe_predicate())]
    ).run()
    assert engine._delegate_engine is None


@pytest.mark.parametrize("engine_cls", [SteppedJumpEngine])
@pytest.mark.parametrize("biased", [False, True])
def test_run_equals_a_batch_of_one(ahs, engine_cls, biased):
    bias = (
        FailureBiasing(
            boost=30.0, name_predicate=lambda name: name.startswith("L_FM")
        ).plan_for(ahs.model)
        if biased
        else None
    )
    predicate = ahs.unsafe_predicate()
    engine = engine_cls(ahs.model, bias=bias)
    for index in range(8):
        [batched] = engine.run_batch(
            [StreamFactory(7).stream(f"one-{index}")], HORIZON, predicate
        )
        single = engine.run(
            StreamFactory(7).stream(f"one-{index}"), HORIZON, predicate
        )
        for field in dataclasses.fields(SimulationRun):
            name = field.name
            if name == "final_marking":
                assert single.final_marking.as_dict() == (
                    batched.final_marking.as_dict()
                )
            else:
                assert getattr(single, name) == getattr(batched, name), name
    assert engine._delegate_engine is not None


def test_deferred_marking_equals_an_eager_export(ahs):
    predicate = ahs.unsafe_predicate()
    stepped = SteppedJumpEngine(ahs.model)
    compiled = CompiledJumpEngine(stepped.compiled)
    runs = stepped.run_batch(_streams(32), HORIZON, predicate)
    for stream, run in zip(_streams(32), runs):
        assert isinstance(run.final_marking, DeferredMarking)
        reference = compiled.run(stream, HORIZON, predicate)
        assert type(reference.final_marking) is Marking
        assert run.final_marking == reference.final_marking
        assert run == reference
        # materialised once, the snapshot reads like any marking
        assert run.final_marking.changed == set()
        for place in ahs.model.places:
            assert run.final_marking.get(place) == (
                reference.final_marking.get(place)
            )


def test_tensor_runs_defer_their_markings_too(ahs):
    predicate = ahs.unsafe_predicate()
    engine = SteppedJumpEngine(ahs.model)
    [tensor_runs] = MultiPointContext(
        [MultiPointJob(engine, _streams(16), HORIZON, predicate)]
    ).run()
    per_point = engine.run_batch(_streams(16), HORIZON, predicate)
    for tensor_run, point_run in zip(tensor_runs, per_point):
        assert isinstance(tensor_run.final_marking, DeferredMarking)
        assert tensor_run == point_run


def test_markings_compare_by_value():
    model, *_ = make_two_state_model()
    first = model.initial_marking()
    second = model.initial_marking()
    assert first == second
    place = next(iter(first.places()))
    second.set(place, second.get(place) + 1)
    assert first != second
    with pytest.raises(TypeError):
        hash(first)


def test_fired_events_count_the_delegate_once_it_exists(ahs):
    predicate = ahs.unsafe_predicate()
    engine = SteppedJumpEngine(ahs.model)
    runs = engine.run_batch(_streams(16), HORIZON, predicate)
    kernel = sum(run.firings for run in runs)
    assert engine.fired_events == kernel
    single = engine.run(StreamFactory(3).stream("solo"), HORIZON, predicate)
    assert engine._delegate_engine is not None
    assert engine.fired_events == kernel + single.firings
