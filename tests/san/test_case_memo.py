"""Memoised case choice and the stepped kernel's instantaneous tables.

Every engine but the interpreted reference serves a multi-case
activity's probability list from a memo keyed on the values of the
slots its probability functions read.  These tests pin the memo to the
interpreted engine run for run where a memo could go wrong: a key that
has to widen mid-run, a probability that leaves [0, 1] (the error must
surface at the same firing), and a probability over an extended place
(never cached).  The last part covers the stepped engine's per-group
instantaneous-gate tables: a dead table must still replay exactly, and
the always-on kernel counters must not depend on which step loop runs
a point.
"""

from __future__ import annotations

import pytest

from repro.core.composed import build_composed_model
from repro.core.parameters import AHSParameters
from repro.san import (
    BatchedJumpEngine,
    Case,
    CompiledJumpEngine,
    ExtendedPlace,
    InputGate,
    InstantaneousActivity,
    MarkingFunction,
    MarkovJumpSimulator,
    MultiPointContext,
    MultiPointJob,
    OutputGate,
    Place,
    SANModel,
    SteppedJumpEngine,
    TimedActivity,
    input_arc,
    output_arc,
)
from repro.stochastic import StreamFactory

from tests.san.test_compiled_equivalence import assert_runs_identical

#: engine name -> factory; the batch engines run one ``run_batch``
ENGINES = {
    "interpreted": MarkovJumpSimulator,
    "compiled": CompiledJumpEngine,
    "stepped": lambda model: SteppedJumpEngine(model, batch_size=4),
}


def run_streams(engine, streams, horizon):
    if isinstance(engine, BatchedJumpEngine):
        return engine.run_batch(streams, horizon)
    return [engine.run(stream, horizon) for stream in streams]


def assert_engines_match_interpreted(model, places, seed, horizon):
    """Every engine replays the interpreted runs and draw counts."""
    results = {}
    for name, factory in ENGINES.items():
        streams = StreamFactory(seed).stream_batch("memo", 4)
        runs = run_streams(factory(model), streams, horizon)
        results[name] = (runs, [s.draw_count for s in streams])
    reference, draws = results["interpreted"]
    for name, (runs, candidate_draws) in results.items():
        for expected, actual in zip(reference, runs):
            assert_runs_identical(expected, actual, places)
        assert candidate_draws == draws, name
    return reference


def evaluations(model_builder, engine_name, seed, horizon) -> int:
    """How often ``pick``'s first probability runs on a fresh engine."""
    calls: list = []
    model, _places = model_builder(calls)
    engine = ENGINES[engine_name](model)
    calls.clear()  # engine construction may validate the model
    run_streams(engine, StreamFactory(seed).stream_batch("memo", 4), horizon)
    return len(calls)


# ----------------------------------------------------------------------
# seeded models
# ----------------------------------------------------------------------
def make_widening_model(calls: list):
    """``pick``'s probability reads ``b`` only once ``a > 0``.

    ``a`` starts at 0, so the first evaluations read ``a`` alone; once
    ``grow`` fires, the memo sees a read outside its key, widens the
    key to ``(a, b)`` and starts over.
    """
    a, b = Place("a", 0), Place("b", 0)
    left, right = Place("left", 0), Place("right", 0)
    model = SANModel("widening")
    model.add_activity(
        TimedActivity(
            "grow",
            rate=0.4,
            input_gates=[InputGate("a_low", {"a": a}, lambda g: g["a"] < 2)],
            cases=[Case(1.0, [output_arc(a)])],
        )
    )

    def next_b(g) -> None:
        g["b"] = (g["b"] + 1) % 3

    model.add_activity(
        TimedActivity(
            "cycle_b",
            rate=1.5,
            cases=[Case(1.0, [OutputGate("next_b", {"b": b}, next_b)])],
        )
    )

    def first(g) -> float:
        return 0.2 + 0.3 * g["b"] if g["a"] > 0 else 0.5

    def counted(g) -> float:
        calls.append(1)
        return first(g)

    binding = {"a": a, "b": b}
    model.add_activity(
        TimedActivity(
            "pick",
            rate=3.0,
            cases=[
                Case(MarkingFunction(binding, counted), [output_arc(left)]),
                Case(MarkingFunction(binding, lambda g: 1.0 - first(g)),
                     [output_arc(right)]),
            ],
        )
    )
    return model, [a, b, left, right]


def make_off_simplex_model():
    """``pick``'s probability 0.5 + 0.2·c leaves [0, 1] once c reaches 3."""
    c, out = Place("c", 0), Place("out", 0)
    model = SANModel("off-simplex-runtime")
    model.add_activity(
        TimedActivity("tick", rate=1.0, cases=[Case(1.0, [output_arc(c)])])
    )
    model.add_activity(
        TimedActivity(
            "pick",
            rate=2.0,
            cases=[
                Case(MarkingFunction({"c": c}, lambda g: 0.5 + 0.2 * g["c"]),
                     [output_arc(out)], label="up"),
                Case(MarkingFunction({"c": c}, lambda g: 0.5 - 0.2 * g["c"]),
                     label="down"),
            ],
        )
    )
    return model


def make_extended_model(calls: list):
    """``pick``'s probability reads a tuple-valued (extended) place."""
    tags = ExtendedPlace("tags", (1, 0))
    hits = Place("hits", 0)
    model = SANModel("extended-prob")

    def swap(g) -> None:
        g["t"] = (g["t"][1], g["t"][0])

    model.add_activity(
        TimedActivity(
            "retag",
            rate=0.8,
            cases=[Case(1.0, [OutputGate("swap", {"t": tags}, swap)])],
        )
    )

    def first(g) -> float:
        return 0.25 if g["t"][0] else 0.75

    def counted(g) -> float:
        calls.append(1)
        return first(g)

    model.add_activity(
        TimedActivity(
            "pick",
            rate=2.0,
            cases=[
                Case(MarkingFunction({"t": tags}, counted),
                     [output_arc(hits)]),
                Case(MarkingFunction({"t": tags}, lambda g: 1.0 - first(g))),
            ],
        )
    )
    return model, [tags, hits]


# ----------------------------------------------------------------------
# case memo
# ----------------------------------------------------------------------
def test_key_widens_mid_run_identical():
    model, places = make_widening_model([])
    reference = assert_engines_match_interpreted(
        model, places, seed=3, horizon=6.0
    )
    assert any(run.final_marking.get(places[0]) > 0 for run in reference)
    # the memo is live: at most one evaluation per (a, b) value pair
    # plus one per key widening, against one per firing uncached
    cached = evaluations(make_widening_model, "compiled", 3, 6.0)
    uncached = evaluations(make_widening_model, "interpreted", 3, 6.0)
    assert 0 < cached <= 11 < uncached


@pytest.mark.parametrize("name", list(ENGINES))
def test_off_simplex_probability_raises_at_same_firing(name):
    model = make_off_simplex_model()
    stream = StreamFactory(5).stream("memo")
    with pytest.raises(ValueError) as reference:
        MarkovJumpSimulator(model).run(stream, 50.0)
    expected_draws = stream.draw_count

    stream = StreamFactory(5).stream("memo")
    with pytest.raises(ValueError) as raised:
        run_streams(ENGINES[name](model), [stream], 50.0)
    assert str(raised.value) == str(reference.value)
    assert "outside [0,1]" in str(raised.value)
    assert stream.draw_count == expected_draws


def test_extended_place_probability_stays_uncached():
    model, places = make_extended_model([])
    assert_engines_match_interpreted(model, places, seed=9, horizon=5.0)
    # uncached: one evaluation per ``pick`` firing, like the reference,
    # although only two tag values ever occur
    uncached = evaluations(make_extended_model, "interpreted", 9, 5.0)
    for name in ("compiled", "stepped"):
        assert evaluations(make_extended_model, name, 9, 5.0) == uncached
    assert uncached > 2


# ----------------------------------------------------------------------
# instantaneous-gate tables and kernel counters
# ----------------------------------------------------------------------
def make_wide_alarm_model(n_counters: int = 21):
    """An instantaneous gate over ``n_counters`` shared counters.

    Each counter contributes a factor 2 to the gate table's span, so 21
    of them exceed the 2^20 cap and the table is dead from the start.
    """
    counters = [Place(f"c{i}", 0) for i in range(n_counters)]
    flag = Place("flag", 0)
    model = SANModel("wide-alarm")

    def below_cap(g) -> bool:
        return g["c"] < 2

    for i, counter in enumerate(counters):
        model.add_activity(
            TimedActivity(
                f"bump{i}",
                rate=0.2,
                input_gates=[InputGate("below_cap", {"c": counter},
                                       below_cap)],
                cases=[Case(1.0, [output_arc(counter)])],
            )
        )
    binding = {f"c{i}": counter for i, counter in enumerate(counters)}
    binding["flag"] = flag

    def raised(g) -> bool:
        return g["flag"] == 0 and sum(
            g[f"c{i}"] for i in range(n_counters)
        ) >= 3

    def reset(g) -> None:
        for i in range(n_counters):
            g[f"c{i}"] = 0

    model.add_activity(
        InstantaneousActivity(
            "alarm",
            input_gates=[InputGate("wide", binding, raised)],
            cases=[Case(1.0, [output_arc(flag)])],
        )
    )
    model.add_activity(
        TimedActivity(
            "clear",
            rate=1.0,
            input_gates=[input_arc(flag)],
            cases=[Case(1.0, [OutputGate("reset", binding, reset)])],
        )
    )
    return model, counters + [flag]


def test_dead_insta_table_replays_exactly():
    model, places = make_wide_alarm_model()
    stats = SteppedJumpEngine(model).lowering_stats()
    assert stats["insta_groups"] == 1
    assert stats["insta_tabulated"] == 0
    reference = assert_engines_match_interpreted(
        model, places, seed=1, horizon=20.0
    )
    assert any(run.firings > 10 for run in reference)


def test_kernel_counters_agree_between_step_loops():
    """A point's rows take one step per tensor step, grouped exactly as
    in the per-point loop, so every counter agrees per engine."""
    points = []
    for n in (2, 3):
        ahs = build_composed_model(
            AHSParameters(max_platoon_size=n, base_failure_rate=2e-2)
        )
        points.append((ahs.model, ahs.unsafe_predicate(), n))
    solo, tensor, jobs = [], [], []
    for model, stop, n in points:
        engine = SteppedJumpEngine(model, batch_size=16)
        runs = engine.run_batch(
            StreamFactory(4).stream_batch(f"k{n}", 16), 6.0, stop
        )
        solo.append((engine, sum(run.firings for run in runs)))
        engine = SteppedJumpEngine(model, batch_size=16)
        tensor.append(engine)
        jobs.append(MultiPointJob(
            engine, StreamFactory(4).stream_batch(f"k{n}", 16), 6.0, stop
        ))
    MultiPointContext(jobs).run()
    for (engine, fired), twin in zip(solo, tensor):
        counters = engine.kernel_counters()
        assert counters["events"] == fired > 0
        assert counters["row_steps"] >= counters["events"]
        assert counters["insta_lookups"] > 0
        assert twin.kernel_counters() == counters
