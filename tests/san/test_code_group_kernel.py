"""The stepped kernel's code-group paths, run for run against compiled.

Replicas of one activity type run the same pure code, so the stepped
engine shares work among them: refresh groups gather strided column
blocks, rate tables store clamped rates, one case-choice memo serves
every replica of a maneuver, and a write memo replays the final writes
of a branchy firing from the values of the roles it read.  These tests
pin each path to the compiled engine where it could go wrong: a write
memo whose key has to widen mid-run, a firing that must not be served
from a memo because it would drive a marking negative, a case
probability outside [0, 1] on a shared memo, firings that must stay on
the closures (an extended place, an aliased binding), a negative rate
behind an open gate, and a model whose group columns are not strided.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.san import (
    Case,
    CompiledJumpEngine,
    ExtendedPlace,
    InputGate,
    MarkingFunction,
    OutputGate,
    Place,
    SANModel,
    SteppedJumpEngine,
    TimedActivity,
    join,
    output_arc,
    replicate,
)
from repro.stochastic import StreamFactory

from tests.san.test_compiled_equivalence import assert_runs_identical


def assert_matches_compiled(model, places, seed, *, rows=8, batches=2,
                            horizon=6.0, stop=None) -> SteppedJumpEngine:
    """Stepped batches replay the compiled runs and draw counts; the
    engine (tables and memos warm across batches) is returned."""
    stepped = SteppedJumpEngine(model, batch_size=rows)
    compiled = CompiledJumpEngine(model)
    for batch in range(batches):
        expected_streams = StreamFactory(seed).stream_batch(f"b{batch}", rows)
        expected = [
            compiled.run(stream, horizon, stop) for stream in expected_streams
        ]
        streams = StreamFactory(seed).stream_batch(f"b{batch}", rows)
        runs = stepped.run_batch(streams, horizon, stop)
        for reference, candidate in zip(expected, runs):
            assert_runs_identical(reference, candidate, places)
        assert [s.draw_count for s in streams] == [
            s.draw_count for s in expected_streams
        ]
    return stepped


def assert_raises_like_compiled(model, seed, horizon=50.0):
    """One stream raises the same error after the same draws on both
    engines; returns the stepped engine and its error message."""
    stream = StreamFactory(seed).stream("raise")
    with pytest.raises(ValueError) as reference:
        CompiledJumpEngine(model).run(stream, horizon)
    expected_draws = stream.draw_count

    engine = SteppedJumpEngine(model, batch_size=1)
    stream = StreamFactory(seed).stream("raise")
    with pytest.raises(ValueError) as raised:
        engine.run_batch([stream], horizon)
    assert str(raised.value) == str(reference.value)
    assert stream.draw_count == expected_draws
    return engine, str(raised.value)


def replicated(one: SANModel, copies: int, shared: list,
               extra: SANModel = None) -> SANModel:
    models = replicate(one, copies, shared=shared)
    return join("replicated", models + ([extra] if extra else []))


def fire_group_memo(engine: SteppedJumpEngine, name: str, case: int = 0):
    """The write memo serving activity ``name``'s ``case``."""
    index = [a.name for a in engine.compiled.timed].index(name)
    return engine._fire_groups[engine._fire_group_of[index]].memos[case]


# ----------------------------------------------------------------------
# write memo
# ----------------------------------------------------------------------
def make_widening_fire_model(copies: int = 3):
    """``step``'s output gate reads the shared ``bonus`` only once its
    replica's ``level`` is above 0, so the first misses key the memo on
    ``(count, level)`` and a later one widens it."""
    level, count = Place("level", 0), Place("count", 0)
    bonus = Place("bonus", 0)
    one = SANModel("one")
    one.add_activity(
        TimedActivity(
            "raise",
            rate=0.3,
            input_gates=[InputGate("low", {"level": level},
                                   lambda g: g["level"] < 2)],
            cases=[Case(1.0, [output_arc(level)])],
        )
    )

    def step(g) -> None:
        if g["level"] > 0:
            g["count"] = (g["count"] + g["bonus"]) % 4
        else:
            g["count"] = 1 - g["count"]

    one.add_activity(
        TimedActivity(
            "step",
            rate=2.0,
            cases=[Case(1.0, [OutputGate(
                "step", {"level": level, "count": count, "bonus": bonus},
                step,
            )])],
        )
    )

    def cycle(g) -> None:
        g["bonus"] = (g["bonus"] + 1) % 3

    extra = SANModel("extra")
    extra.add_activity(
        TimedActivity(
            "cycle",
            rate=1.0,
            cases=[Case(1.0, [OutputGate("cycle", {"bonus": bonus}, cycle)])],
        )
    )
    model = replicated(one, copies, [bonus], extra)
    return model, list(model.places)


def test_write_memo_key_widens_mid_run():
    model, places = make_widening_fire_model()
    engine = assert_matches_compiled(model, places, seed=3)
    memo = fire_group_memo(engine, "step[0]")
    # the key grew from (count, level) to (bonus, count, level) on the
    # replicas' shared memo, and hits still served most firings
    assert sorted(memo.roles[bit] for bit in range(len(memo.roles))
                  if memo.key_mask >> bit & 1) == ["bonus", "count", "level"]
    counters = engine.kernel_counters()
    assert 0 < counters["write_fills"] < counters["write_lookups"]
    assert engine.lowering_stats()["fire_tabulated"] == 3 + 1  # + cycle


def make_draining_model(copies: int = 3, tokens: int = 3):
    """``take`` first arms its replica, then removes a token per firing,
    until a firing at zero tokens drives the marking negative."""
    mode, pool = Place("mode", 0), Place("tokens", tokens)
    one = SANModel("one")

    def take(g) -> None:
        if g["mode"] == 1:
            g.dec("tokens")
        else:
            g["mode"] = 1

    one.add_activity(
        TimedActivity(
            "take",
            rate=1.0,
            cases=[Case(1.0, [OutputGate(
                "take", {"mode": mode, "tokens": pool}, take
            )])],
        )
    )
    return replicated(one, copies, [])


def test_memo_never_serves_a_firing_into_a_negative_marking():
    # the replicas share one memo: each decrement at a token count that
    # another replica already met is a hit, the one at zero tokens is a
    # miss that fires for real and raises, at the compiled firing
    engine, message = assert_raises_like_compiled(
        make_draining_model(), seed=2
    )
    assert "marking must stay >= 0" in message
    counters = engine.kernel_counters()
    assert 0 < counters["write_fills"] < counters["write_lookups"]
    # every completed miss was stored; the raising one neither
    assert counters["closure_firings"] == counters["write_fills"]


# ----------------------------------------------------------------------
# shared case-choice memo
# ----------------------------------------------------------------------
def make_off_simplex_replicas(copies: int = 3):
    """Each replica's ``pick`` leaves [0, 1] once its ``c`` reaches 3."""
    c, out = Place("c", 0), Place("out", 0)
    one = SANModel("one")
    one.add_activity(
        TimedActivity("tick", rate=1.0, cases=[Case(1.0, [output_arc(c)])])
    )
    one.add_activity(
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
    return replicated(one, copies, [])


def test_off_simplex_probability_on_shared_memo_raises_uncached():
    engine, message = assert_raises_like_compiled(
        make_off_simplex_replicas(), seed=5
    )
    assert "outside [0,1]" in message
    (memo,) = engine._case_memos
    # one memo serves every replica; the failing value was never stored
    assert len(memo.slot_maps) == 3
    assert 0 < memo.fills < memo.lookups
    assert 3 not in memo.table and set(memo.table) <= {0, 1, 2}


# ----------------------------------------------------------------------
# firings that stay on the closures
# ----------------------------------------------------------------------
def make_closure_model():
    """Branchy firings: two plain ``bump`` replicas, one ``bump`` whose
    binding aliases ``x`` and ``y`` to one place, and a ``retag`` over
    an extended place."""
    x0, y0, x1, y1 = (Place(name, 0) for name in ("x0", "y0", "x1", "y1"))
    both = Place("both", 0)
    tags, turns = ExtendedPlace("tags", (1, 0)), Place("turns", 0)
    model = SANModel("closures")

    def bump(g) -> None:
        if g["x"] < 3:
            g["x"] = g["x"] + 1
            g["y"] = g["y"] + 2
        else:
            g["x"] = 0
            g["y"] = 0

    for name, x, y in (("bump0", x0, y0), ("bump1", x1, y1),
                       ("bump_aliased", both, both)):
        model.add_activity(
            TimedActivity(
                name,
                rate=1.0,
                cases=[Case(1.0, [OutputGate(name, {"x": x, "y": y}, bump)])],
            )
        )

    def retag(g) -> None:
        if g["n"] > 1:
            g["t"] = (g["t"][1], g["t"][0])
            g["n"] = 0
        else:
            g["n"] = g["n"] + 1

    model.add_activity(
        TimedActivity(
            "retag",
            rate=0.7,
            cases=[Case(1.0, [OutputGate(
                "retag", {"t": tags, "n": turns}, retag
            )])],
        )
    )
    return model, [x0, y0, x1, y1, both, tags, turns]


def test_extended_place_and_aliased_binding_stay_on_closures():
    model, places = make_closure_model()
    engine = assert_matches_compiled(model, places, seed=7, horizon=8.0)
    stats = engine.lowering_stats()
    assert stats["fire_cases"] == 4
    assert stats["fire_lowered"] == 0
    assert stats["fire_tabulated"] == 2  # bump0 and bump1 share a memo
    assert fire_group_memo(engine, "bump_aliased") is None
    assert fire_group_memo(engine, "retag") is None
    memo = fire_group_memo(engine, "bump0")
    assert memo is fire_group_memo(engine, "bump1")
    counters = engine.kernel_counters()
    # every aliased and extended firing ran the closures
    assert counters["closure_firings"] > counters["write_fills"]
    assert counters["write_lookups"] > counters["write_fills"] > 0


# ----------------------------------------------------------------------
# rate tables
# ----------------------------------------------------------------------
def make_negative_rate_model():
    """``bad``'s rate 1 - c is negative until ``c`` falls to 1, first
    behind a closed gate, until ``opener`` opens it."""
    c, opened = Place("c", 6), Place("open", 0)
    model = SANModel("negative-behind-gate")
    model.add_activity(
        TimedActivity(
            "tick",
            rate=0.05,
            input_gates=[InputGate("positive", {"c": c}, lambda g: g["c"] > 0)],
            cases=[Case(1.0, [OutputGate("dec", {"c": c},
                                         lambda g: g.dec("c"))])],
        )
    )
    model.add_activity(
        TimedActivity(
            "opener",
            rate=0.5,
            input_gates=[InputGate("shut", {"o": opened},
                                   lambda g: g["o"] == 0)],
            cases=[Case(1.0, [output_arc(opened)])],
        )
    )
    model.add_activity(
        TimedActivity(
            "bad",
            rate=MarkingFunction({"c": c}, lambda g: 1.0 - g["c"]),
            input_gates=[InputGate("open", {"o": opened},
                                   lambda g: g["o"] == 1)],
        )
    )
    return model


def test_negative_rate_behind_open_gate_raises_on_same_step():
    model = make_negative_rate_model()
    stats = SteppedJumpEngine(model).lowering_stats()
    assert stats["groups_tabulated"] == stats["groups"]
    engine, message = assert_raises_like_compiled(model, seed=1)
    assert message.startswith("activity 'bad': negative rate -")
    # the rate tables hold clamped rates; a negative one is never stored
    for table in engine._tables:
        if table.rate is not None:
            stored = table.rate.memo.table
            assert not (stored[~np.isnan(stored)] < 0).any()


def make_ragged_model():
    """``claim`` replicas at activity indices 0, 2, 3, whose flags sit
    at slots 0, 3, 4: neither is evenly spaced."""
    shared = Place("held", 0)
    flags = [Place(f"f{i}", 0) for i in range(3)]
    spare = Place("spare", 0)
    model = SANModel("ragged")

    def free(g) -> bool:
        return g["f"] == 0 and g["held"] < 2

    def claim(g) -> None:
        g["f"] = 1
        g.inc("held")

    def drop(g) -> None:
        g["f"] = 0
        g.dec("held")

    def add_claim(i: int) -> None:
        model.add_activity(
            TimedActivity(
                f"claim{i}",
                rate=1.0 + i,
                input_gates=[InputGate("free", {"f": flags[i], "held": shared},
                                       free)],
                cases=[Case(1.0, [OutputGate(
                    "claim", {"f": flags[i], "held": shared}, claim
                )])],
            )
        )

    add_claim(0)
    model.add_activity(
        TimedActivity("idle", rate=0.3, cases=[Case(1.0, [output_arc(spare)])])
    )
    add_claim(1)
    add_claim(2)
    for i, flag in enumerate(flags):
        model.add_activity(
            TimedActivity(
                f"drop{i}",
                rate=0.8,
                input_gates=[InputGate("held", {"f": flag},
                                       lambda g: g["f"] == 1)],
                cases=[Case(1.0, [OutputGate(
                    "drop", {"f": flag, "held": shared}, drop
                )])],
            )
        )
    return model, [shared, spare, *flags]


def test_non_strided_group_columns_take_fancy_indexing():
    model, places = make_ragged_model()
    engine = assert_matches_compiled(model, places, seed=11, horizon=10.0)
    claim = next(t for t in engine._tables if t.group.names[0] == "claim0")
    assert isinstance(claim.cols, np.ndarray)
    assert any(
        isinstance(cols, np.ndarray) for cols in claim.gate.memo.member_cols
    )
    drop = next(t for t in engine._tables if t.group.names[0] == "drop0")
    assert isinstance(drop.cols, slice)
    assert engine.lowering_stats()["groups_tabulated"] == len(engine._tables)
