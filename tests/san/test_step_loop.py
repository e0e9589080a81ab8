"""The stepped engine's one batch-step loop, at its less-travelled edges.

``SteppedJumpEngine.run_batch`` and ``MultiPointContext.run`` share one
loop (:func:`repro.san.stepped._step_loop`).  Every rate refresh in it
is row-restricted, so a refresh group whose table span passes the 2^20
cap takes the row-restricted tree refresh
(``_LoweredGroup.refresh_rows``) in per-point and tensor runs alike.
The built-in AHS models tabulate every group, so a seeded model with a
wide gate pins that escape here, run for run against the compiled
engine.
"""

from __future__ import annotations

import pytest

from repro.san import (
    Case,
    CompiledJumpEngine,
    InputGate,
    MultiPointContext,
    MultiPointJob,
    OutputGate,
    Place,
    SANModel,
    SteppedJumpEngine,
    TimedActivity,
    output_arc,
)
from repro.san.batched import _LoweredGroup
from repro.stochastic import StreamFactory

from tests.san.test_compiled_equivalence import assert_runs_identical

HORIZON = 30.0


def make_wide_drain_model(n_counters: int = 21):
    """A timed ``drain`` whose gate reads ``n_counters`` shared counters.

    Each counter contributes a factor 2 to the drain group's table span,
    so 21 of them exceed the 2^20 cap: the group has no table from the
    start, and every refresh evaluates its trees on the refreshed rows.
    Returns the model, its places and a stop predicate on the drain
    count.
    """
    counters = [Place(f"c{i}", 0) for i in range(n_counters)]
    drained = Place("drained", 0)
    model = SANModel(f"wide-drain-{n_counters}")

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

    def full(g) -> bool:
        return sum(g[f"c{i}"] for i in range(n_counters)) >= 3

    def reset(g) -> None:
        for i in range(n_counters):
            g[f"c{i}"] = 0

    model.add_activity(
        TimedActivity(
            "drain",
            rate=1.0,
            input_gates=[InputGate("full", binding, full)],
            cases=[Case(1.0, [OutputGate("reset", binding, reset),
                              output_arc(drained)])],
        )
    )

    def stop(marking) -> bool:
        return marking.get(drained) >= 18

    return model, counters + [drained], stop


def compiled_runs(model, seed, name, n_streams, stop):
    """The compiled engine's runs and draw counts for one stream batch."""
    engine = CompiledJumpEngine(model)
    streams = StreamFactory(seed).stream_batch(name, n_streams)
    runs = [engine.run(stream, HORIZON, stop) for stream in streams]
    return runs, [stream.draw_count for stream in streams]


@pytest.fixture
def row_refreshes(monkeypatch):
    """Counts row-restricted tree refreshes and their row counts."""
    calls: list = []
    restricted = _LoweredGroup.refresh_rows

    def counted(self, *args, **kwargs):
        calls.append(len(args[1]))
        return restricted(self, *args, **kwargs)

    monkeypatch.setattr(_LoweredGroup, "refresh_rows", counted)
    return calls


def test_wide_gate_group_is_not_tabulated():
    model, _places, _stop = make_wide_drain_model()
    stats = SteppedJumpEngine(model).lowering_stats()
    assert stats["fallback"] == 0
    assert stats["groups"] == 2
    assert stats["groups_tabulated"] < stats["groups"]
    assert stats["groups_tabulated"] == 1


def test_untabulated_group_per_point_identical(row_refreshes):
    model, places, stop = make_wide_drain_model()
    reference, draws = compiled_runs(model, 3, "wide", 16, stop)
    engine = SteppedJumpEngine(model, batch_size=16)
    streams = StreamFactory(3).stream_batch("wide", 16)
    runs = engine.run_batch(streams, HORIZON, stop)
    for expected, actual in zip(reference, runs):
        assert_runs_identical(expected, actual, places)
    assert [stream.draw_count for stream in streams] == draws
    assert row_refreshes and max(row_refreshes) <= 16
    assert any(run.stopped for run in runs)
    assert any(not run.stopped for run in runs)
    assert sum(run.firings for run in runs) > 1000


def test_untabulated_group_in_a_two_job_tensor_identical(row_refreshes):
    """Two layouts share the tensor: a direct refresh of one engine's
    ``drain`` must not write the other engine's rows, where the same
    rate column belongs to ``bump21``."""
    points = [make_wide_drain_model(21), make_wide_drain_model(22)]
    jobs, expected = [], []
    for k, (model, places, stop) in enumerate(points):
        streams = StreamFactory(5).stream_batch(f"job{k}", 12)
        jobs.append(MultiPointJob(SteppedJumpEngine(model), streams,
                                  HORIZON, stop))
        expected.append(
            (compiled_runs(model, 5, f"job{k}", 12, stop), places, streams)
        )
    results = MultiPointContext(jobs).run()
    fired = 0
    for runs, ((reference, draws), places, streams) in zip(results,
                                                             expected):
        for want, got in zip(reference, runs):
            assert_runs_identical(want, got, places)
            fired += got.firings
        assert [stream.draw_count for stream in streams] == draws
    assert row_refreshes and max(row_refreshes) <= 12
    assert fired > 1000
