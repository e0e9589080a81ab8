"""Observability overhead benchmark: instrumented vs bare compiled engine.

Not a paper artifact — guards the "zero overhead when off, cheap when on"
contract of :mod:`repro.obs`.  Directly runnable::

    PYTHONPATH=src python benchmarks/bench_obs.py --smoke --json BENCH_obs.json

Runs the compiled jump engine on the composed AHS model three ways —
uninstrumented, with counter-level metrics (``level="counts"``), and with
full metrics plus a bounded trace recorder — over identical seeds, prints
an overhead table, writes ``BENCH_obs.json`` and exits non-zero if the
counter-level overhead exceeds the budget (10 % by default; the CI
obs-smoke gate).  Event counts must match exactly across all modes:
instrumentation never touches the RNG stream.

The gated overhead is a paired statistic.  Each repeat times one pass
per mode, about a second long in the smoke configuration, with the
modes interleaved run by run; the overhead is the median, over
repeats, of a mode's pass time divided by the same repeat's ``off``
pass, minus one.  Host noise on a shared machine changes speed within
a second, so only a fine interleaving pairs the modes well.

A second section times the **run ledger** (event bus + JSONL sink) around
whole serial ``unsafety`` runs on both the compiled and the stepped
engine.  Ledger emission is per-chunk driver-side bookkeeping — the
stepped engine's whole-loop batches never see it — so it is held to the
same ≤10 % budget, and the estimates must stay bit-identical with the
ledger on or off.
"""

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.core import AHSParameters, build_composed_model, unsafety
from repro.obs import EventBus, MetricsRecorder, Observation, RunLedger, TraceRecorder
from repro.san import make_jump_engine
from repro.stochastic import StreamFactory

OVERHEAD_BUDGET = 0.10  # counter-level metrics may cost at most 10 %
#: engines the ledger-overhead section times (whole serial unsafety runs)
LEDGER_ENGINES = ("compiled", "stepped")


def _observation(mode: str):
    if mode == "off":
        return None
    if mode == "counts":
        return Observation(metrics=MetricsRecorder(level="counts"))
    if mode == "full+trace":
        return Observation(
            trace=TraceRecorder(capacity=10_000),
            metrics=MetricsRecorder(level="full"),
        )
    raise ValueError(f"unknown mode {mode!r}")


def _interleaved_pass(modes, units: int, time_unit) -> dict:
    """One pass per mode, ``units`` timed units long, interleaved by unit.

    Unit ``i`` runs in every mode back to back, in an order rotated by
    ``i``, so a change in host speed reaches every mode's pass alike.
    (Whole passes alternated a second apart paired badly: on a shared
    2-CPU host two identical one-second passes differed by up to 25 %.)
    Returns each mode's ``time_unit(mode, i)`` results in unit order.
    """
    rows: dict = {mode: [] for mode in modes}
    for i in range(units):
        shift = i % len(modes)
        for mode in modes[shift:] + modes[:shift]:
            rows[mode].append(time_unit(mode, i))
    return rows


def _fastest(rows: list) -> dict:
    return min(rows, key=lambda row: row["elapsed_seconds"])


def _paired_ratios(rows: list, baseline: list) -> list:
    """Per repeat, a mode's pass time over the same repeat's baseline."""
    return [
        row["elapsed_seconds"] / base["elapsed_seconds"]
        for row, base in zip(rows, baseline)
    ]


def _paired_overhead(ratios: list) -> float:
    """The gated overhead: the median paired ratio, minus one.

    Interleaving cancels most host noise within a repeat, and the median
    drops the repeats a hiccup still split.
    """
    return statistics.median(ratios) - 1.0


def _time_pass(model, modes, replications: int, horizon: float) -> dict:
    """One pass of the compiled engine per mode, interleaved by replication."""
    simulators = {
        mode: make_jump_engine(model, engine="compiled",
                               observer=_observation(mode))
        for mode in modes
    }
    streams = {
        mode: StreamFactory(2024).stream_batch("bench", replications)
        for mode in modes
    }

    def time_run(mode: str, i: int) -> tuple:
        started = time.perf_counter()
        run = simulators[mode].run(streams[mode][i], horizon)
        return time.perf_counter() - started, run.firings

    rows = {}
    for mode, runs in _interleaved_pass(
        modes, replications, time_run
    ).items():
        elapsed = sum(seconds for seconds, _ in runs)
        firings = sum(events for _, events in runs)
        rows[mode] = {
            "mode": mode,
            "replications": replications,
            "events": int(firings),
            "elapsed_seconds": elapsed,
            "events_per_sec": firings / elapsed if elapsed > 0 else 0.0,
        }
    return rows


def measure_overhead(
    size: int = 10, replications: int = 40, horizon: float = 2.0, repeats: int = 5
) -> dict:
    """Benchmark all instrumentation modes on one composed model.

    Each repeat times one pass per mode over the same seeds, the modes
    interleaved replication by replication.  The overhead is the paired
    statistic of :func:`_paired_overhead`; ``modes`` reports each mode's
    fastest pass.  Every pass must report the same event count.
    """
    model = build_composed_model(AHSParameters(max_platoon_size=size)).model
    modes = ("off", "counts", "full+trace")
    passes: dict = {mode: [] for mode in modes}
    for _ in range(repeats):
        for mode, row in _time_pass(model, modes, replications,
                                    horizon).items():
            passes[mode].append(row)
    expected = passes["off"][0]["events"]
    for mode, rows in passes.items():
        for row in rows:
            if row["events"] != expected:
                raise AssertionError(
                    f"mode {mode!r} changed the event count "
                    f"({row['events']} vs {expected}): "
                    "instrumentation must not touch the RNG stream"
                )
    ratios = {
        mode: _paired_ratios(passes[mode], passes["off"])
        for mode in modes[1:]
    }
    return {
        "max_platoon_size": size,
        "places": len(model.places),
        "timed_activities": len(model.timed_activities),
        "horizon": horizon,
        "repeats": repeats,
        "modes": {mode: _fastest(rows) for mode, rows in passes.items()},
        "paired_ratios": ratios,
        "overhead": {
            mode: _paired_overhead(values) for mode, values in ratios.items()
        },
    }


def _time_ledgered_run(
    engine: str, size: int, replications: int, horizon: float, ledgered: bool
) -> dict:
    """One whole serial unsafety run, with or without a live run ledger."""
    params = AHSParameters(max_platoon_size=size, base_failure_rate=2e-2)
    kwargs = dict(
        times=(horizon / 2.0, horizon),
        method="simulation",
        n_replications=replications,
        seed=2024,
        engine=engine,
    )
    bus = None
    tmp = None
    if ledgered:
        tmp = tempfile.TemporaryDirectory()
        ledger = RunLedger(Path(tmp.name) / "bench.jsonl")
        bus = EventBus("run-bench-obs", sinks=[ledger])
    started = time.perf_counter()
    estimate = unsafety(params, events=bus, **kwargs)
    elapsed = time.perf_counter() - started
    events_emitted = 0
    if bus is not None:
        bus.close()
        events_emitted = bus.events_emitted
        tmp.cleanup()
    return {
        "elapsed_seconds": elapsed,
        "ledger_events": events_emitted,
        "estimate": [repr(value) for value in estimate.values],
    }


def measure_ledger_overhead(
    size: int = 3,
    replications: int = 200,
    horizon: float = 1.0,
    repeats: int = 5,
    runs: int = 1,
    engines=LEDGER_ENGINES,
) -> dict:
    """Ledger-on vs ledger-off timings of whole serial unsafety runs.

    Same paired protocol as :func:`measure_overhead`, with whole runs of
    ``replications`` as the interleaved units (the finest grain the
    ledger switches at): a pass is ``runs`` of them.  Every run's
    estimate must be bit-identical — the ledger only writes files and
    never touches the RNG stream.
    """
    modes = ("off", "ledger")
    results = {}
    for engine in engines:
        passes: dict = {mode: [] for mode in modes}
        for _ in range(repeats):
            units = _interleaved_pass(
                modes,
                runs,
                lambda mode, _i: _time_ledgered_run(
                    engine, size, replications, horizon, mode == "ledger"
                ),
            )
            for mode, rows in units.items():
                expected = units["off"][0]["estimate"]
                for row in rows:
                    if row["estimate"] != expected:
                        raise AssertionError(
                            f"engine {engine!r}: ledger changed the "
                            f"estimate ({row['estimate']} vs {expected})"
                        )
                elapsed = sum(row["elapsed_seconds"] for row in rows)
                passes[mode].append({
                    "mode": mode,
                    "engine": engine,
                    "replications": replications * runs,
                    "elapsed_seconds": elapsed,
                    "ledger_events": sum(row["ledger_events"] for row in rows),
                    "replications_per_sec": (
                        replications * runs / elapsed if elapsed > 0 else 0.0
                    ),
                    "estimate": expected,
                })
        ratios = _paired_ratios(passes["ledger"], passes["off"])
        results[engine] = {
            "modes": {mode: _fastest(rows) for mode, rows in passes.items()},
            "paired_ratios": ratios,
            "overhead": _paired_overhead(ratios),
        }
    return {
        "max_platoon_size": size,
        "replications": replications,
        "runs_per_pass": runs,
        "horizon": horizon,
        "repeats": repeats,
        "engines": results,
    }


def _render_ledger_table(section: dict) -> str:
    lines = [f"{'engine':>12}  {'reps/s off':>10}  {'reps/s on':>10}  "
             f"{'overhead':>8}  {'events':>6}"]
    for engine, row in section["engines"].items():
        off = row["modes"]["off"]
        on = row["modes"]["ledger"]
        lines.append(
            f"{engine:>12}  {off['replications_per_sec']:>10.1f}  "
            f"{on['replications_per_sec']:>10.1f}  "
            f"{row['overhead']:>+8.1%}  {on['ledger_events']:>6}"
        )
    lines.append(
        f"(run ledger around whole serial runs: n="
        f"{section['max_platoon_size']}, {section['runs_per_pass']} runs "
        f"of {section['replications']} replications per pass, "
        f"horizon={section['horizon']}h)"
    )
    return "\n".join(lines)


def _render_table(row: dict) -> str:
    lines = [
        f"{'mode':>12}  {'events/s':>10}  {'overhead':>8}",
    ]
    baseline = row["modes"]["off"]
    for mode, result in row["modes"].items():
        overhead = (
            "--"
            if mode == "off"
            else f"{row['overhead'][mode]:+.1%}"
        )
        lines.append(
            f"{mode:>12}  {result['events_per_sec']:>10.0f}  {overhead:>8}"
        )
    lines.append(
        f"(n={row['max_platoon_size']}, {baseline['replications']} "
        f"replications, horizon={row['horizon']}h, "
        f"{baseline['events']} events per mode)"
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure the overhead of repro.obs instrumentation."
    )
    parser.add_argument(
        "--size",
        type=int,
        default=10,
        help="max_platoon_size of the composed model (default: 10)",
    )
    parser.add_argument(
        "--replications",
        type=int,
        default=40,
        help="replications per mode per pass (default: 40)",
    )
    parser.add_argument(
        "--horizon", type=float, default=2.0, help="trip horizon in hours"
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=5,
        help="timing passes per mode, the modes interleaved run by run; "
        "the overhead is the median paired ratio (default: 5)",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=OVERHEAD_BUDGET,
        help="maximum allowed counter-level overhead (default: 0.10)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI configuration with passes of about a second (size 10, "
        "160 replications; ledger passes of 8 runs of 40 replications)",
    )
    parser.add_argument(
        "--json",
        default="BENCH_obs.json",
        help="output path for the machine-readable results",
    )
    args = parser.parse_args(argv)
    size = 10 if args.smoke else args.size
    replications = 160 if args.smoke else args.replications

    row = measure_overhead(size, replications, args.horizon, args.repeats)
    print(_render_table(row))
    ledger_row = measure_ledger_overhead(
        size=3 if args.smoke else 4,
        replications=40 if args.smoke else 200,
        horizon=args.horizon / 2.0,
        repeats=args.repeats,
        runs=8 if args.smoke else 1,
    )
    print()
    print(_render_ledger_table(ledger_row))
    record = {
        "benchmark": "obs-overhead",
        "budget": args.budget,
        "result": row,
        "ledger": ledger_row,
    }
    with open(args.json, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.json}")

    failed = False
    overhead = row["overhead"]["counts"]
    if overhead > args.budget:
        print(
            f"FAIL: counter-level metrics overhead {overhead:.1%} exceeds "
            f"the {args.budget:.0%} budget"
        )
        failed = True
    for engine, engine_row in ledger_row["engines"].items():
        if engine_row["overhead"] > args.budget:
            print(
                f"FAIL: run-ledger overhead {engine_row['overhead']:.1%} on "
                f"the {engine} engine exceeds the {args.budget:.0%} budget"
            )
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
