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

A second section times the **run ledger** (event bus + JSONL sink) around
whole serial ``unsafety`` runs on both the compiled and the stepped
engine.  Ledger emission is per-chunk driver-side bookkeeping — the
stepped engine's whole-loop batches never see it — so it is held to the
same ≤10 % budget, and the estimates must stay bit-identical with the
ledger on or off.
"""

import argparse
import json
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


def _fastest_interleaved(modes, repeats: int, time_pass) -> dict:
    """Fastest of ``repeats`` timed passes per mode, the modes interleaved.

    Every repeat times each mode once, in forward order on even repeats
    and reversed on odd ones, so drift in host speed during the
    measurement reaches every mode instead of only the last one timed.
    """
    passes = {mode: [] for mode in modes}
    for repeat in range(repeats):
        for mode in modes if repeat % 2 == 0 else modes[::-1]:
            passes[mode].append(time_pass(mode))
    return {
        mode: min(rows, key=lambda row: row["elapsed_seconds"])
        for mode, rows in passes.items()
    }


def _time_mode(model, mode: str, replications: int, horizon: float) -> dict:
    """Throughput of the compiled engine with one instrumentation mode."""
    observer = _observation(mode)
    simulator = make_jump_engine(model, engine="compiled", observer=observer)
    factory = StreamFactory(2024)
    streams = factory.stream_batch("bench", replications)
    started = time.perf_counter()
    firings = sum(
        simulator.run(stream, horizon).firings for stream in streams
    )
    elapsed = time.perf_counter() - started
    return {
        "mode": mode,
        "replications": replications,
        "events": int(firings),
        "elapsed_seconds": elapsed,
        "events_per_sec": firings / elapsed if elapsed > 0 else 0.0,
    }


def measure_overhead(
    size: int = 10, replications: int = 40, horizon: float = 2.0, repeats: int = 3
) -> dict:
    """Benchmark all instrumentation modes on one composed model.

    Each mode runs ``repeats`` times over the same seeds, interleaved
    with the other modes, and the fastest pass is kept (overhead is a
    minimum-cost question; the slower passes measure machine noise).
    All modes must report identical event counts.
    """
    model = build_composed_model(AHSParameters(max_platoon_size=size)).model
    modes = ("off", "counts", "full+trace")
    results = _fastest_interleaved(
        modes,
        repeats,
        lambda mode: _time_mode(model, mode, replications, horizon),
    )
    baseline = results["off"]
    for mode in modes[1:]:
        if results[mode]["events"] != baseline["events"]:
            raise AssertionError(
                f"mode {mode!r} changed the event count "
                f"({results[mode]['events']} vs {baseline['events']}): "
                "instrumentation must not touch the RNG stream"
            )
    return {
        "max_platoon_size": size,
        "places": len(model.places),
        "timed_activities": len(model.timed_activities),
        "horizon": horizon,
        "repeats": repeats,
        "modes": results,
        "overhead": {
            mode: results[mode]["elapsed_seconds"] / baseline["elapsed_seconds"]
            - 1.0
            for mode in modes[1:]
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
        "mode": "ledger" if ledgered else "off",
        "engine": engine,
        "replications": replications,
        "elapsed_seconds": elapsed,
        "ledger_events": events_emitted,
        "replications_per_sec": (
            replications / elapsed if elapsed > 0 else 0.0
        ),
        "estimate": [repr(value) for value in estimate.values],
    }


def measure_ledger_overhead(
    size: int = 3,
    replications: int = 200,
    horizon: float = 1.0,
    repeats: int = 3,
    engines=LEDGER_ENGINES,
) -> dict:
    """Ledger-on vs ledger-off timings of whole serial unsafety runs.

    Same fastest-of-``repeats`` protocol as :func:`measure_overhead`.
    The estimates of both modes must be bit-identical — the ledger is
    driver-side I/O and never touches the RNG stream.
    """
    results = {}
    for engine in engines:
        best = _fastest_interleaved(
            (False, True),
            repeats,
            lambda ledgered: _time_ledgered_run(
                engine, size, replications, horizon, ledgered
            ),
        )
        rows = {row["mode"]: row for row in best.values()}
        if rows["ledger"]["estimate"] != rows["off"]["estimate"]:
            raise AssertionError(
                f"engine {engine!r}: ledger changed the estimate "
                f"({rows['ledger']['estimate']} vs {rows['off']['estimate']})"
            )
        overhead = (
            rows["ledger"]["elapsed_seconds"] / rows["off"]["elapsed_seconds"]
            - 1.0
        )
        results[engine] = {"modes": rows, "overhead": overhead}
    return {
        "max_platoon_size": size,
        "replications": replications,
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
        f"{section['max_platoon_size']}, {section['replications']} "
        f"replications, horizon={section['horizon']}h)"
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
        default=3,
        help="timing passes per mode; the fastest is kept (default: 3)",
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
        help="fast CI configuration (size 10, 20 replications)",
    )
    parser.add_argument(
        "--json",
        default="BENCH_obs.json",
        help="output path for the machine-readable results",
    )
    args = parser.parse_args(argv)
    size = 10 if args.smoke else args.size
    replications = 20 if args.smoke else args.replications

    row = measure_overhead(size, replications, args.horizon, args.repeats)
    print(_render_table(row))
    ledger_row = measure_ledger_overhead(
        size=3 if args.smoke else 4,
        replications=120 if args.smoke else 200,
        horizon=args.horizon / 2.0,
        repeats=args.repeats,
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
