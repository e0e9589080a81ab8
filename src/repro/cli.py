"""Command-line interface.

Examples
--------
``repro-cli list``                      — all reproducible artifacts
``repro-cli figure 14``                 — regenerate Figure 14
``repro-cli table 2``                   — print Table 2 (from the model)
``repro-cli unsafety --n 12 --lam 1e-4 --times 2,6,10 --method analytical``
``repro-cli calibrate``                 — kinematic maneuver durations
``repro-cli all``                       — every table and figure
``repro-cli figure 10 --workers 4``     — sweep on 4 worker processes
``repro-cli orchestrate 12 --target-ci 0.1 --policy greedy``
                                        — adaptive budgeted sweep estimation
``repro-cli cache stats``               — result-cache size and hit rates

The ``unsafety``, ``figure`` and ``all`` commands accept ``--workers N``
(shard the work over N processes via :mod:`repro.runtime`),
``--cache-dir PATH`` (content-addressed result cache; defaults to
``$REPRO_CACHE_DIR`` or ``~/.cache/repro-ahs``) and ``--no-cache``.

Observability (:mod:`repro.obs`): ``repro-cli trace`` exports structured
JSONL trajectory traces; ``repro-cli unsafety`` accepts ``--metrics``
(per-activity breakdown table), ``--trace-out FILE`` (JSONL trace, serial
only) and ``--profile`` (per-phase wall-time spans).  The run ledger
(``repro-events/1``): ``unsafety``/``orchestrate`` accept ``--ledger
FILE`` (append-only JSONL event stream + ``status.json`` sidecar);
``repro-cli watch`` tails a running ledger with live progress/ETA;
``repro-cli metrics`` renders a ledger or estimate artifact as
OpenMetrics exposition text; ``repro-cli replay-chunk`` re-executes a
failed chunk serially from its forensic bundle; ``repro-cli ledger
validate|summary`` checks a ledger against the event schema.

Static analysis (:mod:`repro.analysis`): ``repro-cli lint`` runs the
footprint / determinism / structural / vectorization / lowering /
tensor analyzers over the built-in AHS models and exits nonzero per
``--fail-on`` (rule catalog: ``docs/static_analysis.md``).  The
lint-gated model registry (:mod:`repro.san.registry`): ``repro-cli
models list`` enumerates registered models, ``repro-cli models lint``
runs the admission gate (full analyzer + lowering-IR digest, cached
content-addressed on a clean pass) and ``repro-cli models describe``
prints one entry's stats and kernel-IR digest.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.san.compiled import DEFAULT_ENGINE, ENGINES

__all__ = ["main", "build_parser"]


def _add_runtime_flags(parser: argparse.ArgumentParser) -> None:
    """Parallel-runtime options shared by unsafety/figure/all."""
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="run through the parallel runtime with this many processes",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result-cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-ahs); only used with --workers",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache",
    )
    parser.add_argument(
        "--context-cache",
        type=int,
        default=None,
        metavar="N",
        help="per-process compiled-context FIFO size (default 16); "
        "evictions emit CacheMiss ledger events in the driver process",
    )


def _resolve_cache_dir(cache_dir):
    """The cache directory a CLI flag / env / default resolves to."""
    import os
    from pathlib import Path

    cache_dir = cache_dir or os.environ.get("REPRO_CACHE_DIR")
    if cache_dir is None:
        cache_dir = Path.home() / ".cache" / "repro-ahs"
    if Path(cache_dir).exists() and not Path(cache_dir).is_dir():
        raise SystemExit(
            f"--cache-dir {cache_dir} exists and is not a directory"
        )
    return Path(cache_dir)


def _build_cache(args):
    """A ResultCache from CLI flags, or None with --no-cache."""
    if getattr(args, "no_cache", False):
        return None
    from repro.runtime import ResultCache

    return ResultCache(_resolve_cache_dir(getattr(args, "cache_dir", None)))


def _build_runner(args):
    """A ParallelRunner from CLI flags, or None without ``--workers``."""
    workers = getattr(args, "workers", None)
    if workers is None:
        return None
    if workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {workers}")
    from repro.runtime import ParallelRunner

    return ParallelRunner(
        workers=workers,
        cache=_build_cache(args),
        context_cache_size=getattr(args, "context_cache", None),
    )


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro-cli",
        description=(
            "Safety modeling and evaluation of Automated Highway Systems "
            "(DSN 2009 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible tables and figures")

    fig = sub.add_parser("figure", help="regenerate one figure (10-15)")
    fig.add_argument("number", help="figure number, e.g. 14")
    fig.add_argument("--fast", action="store_true", help="trimmed sweep")
    fig.add_argument(
        "--plot", action="store_true", help="also draw an ASCII chart"
    )
    fig.add_argument(
        "--json", dest="json_path", default=None, help="save a JSON artifact"
    )
    _add_runtime_flags(fig)

    tab = sub.add_parser("table", help="print one table (1-3)")
    tab.add_argument("number", help="table number, e.g. 2")

    alle = sub.add_parser("all", help="run every table and figure")
    alle.add_argument("--fast", action="store_true", help="trimmed sweeps")
    _add_runtime_flags(alle)

    uns = sub.add_parser("unsafety", help="evaluate S(t) for custom parameters")
    uns.add_argument("--n", type=int, default=10, help="max platoon size")
    uns.add_argument("--lam", type=float, default=1e-5, help="base failure rate (1/hr)")
    uns.add_argument("--join", type=float, default=12.0, help="join rate (1/hr)")
    uns.add_argument("--leave", type=float, default=4.0, help="leave rate (1/hr)")
    uns.add_argument(
        "--strategy", default="DD", choices=["DD", "DC", "CD", "CC"]
    )
    uns.add_argument(
        "--times", default="2,4,6,8,10", help="comma-separated trip hours"
    )
    uns.add_argument(
        "--method",
        default="analytical",
        choices=["analytical", "simulation", "importance", "splitting", "approx"],
    )
    uns.add_argument("--replications", type=int, default=10_000)
    uns.add_argument("--seed", type=int, default=None)
    uns.add_argument(
        "--engine",
        default=DEFAULT_ENGINE,
        choices=list(ENGINES),
        help="jump-chain executor for the simulation methods "
        "(seed-identical results; the default stepped engine advances "
        "replications in NumPy lockstep; splitting always runs compiled)",
    )
    uns.add_argument(
        "--batch-size",
        type=int,
        default=256,
        help="lockstep width for the stepped engine "
        "(throughput knob only; results are bit-identical at any width)",
    )
    uns.add_argument(
        "--metrics",
        action="store_true",
        help="collect per-activity metrics and print the per-failure-mode /"
        " per-maneuver breakdown table (simulation methods only)",
    )
    uns.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write a JSONL trajectory trace (simulation methods; forces "
        "serial execution: the run takes one in-process worker and "
        "--workers is ignored, as traces cannot cross process boundaries)",
    )
    uns.add_argument(
        "--trace-capacity",
        type=int,
        default=10_000,
        help="trace ring-buffer capacity (older events are dropped)",
    )
    uns.add_argument(
        "--profile",
        action="store_true",
        help="print per-phase wall-time spans (compile/simulate/merge/cache)",
    )
    uns.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="FILE",
        help="save the estimate as a machine-readable JSON artifact "
        "(repro-estimates/1 schema, shared with orchestrate and figure)",
    )
    uns.add_argument(
        "--ledger",
        default=None,
        metavar="FILE",
        help="append a structured run ledger (repro-events/1 JSONL + "
        "status.json sidecar) for the simulation methods; never changes "
        "estimates",
    )
    _add_runtime_flags(uns)

    orch = sub.add_parser(
        "orchestrate",
        help="adaptive budgeted estimation of a figure sweep "
        "(repro.orchestrate)",
    )
    orch.add_argument("figure", help="figure number or id, e.g. 12")
    orch.add_argument("--fast", action="store_true", help="trimmed sweep")
    orch.add_argument(
        "--budget",
        type=int,
        default=None,
        help="global replication pool shared across every sweep point",
    )
    orch.add_argument(
        "--target-ci",
        type=float,
        default=None,
        help="uniform target relative CI half-width (default 0.1, the "
        "paper's criterion, when no other budget is given)",
    )
    orch.add_argument(
        "--wall-seconds",
        type=float,
        default=None,
        help="best-effort wall-clock allowance, checked between rounds",
    )
    orch.add_argument(
        "--policy",
        default="greedy",
        choices=["greedy", "proportional", "cost", "flat"],
        help="round allocation policy (flat is the non-adaptive baseline)",
    )
    orch.add_argument(
        "--seed", type=int, default=None, help="experiment seed"
    )
    orch.add_argument(
        "--rounds", type=int, default=64, help="maximum allocation rounds"
    )
    orch.add_argument(
        "--engine",
        default=DEFAULT_ENGINE,
        choices=list(ENGINES),
        help="jump-chain executor for the simulation-backed estimators",
    )
    orch.add_argument(
        "--sweep-batch",
        action="store_true",
        help="dispatch each round's chunks to the pool in point-contiguous "
        "groups (fewer, larger pool tasks; byte-identical estimates)",
    )
    orch.add_argument(
        "--tensorize",
        action="store_true",
        help="stack every stepped-engine point of a round into one "
        "cross-point SoA tensor per pool task (requires the stepped engine, "
        "the default; byte-identical estimates, one vectorised step loop "
        "per round)",
    )
    orch.add_argument(
        "--cost-model",
        default="events",
        choices=["events", "wall"],
        help="allocator cost proxy: 'events' (pooled simulator events per "
        "replication; deterministic schedule) or 'wall' (measured busy "
        "worker-seconds per replication; schedule may vary run to run, "
        "estimates per chunk stay bit-identical)",
    )
    orch.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="FILE",
        help="save the full report (points, rounds, ledger, telemetry) "
        "as a repro-estimates/1 JSON artifact",
    )
    orch.add_argument(
        "--ledger",
        default=None,
        metavar="FILE",
        help="append a structured run ledger (repro-events/1 JSONL + "
        "status.json sidecar): round allocations, chunk completions, "
        "budget stops; never changes estimates or artifacts",
    )
    _add_runtime_flags(orch)

    cache_cmd = sub.add_parser(
        "cache", help="inspect or clear the on-disk result cache"
    )
    cache_cmd.add_argument(
        "action",
        choices=["stats", "clear"],
        help="stats: entry count, bytes and last run's hit/miss counters; "
        "clear: remove every entry",
    )
    cache_cmd.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-ahs)",
    )

    watch = sub.add_parser(
        "watch",
        help="tail a run ledger and render live point/round/ETA progress",
    )
    watch.add_argument("ledger", help="ledger JSONL file (may not exist yet)")
    watch.add_argument(
        "--once",
        action="store_true",
        help="render the current state once and exit instead of following",
    )
    watch.add_argument(
        "--poll",
        type=float,
        default=0.2,
        help="seconds between file polls while following",
    )
    watch.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="stop following after this many seconds without a new event "
        "(default: wait until the run finishes)",
    )
    watch.add_argument(
        "--json",
        action="store_true",
        help="emit the status.json digest per refresh instead of one-liners",
    )

    met = sub.add_parser(
        "metrics",
        help="render run accounting as OpenMetrics/Prometheus exposition "
        "text",
    )
    met.add_argument(
        "source",
        help="a run-ledger JSONL file or a repro-estimates/1 JSON artifact",
    )
    met.add_argument(
        "--format",
        dest="fmt",
        default="openmetrics",
        choices=["openmetrics", "json"],
        help="openmetrics: Prometheus text exposition (default); "
        "json: the folded status/telemetry digest",
    )

    replay = sub.add_parser(
        "replay-chunk",
        help="re-execute a failed chunk serially from its ledger forensic "
        "bundle",
    )
    replay.add_argument("ledger", help="ledger JSONL file")
    replay.add_argument(
        "chunk_id",
        help="failed chunk id, e.g. chunk-3 or figure12/s=DD/chunk-0 "
        "(see `repro-cli ledger summary`)",
    )

    ledger_cmd = sub.add_parser(
        "ledger", help="validate or summarise a run-ledger file"
    )
    ledger_cmd.add_argument(
        "action",
        choices=["validate", "summary"],
        help="validate: check every line against the repro-events/1 "
        "schema (exit 1 on violations); summary: print the folded "
        "status digest",
    )
    ledger_cmd.add_argument("ledger", help="ledger JSONL file")

    trc = sub.add_parser(
        "trace",
        help="export a structured JSONL trajectory trace of simulated runs",
    )
    trc.add_argument("--n", type=int, default=10, help="max platoon size")
    trc.add_argument(
        "--lam", type=float, default=1e-5, help="base failure rate (1/hr)"
    )
    trc.add_argument(
        "--strategy", default="DD", choices=["DD", "DC", "CD", "CC"]
    )
    trc.add_argument(
        "--horizon", type=float, default=6.0, help="trip duration (hours)"
    )
    trc.add_argument(
        "--method",
        default="simulation",
        choices=["simulation", "importance", "splitting"],
        help="which simulation method to trace",
    )
    trc.add_argument("--replications", type=int, default=100)
    trc.add_argument("--seed", type=int, default=None)
    trc.add_argument(
        "--engine", default=DEFAULT_ENGINE, choices=list(ENGINES)
    )
    trc.add_argument(
        "--batch-size",
        type=int,
        default=256,
        help="lockstep width for the stepped engine",
    )
    trc.add_argument(
        "--boost",
        type=float,
        default=30.0,
        help="failure-rate multiplier for method=importance",
    )
    trc.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="JSONL output path (default: stdout)",
    )
    trc.add_argument(
        "--capacity",
        type=int,
        default=10_000,
        help="ring-buffer capacity (older events are dropped)",
    )
    trc.add_argument(
        "--no-deltas",
        action="store_true",
        help="omit per-firing marking deltas (smaller, cheaper traces)",
    )

    cal = sub.add_parser(
        "calibrate", help="measure kinematic maneuver durations (repro.agents)"
    )
    cal.add_argument(
        "--sizes", default="4,8,12", help="comma-separated platoon sizes"
    )
    cal.add_argument("--repetitions", type=int, default=4)
    cal.add_argument("--seed", type=int, default=2009)

    sens = sub.add_parser(
        "sensitivity", help="tornado (elasticity) analysis of S(t)"
    )
    sens.add_argument("--time", type=float, default=6.0, help="trip hours")
    sens.add_argument("--delta", type=float, default=0.25)
    sens.add_argument("--n", type=int, default=10)
    sens.add_argument("--lam", type=float, default=1e-5)

    mttu = sub.add_parser(
        "mttu", help="mean time to unsafety + hazard rate"
    )
    mttu.add_argument("--n", type=int, default=10)
    mttu.add_argument("--lam", type=float, default=1e-5)
    mttu.add_argument(
        "--strategy", default="DD", choices=["DD", "DC", "CD", "CC"]
    )

    multi = sub.add_parser(
        "platoons", help="extension: unsafety vs number of platoons"
    )
    multi.add_argument(
        "--counts", default="2,3,4,6", help="comma-separated platoon counts"
    )
    multi.add_argument("--time", type=float, default=6.0)
    multi.add_argument("--n", type=int, default=10)
    multi.add_argument("--lam", type=float, default=1e-5)

    verify = sub.add_parser(
        "verify", help="recompute every figure and check the paper's claims"
    )
    verify.add_argument(
        "--figure", default=None, help="restrict to one figure, e.g. 14"
    )

    lint = sub.add_parser(
        "lint",
        help="static analysis of the SAN models (repro.analysis)",
    )
    lint.add_argument(
        "--strategy",
        default="all",
        choices=["all", "DD", "DC", "CD", "CC"],
        help="which built-in AHS model(s) to analyze",
    )
    lint.add_argument("--n", type=int, default=2, help="max platoon size")
    lint.add_argument(
        "--families",
        default=None,
        help="comma-separated analyzer families "
        "(footprint,determinism,structural,vectorization,lowering,tensor; "
        "default: all)",
    )
    lint.add_argument(
        "--max-states",
        type=int,
        default=256,
        help="bounded-reachability cap feeding dry-run probes and "
        "incidence sampling",
    )
    lint.add_argument(
        "--max-rows",
        type=int,
        default=None,
        help="truncate the text report to this many diagnostics",
    )
    lint.add_argument(
        "--json", action="store_true", help="emit the JSON report instead"
    )
    lint.add_argument(
        "--fail-on",
        default="error",
        choices=["error", "warning", "info", "never"],
        help="exit nonzero when a diagnostic at or above this severity "
        "is reported (default: error)",
    )

    models = sub.add_parser(
        "models",
        help="lint-gated model registry (repro.san.registry)",
    )
    models.add_argument(
        "action",
        choices=["list", "lint", "describe"],
        help="list: registered models; lint: run the admission gate "
        "(full analyzer + lowering-IR digest, cached when clean); "
        "describe: one model's registry entry, stats and IR digest",
    )
    models.add_argument(
        "--name",
        default=None,
        help="restrict to one registered model (required for describe)",
    )
    models.add_argument(
        "--max-states",
        type=int,
        default=256,
        help="bounded-reachability cap for the admission analyzers",
    )
    models.add_argument(
        "--fail-on",
        default="error",
        choices=["error", "warning", "info", "never"],
        help="exit nonzero when an admission report carries a "
        "diagnostic at or above this severity (default: error)",
    )
    models.add_argument(
        "--json", action="store_true", help="emit JSON records instead"
    )
    models.add_argument(
        "--cache-dir",
        default=None,
        help="admission cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-ahs)",
    )
    models.add_argument(
        "--no-cache",
        action="store_true",
        help="re-run admission without reading or writing the cache",
    )

    design = sub.add_parser(
        "design", help="answer the paper's design questions for a budget"
    )
    design.add_argument(
        "--budget", type=float, default=1e-6, help="unsafety budget"
    )
    design.add_argument("--time", type=float, default=6.0, help="trip hours")
    design.add_argument("--lam", type=float, default=1e-5)

    return parser


def _cmd_list() -> int:
    from repro.experiments import list_experiments

    for experiment in list_experiments():
        print(f"{experiment.experiment_id:10s}  {experiment.description}")
        print(f"{'':10s}  parameters: {experiment.parameters}")
    return 0


def _cmd_experiment(
    kind: str,
    number: str,
    fast: bool,
    plot: bool = False,
    json_path: Optional[str] = None,
    runner=None,
) -> int:
    from repro.experiments import run_experiment

    outcome = run_experiment(f"{kind}{number}", fast=fast, runner=runner)
    print(outcome.rendered)
    if plot:
        from repro.experiments.figures import FigureResult
        from repro.experiments.report import format_ascii_chart

        if isinstance(outcome.result, FigureResult):
            print()
            print(format_ascii_chart(outcome.result))
    if json_path:
        from repro.experiments.runner import save_outcome

        saved = save_outcome(outcome, json_path)
        print(f"[saved {saved}]")
    print(f"[{outcome.experiment_id} in {outcome.elapsed_seconds:.2f}s]")
    return 0


def _cmd_all(fast: bool, runner=None) -> int:
    from repro.experiments import list_experiments, run_experiment

    for experiment in list_experiments():
        outcome = run_experiment(experiment.experiment_id, fast=fast, runner=runner)
        print(outcome.rendered)
        print(f"[{outcome.experiment_id} in {outcome.elapsed_seconds:.2f}s]")
        print()
    return 0


_SIMULATION_METHODS = ("simulation", "importance", "splitting")


def _build_observation(args):
    """An :class:`repro.obs.Observation` from CLI flags, or None."""
    wants_trace = getattr(args, "trace_out", None) is not None
    wants_metrics = getattr(args, "metrics", False)
    wants_profile = getattr(args, "profile", False)
    if not (wants_trace or wants_metrics or wants_profile):
        return None
    from repro.obs import (
        MetricsRecorder,
        Observation,
        PhaseProfiler,
        TraceRecorder,
    )

    return Observation(
        trace=TraceRecorder(capacity=args.trace_capacity)
        if wants_trace
        else None,
        metrics=MetricsRecorder() if wants_metrics else None,
        profiler=PhaseProfiler() if wants_profile else None,
    )


def _open_ledger_bus(args, token):
    """An EventBus writing a RunLedger from ``--ledger``, or None."""
    path = getattr(args, "ledger", None)
    if path is None:
        return None
    from pathlib import Path

    from repro.obs import EventBus, RunLedger, deterministic_run_id

    ledger = RunLedger(Path(path))
    return EventBus(deterministic_run_id(token), sinks=[ledger])


def _close_ledger_bus(bus, path) -> None:
    if bus is not None:
        bus.close()
        print(f"[ledger: {bus.events_emitted} events -> {path}]")


def _cmd_unsafety(args) -> int:
    import warnings

    from repro.core import AHSParameters, Strategy, unsafety

    params = AHSParameters(
        max_platoon_size=args.n,
        base_failure_rate=args.lam,
        join_rate=args.join,
        leave_rate=args.leave,
        strategy=Strategy(args.strategy),
    )
    times = [float(t) for t in args.times.split(",")]
    runner = _build_runner(args)
    if runner is not None and args.method not in _SIMULATION_METHODS:
        print(
            f"[note: --workers applies to the simulation methods; "
            f"{args.method} runs serially]"
        )
        runner = None
    observer = _build_observation(args)
    if observer is not None and args.method not in _SIMULATION_METHODS:
        print(
            f"[note: --metrics/--trace-out/--profile apply to the "
            f"simulation methods; {args.method} runs uninstrumented]"
        )
        observer = None
    if observer is not None and observer.trace is not None and runner is not None:
        if runner.workers > 1:
            warnings.warn(
                f"--trace-out forces serial execution: --workers "
                f"{runner.workers} is ignored because traces cannot cross "
                f"process boundaries",
                UserWarning,
                stacklevel=2,
            )
        print(
            "[note: --trace-out forces serial execution — traces cannot "
            "cross process boundaries]"
        )
        runner = None
    if runner is not None and observer is not None:
        # the driver-side spans (simulate/merge/cache) live in the runner
        runner.profiler = observer.profiler
    bus = None
    if args.method in _SIMULATION_METHODS:
        bus = _open_ledger_bus(
            args,
            {
                "kind": "unsafety",
                "params": params.summary(),
                "times": times,
                "method": args.method,
                "n_replications": args.replications,
                "seed": args.seed,
                "engine": args.engine,
            },
        )
    elif getattr(args, "ledger", None) is not None:
        print(
            f"[note: --ledger applies to the simulation methods; "
            f"{args.method} runs without one]"
        )
    try:
        estimate = unsafety(
            params,
            times,
            method=args.method,
            n_replications=args.replications,
            seed=args.seed,
            boost=getattr(args, "boost", 30.0),
            runner=runner,
            engine=args.engine,
            observer=observer,
            batch_size=args.batch_size,
            events=bus,
        )
    finally:
        _close_ledger_bus(bus, getattr(args, "ledger", None))
    if runner is not None:
        snapshot = runner.pop_telemetry()
        if snapshot is not None:
            print(snapshot.format())
    print(f"method={estimate.method}  params={params.summary()}")
    for t, value, half in zip(
        estimate.times, estimate.values, estimate.half_widths
    ):
        suffix = f"  (+/- {half:.2e})" if half > 0 else ""
        print(f"  S({t:g}h) = {value:.6e}{suffix}")
    if estimate.truncation_error:
        print(f"  truncation error bound: {estimate.truncation_error:.2e}")
    if observer is not None:
        _report_observation(observer, getattr(args, "trace_out", None))
    if args.json_path:
        import json as _json
        from pathlib import Path

        from repro.orchestrate import estimate_record

        stochastic = any(h > 0 for h in estimate.half_widths)
        record = {
            "schema": "repro-estimates/1",
            "params": params.summary(),
            "points": [
                estimate_record(
                    point_id=f"unsafety/n={args.n}/lam={args.lam:g}/"
                    f"{args.strategy}",
                    estimator=estimate.method,
                    times=estimate.times,
                    values=estimate.values,
                    half_widths=estimate.half_widths if stochastic else None,
                    confidence=0.95 if stochastic else None,
                    n_replications=estimate.n_samples,
                    converged=not estimate.method.endswith("-unconverged"),
                    source="unsafety",
                )
            ],
        }
        if estimate.truncation_error:
            record["truncation_error"] = estimate.truncation_error
        path = Path(args.json_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(_json.dumps(record, indent=2))
        print(f"[saved {path}]")
    return 0


def _report_observation(observer, trace_out) -> None:
    """Print/export whatever the Observation collected."""
    if observer.metrics is not None:
        from repro.obs import format_metrics_table

        print(format_metrics_table(observer.metrics.summary()))
    if observer.profiler is not None:
        print(observer.profiler.format())
    if observer.trace is not None and trace_out is not None:
        written = observer.trace.write_jsonl(trace_out)
        dropped = observer.trace.dropped
        note = f" ({dropped} older events dropped)" if dropped else ""
        print(f"[trace: {written} events -> {trace_out}{note}]")


def _cmd_trace(args) -> int:
    import sys as _sys

    from repro.core import AHSParameters, Strategy, unsafety
    from repro.obs import Observation, TraceRecorder

    params = AHSParameters(
        max_platoon_size=args.n,
        base_failure_rate=args.lam,
        strategy=Strategy(args.strategy),
    )
    recorder = TraceRecorder(
        capacity=args.capacity, deltas=not args.no_deltas
    )
    observer = Observation(trace=recorder)
    unsafety(
        params,
        [args.horizon],
        method=args.method,
        n_replications=args.replications,
        seed=args.seed,
        boost=args.boost,
        engine=args.engine,
        observer=observer,
        batch_size=args.batch_size,
    )
    if args.out is None:
        recorder.write_jsonl(_sys.stdout)
        return 0
    written = recorder.write_jsonl(args.out)
    dropped = recorder.dropped
    note = f" ({dropped} older events dropped)" if dropped else ""
    print(f"[trace: {written} events -> {args.out}{note}]")
    return 0


def _cmd_orchestrate(args) -> int:
    from repro.experiments.figures import run_adaptive, sweep_definition
    from repro.experiments.report import format_experiment
    from repro.orchestrate import DEFAULT_SEED, Budget
    from repro.runtime import ParallelRunner

    figure_id = (
        args.figure
        if args.figure.startswith("figure")
        else f"figure{args.figure}"
    )
    try:
        sweep_definition(figure_id, args.fast)
    except KeyError as exc:
        raise SystemExit(exc.args[0])
    target = args.target_ci
    if args.budget is None and target is None and args.wall_seconds is None:
        target = 0.1  # the paper's sequential-stopping criterion
    budget = Budget(
        replications=args.budget,
        target_relative_ci=target,
        wall_seconds=args.wall_seconds,
        max_rounds=args.rounds,
    )
    workers = args.workers if args.workers is not None else 1
    if workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {workers}")
    cache = _build_cache(args)
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    bus = _open_ledger_bus(
        args,
        {
            "kind": "orchestrate",
            "figure": figure_id,
            "fast": args.fast,
            "budget": budget.to_dict(),
            "policy": args.policy,
            "seed": seed,
            "engine": args.engine,
            "tensorize": args.tensorize,
            "cost_model": args.cost_model,
        },
    )
    if args.tensorize and args.engine != "stepped":
        print(
            f"[note: --tensorize requires --engine stepped; engine "
            f"{args.engine!r} cannot lower the cross-point tensor loop — "
            f"running per-point]"
        )
    # chunk_cache makes interrupted runs resumable: re-running the same
    # orchestration replays finished chunks from the cache bit-identically
    try:
        with ParallelRunner(
            workers=workers,
            cache=cache,
            chunk_cache=cache is not None,
            context_cache_size=args.context_cache,
        ) as runner:
            figure, report = run_adaptive(
                figure_id,
                budget,
                runner,
                fast=args.fast,
                policy=args.policy,
                seed=seed,
                engine=args.engine,
                sweep_batch=args.sweep_batch,
                tensorize=args.tensorize,
                cost_model=args.cost_model,
                events=bus,
            )
    finally:
        _close_ledger_bus(bus, args.ledger)
    print(report.format())
    print()
    print(format_experiment(figure_id, figure))
    if args.json_path:
        import json as _json
        from pathlib import Path

        record = report.to_dict()
        record["figure"] = {
            "figure_id": figure.figure_id,
            "x_label": figure.x_label,
            "x_values": [float(x) for x in figure.x_values],
            "series": {
                label: [float(v) for v in values]
                for label, values in figure.series.items()
            },
        }
        path = Path(args.json_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(_json.dumps(record, indent=2))
        print(f"[saved {path}]")
    return 0


def _format_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024.0
    return f"{int(n)} B"  # pragma: no cover - unreachable


def _cmd_cache(args) -> int:
    from repro.runtime import ResultCache

    cache = ResultCache(_resolve_cache_dir(args.cache_dir))
    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} entries from {cache.root}")
        return 0
    stats = cache.stats()
    print(f"cache root : {stats['root']}")
    print(f"entries    : {stats['entries']}")
    print(f"total size : {_format_bytes(stats['total_bytes'])}")
    session = stats["last_session"]
    if session is None:
        print("last run   : no session recorded")
    else:
        hits = session.get("hits", 0)
        misses = session.get("misses", 0)
        lookups = hits + misses
        rate = hits / lookups if lookups else 0.0
        print(
            f"last run   : {hits}/{lookups} hits ({rate:.0%}), "
            f"{session.get('puts', 0)} writes"
        )
    return 0


def _cmd_watch(args) -> int:
    import json as _json
    from pathlib import Path

    from repro.obs import LedgerStatus
    from repro.obs.ledger import follow_events, read_events

    path = Path(args.ledger)
    status = LedgerStatus()

    def render() -> None:
        if args.json:
            print(_json.dumps(status.to_dict(), sort_keys=True))
        else:
            print(status.format())

    if args.once:
        if not path.exists():
            raise SystemExit(f"ledger {path} does not exist")
        for envelope in read_events(path):
            status.update(envelope)
        render()
        return 0

    last_line = None
    for envelope in follow_events(
        path, poll_seconds=args.poll, timeout_seconds=args.timeout
    ):
        status.update(envelope)
        line = (
            _json.dumps(status.to_dict(), sort_keys=True)
            if args.json
            else status.format()
        )
        # re-render only on change so a quiet ledger doesn't spam
        if line != last_line:
            print(line, flush=True)
            last_line = line
    return 0


def _load_metrics_source(path):
    """(kind, payload) of a metrics source: ledger events or artifact."""
    import json as _json
    from pathlib import Path

    source = Path(path)
    if not source.exists():
        raise SystemExit(f"{source} does not exist")
    with open(source, "r", encoding="utf-8") as fh:
        head = ""
        for line in fh:
            if line.strip():
                head = line.strip()
                break
    try:
        first = _json.loads(head) if head else None
    except _json.JSONDecodeError:
        first = None
    if isinstance(first, dict) and first.get("schema") == "repro-events/1":
        from repro.obs.ledger import read_events

        return "ledger", read_events(source)
    try:
        payload = _json.loads(source.read_text(encoding="utf-8"))
    except _json.JSONDecodeError as exc:
        raise SystemExit(
            f"{source} is neither a repro-events/1 ledger nor a JSON "
            f"artifact: {exc}"
        )
    if not isinstance(payload, dict):
        raise SystemExit(f"{source} does not hold a JSON object artifact")
    return "artifact", payload


def _cmd_metrics(args) -> int:
    import json as _json

    from repro.obs import LedgerStatus, render_openmetrics

    kind, payload = _load_metrics_source(args.source)
    if args.fmt == "openmetrics":
        sys.stdout.write(render_openmetrics(payload))
        return 0
    if kind == "ledger":
        status = LedgerStatus()
        for envelope in payload:
            status.update(envelope)
        print(_json.dumps(status.to_dict(), sort_keys=True, indent=2))
    else:
        telemetry = payload.get("telemetry", payload)
        print(_json.dumps(telemetry, sort_keys=True, indent=2))
    return 0


def _cmd_replay_chunk(args) -> int:
    from pathlib import Path

    from repro.obs.ledger import bundle_of, read_events, replay_chunk

    path = Path(args.ledger)
    if not path.exists():
        raise SystemExit(f"ledger {path} does not exist")
    events = read_events(path)
    try:
        bundle = bundle_of(events, args.chunk_id)
    except KeyError as exc:
        raise SystemExit(str(exc.args[0]))
    task = bundle.get("task", {})
    print(
        f"replaying {args.chunk_id}: task={task.get('type', '?')} "
        f"start={bundle.get('start')} count={bundle.get('count')} "
        f"entropy={bundle.get('seed_entropy')}"
    )
    try:
        summary = replay_chunk(bundle)
    except Exception as exc:
        import traceback as _tb

        print(f"[reproduced] {type(exc).__name__}: {exc}")
        _tb.print_exc()
        return 1
    print(
        f"[not reproduced — chunk completed] n={summary.n} "
        f"mean={summary.mean} draws={summary.draws} "
        f"elapsed={summary.elapsed_seconds:.3f}s"
    )
    return 0


def _cmd_ledger(args) -> int:
    import json as _json
    from pathlib import Path

    from repro.obs import LedgerStatus, validate_events
    from repro.obs.ledger import read_events

    path = Path(args.ledger)
    if not path.exists():
        raise SystemExit(f"ledger {path} does not exist")
    events = read_events(path)
    if args.action == "validate":
        errors = validate_events(events)
        for error in errors:
            print(f"INVALID  {error}")
        runs = len({e.get("run_id") for e in events})
        if errors:
            print(f"{len(errors)} schema violations in {len(events)} events")
            return 1
        print(f"ok: {len(events)} events, {runs} run(s), repro-events/1")
        return 0
    status = LedgerStatus()
    for envelope in events:
        status.update(envelope)
    print(_json.dumps(status.to_dict(), sort_keys=True, indent=2))
    return 0


def _cmd_calibrate(args) -> int:
    from repro.agents import calibrate_maneuver_durations
    from repro.core.maneuvers import Maneuver
    from repro.experiments.report import format_table

    sizes = tuple(int(s) for s in args.sizes.split(","))
    report = calibrate_maneuver_durations(
        platoon_sizes=sizes, repetitions=args.repetitions, seed=args.seed
    )
    print(format_table(report.summary_rows(), title="kinematic maneuver durations"))
    print()
    for maneuver in Maneuver:
        try:
            kappa = report.fitted_duration_scaling(maneuver)
            print(f"duration_scaling fit for {maneuver.value}: {kappa:.3f}")
        except ValueError:
            pass
    return 0


def _cmd_sensitivity(args) -> int:
    from repro.core import AHSParameters
    from repro.experiments.report import format_table
    from repro.experiments.sensitivity import tornado

    params = AHSParameters(max_platoon_size=args.n, base_failure_rate=args.lam)
    rows = tornado(params, time=args.time, delta=args.delta)
    print(
        format_table(
            [
                {
                    "parameter": row.parameter,
                    "elasticity": row.elasticity,
                    "S_minus": row.s_low,
                    "S_plus": row.s_high,
                    "meaning": row.meaning,
                }
                for row in rows
            ],
            title=f"tornado: d log S({args.time:g}h) / d log theta",
        )
    )
    return 0


def _cmd_mttu(args) -> int:
    from repro.core import (
        AHSParameters,
        Strategy,
        mean_time_to_unsafety,
        unsafety_hazard,
    )

    params = AHSParameters(
        max_platoon_size=args.n,
        base_failure_rate=args.lam,
        strategy=Strategy(args.strategy),
    )
    mttu = mean_time_to_unsafety(params)
    hazard = unsafety_hazard(params, 6.0)
    print(f"params: {params.summary()}")
    print(f"mean time to unsafety : {mttu:.4e} hours ({mttu / 8760:.1f} years)")
    print(f"hazard rate at t=6h   : {hazard:.4e} /hr")
    return 0


def _cmd_platoons(args) -> int:
    from repro.core import AHSParameters, MultiPlatoonEngine

    params = AHSParameters(max_platoon_size=args.n, base_failure_rate=args.lam)
    counts = [int(c) for c in args.counts.split(",")]
    print(
        f"unsafety vs number of platoons (paper §5 extension), "
        f"t={args.time:g}h, n={args.n}, lambda={args.lam:g}"
    )
    for count in counts:
        engine = MultiPlatoonEngine(params, count)
        result = engine.unsafety([args.time])
        print(
            f"  m={count:2d}: S={result.unsafety[0]:.4e}  "
            f"(occ/platoon={engine.occupancy_per_platoon:.2f}, "
            f"states={result.n_states})"
        )
    return 0


def _cmd_verify(args) -> int:
    from repro.experiments.claims import verify_all, verify_figure

    if args.figure:
        key = args.figure if args.figure.startswith("figure") else f"figure{args.figure}"
        verdicts = verify_figure(key)
    else:
        verdicts = verify_all()
    failures = 0
    current = None
    for verdict in verdicts:
        if verdict.experiment_id != current:
            current = verdict.experiment_id
            print(f"{current}:")
        mark = "PASS" if verdict.holds else "FAIL"
        print(f"  [{mark}] {verdict.claim}")
        print(f"         {verdict.evidence}")
        failures += 0 if verdict.holds else 1
    total = len(verdicts)
    print(f"\n{total - failures}/{total} paper claims reproduced")
    return 0 if failures == 0 else 1


def _cmd_lint(args) -> int:
    import json as _json

    from repro.analysis import FAMILIES, Severity, analyze_model
    from repro.core import AHSParameters, Strategy, build_composed_model

    strategies = (
        [s for s in Strategy]
        if args.strategy == "all"
        else [Strategy(args.strategy)]
    )
    families = (
        None
        if args.families is None
        else [f.strip() for f in args.families.split(",") if f.strip()]
    )
    if families is not None:
        unknown = sorted(set(families) - set(FAMILIES))
        if unknown:
            print(
                f"error: unknown analyzer families {unknown}; "
                f"choose from {list(FAMILIES)}",
                file=sys.stderr,
            )
            return 2
    threshold = (
        None if args.fail_on == "never" else Severity.parse(args.fail_on)
    )
    reports = []
    failed = False
    for strategy in strategies:
        params = AHSParameters(max_platoon_size=args.n, strategy=strategy)
        model = build_composed_model(params).model
        model.name = f"AHS[{strategy.value}, n={args.n}]"
        report = analyze_model(
            model, families=families, max_states=args.max_states
        )
        reports.append(report)
        if threshold is not None and report.at_least(threshold):
            failed = True
    if args.json:
        payload = [report.to_dict() for report in reports]
        print(_json.dumps(payload if len(payload) > 1 else payload[0], indent=2))
    else:
        for index, report in enumerate(reports):
            if index:
                print()
            print(report.format_text(max_rows=args.max_rows))
    return 1 if failed else 0


def _cmd_models(args) -> int:
    import json as _json

    from repro.analysis import Severity
    from repro.san.registry import admit, get_model, list_models

    if args.action == "list":
        specs = list_models()
        if args.json:
            payload = [
                {
                    "name": spec.name,
                    "description": spec.description,
                    "tags": list(spec.tags),
                }
                for spec in specs
            ]
            print(_json.dumps(payload, indent=2))
            return 0
        width = max((len(spec.name) for spec in specs), default=4)
        for spec in specs:
            tags = f" [{', '.join(spec.tags)}]" if spec.tags else ""
            print(f"{spec.name:<{width}}  {spec.description}{tags}")
        return 0

    if args.action == "describe":
        if args.name is None:
            print("error: models describe requires --name", file=sys.stderr)
            return 2
        try:
            spec = get_model(args.name)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        result = admit(
            spec, _build_cache(args), max_states=args.max_states
        )
        if args.json:
            print(_json.dumps(result.report, indent=2))
            return 0
        from repro.san.describe import describe_lowering
        from repro.san.stepped import SteppedJumpEngine

        model = spec.build()
        print(f"model       : {spec.name}")
        print(f"description : {spec.description or '(none)'}")
        print(f"tags        : {', '.join(spec.tags) or '(none)'}")
        print(f"admitted    : {'yes' if result.admitted else 'NO'}"
              f" ({result.errors} errors, {result.warnings} warnings)")
        print(f"admission   : {'cache hit' if result.cached else 'computed'}"
              f" (key {result.key[:16]}…)")
        print(f"ir digest   : {result.ir_digest}")
        print()
        if model.timed_activities:
            print(describe_lowering(SteppedJumpEngine(model, diagnose=True)))
        else:
            print("(no timed activities — nothing to lower)")
        return 0

    # action == "lint": run the admission gate
    try:
        specs = [get_model(args.name)] if args.name else list_models()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cache = _build_cache(args)
    threshold = (
        None if args.fail_on == "never" else Severity.parse(args.fail_on)
    )
    results = []
    failed = False
    for spec in specs:
        result = admit(spec, cache, max_states=args.max_states)
        results.append(result)
        summary = result.report.get("summary", {})
        counts = {
            Severity.ERROR: summary.get("errors", 0),
            Severity.WARNING: summary.get("warnings", 0),
            Severity.INFO: summary.get("infos", 0),
        }
        if threshold is not None and any(
            count for sev, count in counts.items() if sev >= threshold
        ):
            failed = True
    if args.json:
        payload = [
            {
                "name": result.name,
                "admitted": result.admitted,
                "cached": result.cached,
                "key": result.key,
                "ir_digest": result.ir_digest,
                "report": result.report,
            }
            for result in results
        ]
        print(_json.dumps(payload if len(payload) > 1 else payload[0],
                          indent=2))
    else:
        width = max((len(result.name) for result in results), default=4)
        for result in results:
            verdict = "admitted" if result.admitted else "REJECTED"
            source = "cache" if result.cached else "fresh"
            print(
                f"{result.name:<{width}}  {verdict:<8}  "
                f"{result.errors} errors, {result.warnings} warnings  "
                f"({source}, ir {result.ir_digest[:12]}…)"
            )
    return 1 if failed else 0


def _cmd_design(args) -> int:
    from repro.core import AHSParameters
    from repro.core.design import (
        best_strategy,
        max_platoon_size_for,
        max_trip_duration,
    )

    params = AHSParameters(base_failure_rate=args.lam)
    print(
        f"design answers for budget S <= {args.budget:g} at "
        f"t = {args.time:g}h (lambda = {args.lam:g}/hr)"
    )
    n = max_platoon_size_for(params, args.budget, args.time)
    print(f"1) optimal (largest admissible) platoon size: "
          f"{n if n is not None else 'none — budget unreachable'}")
    duration = max_trip_duration(params, args.budget)
    if duration is None:
        print("2) maximum trip duration: none — budget unreachable")
    else:
        print(f"2) maximum trip duration: {duration:.2f} h")
    winner, values = best_strategy(params, args.time)
    ranking = ", ".join(
        f"{s.value}={v:.2e}" for s, v in sorted(values.items(), key=lambda kv: kv[1])
    )
    print(f"3) most suitable coordination strategy: {winner.value} ({ranking})")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    try:
        return _dispatch(argv)
    except BrokenPipeError:
        # output piped into a pager/head that closed early — not an error
        import os

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def _dispatch(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "figure":
        return _cmd_experiment(
            "figure",
            args.number,
            args.fast,
            args.plot,
            args.json_path,
            runner=_build_runner(args),
        )
    if args.command == "table":
        return _cmd_experiment("table", args.number, False)
    if args.command == "all":
        return _cmd_all(args.fast, runner=_build_runner(args))
    if args.command == "unsafety":
        return _cmd_unsafety(args)
    if args.command == "orchestrate":
        return _cmd_orchestrate(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "calibrate":
        return _cmd_calibrate(args)
    if args.command == "sensitivity":
        return _cmd_sensitivity(args)
    if args.command == "mttu":
        return _cmd_mttu(args)
    if args.command == "platoons":
        return _cmd_platoons(args)
    if args.command == "design":
        return _cmd_design(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "models":
        return _cmd_models(args)
    if args.command == "watch":
        return _cmd_watch(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "replay-chunk":
        return _cmd_replay_chunk(args)
    if args.command == "ledger":
        return _cmd_ledger(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
