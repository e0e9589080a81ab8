"""One workload orchestration, or one cold set-up, in a fresh process.

``run.py`` starts this script once per measurement so every orchestration
pays the same cold costs a ``repro-cli orchestrate`` user pays.  It can
also be run by hand from the repository root::

    python3 benchmarks/e2e/child.py --workload fig12-mc --seed 1 --out DIR \
        [--mode run|setup] [--trace] [--smoke]

and writes ``result.json`` (plus ``artifact.json`` in run mode, and
``trace-<workload>.json`` with ``--trace``) into ``DIR``.
"""

import time

T0 = time.perf_counter()  # wall_s and setup_s both start at this line

import argparse
import inspect
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import gate
import spans
import workloads
import repro.experiments.figures  # the sweep builders; imported with the rest
from repro.core.partasks import (
    ImportanceSimulationTask,
    SplittingReplicationTask,
    UnsafetySimulationTask,
)
from repro.obs import EventBus, RunLedger, deterministic_run_id
from repro.orchestrate import (
    EstimatorPolicy,
    Orchestrator,
    orchestrate,
    warm_start,
)
from repro.runtime import ParallelRunner, ResultCache

IMPORT_S = time.perf_counter() - T0


def setup(args) -> dict:
    """Import, warm start and build + compile every Monte-Carlo point's task.

    The tasks are the ones the orchestrator would schedule: the estimator
    comes from the same :func:`warm_start` rarity bands, and the engine is
    the workload's, else the orchestrator's default.
    """
    spec = workloads.spec(args.workload, args.smoke)
    policy = EstimatorPolicy()
    engine = spec.options.get(
        "engine", inspect.signature(Orchestrator).parameters["engine"].default
    )
    tasks = {
        "simulation": lambda p: UnsafetySimulationTask(
            params=p.params, times=p.times, engine=engine
        ),
        "importance": lambda p: ImportanceSimulationTask(
            params=p.params, times=p.times, engine=engine, boost=policy.boost
        ),
        "splitting": lambda p: SplittingReplicationTask(
            params=p.params, times=p.times, engine=engine,
            trials_per_stage=policy.splitting_trials,
        ),
    }
    priors = warm_start(spec.points, policy)
    for point in spec.points:
        make = tasks.get(priors[point.point_id].estimator)
        if make is not None:
            make(point).build_cached()
    return {"setup_s": time.perf_counter() - T0}


def run(args) -> dict:
    """One orchestration, its artifact, and the correctness gate."""
    out = Path(args.out)
    workload = workloads.get(args.workload)
    spec = workloads.spec(args.workload, args.smoke)
    tracer = spans.install(out) if args.trace else None
    ledger_path = out / "ledger.jsonl"
    bus = None
    if spec.ledger:
        bus = EventBus(
            deterministic_run_id({"workload": args.workload, "seed": args.seed}),
            sinks=[RunLedger(ledger_path)],
        )
    try:
        with ParallelRunner(
            workers=workload.workers,
            cache=ResultCache(out / "cache"),
            chunk_cache=True,
        ) as runner:
            report = orchestrate(
                spec.points, spec.budget, runner,
                seed=args.seed, events=bus, **spec.options,
            )
    finally:
        if bus is not None:
            bus.close()
    artifact = out / "artifact.json"
    artifact.write_text(json.dumps(report.to_dict(), indent=2))
    wall_s = time.perf_counter() - T0

    # RUSAGE_CHILDREN covers the pool workers, all joined when the runner
    # closed; its ru_maxrss (KiB on Linux) is the largest worker's
    rss_kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    record = json.loads(artifact.read_text())
    reference = None
    if args.seed == workloads.DEFAULT_SEED and not args.smoke:
        pinned = json.loads((HERE / "reference.json").read_text())
        reference = pinned.get(args.workload)
    checks, failures = gate.check(record, spec.points, reference)
    telemetry = record["telemetry"]
    widths = [gate.point_relative_ci(p) for p in record["points"]]
    widths = [w for w in widths if w is not None]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "workers": workload.workers,
        "wall_s": wall_s,
        "import_s": IMPORT_S,
        "peak_rss_mb": rss_kib / 1024.0,
        "replications": int(record["ledger"]["spent"]),
        "max_rel_ci": max(widths) if widths else None,
        "rounds": len(record["rounds"]),
        "chunks": int(telemetry["chunks"]),
        "retries": int(telemetry["retries"]),
        "fallbacks": int(telemetry["fallbacks"]),
        "events": sum(int(p["events"]) for p in record["points"]),
        "draws": int(telemetry["draws"]),
        "digest": gate.digest(record),
        # None: no reference at this seed; else whether the digest matched
        "reference_match": None
        if reference is None
        else gate.digest(record) == reference,
        "checks": checks,
        "failures": failures,
    }
    if tracer is not None:
        merged = spans.collect(tracer)
        layers, coverage = spans.layer_metrics(
            merged,
            driver_pid=tracer.driver_pid,
            record=record,
            wall_s=wall_s,
            import_s=IMPORT_S,
            workers=workload.workers,
            target=spec.budget.target_relative_ci,
            events_emitted=bus.events_emitted if bus is not None else 0,
            ledger_bytes=ledger_path.stat().st_size if bus is not None else 0,
        )
        (out / f"trace-{args.workload}.json").write_text(
            json.dumps(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "wall_s": wall_s,
                    "import_s": IMPORT_S,
                    "spans": merged,
                }
            )
        )
        result["layers"] = layers
        result["coverage"] = coverage
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w.name for w in workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--mode", choices=["run", "setup"], default="run")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    result = setup(args) if args.mode == "setup" else run(args)
    (Path(args.out) / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
