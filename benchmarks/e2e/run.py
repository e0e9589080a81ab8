"""End-to-end benchmark: paper-figure orchestrations, timed and checked.

Run from the repository root, either way::

    python3 benchmarks/e2e/run.py --workload fig12-mc --seed 7 --seconds 20 --trace 0
    PYTHONPATH=src python -m benchmarks.e2e.run --seed 20090608 \
        [--workload W] [--repeat N] [--trace] [--json OUT] [--smoke]

Each measurement is a fresh process (``child.py``) so every orchestration
pays the cold costs a ``repro-cli orchestrate`` user pays.  Load is a
closed loop: one client, one orchestration at a time, and no workload
uses more than 2 workers.  Per workload the benchmark

1. times three cold set-ups (import, warm start, model build and engine
   compile for every Monte-Carlo point) and reports their median;
2. runs ``round(seconds / slot)`` orchestrations (``slot_s`` in
   ``workloads.py``), the first at ``--seed`` and the rest at seeds
   derived from it, and reports medians;
3. passes every orchestration through the correctness gate (``gate.py``).

``--trace`` alternates untraced and traced orchestrations on the same
seeds, reports the per-layer table from the traced ones (``spans.py``)
and prints the tracing overhead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics, or the per-layer ones with ``--trace``).  The
exit code is 0 only when every check passed; it is 2, with no result
line, when the program under test is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / ".out"
sys.path.insert(0, str(HERE))

import workloads  # needs HERE on sys.path

#: end-to-end metrics: name -> unit (all lower-is-better)
E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "replications": "count",
    "peak_rss_mb": "MiB",
}

#: per-layer metrics: name -> unit
LAYER_UNITS = {
    "process.import_s": "s",
    "orchestrate.warm_start_s": "s",
    "orchestrate.rounds": "count",
    "orchestrate.self_s": "s",
    "orchestrate.needed_share": "ratio",
    "orchestrate.max_rel_ci": "ratio",
    "core.model_builds": "count",
    "core.model_build_s": "s",
    "san.compile_s": "s",
    "san.kernel_s": "s",
    "san.kernel_calls": "count",
    "san.rows_per_call": "rows",
    "san.events": "count",
    "san.draws": "count",
    "san.events_per_s": "1/s",
    "san.kernel_share": "ratio",
    "runtime.chunks": "count",
    "runtime.dispatch_self_s": "s",
    "runtime.worker_busy_s": "s",
    "runtime.worker_idle_s": "s",
    "runtime.job_bytes": "B",
    "runtime.cache_puts": "count",
    "runtime.cache_put_s": "s",
    "runtime.cache_get_s": "s",
    "runtime.cache_hit_ratio": "ratio",
    "runtime.merge_s": "s",
    "runtime.retries": "count",
    "runtime.fallbacks": "count",
    "obs.events_emitted": "count",
    "obs.emit_s": "s",
    "obs.ledger_bytes": "B",
}

#: cold set-up processes per workload (median reported)
SETUPS = 3
#: a stuck orchestration is killed after this long (the whole run must
#: end within 180 s)
CHILD_TIMEOUT_S = 150.0


def rep_seed(seed: int, index: int) -> int:
    """Seed of a run's ``index``-th orchestration (the first is ``seed``)."""
    if index == 0:
        return seed
    digest = hashlib.sha256(f"{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def run_child(
    workload: str, seed: int, *, mode: str, smoke: bool, trace: bool = False
) -> Optional[dict]:
    """One ``child.py`` process; its result dict, or None if it failed."""
    OUT.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{workload}-{mode}-", dir=OUT))
    command = [
        sys.executable, str(HERE / "child.py"), "--mode", mode,
        "--workload", workload, "--seed", str(seed), "--out", str(out),
    ]
    command += ["--smoke"] * smoke + ["--trace"] * trace
    env = dict(
        os.environ,
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        TMPDIR=str(out),
    )
    # own session: a timed-out child is killed with its pool workers
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, stderr = proc.communicate()
        stderr += f"\n{workload} {mode}: killed after {CHILD_TIMEOUT_S:g} s"
    result = None
    if proc.returncode == 0:
        try:
            result = json.loads((out / "result.json").read_text())
        except (OSError, ValueError) as exc:
            stderr += f"\nunreadable result: {exc}"
    if result is None:
        print(
            f"[{workload} {mode} seed={seed} failed]\n{stderr.strip()[-2000:]}",
            file=sys.stderr,
        )
    elif trace:
        (out / f"trace-{workload}.json").replace(OUT / f"trace-{workload}.json")
    shutil.rmtree(out, ignore_errors=True)
    return result


def _median(values: list) -> Optional[float]:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def bench(
    name: str,
    seed: int,
    *,
    seconds: float,
    trace: bool,
    repeat: Optional[int],
    smoke: bool,
) -> dict:
    """Measure one workload; returns metrics, per-layer table and tallies."""
    workload = workloads.get(name)
    if repeat is not None:
        reps = repeat
    elif smoke:
        reps = 1
    else:
        reps = max(1, round(seconds / workload.slot_s))
        if trace:  # every seed then runs twice, untraced and traced
            reps = max(1, reps // 2)
    setups = [
        run_child(name, seed, mode="setup", smoke=smoke)
        for _ in range(1 if smoke else SETUPS)
    ]
    runs, traced = [], []
    for index in range(reps):
        runs.append(run_child(name, rep_seed(seed, index), mode="run", smoke=smoke))
        if trace:
            traced.append(
                run_child(
                    name, rep_seed(seed, index), mode="run", smoke=smoke, trace=True
                )
            )

    done = [r for r in runs + traced if r is not None]
    crashed = sum(r is None for r in setups + runs + traced)
    # a crashed process counts as one failed operation; a finished one
    # contributes its chunks and checks, failing on retries, fallbacks
    # and failed checks
    attempted = crashed + sum(r["chunks"] + r["checks"] for r in done)
    attempted += sum(r is not None for r in setups)
    failed = crashed + sum(
        r["retries"] + r["fallbacks"] + len(r["failures"]) for r in done
    )
    ok_runs = [r for r in runs if r is not None]
    metrics = {
        "wall_s": _median([r["wall_s"] for r in ok_runs]),
        "setup_s": _median([s["setup_s"] for s in setups if s is not None]),
        "replications": _median([r["replications"] for r in ok_runs]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in ok_runs]),
    }
    first = runs[0]
    summary = {
        "workload": name,
        "workers": workload.workers,
        "seed": seed,
        "orchestrations": reps,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "correct": failed == 0 and all(v is not None for v in metrics.values()),
        "max_rel_ci": _median([r["max_rel_ci"] for r in ok_runs]),
        "failures": [f for r in done for f in r["failures"]],
        "first": None
        if first is None
        else {
            key: first[key]
            for key in ("seed", "replications", "events", "draws", "digest",
                        "reference_match", "rounds", "chunks")
        },
        "runs": [
            None if r is None else {k: v for k, v in r.items() if k != "layers"}
            for r in runs
        ],
        "setups": setups,
    }
    ok_traced = [r for r in traced if r is not None]
    if trace:
        summary["layers"] = {
            key: _median([r["layers"][key] for r in ok_traced])
            for key in LAYER_UNITS
        }
        summary["coverage"] = _median([r["coverage"] for r in ok_traced])
        traced_wall = _median([r["wall_s"] for r in ok_traced])
        summary["traced_wall_s"] = traced_wall
        summary["trace_overhead"] = (
            traced_wall / metrics["wall_s"] - 1.0
            if traced_wall and metrics["wall_s"]
            else None
        )
        summary["correct"] = summary["correct"] and all(
            v is not None for v in summary["layers"].values()
        )
    return summary


def _line(name: str, value, unit: str, note: str = "") -> str:
    text = "n/a" if value is None else f"{value:.6g}"
    return f"  {name:<26} {text:>14} {unit:<6} {note}".rstrip()


def report(summary: dict) -> None:
    """Print one workload's metrics by name, each with its unit."""
    first = summary["first"] or {}
    print(
        f"== {summary['workload']}: {summary['workers']} worker(s), "
        f"seed {summary['seed']}, {summary['orchestrations']} orchestration(s)"
    )
    notes = {
        "wall_s": "median orchestration, process start to artifact",
        "setup_s": "median cold set-up",
        "replications": "median replications spent",
        "peak_rss_mb": "median driver + largest worker",
    }
    for name, unit in E2E_UNITS.items():
        print(_line(name, summary["metrics"][name], unit, notes[name]))
    print(_line(
        "failed_share", summary["failed_share"], "ratio",
        f"{summary['failed']} failed of {summary['attempted']} operations",
    ))
    print(_line("max_rel_ci", summary["max_rel_ci"], "ratio",
                "median widest relative 95% half-width"))
    if first:
        pinned = {None: "not pinned for this seed or size",
                  True: "matches reference",
                  False: "DIFFERS from reference"}[first["reference_match"]]
        print(f"  digest {first['digest']} ({pinned}; seed {first['seed']})")
    for failure in summary["failures"]:
        print(f"  FAILED {failure}")
    if "layers" in summary:
        print("  per-layer (median of traced orchestrations):")
        for name, unit in LAYER_UNITS.items():
            print(_line(name, summary["layers"][name], unit))
        coverage = summary["coverage"]
        overhead = summary["trace_overhead"]
        print(_line("traced coverage", coverage, "ratio",
                    "layer self times / traced wall_s"))
        print(_line("tracing overhead", overhead, "ratio",
                    f"traced wall_s {summary['traced_wall_s']} vs untraced"))


def result_line(summaries: list[dict], trace: bool) -> dict:
    """The final JSON object (metric names prefixed when several workloads)."""
    units = LAYER_UNITS if trace else E2E_UNITS
    metrics = {}
    for summary in summaries:
        values = summary["layers"] if trace else summary["metrics"]
        prefix = "" if len(summaries) == 1 else f"{summary['workload']}."
        for name, unit in units.items():
            metrics[prefix + name] = {"value": values[name], "unit": unit}
    return {
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=[w.name for w in workloads.WORKLOADS],
                        help="one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured time per workload; sets the number of "
                        "orchestrations (default 20)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1], help="per-layer run (bare flag = 1)")
    parser.add_argument("--repeat", type=int, default=None,
                        help="orchestrations per workload (overrides --seconds)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sweeps and budgets, one orchestration each")
    parser.add_argument("--json", default=None, metavar="OUT",
                        help="write every measurement to OUT")
    args = parser.parse_args(argv)
    if args.repeat is not None and args.repeat < 1:
        parser.error("--repeat must be >= 1")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"program under test not found: {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else [w.name for w in workloads.WORKLOADS]
    summaries = []
    for name in names:
        summary = bench(
            name, args.seed, seconds=args.seconds, trace=bool(args.trace),
            repeat=args.repeat, smoke=args.smoke,
        )
        report(summary)
        summaries.append(summary)
    if args.json:
        Path(args.json).write_text(json.dumps({"workloads": summaries}, indent=2))
    line = result_line(summaries, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
