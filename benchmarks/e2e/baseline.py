"""Regenerate ``results/baseline.json`` from the current checkout.

For every workload: ``--runs`` untraced benchmark runs (seeds
``20090608, 20090609, ...``; median, quartiles and n of each end-to-end
metric) and one traced run at the default seed (the per-layer table,
its coverage of ``wall_s`` and the tracing overhead)::

    python3 benchmarks/e2e/baseline.py [--runs 5]

Takes about ``runs + 1`` times the 2 minutes of one full pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # both need HERE on sys.path
import workloads

#: measuring time per run, as in BENCHMARK.json's run_seconds
SECONDS = 20.0


def _stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be >= 2 (quartiles need two values)")

    table = {}
    for workload in workloads.WORKLOADS:
        untraced = [
            run.bench(workload.name, workloads.DEFAULT_SEED + i,
                      seconds=SECONDS, trace=False, repeat=None, smoke=False)
            for i in range(args.runs)
        ]
        traced = run.bench(workload.name, workloads.DEFAULT_SEED,
                           seconds=SECONDS, trace=True, repeat=None,
                           smoke=False)
        for summary in untraced + [traced]:
            run.report(summary)
        table[workload.name] = {
            "workers": workload.workers,
            "orchestrations_per_run": untraced[0]["orchestrations"],
            "correct": all(s["correct"] for s in untraced + [traced]),
            "end_to_end": {
                name: {"unit": unit, **_stats(
                    [s["metrics"][name] for s in untraced]
                )}
                for name, unit in run.E2E_UNITS.items()
            },
            "first_orchestration": untraced[0]["first"],
            "per_layer": {
                name: {"unit": unit, "value": traced["layers"][name]}
                for name, unit in run.LAYER_UNITS.items()
            },
            "traced_coverage": traced["coverage"],
            "trace_overhead": traced["trace_overhead"],
        }
    document = {
        "benchmark": "e2e",
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "seconds": SECONDS,
        "workloads": table,
    }
    out = HERE / "results" / "baseline.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=2) + "\n")
    print(f"[saved {out}]")
    return 0 if all(w["correct"] for w in table.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
