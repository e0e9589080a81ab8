"""Cold-start benchmark: what an orchestration pays before its first chunk.

Run from the repository root::

    python3 benchmarks/bench_cold_start.py [--json BENCH_cold_start.json] \
        [--root DIR --label NAME]...

For every source tree (``--root``, default this checkout) it measures:

* **the import block** of the end-to-end workload process, the lines of
  ``benchmarks/e2e/child.py`` between its ``T0`` clock and ``IMPORT_S``,
  executed verbatim in :data:`INTERPRETERS` fresh interpreters: seconds,
  peak RSS once the imports are done, the number of loaded modules and
  whether ``scipy.stats`` is among them;
* **``warm_start``** on the points of every end-to-end workload
  (``benchmarks/e2e/workloads.spec``), timed in-process :data:`CALLS`
  times per workload after that import block, in :data:`WARM_PROBES`
  fresh interpreters.

Trees given together are measured alternately, so drift in host speed
reaches each of them alike.  Timings are reported as the median and
quartiles of all samples.  Each tree becomes one row of the JSON file,
replacing an earlier row with the same label.  Like the end-to-end
benchmark, the interpreters run with one BLAS/OpenMP thread.

There is no timing gate.  The exit code is 1 when any measured tree
loads ``scipy.stats`` on that path.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: fresh interpreters timing the import block, per tree
INTERPRETERS = 12
#: fresh interpreters timing ``warm_start``, per tree
WARM_PROBES = 3
#: ``warm_start`` calls per workload in each of those interpreters
CALLS = 3

#: runs in a fresh interpreter: ``python -c PROBE <child.py> <calls>``;
#: ``calls`` 0 measures the import block only.  Nothing beyond ``sys``,
#: ``time`` and the already loaded ``os`` is imported before the clock
#: starts, as in ``child.py``.
PROBE = r'''
import os
import sys
import time

child, calls = sys.argv[1], int(sys.argv[2])
with open(child) as handle:
    source = handle.read()
start = source.index("\n", source.index("T0 = time.perf_counter()")) + 1
block = compile(source[start:source.index("IMPORT_S = ")], child, "exec")
sys.path.insert(0, os.path.dirname(child))  # as for a script: its folder
T0 = time.perf_counter()
exec(block, {"__file__": child, "__name__": "cold_start_probe"})
import_s = time.perf_counter() - T0
modules = len(sys.modules)

import json
import resource

result = {
    "import_s": import_s,
    "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "modules": modules,
    "scipy_stats": "scipy.stats" in sys.modules,
}
if calls:
    import workloads
    from repro.orchestrate import EstimatorPolicy, warm_start

    result["warm_start_s"] = {}
    for workload in workloads.WORKLOADS:
        points = workloads.spec(workload.name).points
        runs = []
        for _ in range(calls):
            started = time.perf_counter()
            warm_start(points, EstimatorPolicy())
            runs.append(time.perf_counter() - started)
        result["warm_start_s"][workload.name] = runs
    result["scipy_stats"] = "scipy.stats" in sys.modules
print(json.dumps(result))
'''


def probe(root: Path, calls: int) -> dict:
    """One fresh interpreter running :data:`PROBE` against ``root``."""
    env = dict(
        os.environ,
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    env.pop("PYTHONPATH", None)  # child.py puts <root>/src on sys.path
    completed = subprocess.run(
        [
            sys.executable, "-c", PROBE,
            str(root / "benchmarks" / "e2e" / "child.py"), str(calls),
        ],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def spread(samples: list) -> dict:
    """Median and quartiles of ``samples``, with the sample count."""
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(samples)}


def measure(trees: list) -> list:
    """Probe every ``(label, root)`` tree alternately; one row each."""
    host = {
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
    }
    imports = {label: [] for label, _ in trees}
    warm = {label: [] for label, _ in trees}
    for index in range(INTERPRETERS):
        for label, root in trees if index % 2 == 0 else trees[::-1]:
            imports[label].append(probe(root, 0))
            if index < WARM_PROBES:
                warm[label].append(probe(root, CALLS))
    rows = []
    for label, _ in trees:
        rows.append(
            {
                "label": label,
                "host": host,
                "interpreters": INTERPRETERS,
                "warm_start_calls": WARM_PROBES * CALLS,
                "import_s": spread([p["import_s"] for p in imports[label]]),
                "rss_after_import_mb": spread(
                    [p["rss_mb"] for p in imports[label]]
                ),
                "modules": statistics.median(
                    p["modules"] for p in imports[label]
                ),
                "scipy_stats_loaded": any(
                    p["scipy_stats"] for p in imports[label] + warm[label]
                ),
                "warm_start_s": {
                    name: spread(
                        [s for p in warm[label] for s in p["warm_start_s"][name]]
                    )
                    for name in warm[label][0]["warm_start_s"]
                },
            }
        )
    return rows


def render(rows: list) -> str:
    """The rows as two text tables: import block, then ``warm_start``."""
    lines = [
        f"{'tree':>12}  {'import s (q1-q3)':>22}  {'RSS MiB':>8}  "
        f"{'modules':>7}  scipy.stats"
    ]
    for row in rows:
        imp = row["import_s"]
        lines.append(
            f"{row['label']:>12}  {imp['median']:>8.3f} "
            f"({imp['q1']:.3f}-{imp['q3']:.3f})  "
            f"{row['rss_after_import_mb']['median']:>8.1f}  "
            f"{row['modules']:>7.0f}  {row['scipy_stats_loaded']}"
        )
    names = sorted({name for row in rows for name in row["warm_start_s"]})
    if names:
        lines.append("")
        lines.append(
            f"{'warm_start s':>16}  "
            + "  ".join(f"{row['label']:>22}" for row in rows)
        )
        for name in names:
            cells = []
            for row in rows:
                cell = row["warm_start_s"].get(name)
                cells.append(
                    f"{'--':>22}"
                    if cell is None
                    else f"{cell['median']:>8.3f} "
                    f"({cell['q1']:.3f}-{cell['q3']:.3f})"
                )
            lines.append(f"{name:>16}  " + "  ".join(cells))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--root", action="append", type=Path, default=[],
        help="source tree to measure (repeatable; default: this checkout)",
    )
    parser.add_argument(
        "--label", action="append", default=[],
        help="row label of each --root, in order (default: current)",
    )
    parser.add_argument(
        "--json", type=Path, default=ROOT / "BENCH_cold_start.json",
        help="results file; rows with other labels are kept",
    )
    args = parser.parse_args(argv)
    roots = [root.resolve() for root in args.root] or [ROOT]
    labels = args.label or (["current"] if len(roots) == 1 else [])
    if len(labels) != len(roots):
        parser.error("give one --label per --root")

    rows = measure(list(zip(labels, roots)))
    print(render(rows))

    record = {"benchmark": "cold-start", "rows": []}
    if args.json.is_file():
        record = json.loads(args.json.read_text())
    record["rows"] = [
        row for row in record["rows"] if row["label"] not in labels
    ] + rows
    args.json.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.json}")

    loaded = [row["label"] for row in rows if row["scipy_stats_loaded"]]
    if loaded:
        print(f"FAIL: scipy.stats is loaded on the cold path of {loaded}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
