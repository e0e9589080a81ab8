"""Paired end-to-end A/B runs of two source trees, written to a JSON file.

Run from the repository root, with a checkout of the commit to compare
against (for instance ``git worktree add /tmp/base HEAD~1``, or an
unpacked ``git archive``)::

    python3 benchmarks/bench_e2e_ab.py --root /tmp/base --label parent \
        --root . --label change --workload fig12-mc --pairs 10 --seed 1001 \
        [--trace 0|1] [--seconds 20] [--name ROW] [--json BENCH_e2e.json]

Each pair runs ``benchmarks/e2e/run.py --workload W --seed S --seconds
20 --trace T`` in both trees at the same seed, one after the other, and
alternates which tree goes first from pair to pair, so drift in host
speed reaches both alike.  The seeds are ``--seed``, ``--seed + 1``, ...

For every metric of the result lines (the four end-to-end metrics, or
the per-layer ones with ``--trace 1``) it records each side's values,
median and quartiles, the per-pair ratios (second tree over first) and
a sign test: how many pairs the second tree won, lost and tied, and the
one-sided binomial p-value of its wins.  Each metric gets a label:

* ``improved``: the second tree won at least 90% of the pairs, and the
  medians differ by more than the first tree's interquartile range;
* ``regressed``: the median paired ratio is worse than the metric's
  bound in ``BENCHMARK.json``, or, for a metric without a bound, the
  mirror image of ``improved``;
* ``unchanged``: every pair gave equal values;
* ``unresolved``: anything else.  Its ``reason`` says whether a side's
  interquartile range exceeds the bound (too noisy to tell), the second
  tree was worse in at least 90% of the pairs but within the bound, or
  the difference is within the noise.

The record becomes one row of the JSON file, keyed by ``--name`` and the
workload and replacing an earlier row with the same key.  A run whose
result line is missing or reports failed operations makes the exit
code 1; the metric labels never do.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def bounds() -> dict:
    """``name -> (better, bound)`` of the end-to-end metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        metric["name"]: (metric["better"], metric.get("bound"))
        for metric in spec["end_to_end"] + spec["per_layer"]
    }


def run_tree(root: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One ``run.py`` in ``root``; its result line (``None`` if absent)."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # child.py puts <root>/src on sys.path
    completed = subprocess.run(
        [
            sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", f"{seconds:g}",
            "--trace", str(trace),
        ],
        cwd=root, env=env, capture_output=True, text=True,
    )
    lines = completed.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(completed.stderr[-2000:])
        return None


def spread(values: list) -> dict:
    """Median and quartiles of ``values``."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def sign_p(wins: int, losses: int) -> float:
    """One-sided binomial p-value of at least ``wins`` wins out of the
    untied pairs, each won with probability 1/2 under no change."""
    n = wins + losses
    if n == 0:
        return 1.0
    return sum(math.comb(n, k) for k in range(wins, n + 1)) / 2.0 ** n


def compare(name: str, first: list, second: list, better: str,
            bound) -> dict:
    """The paired statistics and label of one metric."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - a) < 0 for a, b in zip(first, second))
    losses = sum(sign * (b - a) > 0 for a, b in zip(first, second))
    ties = len(first) - wins - losses
    ratios = [b / a if a else None for a, b in zip(first, second)]
    known = [r for r in ratios if r is not None]
    median_ratio = statistics.median(known) if known else None
    base, other = spread(first), spread(second)
    gain = sign * (base["median"] - other["median"])
    iqr = base["q3"] - base["q1"]
    relative = [
        (side["q3"] - side["q1"]) / abs(side["median"])
        if side["median"] else 0.0
        for side in (base, other)
    ]
    n = len(first)
    worse = (
        median_ratio is not None and bound is not None
        and sign * (median_ratio - 1.0) > bound
    )
    if ties == n:
        label, reason = "unchanged", "every pair equal"
    elif wins >= 0.9 * n and gain > iqr:
        label, reason = "improved", "won >= 90% of pairs by more than the IQR"
    elif worse or (bound is None and losses >= 0.9 * n and -gain > iqr):
        label, reason = "regressed", (
            "median ratio worse than the bound" if worse
            else "lost >= 90% of pairs by more than the IQR"
        )
    elif bound is not None and max(relative) > bound:
        label, reason = "unresolved", "a side's IQR exceeds the bound"
    elif losses >= 0.9 * n and -gain > iqr:
        label = "unresolved"
        reason = "worse in >= 90% of pairs, within the bound"
    else:
        label, reason = "unresolved", "difference within the noise"
    return {
        "metric": name,
        "better": better,
        "bound": bound,
        "first": base,
        "second": other,
        "ratios": ratios,
        "median_ratio": median_ratio,
        "wins": wins,
        "losses": losses,
        "ties": ties,
        "sign_p": sign_p(wins, losses),
        "label": label,
        "reason": reason,
    }


def render(row: dict) -> str:
    """The row as a text table: medians [quartiles], ratio, pairs won."""
    first, second = row["trees"]
    lines = [
        f"{row['workload']}: {row['pairs']} pairs, trace {row['trace']}, "
        f"{first} -> {second}",
        f"{'metric':>26}  {first:>26}  {second:>26}  {'ratio':>6}  "
        f"{'won':>5}  label",
    ]
    for stat in row["metrics"].values():
        a, b = (
            f"{side['median']:.4g} [{side['q1']:.4g}, {side['q3']:.4g}]"
            for side in (stat["first"], stat["second"])
        )
        ratio = stat["median_ratio"]
        ratio = "n/a" if ratio is None else f"{ratio:.3f}"
        lines.append(
            f"{stat['metric']:>26}  {a:>26}  {b:>26}  {ratio:>6}  "
            f"{stat['wins']:>2}/{row['pairs']:<2}  {stat['label']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", action="append", type=Path, required=True,
                        help="source tree; give exactly two, first the base")
    parser.add_argument("--label", action="append", required=True,
                        help="label of each --root, in order")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1001,
                        help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--name", default="ab",
                        help="row name in the JSON file (default: ab)")
    parser.add_argument("--json", type=Path, default=ROOT / "BENCH_e2e.json")
    args = parser.parse_args(argv)
    if len(args.root) != 2 or len(args.label) != 2:
        parser.error("give two --root and two --label")
    trees = list(zip(args.label, [root.resolve() for root in args.root]))

    results: dict = {label: [] for label, _ in trees}
    failed = False
    for pair in range(args.pairs):
        seed = args.seed + pair
        for label, root in trees if pair % 2 == 0 else trees[::-1]:
            line = run_tree(root, args.workload, seed, args.seconds,
                            args.trace)
            if line is None or line.get("failed") or not line.get("correct"):
                print(f"{label} seed {seed}: run failed: {line}")
                failed = True
            results[label].append(line)
        print(f"pair {pair + 1}/{args.pairs} (seed {seed}) done", flush=True)
    if failed:
        return 1

    (first, _), (second, _) = trees
    kinds = bounds()
    names = list(results[first][0]["metrics"])
    row = {
        "name": args.name,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "seeds": [args.seed + pair for pair in range(args.pairs)],
        "trees": [first, second],
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "attempted": {
            label: sum(line["attempted"] for line in results[label])
            for label in results
        },
        "failed": {
            label: sum(line["failed"] for line in results[label])
            for label in results
        },
        "metrics": {},
    }
    for name in names:
        better, bound = kinds.get(name, ("lower", None))
        values = [
            [line["metrics"][name]["value"] for line in results[label]]
            for label in (first, second)
        ]
        if any(v is None for side in values for v in side):
            continue
        row["metrics"][name] = compare(name, *values, better, bound)
    print(render(row))

    record = {"benchmark": "e2e-ab", "rows": []}
    if args.json.is_file():
        record = json.loads(args.json.read_text())
    record["rows"] = [
        old for old in record["rows"]
        if (old["name"], old["workload"], old["trace"])
        != (row["name"], row["workload"], row["trace"])
    ] + [row]
    args.json.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
