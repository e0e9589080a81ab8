"""Smoke test of the end-to-end benchmark (outside the tier-1 ``tests/`` tree).

Runs every workload at smoke size three times (traced at seed 1,
untraced at seed 1 and at seed 2), about a minute on two cores::

    python -m pytest benchmarks/e2e/test_e2e_smoke.py -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
FINGERPRINT = ("replications", "events", "draws", "digest")


def _bench(tmp_path: Path, seed: int, *extra: str) -> tuple[str, list[dict]]:
    out = tmp_path / f"seed{seed}{''.join(extra)}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", str(seed),
         "--json", str(out), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return proc.stdout, json.loads(out.read_text())["workloads"]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    return {
        "traced": _bench(tmp, 1, "--trace"),
        "same": _bench(tmp, 1),
        "other": _bench(tmp, 2),
    }


def test_every_benchmark_metric_is_printed_with_its_unit(runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    stdout, _ = runs["traced"]
    for metric in spec["end_to_end"] + spec["per_layer"]:
        pattern = (
            rf"^\s+{re.escape(metric['name'])}\s+\S+\s+"
            rf"{re.escape(metric['unit'])}(\s|$)"
        )
        assert re.search(pattern, stdout, re.M), metric
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    layer_names = {m["name"] for m in spec["per_layer"]}
    assert {name.split(".", 1)[1] for name in result["metrics"]} == layer_names


def test_counts_and_digest_repeat_for_a_seed_and_differ_across_seeds(runs):
    _, traced = runs["traced"]
    _, same = runs["same"]
    _, other = runs["other"]
    for a, b, c in zip(traced, same, other):
        assert [a["first"][k] for k in FINGERPRINT] == [
            b["first"][k] for k in FINGERPRINT
        ], a["workload"]
        assert a["first"]["digest"] != c["first"]["digest"], a["workload"]
        assert a["first"]["events"] != c["first"]["events"], a["workload"]


def test_no_workload_uses_more_workers_than_cores(runs):
    for summary in runs["same"][1]:
        assert 1 <= summary["workers"] <= os.cpu_count()


def test_fails_without_the_program_under_test(tmp_path):
    """Only BENCHMARK.json and the benchmark directory: non-zero, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "fig12-mc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
