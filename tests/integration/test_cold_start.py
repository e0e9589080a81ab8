"""The cold path of ``repro-cli orchestrate`` never loads ``scipy.stats``.

Importing :mod:`scipy.stats` costs more than half of the import block
and about 36 MiB of memory (``BENCH_cold_start.json``), for four
quantile calls that :mod:`scipy.special` answers bit for bit
(:func:`repro.stats.confidence.t_quantile`).  The check runs in a fresh
interpreter, since this test process may already have loaded it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

#: imports the end-to-end benchmark's workload process makes, then the
#: warm start and a one-point crude Monte-Carlo orchestration
COLD_PATH = """
import json
import sys

import repro.cli
import repro.core.partasks
import repro.experiments.figures
import repro.obs
import repro.orchestrate
import repro.runtime
from repro.core import AHSParameters
from repro.orchestrate import (
    Budget, EstimatorPolicy, SweepPoint, orchestrate, warm_start,
)
from repro.runtime import ParallelRunner, ResultCache

loaded = {"import": "scipy.stats" in sys.modules}
points = [
    SweepPoint(
        "cold", AHSParameters(max_platoon_size=3, base_failure_rate=1e-2),
        (1.0,),
    )
]
warm_start(points, EstimatorPolicy())
loaded["warm_start"] = "scipy.stats" in sys.modules
with ParallelRunner(
    workers=1, cache=ResultCache(sys.argv[1]), chunk_cache=True
) as runner:
    report = orchestrate(points, Budget(replications=64), runner, seed=5)
loaded["orchestrate"] = "scipy.stats" in sys.modules
record = report.to_dict()
print(json.dumps({
    "loaded": loaded,
    "estimator": record["points"][0]["estimator"],
    "spent": record["ledger"]["spent"],
}))
"""


def test_orchestrate_cold_path_never_loads_scipy_stats(tmp_path):
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", COLD_PATH, str(tmp_path / "cache")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert result["estimator"] == "simulation"
    assert result["spent"] == 64
    assert result["loaded"] == {
        "import": False,
        "warm_start": False,
        "orchestrate": False,
    }
