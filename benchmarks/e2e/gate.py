"""The correctness gate every benchmark orchestration passes through.

Three kinds of check, each counted once:

* **schema** - the artifact read back from disk is a well-formed
  ``repro-estimates/1`` report for exactly the sweep that was asked
  for, and the ledger's spent replications equal the points' total;
* **analytical** - every informative estimate (its 95 % CI excludes
  zero) is compared with the lumped
  :class:`~repro.core.analytical.AnalyticalEngine` S(t).  A crude
  Monte-Carlo estimate must lie within ``3 * half_width + 0.5 *
  analytical``, the slack ``tests/integration/test_cross_engine.py``
  uses for the lumping bias.  An importance-sampled estimate must lie
  within a factor :data:`IS_FACTOR` of it: with failure biasing at
  these budgets the likelihood-ratio weights are so heavy-tailed that an
  estimate 7x below S(t) can come with an interval that excludes it (one
  seed in 30 at the default boost), so the interval test would fail
  seeds at random rather than catch wrong code;
* **digest** - at the default seed, the SHA-256 of the canonical points
  section equals the workload's digest in ``reference.json``, which pins
  every estimate exactly.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

__all__ = ["SCHEMA", "digest", "point_relative_ci", "check"]

SCHEMA = "repro-estimates/1"
#: largest ratio between an importance-sampled estimate and the lumped
#: S(t) (either way) that the gate accepts
IS_FACTOR = 100.0
_POINT_KEYS = (
    "point_id", "estimator", "times", "values", "half_widths",
    "n_replications", "converged", "events",
)


def digest(record: dict) -> str:
    """SHA-256 of the points section in canonical JSON form."""
    canonical = json.dumps(
        record["points"], sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def point_relative_ci(point: dict) -> Optional[float]:
    """Widest relative half-width over a point's informative times."""
    halves = point.get("half_widths")
    if not halves:
        return None
    ratios = [h / v for h, v in zip(halves, point["values"]) if v > 0]
    return max(ratios) if ratios else None


def _schema_errors(record: dict, point_ids: list[str]) -> list[str]:
    errors = []
    if record.get("schema") != SCHEMA:
        errors.append(f"schema is {record.get('schema')!r}, not {SCHEMA!r}")
    points = record.get("points") or []
    if [p.get("point_id") for p in points] != point_ids:
        errors.append("artifact points do not match the requested sweep")
    for point in points:
        missing = [key for key in _POINT_KEYS if key not in point]
        if missing:
            errors.append(f"{point.get('point_id')}: missing {missing}")
            continue
        if len(point["values"]) != len(point["times"]):
            errors.append(f"{point['point_id']}: values/times lengths differ")
        halves = point["half_widths"]
        if halves is not None and len(halves) != len(point["values"]):
            errors.append(f"{point['point_id']}: half_widths length differs")
    spent = (record.get("ledger") or {}).get("spent")
    total = sum(int(p.get("n_replications", 0)) for p in points)
    if spent != total:
        errors.append(f"ledger spent {spent} != points total {total}")
    return errors


def check(
    record: dict, points: list, reference: Optional[str]
) -> tuple[int, list[str]]:
    """Run the gate; returns ``(checks made, failure messages)``.

    ``points`` are the ``SweepPoint`` objects the run was given;
    ``reference`` is the expected digest, or None when the seed is not
    the default one.
    """
    from repro.core.analytical import AnalyticalEngine

    made = 1
    failures = [
        f"schema: {error}"
        for error in _schema_errors(record, [p.point_id for p in points])
    ]
    if failures:
        return made, failures
    params = {p.point_id: p.params for p in points}
    for point in record["points"]:
        halves = point["half_widths"]
        if halves is None:
            continue
        crude = point["estimator"] == "simulation"
        exact = AnalyticalEngine(params[point["point_id"]]).unsafety(
            point["times"]
        ).unsafety
        for t, value, half, analytical in zip(
            point["times"], point["values"], halves, exact
        ):
            if value - half <= 0:
                continue
            made += 1
            if crude:
                ok = abs(value - analytical) <= 3 * half + 0.5 * analytical
            else:
                ok = analytical / IS_FACTOR <= value <= analytical * IS_FACTOR
            if not ok:
                failures.append(
                    f"analytical: {point['point_id']} t={t:g}: "
                    f"{point['estimator']} estimate {value:.6g} +- "
                    f"{half:.3g} vs lumped {analytical:.6g}"
                )
    if reference is not None:
        made += 1
        got = digest(record)
        if got != reference:
            failures.append(f"digest: {got} != reference {reference}")
    return made, failures
