"""Vectorization report (rules VEC001-VEC003).

Runs the stepped engine's lowering pass in diagnose mode (nothing is
simulated) and reports which timed activities lowered to fused NumPy
column kernels and which fell back to per-row compiled closures — with
the recorded ``_CannotLower`` reason, so a perf cliff shows up in lint
output instead of silently costing a batch-size worth of throughput.
"""

from __future__ import annotations

import re
from typing import Iterator, Optional

from repro.analysis.diagnostics import Diagnostic
from repro.san.model import SANModel

__all__ = ["check_vectorization", "lowering_summary"]

#: Rep replica suffix ("leave1[7]" -> "leave1") for deduplication
_REPLICA_SUFFIX = re.compile(r"\[\d+\]$")

#: warn when at least this fraction of timed activities falls back
_FALLBACK_WARN_FRACTION = 0.5


def lowering_summary(model: SANModel) -> Optional[dict]:
    """``{stats, reasons}`` from a diagnose-mode stepped compile.

    The stepped engine subsumes the batched compile pass, so its stats
    carry the batched lowering coverage plus the stepped-only figures:
    ``fire_cases``/``fire_lowered`` (delta-program firing coverage),
    ``insta_lowered`` (instantaneous gate conjunctions),
    ``insta_groups``/``insta_tabulated`` (instantaneous gate-code
    groups, and those served by direct-address tables) and
    ``groups_tabulated`` (refresh groups served by direct-address
    tables).  Returns None when the model cannot go through the batch
    compile pass at all (non-exponential activities, or NumPy missing).
    """
    try:
        from repro.san.stepped import SteppedJumpEngine
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        return None
    if not model.timed_activities or not model.is_markovian:
        return None
    engine = SteppedJumpEngine(model, diagnose=True)
    return {
        "stats": engine.lowering_stats(),
        "reasons": dict(engine.fallback_reasons),
    }


def check_vectorization(model: SANModel) -> Iterator[Diagnostic]:
    """Run VEC001-VEC003 via a diagnose-mode batched compile."""
    summary = lowering_summary(model)
    if summary is None:
        reason = (
            "no timed activities"
            if not model.timed_activities
            else "non-exponential timed activities"
        )
        yield Diagnostic(
            "VEC003",
            f"stepped engine not applicable ({reason}); "
            f"vectorization report skipped",
        )
        return
    stats = summary["stats"]
    reasons: dict[str, str] = summary["reasons"]
    # Replicas of one submodel activity share gate code and therefore a
    # fallback reason: fold them into one diagnostic with a count.
    grouped: dict[tuple[str, str], int] = {}
    for name, reason in sorted(reasons.items()):
        base = _REPLICA_SUFFIX.sub("", name)
        grouped[(base, reason)] = grouped.get((base, reason), 0) + 1
    for (base, reason), count in grouped.items():
        yield Diagnostic(
            "VEC001",
            f"falls back to the scalar per-row path: {reason}",
            activity=base,
            count=count,
        )
    timed = stats.get("timed_activities", 0)
    fallback = stats.get("fallback", 0)
    if timed > 0 and fallback / timed >= _FALLBACK_WARN_FRACTION:
        yield Diagnostic(
            "VEC002",
            f"{fallback}/{timed} timed activities are not vectorized; "
            f"the stepped engine will run mostly on the per-row "
            f"fallback, forfeiting its throughput advantage",
        )
