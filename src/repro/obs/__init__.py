"""Observability: traces, per-activity metrics, and profiling hooks.

The instrumentation layer spanning both SAN jump engines
(:class:`~repro.san.simulator.MarkovJumpSimulator`,
:class:`~repro.san.compiled.CompiledJumpEngine`), the event-driven
:class:`~repro.san.simulator.SANSimulator`, the
:class:`~repro.des.Environment` kernel, and the parallel runtime
(:mod:`repro.runtime`).  Three parts:

* **traces** (:mod:`~repro.obs.trace`) — bounded ring-buffer structured
  events (firings + marking deltas, maneuver escalations, catastrophic
  absorptions), exportable as JSONL via ``repro-cli trace``;
* **metrics** (:mod:`~repro.obs.metrics`) — mergeable per-activity firing
  counts, sojourn accumulators and absorption-cause histograms, pooled
  deterministically in chunk order by the parallel runtime and embedded
  in :meth:`~repro.runtime.telemetry.TelemetrySnapshot.to_dict`;
* **profiling** (:mod:`~repro.obs.profile`) — per-phase wall-time spans
  (compile / simulate / merge / cache) with a pluggable sink;
* **events + ledger** (:mod:`~repro.obs.events`,
  :mod:`~repro.obs.ledger`) — the typed structured-event bus
  (``repro-events/1``) the execution drivers announce run lifecycle,
  chunk completions, orchestrator rounds, cache traffic, and failures
  on, persisted as an append-only JSONL run ledger with an atomically
  rewritten ``status.json`` sidecar, chunk-failure forensic bundles
  (``repro-cli replay-chunk``), live tailing (``repro-cli watch``), and
  OpenMetrics export (:mod:`~repro.obs.openmetrics`,
  ``repro-cli metrics``).

The engine-facing *observer protocol* is duck-typed: any object with
``wants_deltas`` plus ``record_firing`` / ``record_absorption`` /
``record_run`` / ``record_des_event`` can be attached to an engine via
its ``observer`` parameter.  :class:`Observation` is the standard
implementation — it fans out to whichever recorders are enabled and
classifies absorptions into catastrophic situations.

**The hard invariant:** instrumentation never touches the RNG stream.
Estimates, draw counts, and importance-sampling likelihood-ratio weights
are bit-identical with observability on or off
(``tests/obs/test_invariance.py`` enforces this against the compiled-
equivalence model zoo), and engines guard every hook with a single
``observer is not None`` check so the uninstrumented hot path stays
unchanged.  See ``docs/observability.md``.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs.events import (
    EVENT_SCHEMA,
    BudgetStopped,
    CacheHit,
    CacheMiss,
    ChunkCompleted,
    ChunkFailed,
    ChunkRetried,
    ChunkScheduled,
    EventBus,
    RoundAllocated,
    RunFinished,
    RunStarted,
    TensorFallback,
    deterministic_run_id,
    validate_event,
    validate_events,
)
from repro.obs.ledger import (
    LedgerStatus,
    RunLedger,
    follow_events,
    forensic_bundle,
    read_events,
    replay_chunk,
)
from repro.obs.metrics import (
    MetricsRecorder,
    MetricSummary,
    RunningStats,
    base_activity_name,
    format_metrics_table,
    merge_metric_dicts,
    severity_classifier,
)
from repro.obs.openmetrics import render_openmetrics
from repro.obs.profile import PhaseProfiler, PhaseStats, profile_span
from repro.obs.trace import TraceEvent, TraceRecorder

__all__ = [
    "Observation",
    "EventBus",
    "EVENT_SCHEMA",
    "RunStarted",
    "ChunkScheduled",
    "ChunkCompleted",
    "ChunkRetried",
    "ChunkFailed",
    "RoundAllocated",
    "BudgetStopped",
    "CacheHit",
    "CacheMiss",
    "TensorFallback",
    "RunFinished",
    "RunLedger",
    "LedgerStatus",
    "deterministic_run_id",
    "validate_event",
    "validate_events",
    "read_events",
    "follow_events",
    "forensic_bundle",
    "replay_chunk",
    "render_openmetrics",
    "TraceEvent",
    "TraceRecorder",
    "MetricSummary",
    "MetricsRecorder",
    "RunningStats",
    "PhaseProfiler",
    "PhaseStats",
    "profile_span",
    "base_activity_name",
    "format_metrics_table",
    "merge_metric_dicts",
    "severity_classifier",
]


class Observation:
    """The standard observer: fans out to trace/metric recorders.

    Parameters
    ----------
    trace:
        Optional :class:`TraceRecorder` for structured trajectory events.
    metrics:
        Optional :class:`MetricsRecorder` for mergeable summaries.
    profiler:
        Optional :class:`PhaseProfiler`.  Not engine-facing — the
        driver (:class:`repro.runtime.ParallelRunner`, which
        :func:`repro.core.measures.unsafety` hands it) picks it up for
        its phase spans.
    classifier:
        ``marking → situation-name`` callable applied on absorption;
        defaults to :func:`~repro.obs.metrics.severity_classifier`
        (ST1/ST2/ST3 on the composed AHS model, ``None`` elsewhere).
        Classification happens at most once per replication — never in
        the jump loop — and reads the marking without drawing randomness.
    """

    def __init__(
        self,
        trace: Optional[TraceRecorder] = None,
        metrics: Optional[MetricsRecorder] = None,
        profiler: Optional[PhaseProfiler] = None,
        classifier: Optional[Callable] = severity_classifier,
    ) -> None:
        self.trace = trace
        self.metrics = metrics
        self.profiler = profiler
        self.classifier = classifier
        self.wants_deltas = trace is not None and trace.wants_deltas

    # ------------------------------------------------------------------
    # engine-facing observer protocol
    # ------------------------------------------------------------------
    def record_firing(
        self,
        name: str,
        when: float,
        sojourn: float,
        case: int,
        delta: Optional[dict] = None,
    ) -> None:
        if self.metrics is not None:
            self.metrics.record_firing(name, when, sojourn, case)
        if self.trace is not None:
            self.trace.record_firing(name, when, sojourn, case, delta)

    def record_absorption(self, cause: str, when: float, marking=None) -> None:
        situation = None
        if marking is not None and self.classifier is not None:
            situation = self.classifier(marking)
        if self.metrics is not None:
            self.metrics.note_absorption(cause, when, situation)
        if self.trace is not None:
            self.trace.note_absorption(cause, when, situation)

    def record_run(
        self, stopped: bool, stop_time: float, weight: float, end_time: float
    ) -> None:
        if self.metrics is not None:
            self.metrics.record_run(stopped, stop_time, weight, end_time)
        if self.trace is not None:
            self.trace.record_run(stopped, stop_time, weight, end_time)

    def record_des_event(self, when: float) -> None:
        if self.metrics is not None:
            self.metrics.record_des_event(when)
        if self.trace is not None:
            self.trace.record_des_event(when)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [
            name
            for name, part in (
                ("trace", self.trace),
                ("metrics", self.metrics),
                ("profiler", self.profiler),
            )
            if part is not None
        ]
        return f"Observation({'+'.join(parts) or 'off'})"
