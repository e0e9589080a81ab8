"""Typed structured-event bus: the vocabulary of the run ledger.

Every inspectable thing the execution layers do — scheduling a chunk,
completing it, retrying it after a worker death, allocating a round,
stopping on a budget — is announced as one of the typed events below.
An :class:`EventBus` stamps each event with a monotonically increasing
sequence number, the run id, and a wall-clock timestamp, and fans the
resulting JSON-serialisable *envelope* out to its sinks (typically a
:class:`~repro.obs.ledger.RunLedger`).

The envelope is a stable, versioned schema (``repro-events/1``)::

    {"schema": "repro-events/1", "run_id": "run-1f0c...", "seq": 12,
     "ts": 1719490000.123, "event": "ChunkCompleted",
     "data": {"chunk_id": "chunk-3", "n": 256, ...}}

:data:`EVENT_SCHEMA` publishes the shape as a JSON-Schema document and
:func:`validate_event` / :func:`validate_events` enforce it without any
third-party dependency — the CI ledger gate runs them over every emitted
line (``repro-cli ledger validate``).

**The hard invariant carries over from the rest of** :mod:`repro.obs`:
events are emitted driver-side only, never draw randomness, and never
touch markings or streams — estimates and ``repro-estimates/1``
artifacts are byte-identical with the bus attached or not
(``tests/obs/test_invariance.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Iterable, Optional

__all__ = [
    "SCHEMA_ID",
    "EVENT_TYPES",
    "EVENT_SCHEMA",
    "EventBus",
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
    "deterministic_run_id",
    "validate_event",
    "validate_events",
]

#: the versioned envelope schema identifier
SCHEMA_ID = "repro-events/1"


# ----------------------------------------------------------------------
# the typed events
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Event:
    """Base class: an event is a frozen dataclass of plain JSON values."""

    def payload(self) -> dict:
        """The ``data`` section of the envelope (None fields dropped)."""
        record = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if value is not None:
                record[spec.name] = value
        return record


@dataclass(frozen=True)
class RunStarted(_Event):
    """A run began: what is being estimated and with what resources.

    ``kind`` distinguishes the feeding driver: ``"run"`` (ParallelRunner
    Monte-Carlo, which :func:`repro.core.measures.unsafety` uses for
    every simulation method), ``"map"`` (sweep map), ``"orchestrate"``
    (adaptive round loop).  ``total`` is the planned unit count when
    known up front (fixed budgets); rule-driven runs carry ``max_total``
    instead.
    """

    kind: str
    workers: int = 1
    unit: str = "replications"
    engine: str = ""
    total: Optional[int] = None
    max_total: Optional[int] = None
    label: Optional[str] = None
    #: free-form driver context (budget dict, estimator routing, seed)
    detail: Optional[dict] = None


@dataclass(frozen=True)
class ChunkScheduled(_Event):
    """A chunk of replications was prepared for dispatch."""

    chunk_id: str
    start: int
    count: int
    point_id: Optional[str] = None


@dataclass(frozen=True)
class ChunkCompleted(_Event):
    """A chunk's summary landed back at the driver."""

    chunk_id: str
    n: int
    worker: str = ""
    elapsed_seconds: float = 0.0
    events: int = 0
    draws: int = 0
    point_id: Optional[str] = None


@dataclass(frozen=True)
class ChunkRetried(_Event):
    """A chunk attempt failed and was resubmitted to the pool."""

    chunk_id: str
    attempt: int
    error: Optional[str] = None


@dataclass(frozen=True)
class ChunkFailed(_Event):
    """A chunk exhausted its retries (or died on the serial path).

    ``bundle`` is the forensic repro bundle built by
    :func:`repro.obs.ledger.forensic_bundle` — seed path, chunk
    identity, pickled task — that ``repro-cli replay-chunk`` feeds back
    through the serial executor.
    """

    chunk_id: str
    error: str
    traceback: Optional[str] = None
    attempt: Optional[int] = None
    bundle: Optional[dict] = None


@dataclass(frozen=True)
class RoundAllocated(_Event):
    """The orchestrator awarded one round of replications."""

    round: int
    awards: dict = field(default_factory=dict)
    spent: int = 0
    widest_relative_ci: Optional[float] = None
    converged_points: Optional[int] = None


@dataclass(frozen=True)
class BudgetStopped(_Event):
    """The orchestrator's budget ledger ended the run."""

    reason: str
    spent: int = 0
    rounds: int = 0


@dataclass(frozen=True)
class CacheHit(_Event):
    """A content-addressed cache lookup hit.

    ``scope`` is ``"run"`` (whole-run record), ``"chunk"`` (resumable
    chunk summary) or ``"point"`` (sweep-map point).
    """

    scope: str
    chunk_id: Optional[str] = None
    key: Optional[str] = None


@dataclass(frozen=True)
class CacheMiss(_Event):
    """A content-addressed cache lookup missed.

    ``reason`` says why a result-cache lookup missed: ``"absent"`` (no
    entry), ``"corrupt"`` (an entry that is not a decodable record) or
    ``"key-mismatch"`` (a record stored under another key).  It is None
    for worker-context evictions.
    """

    scope: str
    chunk_id: Optional[str] = None
    key: Optional[str] = None
    reason: Optional[str] = None


@dataclass(frozen=True)
class TensorFallback(_Event):
    """A tensorized dispatch degraded to per-point execution.

    ``rule`` is the static-analyzer rule ID the condition lints under
    (``TZ001`` — the same finding ``repro-cli lint`` predicts before
    dispatch); ``reason`` is the dispatch-time explanation, matching the
    UserWarning text.  ``engine`` names the engine that was requested.
    """

    rule: str
    reason: str
    engine: Optional[str] = None


@dataclass(frozen=True)
class RunFinished(_Event):
    """The run ended; carries the final telemetry snapshot.

    ``outcome`` is ``"ok"``, ``"failed"`` (an exception escaped the
    driver — forensics live in the preceding ``ChunkFailed`` events) or
    ``"cached"`` (the whole run was served from the result cache).
    """

    outcome: str
    units: int = 0
    converged: Optional[bool] = None
    error: Optional[str] = None
    telemetry: Optional[dict] = None


#: event name -> dataclass, the complete ``repro-events/1`` vocabulary
EVENT_TYPES: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        RunStarted,
        ChunkScheduled,
        ChunkCompleted,
        ChunkRetried,
        ChunkFailed,
        RoundAllocated,
        BudgetStopped,
        CacheHit,
        CacheMiss,
        TensorFallback,
        RunFinished,
    )
}

#: per-event required fields of the ``data`` section, with the accepted
#: python types (the hand-rolled validator below checks these; the
#: JSON-Schema rendering in EVENT_SCHEMA mirrors them for external tools)
_REQUIRED_DATA: dict[str, dict[str, tuple]] = {
    "RunStarted": {"kind": (str,), "workers": (int,), "unit": (str,)},
    "ChunkScheduled": {"chunk_id": (str,), "start": (int,), "count": (int,)},
    "ChunkCompleted": {
        "chunk_id": (str,),
        "n": (int,),
        "worker": (str,),
        "elapsed_seconds": (int, float),
    },
    "ChunkRetried": {"chunk_id": (str,), "attempt": (int,)},
    "ChunkFailed": {"chunk_id": (str,), "error": (str,)},
    "RoundAllocated": {"round": (int,), "awards": (dict,), "spent": (int,)},
    "BudgetStopped": {"reason": (str,), "spent": (int,), "rounds": (int,)},
    "CacheHit": {"scope": (str,)},
    "CacheMiss": {"scope": (str,)},
    "TensorFallback": {"rule": (str,), "reason": (str,)},
    "RunFinished": {"outcome": (str,), "units": (int,)},
}

_JSON_TYPE_NAMES = {
    str: "string",
    int: "integer",
    float: "number",
    dict: "object",
    bool: "boolean",
}


def _data_schema(name: str) -> dict:
    required = _REQUIRED_DATA[name]
    properties = {}
    for key, types in required.items():
        kinds = [_JSON_TYPE_NAMES[t] for t in types]
        properties[key] = (
            {"type": kinds[0]} if len(kinds) == 1 else {"type": kinds}
        )
    return {
        "type": "object",
        "required": sorted(required),
        "properties": properties,
    }


#: JSON-Schema document for one ``repro-events/1`` envelope line
EVENT_SCHEMA: dict = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "https://repro-ahs.invalid/schemas/repro-events-1.json",
    "title": "repro-events/1 ledger line",
    "type": "object",
    "required": ["schema", "run_id", "seq", "ts", "event", "data"],
    "properties": {
        "schema": {"const": SCHEMA_ID},
        "run_id": {"type": "string", "minLength": 1},
        "seq": {"type": "integer", "minimum": 0},
        "ts": {"type": "number"},
        "event": {"enum": sorted(EVENT_TYPES)},
        "data": {"type": "object"},
    },
    "allOf": [
        {
            "if": {"properties": {"event": {"const": name}}},
            "then": {"properties": {"data": _data_schema(name)}},
        }
        for name in sorted(EVENT_TYPES)
    ],
}


# ----------------------------------------------------------------------
# validation (dependency-free; mirrors EVENT_SCHEMA)
# ----------------------------------------------------------------------
def validate_event(record: Any) -> list[str]:
    """Schema errors of one envelope line (empty list = valid)."""
    errors: list[str] = []
    if not isinstance(record, dict):
        return [f"line is not an object: {type(record).__name__}"]
    if record.get("schema") != SCHEMA_ID:
        errors.append(
            f"schema is {record.get('schema')!r}, expected {SCHEMA_ID!r}"
        )
    run_id = record.get("run_id")
    if not isinstance(run_id, str) or not run_id:
        errors.append("run_id must be a non-empty string")
    seq = record.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        errors.append("seq must be a non-negative integer")
    if not isinstance(record.get("ts"), (int, float)):
        errors.append("ts must be a number")
    name = record.get("event")
    if name not in EVENT_TYPES:
        errors.append(f"unknown event {name!r}")
        return errors
    data = record.get("data")
    if not isinstance(data, dict):
        errors.append("data must be an object")
        return errors
    for key, types in _REQUIRED_DATA[name].items():
        if key not in data:
            errors.append(f"{name}.data missing required field {key!r}")
        elif not isinstance(data[key], types) or isinstance(data[key], bool):
            if bool in types and isinstance(data[key], bool):
                continue
            errors.append(
                f"{name}.data.{key} has type {type(data[key]).__name__}, "
                f"expected {'/'.join(t.__name__ for t in types)}"
            )
    return errors


def validate_events(records: Iterable[Any]) -> list[str]:
    """Schema errors across a whole ledger, with per-run sequence checks.

    On top of per-line validation: sequence numbers must be strictly
    increasing within a run, the first event of a run must be
    ``RunStarted``, and at most one ``RunFinished`` may close it.
    """
    errors: list[str] = []
    last_seq: dict[str, int] = {}
    finished: set[str] = set()
    for position, record in enumerate(records):
        line_errors = validate_event(record)
        errors.extend(f"line {position}: {e}" for e in line_errors)
        if line_errors:
            continue
        run_id = record["run_id"]
        seq = record["seq"]
        if run_id not in last_seq and record["event"] != "RunStarted":
            errors.append(
                f"line {position}: run {run_id} opens with "
                f"{record['event']}, expected RunStarted"
            )
        if run_id in last_seq and seq <= last_seq[run_id]:
            errors.append(
                f"line {position}: seq {seq} not increasing for run "
                f"{run_id} (last {last_seq[run_id]})"
            )
        last_seq[run_id] = seq
        if record["event"] == "RunFinished":
            if run_id in finished:
                errors.append(
                    f"line {position}: run {run_id} finished twice"
                )
            finished.add(run_id)
    return errors


# ----------------------------------------------------------------------
# run identity
# ----------------------------------------------------------------------
def deterministic_run_id(token: Any) -> str:
    """A stable run id derived from what the run computes.

    Uses the same canonical fingerprint as the content-addressed result
    cache, so the id depends only on the run's defining inputs (task
    parameters, seed, budget) — never on wall time, worker count or pid.
    A resumed/interrupted run therefore appends to the *same* logical
    run identity.
    """
    from repro.runtime.cache import cache_key

    return f"run-{cache_key({'kind': 'run-ledger', 'token': token})[:16]}"


# ----------------------------------------------------------------------
# the bus
# ----------------------------------------------------------------------
class EventBus:
    """Stamps typed events into envelopes and fans them out to sinks.

    Parameters
    ----------
    run_id:
        The ledger key of this run; build it with
        :func:`deterministic_run_id` for resumable identities.
    sinks:
        Callables receiving each envelope dict.  A
        :class:`~repro.obs.ledger.RunLedger` is the standard sink; tests
        use plain lists via ``bus.subscribe(records.append)``.
    clock:
        Injectable wall-clock source (tests).

    Emission is synchronous and exception-safe only in the sense that
    sink errors propagate — a ledger that cannot be written is a real
    failure, not something to swallow silently.
    """

    def __init__(
        self,
        run_id: str,
        sinks: Optional[Iterable[Callable[[dict], None]]] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if not run_id:
            raise ValueError("run_id must be non-empty")
        self.run_id = str(run_id)
        self._sinks: list[Callable[[dict], None]] = list(sinks or ())
        self._clock = clock
        self._seq = 0

    def subscribe(self, sink: Callable[[dict], None]) -> None:
        """Attach another sink (receives every subsequent envelope)."""
        self._sinks.append(sink)

    @property
    def events_emitted(self) -> int:
        return self._seq

    def emit(self, event: _Event) -> dict:
        """Wrap ``event`` in an envelope and deliver it to every sink."""
        name = type(event).__name__
        if name not in EVENT_TYPES:
            raise TypeError(f"not a ledger event: {type(event)!r}")
        envelope = {
            "schema": SCHEMA_ID,
            "run_id": self.run_id,
            "seq": self._seq,
            "ts": float(self._clock()),
            "event": name,
            "data": event.payload(),
        }
        self._seq += 1
        for sink in self._sinks:
            sink(envelope)
        return envelope

    def close(self) -> None:
        """Close every sink that supports it (idempotent)."""
        for sink in self._sinks:
            close = getattr(sink, "close", None)
            if callable(close):
                close()

    def __enter__(self) -> "EventBus":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EventBus(run_id={self.run_id!r}, sinks={len(self._sinks)}, "
            f"emitted={self._seq})"
        )
