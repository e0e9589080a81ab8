"""Fault-tolerant process-pool execution of replication plans.

:class:`ParallelRunner` is the execution layer between a stochastic model
and the :mod:`repro.stats` output analysis:

* **Monte-Carlo runs** (:meth:`ParallelRunner.run`): replications are
  sharded into :class:`~repro.runtime.plan.ChunkSpec` units, dispatched to
  a ``ProcessPoolExecutor``, reduced in-worker to
  :class:`~repro.runtime.merge.ChunkSummary` statistics and pooled in
  chunk order — so the estimate is bit-identical for any worker count.
  With a :class:`~repro.stats.SequentialStoppingRule` the driver operates
  in rounds: submit a round of chunks, merge, check the paper's
  relative-precision criterion, submit more.
* **Sweep maps** (:meth:`ParallelRunner.map`): independent point tasks
  (e.g. one analytical sweep point of a figure) evaluated across workers
  with the same retry and caching machinery.

Fault tolerance: a chunk whose worker raises, dies, or makes no progress
within ``chunk_timeout`` is retried on the pool up to ``max_retries``
times and then executed in-process by the driver — partial results are
never silently dropped.  Because replication streams are addressed by
global index (never by worker), retries cannot change the estimate.

Tasks must be picklable and implement the small
:class:`ReplicationTask` protocol (``build``/``sample``/``cache_token``);
sweep tasks are picklable callables with an optional ``cache_token``.
"""

from __future__ import annotations

import os
import time
import traceback as _traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.obs.events import (
    CacheHit,
    CacheMiss,
    ChunkCompleted,
    ChunkFailed,
    ChunkRetried,
    ChunkScheduled,
    EventBus,
    RunFinished,
    RunStarted,
)
from repro.obs.ledger import forensic_bundle
from repro.obs.profile import PhaseProfiler, profile_span
from repro.runtime import workerctx
from repro.runtime.cache import ResultCache, cache_key
from repro.runtime.merge import ChunkSummary, combine, pooled_intervals
from repro.runtime.plan import ChunkSpec, ReplicationPlan
from repro.runtime.telemetry import TelemetryRecorder, TelemetrySnapshot
from repro.stats.estimators import SequentialStoppingRule

__all__ = ["ReplicationTask", "ParallelResult", "ParallelRunner"]


@runtime_checkable
class ReplicationTask(Protocol):
    """What the runner needs from a Monte-Carlo workload.

    Implementations must be picklable (plain dataclasses of parameters);
    ``build`` runs once per chunk *inside the worker* and returns the
    heavy per-process context (model, simulator, predicate) that
    ``sample`` then uses for every replication of the chunk.
    """

    def build(self) -> Any:  # pragma: no cover - protocol
        ...

    def sample(self, context: Any, stream) -> "float | np.ndarray":  # pragma: no cover
        ...

    def cache_token(self) -> Any:  # pragma: no cover - protocol
        ...


@dataclass
class ParallelResult:
    """Merged outcome of a parallel Monte-Carlo run."""

    values: np.ndarray
    half_widths: np.ndarray
    n_replications: int
    converged: bool
    from_cache: bool
    telemetry: TelemetrySnapshot


# ----------------------------------------------------------------------
# worker-side entry points (module level so they pickle by reference)
# ----------------------------------------------------------------------
_WORKER_UID: Optional[tuple[int, str]] = None


def _worker_label() -> str:
    """Stable unique label of this worker process.

    ``pid-<pid>.<token>``: the random token is drawn once per process
    because the OS recycles pids — after a crash-restart a fresh worker
    can be handed a dead worker's pid, and keying per-worker telemetry
    by pid alone would silently merge the two workers' accounting.  The
    cached token is regenerated after a fork (the inherited cache
    carries the parent's pid, which no longer matches).
    """
    global _WORKER_UID
    pid = os.getpid()
    if _WORKER_UID is None or _WORKER_UID[0] != pid:
        _WORKER_UID = (pid, os.urandom(3).hex())
    return f"pid-{pid}.{_WORKER_UID[1]}"


def _chunk_id(key: Any) -> str:
    """Ledger chunk id of a job key (``(point, index)`` or bare index)."""
    if isinstance(key, tuple):
        return f"{key[0]}/chunk-{key[1]}"
    return f"chunk-{key}"


def _job_chunk_id(key: Any, fn: Callable) -> str:
    """Ledger id of any dispatchable job, grouped and point jobs included."""
    if fn in (_execute_chunk_group, _execute_chunk_group_tensorized):
        return f"group-{key}"
    if fn is _execute_point:
        return f"point-{key}"
    return _chunk_id(key)


def _execute_chunk(
    task: ReplicationTask,
    plan: ReplicationPlan,
    spec: ChunkSpec,
    cache: Optional[ResultCache] = None,
    key: Optional[str] = None,
) -> ChunkSummary:
    """Run one chunk of replications and reduce it to its summary.

    Contexts come from ``task.build_cached()`` when the task offers it
    (per-worker memoisation across chunks), events are reported as a
    before/after delta (cached simulators carry lifetime counters), and
    tasks exposing ``sample_batch``/``sample_into`` get the allocation-
    free sampling paths.

    Given a ``cache``, the summary is also persisted worker-side under
    ``key``.  The write is atomic (temp file + rename), so a worker
    killed mid-run leaves either a complete entry or none — an
    interrupted multi-round run can resume from exactly the chunks that
    finished.
    """
    started = time.perf_counter()
    build_cached = getattr(task, "build_cached", None)
    context = build_cached() if build_cached is not None else task.build()
    compile_seconds = float(getattr(context, "compile_seconds", 0.0))
    has_events = hasattr(task, "events_of")
    events_before = task.events_of(context) if has_events else 0
    streams = [
        plan.stream(replication) for replication in spec.replication_indices()
    ]
    supports_batch = getattr(task, "supports_batch", None)
    sample_into = getattr(task, "sample_into", None)
    if (
        hasattr(task, "sample_batch")
        and supports_batch is not None
        and supports_batch(context)
    ):
        samples = np.asarray(task.sample_batch(context, streams), dtype=float)
        if samples.ndim == 1:
            samples = samples[:, None]
    else:
        samples = None
        for position, stream in enumerate(streams):
            if samples is not None and sample_into is not None:
                sample_into(context, stream, samples[position])
                continue
            row = np.atleast_1d(
                np.asarray(task.sample(context, stream), dtype=float)
            )
            if samples is None:
                samples = np.empty((len(streams), row.shape[0]), dtype=float)
            samples[position] = row
    draws = sum(stream.draw_count for stream in streams)
    events = (task.events_of(context) - events_before) if has_events else 0
    metrics = task.metrics_of(context) if hasattr(task, "metrics_of") else None
    summary = ChunkSummary.from_samples(
        spec.index,
        samples,
        draws=draws,
        elapsed_seconds=time.perf_counter() - started,
        worker=_worker_label(),
        events=events,
        metrics=metrics,
        compile_seconds=compile_seconds,
    )
    if cache is not None:
        cache.put(key, summary.to_cache_dict())
    return summary


def _chunk_cache_key(
    task: ReplicationTask, plan: ReplicationPlan, spec: ChunkSpec
) -> str:
    """Content-addressed identity of one chunk's summary.

    Includes everything that determines the summary bit-for-bit: the task
    token, the plan's resolved entropy and chunk size, and the chunk's
    position.  Worker count, retry history and completion order are
    deliberately absent — they never change what a chunk computes.
    """
    return cache_key(
        {
            "kind": "chunk-summary",
            "task": task.cache_token(),
            "entropy": plan.entropy,
            "chunk_size": plan.chunk_size,
            "chunk": spec.index,
            "count": spec.count,
        }
    )


def _execute_chunk_group(
    subjobs: Sequence[tuple[Any, Callable, tuple]]
) -> list[tuple[Any, Any]]:
    """Run several prepared chunk jobs in one worker call.

    Sweep-level batching: instead of one pool task per chunk, a group of
    point-contiguous chunks rides in a single dispatch, amortising
    submit/pickle/result overhead across the whole sweep.  Each sub-job
    still runs the *identical* ``(fn, args)`` it would have run solo —
    per-worker context caches (``build_cached``) are shared within the
    group exactly as they are across sequential pool tasks — so every
    returned summary is bit-identical to per-chunk dispatch.
    """
    return [(key, fn(*args)) for key, fn, args in subjobs]


def _execute_chunk_group_tensorized(
    subjobs: Sequence[tuple[Any, Callable, tuple]]
) -> list[tuple[Any, Any]]:
    """Run a chunk group as one cross-point tensor where possible.

    The tensorized twin of :func:`_execute_chunk_group`: eligible chunk
    jobs (tasks exposing the ``tensorizable``/``tensor_spec``/
    ``samples_from_runs`` protocol with a stepped, observer-free
    context) are stacked into one
    :class:`~repro.san.multipoint.MultiPointContext` run — partitioned
    by the engines' bias flag, since biased and unbiased rows cannot
    share a cumulative-sum pass — and demultiplexed back into per-chunk
    :class:`ChunkSummary` objects in sub-job order.  Everything else
    (splitting tasks, metric-collecting chunks, non-stepped engines)
    runs its identical solo ``(fn, args)``.

    Bit-identity: each chunk's streams are addressed exactly as solo
    execution addresses them and the tensor keeps every row on its own
    stream, so samples, draws and events match per-chunk dispatch
    bit-for-bit.  Only ``elapsed_seconds`` differs in kind — the shared
    tensor's wall time is prorated over member chunks by row count
    (telemetry, never part of deterministic artifacts).
    """
    from repro.san.multipoint import MultiPointContext, MultiPointJob

    results: list[Optional[tuple[Any, Any]]] = [None] * len(subjobs)
    tensor_entries: list[tuple] = []
    for pos, (key, fn, args) in enumerate(subjobs):
        if fn is _execute_chunk:
            task = args[0]
            tensorizable = getattr(task, "tensorizable", None)
            if (
                tensorizable is not None
                and tensorizable()
                and hasattr(task, "build_cached")
                and hasattr(task, "tensor_spec")
                and hasattr(task, "samples_from_runs")
            ):
                context = task.build_cached()
                triple = task.tensor_spec(context)
                if triple is not None:
                    tensor_entries.append((pos, key, fn, args, context) + triple)
                    continue
        results[pos] = (key, fn(*args))

    # one tensor run per bias flag (unbiased first, for determinism)
    partitions: dict[bool, list[tuple]] = {}
    for entry in tensor_entries:
        engine = entry[5]
        partitions.setdefault(bool(engine.has_bias), []).append(entry)
    label = _worker_label()
    for _flag, entries in sorted(partitions.items()):
        jobs = []
        streams_of_entry = []
        for (_pos, _key, _fn, args, _context, engine, horizon,
             predicate) in entries:
            plan, spec = args[1], args[2]
            streams = [
                plan.stream(replication)
                for replication in spec.replication_indices()
            ]
            streams_of_entry.append(streams)
            jobs.append(MultiPointJob(engine, streams, horizon, predicate))
        started = time.perf_counter()
        runs_of_job = MultiPointContext(jobs).run()
        tensor_elapsed = time.perf_counter() - started
        total_rows = sum(len(streams) for streams in streams_of_entry) or 1
        for entry, streams, runs in zip(entries, streams_of_entry,
                                        runs_of_job):
            pos, key, _fn, args, context = entry[:5]
            task, _plan, spec, *cache_write = args
            samples = np.asarray(
                task.samples_from_runs(context, runs), dtype=float
            )
            if samples.ndim == 1:
                samples = samples[:, None]
            summary = ChunkSummary.from_samples(
                spec.index,
                samples,
                draws=sum(stream.draw_count for stream in streams),
                elapsed_seconds=tensor_elapsed * (len(streams) / total_rows),
                worker=label,
                events=sum(run.firings for run in runs),
                metrics=(
                    task.metrics_of(context)
                    if hasattr(task, "metrics_of") else None
                ),
                compile_seconds=float(
                    getattr(context, "compile_seconds", 0.0)
                ),
            )
            if cache_write and cache_write[0] is not None:
                cache, entry_key = cache_write
                cache.put(entry_key, summary.to_cache_dict())
            results[pos] = (key, summary)
    return results  # type: ignore[return-value]


def _execute_point(task: Callable[[], Any]) -> tuple[Any, str, float]:
    """Evaluate one sweep point; returns (value, worker label, elapsed)."""
    started = time.perf_counter()
    value = task()
    return value, _worker_label(), time.perf_counter() - started


def _jsonable(value: Any) -> Any:
    """Round-trip a point result through plain JSON types for caching."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


class ParallelRunner:
    """Chunked, cached, fault-tolerant executor for replication workloads.

    Parameters
    ----------
    workers:
        Process-pool size.  ``1`` runs everything in-process through the
        *same* chunk/merge path, so results match multi-worker runs
        bit-for-bit.
    chunk_size:
        Replications per dispatch unit (see
        :class:`~repro.runtime.plan.ReplicationPlan`).
    max_retries:
        Pool retries per chunk before the driver executes it in-process.
    chunk_timeout:
        Watchdog (seconds): if a round makes *no* progress for this long,
        outstanding chunks are treated as failed and retried.  ``None``
        disables the watchdog.
    cache:
        Optional :class:`~repro.runtime.cache.ResultCache`; hits skip
        execution entirely.
    chunk_cache:
        When True (and a ``cache`` is set), every completed chunk summary
        is additionally persisted under its own content-addressed key as
        it finishes.  A run interrupted between rounds — crash, kill,
        exhausted budget — then resumes from the cached chunks and
        produces bit-identical pooled estimates to an uninterrupted run.
        Off by default: it adds one small cache write per chunk.
    confidence:
        CI level for fixed-budget runs (rule-driven runs take it from the
        rule).
    profiler:
        Optional :class:`~repro.obs.profile.PhaseProfiler`; when given,
        the driver times its ``cache``, ``simulate`` and ``merge`` phases
        (driver-side wall time only — never inside the jump loop).
    events:
        Optional :class:`~repro.obs.events.EventBus`; when given, the
        driver announces run lifecycle, chunk scheduling/completions,
        retries, failures (with forensic repro bundles) and cache
        traffic as ``repro-events/1`` envelopes.  Emission is strictly
        driver-side bookkeeping — it never touches plans, streams or
        summaries, so results are bit-identical with the bus on or off.
    context_cache_size:
        Capacity of the per-worker-process compile-context FIFO
        (:mod:`repro.runtime.workerctx`; default
        ``workerctx.DEFAULT_MAX_ENTRIES``).  Applied to the driver
        process immediately and to worker processes via the pool
        initializer.  Evictions observable to the driver (serial runs
        and in-process fallbacks) emit a ``CacheMiss`` ledger event with
        scope ``worker-context``; worker-process evictions cannot be
        individually reported (workers carry no event bus).  Sizing
        never changes results — only how often contexts are rebuilt.
    """

    def __init__(
        self,
        workers: int = 1,
        chunk_size: int = 256,
        max_retries: int = 2,
        chunk_timeout: Optional[float] = None,
        cache: Optional[ResultCache] = None,
        confidence: float = 0.95,
        profiler: Optional[PhaseProfiler] = None,
        chunk_cache: bool = False,
        events: Optional[EventBus] = None,
        context_cache_size: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if context_cache_size is not None and context_cache_size < 1:
            raise ValueError(
                f"context_cache_size must be >= 1, got {context_cache_size}"
            )
        self.workers = int(workers)
        self.chunk_size = int(chunk_size)
        self.max_retries = int(max_retries)
        self.chunk_timeout = chunk_timeout
        self.cache = cache
        self.confidence = confidence
        self.profiler = profiler
        self.chunk_cache = bool(chunk_cache)
        self.events = events
        self.context_cache_size = (
            None if context_cache_size is None else int(context_cache_size)
        )
        self.last_telemetry: Optional[TelemetrySnapshot] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        workerctx.configure(self.context_cache_size)
        workerctx.set_eviction_hook(self._context_evicted)

    def _context_evicted(self, key: str) -> None:
        """Driver-process context-FIFO eviction → ``CacheMiss`` event."""
        if self.events is not None:
            self.events.emit(CacheMiss(scope="worker-context", key=key))

    # ------------------------------------------------------------------
    # ledger emission (no-ops without an attached EventBus)
    # ------------------------------------------------------------------
    def _emit(self, event) -> None:
        if self.events is not None:
            self.events.emit(event)

    def _emit_chunk_failed(
        self,
        key: Any,
        fn: Callable,
        args: tuple,
        exc: BaseException,
        attempt: Optional[int] = None,
    ) -> None:
        """Announce a job that exhausted its retries, with forensics.

        Plain chunk jobs get a full repro bundle (pickled task/plan/spec
        triple for ``repro-cli replay-chunk``); grouped and point jobs
        carry traceback-only forensics.
        """
        if self.events is None:
            return
        bundle = None
        if fn is _execute_chunk:
            bundle = forensic_bundle(args[0], args[1], args[2])
        tb = "".join(
            _traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
        self.events.emit(
            ChunkFailed(
                chunk_id=_job_chunk_id(key, fn),
                error=f"{type(exc).__name__}: {exc}",
                traceback=tb,
                attempt=attempt,
                bundle=bundle,
            )
        )

    # ------------------------------------------------------------------
    # pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=workerctx.initialize_worker,
                initargs=(self.context_cache_size,),
            )
        return self._pool

    def _reset_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def close(self) -> None:
        """Shut the worker pool down (idempotent) and flush cache stats."""
        workerctx.clear_eviction_hook(self._context_evicted)
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        if self.cache is not None:
            try:
                self.cache.flush_session()
            except OSError:  # pragma: no cover - read-only cache dir
                pass

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    def pop_telemetry(self) -> Optional[TelemetrySnapshot]:
        """The last run's telemetry, consumed (next call returns None)."""
        snapshot, self.last_telemetry = self.last_telemetry, None
        return snapshot

    # ------------------------------------------------------------------
    # fault-tolerant dispatch
    # ------------------------------------------------------------------
    def _dispatch(
        self,
        jobs: dict[Any, tuple[Callable, tuple]],
        telemetry: TelemetryRecorder,
    ) -> dict[Any, Any]:
        """Execute ``jobs`` (key -> (fn, args)), retrying failures.

        Serial when ``workers == 1``; otherwise pool dispatch with up to
        ``max_retries`` resubmissions per job and an in-process fallback,
        so every job produces a result or raises from the driver itself.
        """
        if self.workers <= 1:
            results = {}
            for key, (fn, args) in jobs.items():
                try:
                    results[key] = fn(*args)
                except Exception as exc:
                    self._emit_chunk_failed(key, fn, args, exc)
                    raise
            return results

        results: dict[Any, Any] = {}
        pending = dict(jobs)
        attempts = {key: 0 for key in jobs}

        def note_failure(key: Any, error: Optional[str] = None) -> None:
            if key not in pending:
                return  # satisfied elsewhere (fallback or late completion)
            attempts[key] += 1
            telemetry.record_retry()
            if attempts[key] <= self.max_retries:
                self._emit(
                    ChunkRetried(
                        chunk_id=_job_chunk_id(key, pending[key][0]),
                        attempt=attempts[key],
                        error=error,
                    )
                )
            else:
                # last resort: the driver computes the chunk itself so the
                # round always completes with every chunk accounted for
                telemetry.record_fallback()
                fn, args = pending.pop(key)
                try:
                    results[key] = fn(*args)
                except Exception as exc:
                    self._emit_chunk_failed(
                        key, fn, args, exc, attempt=attempts[key]
                    )
                    raise

        while pending:
            pool = self._ensure_pool()
            try:
                futures: dict[Future, Any] = {
                    pool.submit(fn, *args): key
                    for key, (fn, args) in pending.items()
                }
            except RuntimeError:
                # pool broken before submission — rebuild and try again
                self._reset_pool()
                for key in list(pending):
                    note_failure(key, error="worker pool broken at submit")
                continue

            broken = False
            outstanding = set(futures)
            while outstanding:
                done, outstanding = wait(
                    outstanding,
                    timeout=self.chunk_timeout,
                    return_when=FIRST_COMPLETED,
                )
                if not done:
                    # watchdog: no chunk finished within chunk_timeout —
                    # treat the stragglers as lost and retry them
                    for future in outstanding:
                        future.cancel()
                        note_failure(
                            futures[future],
                            error=(
                                "timeout: no chunk progress within "
                                f"{self.chunk_timeout}s"
                            ),
                        )
                    break
                for future in done:
                    key = futures[future]
                    if key not in pending:
                        continue  # already satisfied by a fallback
                    try:
                        result = future.result()
                    except Exception as exc:
                        if isinstance(exc, BrokenProcessPool):
                            broken = True
                        note_failure(key, error=f"{type(exc).__name__}: {exc}")
                    else:
                        results[key] = result
                        pending.pop(key, None)
            if broken:
                self._reset_pool()
        return results

    # ------------------------------------------------------------------
    # Monte-Carlo runs
    # ------------------------------------------------------------------
    def run(
        self,
        task: ReplicationTask,
        *,
        seed: Optional[int] = None,
        n_replications: Optional[int] = None,
        rule: Optional[SequentialStoppingRule] = None,
    ) -> ParallelResult:
        """Estimate the task's mean over replications.

        Exactly one of ``n_replications`` (fixed budget) and ``rule``
        (sequential stopping) must be given.  For a fixed ``seed`` the
        result is bit-identical for every ``workers`` setting.
        """
        if (rule is None) == (n_replications is None):
            raise ValueError("pass exactly one of n_replications / rule")
        if n_replications is not None and n_replications < 1:
            raise ValueError(f"n_replications must be >= 1, got {n_replications}")

        plan = ReplicationPlan(seed, chunk_size=self.chunk_size)
        confidence = rule.confidence if rule is not None else self.confidence
        engine = str(getattr(task, "engine", "") or "")
        telemetry = TelemetryRecorder(
            self.workers, unit="replications", engine=engine
        )
        telemetry.start()
        self._emit(
            RunStarted(
                kind="run",
                workers=self.workers,
                unit="replications",
                engine=engine,
                total=n_replications,
                max_total=None if rule is None else rule.max_replications,
                detail={
                    "seed_entropy": plan.entropy,
                    "chunk_size": plan.chunk_size,
                    "task": type(task).__name__,
                },
            )
        )

        key: Optional[str] = None
        if self.cache is not None:
            key = cache_key(
                {
                    "kind": "replication-run",
                    "task": task.cache_token(),
                    "entropy": plan.entropy,
                    "chunk_size": plan.chunk_size,
                    "confidence": confidence,
                    "n_replications": n_replications,
                    "rule": None
                    if rule is None
                    else {
                        "confidence": rule.confidence,
                        "relative_width": rule.relative_width,
                        "min_replications": rule.min_replications,
                        "max_replications": rule.max_replications,
                    },
                }
            )
            with profile_span(self.profiler, "cache"):
                record = self.cache.get(key)
            telemetry.record_cache(hit=record is not None)
            if self.events is not None:
                self._emit(
                    CacheHit(scope="run", key=key)
                    if record is not None
                    else CacheMiss(
                        scope="run", key=key, reason=self.cache.last_miss
                    )
                )
            if record is not None:
                telemetry.activity_metrics = record.get("activity_metrics")
                telemetry.finish()
                snapshot = telemetry.snapshot()
                self.last_telemetry = snapshot
                self._emit(
                    RunFinished(
                        outcome="cached",
                        units=int(record["n_replications"]),
                        converged=bool(record["converged"]),
                        telemetry=snapshot.to_dict()
                        if self.events is not None
                        else None,
                    )
                )
                return ParallelResult(
                    values=np.asarray(record["values"], dtype=float),
                    half_widths=np.asarray(record["half_widths"], dtype=float),
                    n_replications=int(record["n_replications"]),
                    converged=bool(record["converged"]),
                    from_cache=True,
                    telemetry=snapshot,
                )

        completed: dict[int, ChunkSummary] = {}
        done = 0
        converged = False
        try:
            if rule is None:
                self._run_window(
                    task, plan, 0, n_replications, completed, telemetry
                )
                done = n_replications
                converged = True
            else:
                round_size = plan.align_up(
                    min(rule.min_replications, rule.max_replications)
                )
                while done < rule.max_replications:
                    target = min(done + round_size, rule.max_replications)
                    self._run_window(
                        task, plan, done, target - done, completed, telemetry
                    )
                    done = target
                    with profile_span(self.profiler, "merge"):
                        pooled = combine(completed.values())
                    intervals = pooled_intervals(pooled, rule.confidence)
                    informative = [iv for iv in intervals if iv.mean > 0]
                    if informative and all(
                        rule.satisfied(iv) for iv in informative
                    ):
                        converged = True
                        break
        except Exception as exc:
            self._emit(
                RunFinished(
                    outcome="failed",
                    units=done,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
            raise

        with profile_span(self.profiler, "merge"):
            pooled = combine(completed.values())
        intervals = pooled_intervals(pooled, confidence)
        values = np.atleast_1d(pooled.mean)
        halves = np.asarray([iv.half_width for iv in intervals])
        telemetry.activity_metrics = pooled.metrics
        telemetry.finish()

        if key is not None:
            record = {
                "values": [float(v) for v in values],
                "half_widths": [float(h) for h in halves],
                "n_replications": done,
                "converged": converged,
            }
            if pooled.metrics is not None:
                record["activity_metrics"] = pooled.metrics
            with profile_span(self.profiler, "cache"):
                self.cache.put(key, record)
        snapshot = telemetry.snapshot()
        self.last_telemetry = snapshot
        if self.events is not None:
            self._emit(
                RunFinished(
                    outcome="ok",
                    units=done,
                    converged=converged,
                    telemetry=snapshot.to_dict(),
                )
            )
        return ParallelResult(
            values=values,
            half_widths=halves,
            n_replications=done,
            converged=converged,
            from_cache=False,
            telemetry=snapshot,
        )

    def _run_window(
        self,
        task: ReplicationTask,
        plan: ReplicationPlan,
        start: int,
        count: int,
        completed: dict[int, ChunkSummary],
        telemetry: TelemetryRecorder,
    ) -> None:
        specs = plan.chunks(start, count)
        jobs, cached = self.chunk_jobs(task, plan, specs, telemetry)
        for summary in cached:
            completed[summary.chunk_index] = summary
        with profile_span(self.profiler, "simulate"):
            dispatched = self._dispatch(jobs, telemetry)
        for job_key, summary in dispatched.items():
            telemetry.record_chunk(
                summary.worker,
                summary.n,
                draws=summary.draws,
                busy_seconds=summary.elapsed_seconds,
                events=summary.events,
            )
            self._emit(
                ChunkCompleted(
                    chunk_id=_chunk_id(job_key),
                    n=summary.n,
                    worker=summary.worker,
                    elapsed_seconds=summary.elapsed_seconds,
                    events=summary.events,
                    draws=summary.draws,
                )
            )
            if self.profiler is not None and summary.compile_seconds > 0.0:
                # worker-side model build/compile time, carried home on the
                # summary; cached contexts report 0.0, so a multi-round run
                # shows at most one compile span per worker process
                self.profiler.add("compile", summary.compile_seconds)
            completed[summary.chunk_index] = summary

    # ------------------------------------------------------------------
    # chunk-level building blocks (also used by repro.orchestrate)
    # ------------------------------------------------------------------
    def chunk_jobs(
        self,
        task: ReplicationTask,
        plan: ReplicationPlan,
        specs: Sequence[ChunkSpec],
        telemetry: TelemetryRecorder,
        key_prefix: Any = None,
    ) -> tuple[dict[Any, tuple[Callable, tuple]], list[ChunkSummary]]:
        """Split chunk specs into dispatchable jobs and cached summaries.

        With :attr:`chunk_cache` enabled, already-computed chunks are
        restored from the cache (counted as telemetry cache hits) and the
        remaining jobs persist their summary worker-side as they finish.
        ``key_prefix`` namespaces the job keys so multiple tasks' chunks
        can ride in one :meth:`execute_jobs` dispatch.
        """
        jobs: dict[Any, tuple[Callable, tuple]] = {}
        cached: list[ChunkSummary] = []
        use_cache = self.chunk_cache and self.cache is not None
        point_id = None if key_prefix is None else str(key_prefix)
        for spec in specs:
            job_key = (
                spec.index if key_prefix is None else (key_prefix, spec.index)
            )
            if use_cache:
                entry_key = _chunk_cache_key(task, plan, spec)
                with profile_span(self.profiler, "cache"):
                    summary = self.cache.get(
                        entry_key, decode=ChunkSummary.from_cache_dict
                    )
                telemetry.record_cache(hit=summary is not None)
                if self.events is not None:
                    self._emit(
                        CacheHit(
                            scope="chunk",
                            chunk_id=_chunk_id(job_key),
                            key=entry_key,
                        )
                        if summary is not None
                        else CacheMiss(
                            scope="chunk",
                            chunk_id=_chunk_id(job_key),
                            key=entry_key,
                            reason=self.cache.last_miss,
                        )
                    )
                if summary is not None:
                    cached.append(summary)
                    continue
                args = (task, plan, spec, self.cache, entry_key)
            else:
                args = (task, plan, spec)
            jobs[job_key] = (_execute_chunk, args)
            self._emit(
                ChunkScheduled(
                    chunk_id=_chunk_id(job_key),
                    start=spec.start,
                    count=spec.count,
                    point_id=point_id,
                )
            )
        return jobs, cached

    def execute_jobs(
        self,
        jobs: dict[Any, tuple[Callable, tuple]],
        telemetry: TelemetryRecorder,
    ) -> dict[Any, Any]:
        """Dispatch prepared jobs through the fault-tolerant pool machinery.

        Public entry point for drivers (the adaptive orchestrator) that
        schedule chunks from *several* tasks in one round: retries,
        watchdog and in-process fallback behave exactly as in
        :meth:`run`.
        """
        return self._dispatch(jobs, telemetry)

    def execute_jobs_grouped(
        self,
        jobs: dict[Any, tuple[Callable, tuple]],
        telemetry: TelemetryRecorder,
        group_size: Optional[int] = None,
        tensorize: bool = False,
    ) -> dict[Any, Any]:
        """Dispatch prepared jobs in contiguous groups (sweep batching).

        Jobs are sliced in insertion order — the orchestrator emits them
        point-contiguously, so a group usually holds chunks of one or a
        few neighbouring sweep points and each worker reuses its memoised
        task context across the whole slice.  ``group_size`` defaults to
        ``ceil(len(jobs) / (workers * 2))``: every worker gets about two
        groups per round, enough slack for the pool to load-balance while
        still amortising dispatch overhead.

        Grouping is pure scheduling: each sub-job runs the identical
        ``(fn, args)`` it would run solo, so results are bit-identical to
        :meth:`execute_jobs` for any group size.  Retries, watchdog and
        in-process fallback act on whole groups through the same
        :meth:`_dispatch` machinery.

        ``tensorize`` routes each group through
        :func:`_execute_chunk_group_tensorized`, which stacks the
        group's eligible chunks into one cross-point SoA tensor run
        (see :mod:`repro.san.multipoint`); ineligible sub-jobs run solo
        inside the group unchanged.  Results stay bit-identical; groups
        default to one per worker — wider tensors amortise more
        per-step overhead — and the serial runner tensorizes too (the
        win is kernel-level, not scheduling-level).
        """
        group_fn: Callable = (
            _execute_chunk_group_tensorized if tensorize
            else _execute_chunk_group
        )
        if not tensorize and (self.workers <= 1 or len(jobs) <= 1):
            return self._dispatch(jobs, telemetry)
        items = list(jobs.items())
        if group_size is None:
            if tensorize:
                group_size = -(-len(items) // max(1, self.workers))
            else:
                group_size = -(-len(items) // (self.workers * 2))
        group_size = max(1, int(group_size))
        grouped: dict[int, tuple[Callable, tuple]] = {}
        for start in range(0, len(items), group_size):
            subjobs = tuple(
                (key, fn, args)
                for key, (fn, args) in items[start:start + group_size]
            )
            grouped[start] = (group_fn, (subjobs,))
        results: dict[Any, Any] = {}
        for pairs in self._dispatch(grouped, telemetry).values():
            results.update(pairs)
        return results

    # ------------------------------------------------------------------
    # sweep maps
    # ------------------------------------------------------------------
    def map(self, tasks: Sequence[Callable[[], Any]]) -> list[Any]:
        """Evaluate independent point tasks, preserving input order.

        Tasks exposing ``cache_token()`` participate in result caching;
        the rest are always computed.
        """
        telemetry = TelemetryRecorder(self.workers, unit="points")
        telemetry.start()
        self._emit(
            RunStarted(
                kind="map",
                workers=self.workers,
                unit="points",
                total=len(tasks),
            )
        )
        results: list[Any] = [None] * len(tasks)
        keys: dict[int, str] = {}
        jobs: dict[int, tuple[Callable, tuple]] = {}
        for index, task in enumerate(tasks):
            if self.cache is not None and hasattr(task, "cache_token"):
                key = cache_key({"kind": "sweep-point", "task": task.cache_token()})
                record = self.cache.get(key)
                telemetry.record_cache(hit=record is not None)
                if self.events is not None:
                    self._emit(
                        CacheHit(
                            scope="point",
                            chunk_id=f"point-{index}",
                            key=key,
                        )
                        if record is not None
                        else CacheMiss(
                            scope="point",
                            chunk_id=f"point-{index}",
                            key=key,
                            reason=self.cache.last_miss,
                        )
                    )
                if record is not None:
                    results[index] = record["value"]
                    continue
                keys[index] = key
            jobs[index] = (_execute_point, (task,))
        try:
            dispatched = self._dispatch(jobs, telemetry)
        except Exception as exc:
            self._emit(
                RunFinished(
                    outcome="failed",
                    units=0,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
            raise
        for index, (value, worker, elapsed) in dispatched.items():
            telemetry.record_chunk(worker, 1, busy_seconds=elapsed)
            self._emit(
                ChunkCompleted(
                    chunk_id=f"point-{index}",
                    n=1,
                    worker=worker,
                    elapsed_seconds=elapsed,
                )
            )
            results[index] = value
            if index in keys:
                self.cache.put(keys[index], {"value": _jsonable(value)})
        telemetry.finish()
        snapshot = telemetry.snapshot()
        self.last_telemetry = snapshot
        if self.events is not None:
            self._emit(
                RunFinished(
                    outcome="ok",
                    units=len(tasks),
                    telemetry=snapshot.to_dict(),
                )
            )
        return results

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParallelRunner(workers={self.workers}, "
            f"chunk_size={self.chunk_size}, "
            f"cache={'on' if self.cache is not None else 'off'})"
        )
