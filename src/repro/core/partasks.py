"""Picklable workload tasks for the parallel runtime.

These are the bridge between the AHS models and
:class:`repro.runtime.ParallelRunner`: small frozen dataclasses that ship
cheaply to worker processes, rebuild the heavy objects (composed SAN,
simulator, analytical engine) worker-side, and expose stable
``cache_token`` structures for the content-addressed result cache.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.parameters import AHSParameters
from repro.runtime import workerctx
from repro.san.compiled import DEFAULT_ENGINE

__all__ = [
    "UnsafetySimulationTask",
    "ImportanceSimulationTask",
    "SplittingReplicationTask",
    "AnalyticalCurveTask",
]


class _SimContext(NamedTuple):
    """Per-chunk worker context for :class:`UnsafetySimulationTask`."""

    simulator: object
    predicate: object
    times: np.ndarray
    horizon: float
    recorder: object = None
    #: wall time spent building the model + engine (0.0 on cache hits,
    #: so the driver's compile span counts each worker's compile once)
    compile_seconds: float = 0.0
    #: chunk-lifetime scratch for the per-replication indicator mask
    scratch_mask: object = None


#: worker-process memo of built contexts, keyed by the task cache token.
#: Sequential-stopping runs dispatch many chunks of the *same* task to
#: each worker; without this memo every chunk re-runs
#: ``build_composed_model`` + ``make_jump_engine``.  Bounded (FIFO) so a
#: long-lived worker sweeping many parameter points cannot hoard models.
#: Storage and size policy live in :mod:`repro.runtime.workerctx` so the
#: driver can size the FIFO (``ParallelRunner(context_cache_size=...)``)
#: and observe evictions as ``CacheMiss`` ledger events; this alias (and
#: the default-capacity constant) remain for direct inspection.
_CONTEXT_CACHE: dict[str, _SimContext] = workerctx.cache()
_CONTEXT_CACHE_MAX = workerctx.DEFAULT_MAX_ENTRIES


def _observation(task) -> tuple:
    """``(recorder, observer)`` a task's engine is built with.

    A task's in-process ``observer`` is attached as is (it records
    straight into the caller's recorders); otherwise ``metrics`` gives
    the chunk its own :class:`~repro.obs.metrics.MetricsRecorder`,
    whose summary :meth:`metrics_of` ships home.
    """
    if task.observer is not None:
        return None, task.observer
    if not task.metrics:
        return None, None
    from repro.obs import MetricsRecorder, Observation

    recorder = MetricsRecorder(level=task.metrics_level)
    return recorder, Observation(metrics=recorder)


def _build_cached(task):
    """Worker-side context, memoised per process by cache token.

    Observed and metric-collecting tasks bypass the memo: a memoised
    engine would keep feeding one run's recorders in later runs, so
    each chunk needs a fresh one.  Cache hits report ``compile_seconds == 0.0`` — over a
    multi-round run the profiler's compile span then totals one compile
    per worker.
    """
    if task.metrics or task.observer is not None:
        return task.build()
    from repro.runtime.cache import cache_key

    key = cache_key({"kind": "worker-context", "task": task.cache_token()})
    context = workerctx.get(key)
    if context is not None:
        return context._replace(compile_seconds=0.0)
    context = task.build()
    workerctx.put(key, context)
    return context


def _metrics_of(context):
    """A chunk's serialised metric summary (None when disabled)."""
    if context.recorder is None:
        return None
    return context.recorder.summary().to_dict()


def _drop_observer(task) -> dict:
    """Pickle state of a task without its in-process ``observer``.

    Observers belong to the caller's process (their recorders are live
    objects), so forensic bundles and pool submissions carry the task
    alone; an unpickled task has ``observer=None``.
    """
    state = dict(task.__dict__)
    state["observer"] = None
    return state


@dataclass(frozen=True)
class UnsafetySimulationTask:
    """Crude Monte-Carlo estimation of S(t) on the composed SAN.

    One replication simulates the jump chain to the trip horizon and
    returns the per-time unsafe indicator (weighted, so the same task
    works for importance-sampled variants built on top).

    ``engine`` selects the jump executor (see
    :data:`repro.san.compiled.ENGINES`; the default is
    :data:`~repro.san.compiled.DEFAULT_ENGINE`, the stepped engine,
    whose chunks run through :meth:`sample_batch`).  All engines are
    seed-identical, so results stay reproducible across a switch.  The
    cache token still carries the engine name, so a suspected
    discrepancy can be bisected without cache pollution; the price is
    that chunks cached under one engine miss once under another.

    ``metrics`` attaches a per-chunk
    :class:`~repro.obs.metrics.MetricsRecorder` worker-side; the runtime
    ships each chunk's summary home and merges them in chunk-index order,
    so the pooled metrics are identical for any worker count.  The flag
    joins the cache token only when enabled, keeping existing metric-less
    cache entries valid.

    ``observer`` attaches an observability hook (typically
    :class:`repro.obs.Observation`) to the engine itself, for in-process
    runs only: traces and metrics then land in the caller's recorders
    exactly as on an engine built by hand.  It is left out of the cache
    token, equality, hashing and pickles (a worker never sees it).
    """

    params: AHSParameters
    times: tuple[float, ...]
    engine: str = DEFAULT_ENGINE
    metrics: bool = False
    metrics_level: str = "full"
    batch_size: int = 256
    observer: object = field(default=None, compare=False, repr=False)

    __getstate__ = _drop_observer

    def __post_init__(self) -> None:
        if not self.times:
            raise ValueError("need at least one evaluation time")
        if min(self.times) < 0:
            raise ValueError("times must be non-negative")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        from repro.san.compiled import ENGINES

        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; choose one of {ENGINES}"
            )

    def build(self) -> _SimContext:
        """Worker-side construction of the composed model and simulator."""
        from repro.core.composed import build_composed_model
        from repro.san.compiled import make_jump_engine

        started = time.perf_counter()
        ahs = build_composed_model(self.params)
        recorder, observer = _observation(self)
        simulator = make_jump_engine(
            ahs.model,
            bias=self.bias_plan(ahs.model),
            engine=self.engine,
            observer=observer,
            batch_size=self.batch_size,
        )
        return _SimContext(
            simulator=simulator,
            predicate=ahs.unsafe_predicate(),
            times=np.asarray(self.times, dtype=float),
            horizon=float(max(self.times)),
            recorder=recorder,
            compile_seconds=time.perf_counter() - started,
            scratch_mask=np.empty(len(self.times), dtype=bool),
        )

    def bias_plan(self, model):
        """Per-activity rate multipliers for the engine (None: crude MC)."""
        return None

    def build_cached(self) -> _SimContext:
        """Worker-side context, memoised per process (see :func:`_build_cached`)."""
        return _build_cached(self)

    def sample(self, context: _SimContext, stream) -> np.ndarray:
        """One replication: weighted unsafe indicator at each time point."""
        out = np.empty(len(context.times), dtype=float)
        return self.sample_into(context, stream, out)

    def sample_into(self, context: _SimContext, stream, out: np.ndarray) -> np.ndarray:
        """:meth:`sample`, writing into a caller-owned row buffer.

        The chunk loop reuses one samples matrix and the context's scratch
        mask, eliding the per-replication ``np.where`` allocations that
        profiles showed on the hot path for dense time grids.
        """
        run = context.simulator.run(stream, context.horizon, context.predicate)
        mask = context.scratch_mask
        if mask is None or len(mask) != len(context.times):
            mask = np.empty(len(context.times), dtype=bool)
        np.less_equal(run.stop_time, context.times, out=mask)
        out[:] = 0.0
        np.copyto(out, run.weight, where=mask)
        return out

    def supports_batch(self, context: _SimContext) -> bool:
        """Whether this context's simulator advances replications in batch."""
        return callable(getattr(context.simulator, "run_batch", None))

    def sample_batch(self, context: _SimContext, streams) -> np.ndarray:
        """All replications of a chunk through the stepped kernel.

        Slices the chunk's streams into lockstep batches of
        ``batch_size`` and reduces each batch's runs with
        :meth:`samples_from_runs`; row ``i`` of the result is
        bit-identical to ``sample(context, streams[i])`` (the stepped
        engine preserves per-stream draw order at any width).
        """
        out = np.zeros((len(streams), len(context.times)), dtype=float)
        simulator = context.simulator
        for start in range(0, len(streams), self.batch_size):
            runs = simulator.run_batch(
                streams[start:start + self.batch_size],
                context.horizon,
                context.predicate,
            )
            out[start:start + len(runs)] = self.samples_from_runs(
                context, runs
            )
        return out

    def tensorizable(self) -> bool:
        """Cheap pre-build eligibility for cross-point tensor runs.

        Checked *before* ``build_cached`` so ineligible chunks never pay
        a context build in the probe (which would also hide the build's
        ``compile_seconds`` from the first real chunk's summary).
        :meth:`tensor_spec` re-validates on the built context.
        """
        return self.engine == "stepped" and not self.metrics

    def tensor_spec(self, context: _SimContext):
        """This context's cross-point tensor job triple, or ``None``.

        A chunk of this task can ride in a shared
        :class:`~repro.san.multipoint.MultiPointContext` tensor run
        exactly when its simulator is the stepped engine with no
        observer attached (metrics recorders force per-row delegation,
        which a tensor cannot replay).  Returns
        ``(engine, horizon, stop_predicate)`` when eligible.
        """
        simulator = context.simulator
        if getattr(simulator, "engine_name", "") != "stepped":
            return None
        if getattr(simulator, "observer", None) is not None:
            return None
        if context.recorder is not None:
            return None
        return simulator, context.horizon, context.predicate

    def samples_from_runs(self, context: _SimContext, runs) -> np.ndarray:
        """Per-replication sample rows from already-executed runs.

        The one reduction of per-point and tensorized chunks:
        :meth:`sample_batch` applies it to each batch it runs, and a
        tensorized group run hands back this chunk's
        :class:`~repro.san.simulator.SimulationRun` slice, so the
        resulting rows are bit-identical either way (the stepped engine
        is width-invariant, which is also why ``batch_size`` is absent
        from the cache token).
        """
        out = np.zeros((len(runs), len(context.times)), dtype=float)
        mask = context.scratch_mask
        if mask is None or len(mask) != len(context.times):
            mask = np.empty(len(context.times), dtype=bool)
        for row, run in enumerate(runs):
            np.less_equal(run.stop_time, context.times, out=mask)
            np.copyto(out[row], run.weight, where=mask)
        return out

    def events_of(self, context: _SimContext) -> int:
        """Timed firings executed so far by this context's simulator
        (worker telemetry: events/sec per engine)."""
        return int(context.simulator.fired_events)

    def metrics_of(self, context: _SimContext):
        """This chunk's serialised metric summary (None when disabled)."""
        return _metrics_of(context)

    def cache_token(self) -> dict:
        # batch_size is deliberately absent: the stepped engine is
        # bit-identical at every width, so results (and worker contexts)
        # are shareable across batch sizes
        token = {
            "measure": "unsafety",
            "engine": "simulation",
            "simulator": self.engine,
            "params": self.params,
            "times": self.times,
        }
        if self.metrics:
            token["metrics"] = self.metrics_level
        return token


@dataclass(frozen=True)
class ImportanceSimulationTask(UnsafetySimulationTask):
    """Failure-biased importance sampling as a chunked replication task.

    Identical sampling shape to :class:`UnsafetySimulationTask` — one
    replication yields the per-time *weighted* unsafe indicator — but the
    jump engine runs under failure biasing (every ``L_FM*`` timed activity
    boosted by ``boost``), and ``run.weight`` carries the exact likelihood
    ratio.  The pooled mean is therefore an unbiased estimate of S(t)
    whose CI shrinks orders of magnitude faster on rare-event points.
    """

    boost: float = 30.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (self.boost > 0):
            raise ValueError(f"boost must be > 0, got {self.boost}")

    def bias_plan(self, model):
        """Every ``L_FM*`` timed activity boosted by ``boost``."""
        from repro.rare.importance import FailureBiasing

        return FailureBiasing(
            boost=self.boost,
            name_predicate=lambda name: name.startswith("L_FM"),
        ).plan_for(model)

    def cache_token(self) -> dict:
        token = super().cache_token()
        token["engine"] = "importance"
        token["boost"] = self.boost
        return token


class _SplitContext(NamedTuple):
    """Per-chunk worker context for :class:`SplittingReplicationTask`."""

    splitter: object
    times: np.ndarray
    compile_seconds: float = 0.0
    recorder: object = None


@dataclass(frozen=True)
class SplittingReplicationTask:
    """Fixed-effort multilevel splitting as a chunked replication task.

    One replication is one *complete splitting pass* per evaluation time
    (:meth:`repro.rare.splitting.FixedEffortSplitting.repetition`), so a
    single replication costs roughly ``levels × trials_per_stage``
    trajectories per time point — the orchestrator schedules these in
    much smaller chunks than crude Monte-Carlo.  Per-repetition product
    estimates are i.i.d., so the chunk-summary pooling applies unchanged.

    ``metrics``/``metrics_level`` and the in-process ``observer`` work as
    on :class:`UnsafetySimulationTask`.
    """

    params: AHSParameters
    times: tuple[float, ...]
    levels: tuple[float, ...] = (1.0, 2.0, 3.0, 1000.0)
    trials_per_stage: int = 100
    engine: str = "compiled"
    metrics: bool = False
    metrics_level: str = "full"
    observer: object = field(default=None, compare=False, repr=False)

    __getstate__ = _drop_observer

    def __post_init__(self) -> None:
        if not self.times:
            raise ValueError("need at least one evaluation time")
        if min(self.times) <= 0:
            raise ValueError("splitting needs strictly positive times")
        if self.trials_per_stage < 2:
            raise ValueError("trials_per_stage must be >= 2")

    #: rough trajectory cost of one replication relative to one crude
    #: Monte-Carlo replication (used by cost-aware allocation policies)
    @property
    def cost_weight(self) -> float:
        return float(len(self.levels) * self.trials_per_stage * len(self.times))

    def build(self) -> _SplitContext:
        from repro.core.composed import build_composed_model
        from repro.rare.splitting import FixedEffortSplitting

        started = time.perf_counter()
        ahs = build_composed_model(self.params)
        recorder, observer = _observation(self)
        splitter = FixedEffortSplitting(
            ahs.model,
            ahs.severity_level(),
            list(self.levels),
            trials_per_stage=self.trials_per_stage,
            engine=self.engine,
            observer=observer,
        )
        return _SplitContext(
            splitter=splitter,
            times=np.asarray(self.times, dtype=float),
            compile_seconds=time.perf_counter() - started,
            recorder=recorder,
        )

    def build_cached(self) -> _SplitContext:
        """Worker-side context, memoised per process (see :func:`_build_cached`)."""
        return _build_cached(self)

    def sample(self, context: _SplitContext, stream) -> np.ndarray:
        """One splitting repetition per time point, on a single stream."""
        return np.asarray(
            [
                context.splitter.repetition(float(t), stream)
                for t in context.times
            ],
            dtype=float,
        )

    def events_of(self, context: _SplitContext) -> int:
        """Timed firings executed so far (worker telemetry)."""
        return int(context.splitter.simulator.fired_events)

    def metrics_of(self, context: _SplitContext):
        """This chunk's serialised metric summary (None when disabled)."""
        return _metrics_of(context)

    def cache_token(self) -> dict:
        token = {
            "measure": "unsafety",
            "engine": "splitting",
            "simulator": self.engine,
            "params": self.params,
            "times": self.times,
            "levels": self.levels,
            "trials_per_stage": self.trials_per_stage,
        }
        if self.metrics:
            token["metrics"] = self.metrics_level
        return token


@dataclass(frozen=True)
class AnalyticalCurveTask:
    """One sweep point of a figure: S(t) over ``times`` for one parameterisation.

    The lumped-CTMC engine is deterministic, so these points are ideal
    cache citizens — a re-run of ``repro-cli all`` with caching enabled
    skips every already-computed sweep point.
    """

    params: AHSParameters
    times: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.times:
            raise ValueError("need at least one evaluation time")

    def __call__(self) -> list[float]:
        from repro.core.analytical import AnalyticalEngine

        curve = AnalyticalEngine(self.params).unsafety(list(self.times))
        return [float(v) for v in curve.unsafety]

    def cache_token(self) -> dict:
        return {
            "measure": "unsafety",
            "engine": "analytical",
            "params": self.params,
            "times": self.times,
        }
