"""The adaptive round loop: budgeted replication allocation across sweeps.

:class:`Orchestrator` turns a set of :class:`~repro.orchestrate.surrogate.
SweepPoint` definitions plus one global :class:`~repro.orchestrate.budget.
Budget` into a round-based schedule on an existing
:class:`~repro.runtime.ParallelRunner`:

1. **Warm start** — every point is priced by the cheap engines
   (:func:`~repro.orchestrate.surrogate.warm_start`); rarity picks each
   point's estimator, and points below Monte-Carlo resolution are served
   analytically for zero replications.
2. **Warm-up round** — each Monte-Carlo point receives
   ``budget.min_chunks_per_point`` chunks so it has a measured width and
   cost before any ranking happens.
3. **Adaptive rounds** — the :class:`~repro.orchestrate.allocator.
   Allocator` awards chunks (widest-CI-first, proportional-to-need,
   shrink-per-cost, or flat), the runner executes them through the same
   fault-tolerant chunk machinery as plain runs, summaries merge in chunk
   order, and the ledger decides whether to stop.

Determinism contract (the property the tier-1 suite pins): for a fixed
``(points, seed, budget, policy)`` the pooled per-point estimates are
bit-identical for **any worker count** and across **interrupted-and-
resumed** runs (with a chunk-caching runner).  Everything an allocation
decision reads — pooled widths, replication counts, event-count cost
proxies — is itself worker-invariant, and every point's replication ``i``
draws from a seed derived only from ``(seed, point index, i)``.  The one
escape hatch is ``budget.wall_seconds``, which is checked between rounds
and documented as best-effort.

Each point's replication indices stay contiguous and chunk-aligned: an
award is a whole number of chunks except when a cap clamps it, and a
clamped point never receives another award — so chunk identities (and the
chunk-level cache keys behind resume) never shift.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dataclass_field
from typing import Optional, Sequence

import numpy as np

from repro.obs.events import (
    BudgetStopped,
    ChunkCompleted,
    EventBus,
    RoundAllocated,
    RunFinished,
    RunStarted,
    TensorFallback,
)
from repro.orchestrate.allocator import Allocator, PointProgress
from repro.orchestrate.budget import Budget, BudgetLedger
from repro.orchestrate.report import (
    OrchestrationReport,
    PointReport,
    RoundRecord,
)
from repro.orchestrate.surrogate import (
    EstimatorPolicy,
    SurrogatePrior,
    SweepPoint,
    warm_start,
)
from repro.runtime.merge import ChunkSummary, combine, pooled_intervals
from repro.runtime.plan import ReplicationPlan
from repro.runtime.pool import ParallelRunner
from repro.runtime.telemetry import TelemetryRecorder

__all__ = ["Orchestrator", "orchestrate", "point_seed", "DEFAULT_SEED"]

#: default experiment seed (the paper's DSN publication date)
DEFAULT_SEED = 20090608


def point_seed(seed: int, index: int) -> int:
    """Derived root entropy for one sweep point's replication plan.

    ``SeedSequence.generate_state`` *does* mix the spawn key (unlike the
    ``entropy`` attribute), so each point gets an independent 128-bit
    root that depends only on ``(seed, index)`` — never on allocation
    order or worker count.
    """
    root = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return int.from_bytes(
        root.generate_state(4, np.uint32).tobytes(), "little"
    )


@dataclass
class _PointState:
    """Driver-internal bookkeeping for one sweep point."""

    point: SweepPoint
    index: int
    prior: SurrogatePrior
    estimator: str
    task: Optional[object]
    plan: Optional[ReplicationPlan]
    completed: dict[int, ChunkSummary] = dataclass_field(default_factory=dict)
    #: replications scheduled so far (always the contiguous prefix)
    done: int = 0
    relative_ci: Optional[float] = None
    converged: bool = False
    capped: bool = False

    @property
    def monte_carlo(self) -> bool:
        return self.task is not None

    def pooled(self) -> Optional[ChunkSummary]:
        if not self.completed:
            return None
        return combine(self.completed.values())

    def cost_per_replication(self) -> float:
        """Deterministic cost proxy: pooled simulator events / replication."""
        pooled = self.pooled()
        if pooled is not None and pooled.events > 0 and pooled.n > 0:
            return pooled.events / pooled.n
        weight = getattr(self.task, "cost_weight", None)
        return float(weight) if weight else 1.0

    def wall_cost_per_replication(
        self, point_seconds: dict
    ) -> Optional[float]:
        """Measured cost proxy: busy worker-seconds / replication.

        Uses the telemetry the runner accumulates per point (summed
        worker-side chunk seconds).  Returns ``None`` until the point
        has both timed chunks and scheduled replications — the caller
        falls back to the events proxy so warm-up rounds rank sanely.
        """
        seconds = point_seconds.get(self.point.point_id, 0.0)
        if seconds > 0.0 and self.done > 0:
            return seconds / self.done
        return None


class Orchestrator:
    """Budgeted, CI-driven replication allocation across sweep points.

    Parameters
    ----------
    points:
        The sweep to estimate; point order is part of the deterministic
        schedule (allocation ties break towards earlier points).
    budget:
        Global stopping conditions (see :class:`Budget`).
    runner:
        Chunk executor.  Give it a cache and ``chunk_cache=True`` to make
        interrupted runs resumable; the orchestrator works with any
        configuration.
    policy:
        Allocation policy name (see
        :data:`~repro.orchestrate.allocator.POLICIES`).
    estimator_policy:
        Rarity thresholds / overrides for per-point estimator selection.
    seed:
        Experiment seed; every point's plan entropy derives from it.
    round_chunks:
        Chunks awarded per adaptive round.  The default depends only on
        the number of points — never on the worker count, which would
        break schedule determinism.
    splitting_chunk_size:
        Chunk size for splitting points (one replication there is a full
        splitting pass, hundreds of trajectories, so chunks are small).
    engine:
        Jump-engine for the simulation-backed estimators; the literal
        default equals :data:`~repro.san.compiled.DEFAULT_ENGINE`
        (splitting points run on the compiled engine whatever is
        chosen here).
    sweep_batch:
        When True, each round's chunk jobs are dispatched to the pool in
        point-contiguous groups (one pool task per group; see
        :meth:`~repro.runtime.pool.ParallelRunner.execute_jobs_grouped`)
        instead of one pool task per chunk.  Pure scheduling: every chunk
        still computes the identical summary, so reports and artifacts
        are byte-identical to the per-chunk path (wall-clock telemetry
        aside).  No effect with a single worker.
    tensorize:
        When True, each round's grouped chunk jobs additionally execute
        as **cross-point SoA tensors** — all eligible chunks of a group
        stack into one :class:`~repro.san.multipoint.MultiPointContext`
        step loop instead of one engine run per point.  Requires the
        stepped engine; with any other engine a ``UserWarning`` is
        issued and execution falls back to the ``sweep_batch``
        scheduling (never silently).  Implies grouped dispatch.  Like
        sweep batching, this is result-invariant: estimates, IS weights
        and draw order are bit-identical to per-point execution, so
        ``repro-estimates/1`` artifacts are byte-identical.
    cost_model:
        Cost proxy feeding the ``cost`` allocation policy:
        ``"events"`` (default) ranks points by pooled simulator events
        per replication — fully deterministic and worker-invariant;
        ``"wall"`` ranks by measured busy worker-seconds per replication
        from the runner's per-point telemetry (falling back to the
        events proxy until a point has timed chunks).  Wall cost tracks
        real per-replication expense better (slot layouts and engines
        differ in events/sec) but is **not** worker-invariant: the
        allocation *schedule* may vary run to run, although every
        scheduled chunk still computes the identical summary.
    events:
        Optional :class:`~repro.obs.events.EventBus`; when given, the
        round loop announces run lifecycle, round allocations, budget
        stops and chunk completions as ``repro-events/1`` envelopes, and
        the bus is lent to the runner for the duration of the run so
        chunk scheduling / retry / cache events flow into the same
        ledger.  Emission is pure bookkeeping: schedules, estimates and
        artifacts are byte-identical with the bus on or off.
    """

    def __init__(
        self,
        points: Sequence[SweepPoint],
        budget: Budget,
        runner: ParallelRunner,
        *,
        policy: str = "greedy",
        estimator_policy: Optional[EstimatorPolicy] = None,
        seed: int = DEFAULT_SEED,
        round_chunks: Optional[int] = None,
        splitting_chunk_size: int = 8,
        engine: str = "stepped",
        sweep_batch: bool = False,
        tensorize: bool = False,
        cost_model: str = "events",
        events: Optional[EventBus] = None,
    ) -> None:
        if not points:
            raise ValueError("need at least one sweep point")
        ids = [p.point_id for p in points]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate point ids in sweep: {ids}")
        if splitting_chunk_size < 1:
            raise ValueError("splitting_chunk_size must be >= 1")
        if cost_model not in ("events", "wall"):
            raise ValueError(
                f"unknown cost_model {cost_model!r}; choose 'events' or 'wall'"
            )
        self.points = list(points)
        self.budget = budget
        self.runner = runner
        self.seed = int(seed)
        self.engine = engine
        self.sweep_batch = bool(sweep_batch)
        self.cost_model = cost_model
        self.tensor_fallback: Optional[str] = None
        if tensorize and engine != "stepped":
            from repro.analysis.lowering import TENSOR_FALLBACK_RULE

            self.tensor_fallback = (
                f"--tensorize requires the stepped engine; engine "
                f"{engine!r} cannot lower the cross-point tensor loop — "
                f"falling back to per-point execution"
            )
            warnings.warn(
                f"[{TENSOR_FALLBACK_RULE}] {self.tensor_fallback}",
                UserWarning,
                stacklevel=2,
            )
            tensorize = False
        self.tensorize = bool(tensorize)
        self.estimator_policy = estimator_policy or EstimatorPolicy()
        self.splitting_chunk_size = int(splitting_chunk_size)
        self.events = events
        if round_chunks is None:
            round_chunks = max(8, 2 * len(points))
        self.allocator = Allocator(policy=policy, round_chunks=round_chunks)

    def _emit(self, event) -> None:
        if self.events is not None:
            self.events.emit(event)

    # ------------------------------------------------------------------
    # point setup
    # ------------------------------------------------------------------
    def _make_task(self, point: SweepPoint, estimator: str):
        from repro.core.partasks import (
            ImportanceSimulationTask,
            SplittingReplicationTask,
            UnsafetySimulationTask,
        )

        if estimator == "analytical":
            return None
        if estimator == "simulation":
            return UnsafetySimulationTask(
                params=point.params, times=point.times, engine=self.engine
            )
        if estimator == "importance":
            return ImportanceSimulationTask(
                params=point.params,
                times=point.times,
                engine=self.engine,
                boost=self.estimator_policy.boost,
            )
        if estimator == "splitting":
            return SplittingReplicationTask(
                params=point.params,
                times=point.times,
                engine=self.engine,
                trials_per_stage=self.estimator_policy.splitting_trials,
            )
        raise ValueError(f"unknown estimator {estimator!r}")

    def _build_states(self) -> list[_PointState]:
        priors = warm_start(
            self.points, self.estimator_policy, runner=self.runner
        )
        states: list[_PointState] = []
        for index, point in enumerate(self.points):
            prior = priors[point.point_id]
            task = self._make_task(point, prior.estimator)
            plan = None
            if task is not None:
                chunk_size = (
                    self.splitting_chunk_size
                    if prior.estimator == "splitting"
                    else self.runner.chunk_size
                )
                plan = ReplicationPlan(
                    point_seed(self.seed, index), chunk_size=chunk_size
                )
            states.append(
                _PointState(
                    point=point,
                    index=index,
                    prior=prior,
                    estimator=prior.estimator,
                    task=task,
                    plan=plan,
                    converged=task is None,
                )
            )
        return states

    # ------------------------------------------------------------------
    # round mechanics
    # ------------------------------------------------------------------
    def _execute_awards(
        self,
        states: list[_PointState],
        awards: dict[str, int],
        ledger: BudgetLedger,
        telemetry: TelemetryRecorder,
    ) -> None:
        """Run one round of awards through the runner's chunk machinery."""
        by_id = {state.point.point_id: state for state in states}
        all_jobs: dict = {}
        for state in states:  # deterministic: point order
            award = awards.get(state.point.point_id, 0)
            if award <= 0 or state.plan is None:
                continue
            specs = state.plan.chunks(state.done, award)
            jobs, cached = self.runner.chunk_jobs(
                state.task,
                state.plan,
                specs,
                telemetry,
                key_prefix=state.point.point_id,
            )
            for summary in cached:
                state.completed[summary.chunk_index] = summary
            all_jobs.update(jobs)
            state.done += award
            ledger.charge(state.point.point_id, award)
        # sweep batching changes only how jobs ride to the pool — every
        # chunk computes the identical summary either way.  ``all_jobs``
        # is built in point order above, so grouped dispatch slices it
        # into point-contiguous pool tasks; tensorized dispatch further
        # stacks each group's eligible chunks into one shared tensor.
        if self.tensorize:
            dispatched = self.runner.execute_jobs_grouped(
                all_jobs, telemetry, tensorize=True
            )
        elif self.sweep_batch:
            dispatched = self.runner.execute_jobs_grouped(all_jobs, telemetry)
        else:
            dispatched = self.runner.execute_jobs(all_jobs, telemetry)
        for key in sorted(dispatched, key=lambda k: (k[0], k[1])):
            point_id, chunk_index = key
            summary = dispatched[key]
            telemetry.record_chunk(
                summary.worker,
                summary.n,
                draws=summary.draws,
                busy_seconds=summary.elapsed_seconds,
                events=summary.events,
            )
            telemetry.record_point_seconds(point_id, summary.elapsed_seconds)
            self._emit(
                ChunkCompleted(
                    chunk_id=f"{point_id}/chunk-{chunk_index}",
                    n=summary.n,
                    worker=summary.worker,
                    elapsed_seconds=summary.elapsed_seconds,
                    events=summary.events,
                    draws=summary.draws,
                    point_id=point_id,
                )
            )
            by_id[point_id].completed[summary.chunk_index] = summary

    def _refresh(self, states: list[_PointState], ledger: BudgetLedger) -> None:
        """Recompute widths / convergence from pooled summaries only."""
        target = self.budget.target_relative_ci
        for state in states:
            if not state.monte_carlo:
                continue
            pooled = state.pooled()
            relative: Optional[float] = None
            if pooled is not None and pooled.n >= 2:
                intervals = pooled_intervals(pooled, self.budget.confidence)
                informative = [iv for iv in intervals if iv.mean > 0]
                if informative:
                    relative = max(
                        iv.relative_half_width for iv in informative
                    )
            state.relative_ci = relative
            if target is not None and relative is not None:
                state.converged = relative <= target
            state.capped = ledger.point_remaining(state.point.point_id) <= 0

    def _progress(
        self,
        states: list[_PointState],
        telemetry: Optional[TelemetryRecorder] = None,
    ) -> list[PointProgress]:
        target = self.budget.target_relative_ci
        point_seconds = (
            telemetry.point_seconds
            if self.cost_model == "wall" and telemetry is not None
            else None
        )
        rows: list[PointProgress] = []
        for state in states:
            if not state.monte_carlo:
                continue
            prior_n = (
                None
                if target is None
                else state.prior.predicted_replications(
                    target, self.budget.confidence
                )
            )
            cost = None
            if point_seconds is not None:
                cost = state.wall_cost_per_replication(point_seconds)
            if cost is None:
                cost = state.cost_per_replication()
            rows.append(
                PointProgress(
                    point_id=state.point.point_id,
                    order=state.index,
                    chunk_size=state.plan.chunk_size,
                    n=state.done,
                    relative_ci=state.relative_ci,
                    cost_per_replication=cost,
                    prior_replications=prior_n,
                    eligible=not (state.converged or state.capped),
                )
            )
        return rows

    def _round_record(
        self,
        index: int,
        awards: dict[str, int],
        states: list[_PointState],
        ledger: BudgetLedger,
    ) -> RoundRecord:
        widths = [
            state.relative_ci
            for state in states
            if state.monte_carlo
            and not state.converged
            and state.relative_ci is not None
        ]
        return RoundRecord(
            index=index,
            awards=dict(awards),
            widest_relative_ci=max(widths) if widths else None,
            converged_points=sum(1 for s in states if s.converged),
            spent=ledger.spent,
        )

    def _check_stop(
        self, states: list[_PointState], ledger: BudgetLedger
    ) -> bool:
        """Between-round stop checks, in deterministic priority order."""
        mc = [s for s in states if s.monte_carlo]
        if self.budget.target_relative_ci is not None and all(
            s.converged for s in mc
        ):
            ledger.stop("converged")
            return True
        if not any(not s.converged and not s.capped for s in mc):
            ledger.stop(
                "converged"
                if all(s.converged for s in mc)
                else "points-capped"
            )
            return True
        if ledger.out_of_replications():
            ledger.stop("replications-exhausted")
            return True
        if ledger.out_of_rounds():
            ledger.stop("rounds-exhausted")
            return True
        # wall-clock last: the only non-deterministic check, best-effort
        if ledger.out_of_wall():
            ledger.stop("wall-exhausted")
            return True
        return False

    # ------------------------------------------------------------------
    # the run
    # ------------------------------------------------------------------
    def run(self) -> OrchestrationReport:
        telemetry = TelemetryRecorder(
            self.runner.workers, unit="replications", engine=self.engine
        )
        telemetry.start()
        ledger = BudgetLedger(self.budget)
        ledger.start()
        states = self._build_states()
        rounds: list[RoundRecord] = []
        self._emit(
            RunStarted(
                kind="orchestrate",
                workers=self.runner.workers,
                unit="replications",
                engine=self.engine,
                max_total=self.budget.replications,
                detail={
                    "seed": self.seed,
                    "policy": self.allocator.policy,
                    "budget": self.budget.to_dict(),
                    "estimators": {
                        s.point.point_id: s.estimator for s in states
                    },
                },
            )
        )
        if self.tensor_fallback is not None:
            # the ledger twin of the construction-time UserWarning
            # (emitted here, not in __init__: a run's first event must
            # be RunStarted per the repro-events/1 sequence contract)
            from repro.analysis.lowering import TENSOR_FALLBACK_RULE

            self._emit(
                TensorFallback(
                    rule=TENSOR_FALLBACK_RULE,
                    reason=self.tensor_fallback,
                    engine=self.engine,
                )
            )
        # lend the bus to the runner for the duration of the run so chunk
        # scheduling / retry / failure / cache events land in this ledger
        lent_bus = self.events is not None and self.runner.events is None
        if lent_bus:
            self.runner.events = self.events

        try:
            # warm-up round: a fixed floor of chunks per Monte-Carlo point
            warmup: dict[str, int] = {}
            if self.budget.min_chunks_per_point > 0:
                planned = 0
                for state in states:
                    if not state.monte_carlo:
                        continue
                    want = (
                        self.budget.min_chunks_per_point
                        * state.plan.chunk_size
                    )
                    want = min(
                        want, ledger.point_remaining(state.point.point_id)
                    )
                    remaining = ledger.remaining_replications()
                    if remaining is not None:
                        want = min(want, remaining - planned)
                    if want > 0:
                        warmup[state.point.point_id] = want
                        planned += want
            if warmup:
                self._execute_awards(states, warmup, ledger, telemetry)
                ledger.note_round()
                self._refresh(states, ledger)
                rounds.append(self._round_record(0, warmup, states, ledger))
                self._emit_round(rounds[-1])

            while not self._check_stop(states, ledger):
                awards = self.allocator.allocate(
                    self._progress(states, telemetry), ledger
                )
                if not awards:
                    remaining = ledger.remaining_replications()
                    ledger.stop(
                        "replications-exhausted"
                        if remaining is not None and remaining <= 0
                        else "converged"
                    )
                    break
                self._execute_awards(states, awards, ledger, telemetry)
                ledger.note_round()
                self._refresh(states, ledger)
                rounds.append(
                    self._round_record(len(rounds), awards, states, ledger)
                )
                self._emit_round(rounds[-1])
        except Exception as exc:
            self._emit(
                RunFinished(
                    outcome="failed",
                    units=ledger.spent,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
            raise
        finally:
            if lent_bus:
                self.runner.events = None

        if ledger.stop_reason is not None:
            self._emit(
                BudgetStopped(
                    reason=ledger.stop_reason,
                    spent=ledger.spent,
                    rounds=len(rounds),
                )
            )
        telemetry.finish()
        report = self._report(states, rounds, ledger, telemetry)
        self._emit(
            RunFinished(
                outcome="ok",
                units=ledger.spent,
                converged=report.all_converged,
                telemetry=report.telemetry,
            )
        )
        return report

    def _emit_round(self, record: RoundRecord) -> None:
        self._emit(
            RoundAllocated(
                round=record.index,
                awards=dict(record.awards),
                spent=record.spent,
                widest_relative_ci=record.widest_relative_ci,
                converged_points=record.converged_points,
            )
        )

    # ------------------------------------------------------------------
    def _report(
        self,
        states: list[_PointState],
        rounds: list[RoundRecord],
        ledger: BudgetLedger,
        telemetry: TelemetryRecorder,
    ) -> OrchestrationReport:
        reports: list[PointReport] = []
        for state in states:
            surrogate = state.prior.values()
            if not state.monte_carlo:
                reports.append(
                    PointReport(
                        point_id=state.point.point_id,
                        label=state.point.label,
                        estimator=state.estimator,
                        reason=state.prior.reason,
                        times=state.point.times,
                        values=tuple(float(v) for v in surrogate),
                        half_widths=None,
                        confidence=self.budget.confidence,
                        n_replications=0,
                        converged=True,
                        events=0,
                        surrogate=tuple(surrogate),
                    )
                )
                continue
            pooled = state.pooled()
            if pooled is None:
                # budget died before this point's first chunk: serve the
                # surrogate, clearly marked unconverged
                values = tuple(float(v) for v in surrogate) or tuple(
                    0.0 for _ in state.point.times
                )
                halves = None
                n = 0
                events = 0
            else:
                intervals = pooled_intervals(pooled, self.budget.confidence)
                values = tuple(float(m) for m in np.atleast_1d(pooled.mean))
                halves = tuple(float(iv.half_width) for iv in intervals)
                n = pooled.n
                events = pooled.events
            converged = (
                state.converged
                if self.budget.target_relative_ci is not None
                else True
            )
            reports.append(
                PointReport(
                    point_id=state.point.point_id,
                    label=state.point.label,
                    estimator=state.estimator,
                    reason=state.prior.reason,
                    times=state.point.times,
                    values=values,
                    half_widths=halves,
                    confidence=self.budget.confidence,
                    n_replications=n,
                    converged=converged and pooled is not None,
                    events=events,
                    surrogate=tuple(surrogate),
                )
            )
        snapshot = telemetry.snapshot()
        self.runner.last_telemetry = snapshot
        return OrchestrationReport(
            policy=self.allocator.policy,
            seed=self.seed,
            points=reports,
            rounds=rounds,
            ledger=ledger.to_dict(),
            telemetry=snapshot.to_dict(),
        )


def orchestrate(
    points: Sequence[SweepPoint],
    budget: Budget,
    runner: ParallelRunner,
    **kwargs,
) -> OrchestrationReport:
    """One-call convenience wrapper around :class:`Orchestrator`."""
    return Orchestrator(points, budget, runner, **kwargs).run()
