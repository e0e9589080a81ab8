"""The four end-to-end workloads: which sweep each orchestration runs.

Every workload is one ``orchestrate(points, budget, ParallelRunner(...))``
call, the same public API ``repro-cli orchestrate`` drives.  The table
below is plain data so ``run.py`` can read names, worker counts and run
lengths without importing :mod:`repro`; :func:`spec` builds the sweep
and imports :mod:`repro` only when a workload process calls it.

Sizes are chosen so one orchestration takes 5-13 s on a 2-core x86 host,
which lets one benchmark run repeat it several times and report medians.
See ``README.md`` for why each workload exists and what it should move.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Workload", "Spec", "WORKLOADS", "DEFAULT_SEED", "get", "spec"]

#: the orchestrator's default seed (the paper's DSN publication date);
#: reference digests are pinned at this seed
DEFAULT_SEED = 20090608

#: inflated failure rate for the crude Monte-Carlo workloads, so points
#: reach the 0.1 relative-CI target in a few thousand replications
MC_LAMBDA = 1e-2

#: failure rate of the importance-sampling workloads: the paper's top
#: curve in Figures 11 and 12; at the default 1e-5 almost every
#: importance-sampled estimate rests on a single hit
IS_LAMBDA = 1e-4


@dataclass(frozen=True)
class Workload:
    """One benchmark workload, as data."""

    name: str
    why: str
    #: process-pool size (never above the 2 cores of the reference host)
    workers: int
    #: measuring time budgeted per orchestration: a run of ``--seconds S``
    #: makes ``round(S / slot_s)`` of them, so the count (and the seeds
    #: used) never depends on how fast the code under test is
    slot_s: float


@dataclass
class Spec:
    """What one workload process hands to ``orchestrate``."""

    points: list
    budget: object
    #: extra ``orchestrate`` keyword arguments (engine, tensorize, ...)
    options: dict = field(default_factory=dict)
    #: attach a ``RunLedger`` event sink (``repro-events/1`` JSONL)
    ledger: bool = False


WORKLOADS = (
    Workload(
        name="fig12-mc",
        why="crude MC to the 0.1 relative-CI target on one core, stepped "
        "kernel per point and no pool: kernel work dominates",
        workers=1,
        slot_s=5.0,
    ),
    Workload(
        name="fig15-tensor-w2",
        why="tensorized cross-point rounds on 2 workers with the run "
        "ledger on: pool, tensor executor, allocator and events",
        workers=2,
        slot_s=4.0,
    ),
    Workload(
        name="fig10-is",
        why="Figure 10 sweep by importance sampling on the orchestrator's "
        "default (compiled) engine, one core: never the stepped kernel",
        workers=1,
        slot_s=10.0,
    ),
    Workload(
        name="fig12-is-w2",
        why="Figure 12 sweep by importance sampling on the stepped kernel "
        "over 2 workers: biased rows that absorb early, per-chunk pool",
        workers=2,
        slot_s=5.0,
    ),
)


def get(name: str) -> Workload:
    """The workload called ``name`` (``KeyError`` lists the choices)."""
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(
        f"unknown workload {name!r}; choose one of "
        f"{[w.name for w in WORKLOADS]}"
    )


# ----------------------------------------------------------------------
# sweep builders (import repro lazily: the workload process starts its
# clock before the first repro import)
# ----------------------------------------------------------------------
def _cut_points(prefix: str, strategies, sizes, times) -> list:
    """Inflated-rate (strategy, n) points at fixed evaluation times."""
    from repro.core import AHSParameters, Strategy
    from repro.orchestrate import SweepPoint

    return [
        SweepPoint(
            point_id=f"{prefix}/{strategy}/n={n}",
            params=AHSParameters(
                max_platoon_size=n,
                base_failure_rate=MC_LAMBDA,
                strategy=Strategy(strategy),
            ),
            times=tuple(times),
            label=f"{strategy} @ n={n}",
        )
        for strategy in strategies
        for n in sizes
    ]


def _figure_points(figure_id: str) -> list:
    """A paper figure's ``--fast`` sweep at :data:`IS_LAMBDA`."""
    import dataclasses

    from repro.experiments.figures import sweep_definition
    from repro.orchestrate import SweepPoint

    definition = sweep_definition(figure_id, fast=True)
    return [
        SweepPoint(
            point_id=f"{spec.point_id}/lambda={IS_LAMBDA:g}",
            params=dataclasses.replace(
                spec.params, base_failure_rate=IS_LAMBDA
            ),
            times=spec.times,
            label=spec.series
            if spec.x_index is None
            else f"{spec.series} @ {definition.x_label}="
            f"{definition.x_values[spec.x_index]:g}",
        )
        for spec in definition.points
    ]


def spec(name: str, smoke: bool = False) -> Spec:
    """The sweep, budget and options of one workload.

    ``smoke`` keeps every workload's code path (engine, executor, pool
    size, ledger) but shrinks the sweep and budget so the whole set
    finishes in seconds.
    """
    from repro.orchestrate import Budget

    if name == "fig12-mc":
        # Figure 12's shape (S at a fixed trip time versus n) cut at 2 h
        sizes = (10,) if smoke else (10, 14, 18)
        return Spec(
            points=_cut_points("fig12-mc", ("DD",), sizes, (2.0,)),
            budget=Budget(replications=256)
            if smoke
            else Budget(target_relative_ci=0.1),
            options={"engine": "stepped"},
        )
    if name == "fig15-tensor-w2":
        # Figure 15's shape: strategies x platoon sizes, two trip times
        sizes = (10,) if smoke else (10, 14)
        return Spec(
            points=_cut_points(
                "fig15-tensor", ("DD", "CC"), sizes, (1.0, 2.0)
            ),
            budget=Budget(replications=512)
            if smoke
            else Budget(target_relative_ci=0.1),
            options={"engine": "stepped", "tensorize": True},
            ledger=True,
        )
    if name == "fig10-is":
        points = _figure_points("figure10")
        return Spec(
            points=points[:1] if smoke else points,
            budget=Budget(replications=64 if smoke else 512),
        )
    if name == "fig12-is-w2":
        points = _figure_points("figure12")
        return Spec(
            points=points[:2] if smoke else points,
            budget=Budget(replications=512 if smoke else 1536),
            options={"engine": "stepped"},
        )
    get(name)  # raises KeyError naming the valid workloads
    raise NotImplementedError(f"workload {name!r} has no sweep builder")
