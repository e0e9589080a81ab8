"""Cross-point tensorized sweeps: one SoA tensor for many sweep points.

A figure sweep runs the *same step loop* P times — once per parameter
point — and each per-point batch pays the loop's fixed Python and NumPy
overhead (array slicing, cumulative sums, kernel dispatch) on its own R
rows.  A :class:`MultiPointContext` stacks R replications × P points
into one ``B = R·P``-row tensor so neighbouring sweep points share every
masked time advance, cumsum selection, ``np.add.at`` delta scatter and
direct-address table lookup, leaving one Python-level step loop for the
whole figure.

The loop is the stepped engine's own (``_step_loop`` in
:mod:`repro.san.stepped`); a per-point
:meth:`SteppedJumpEngine.run_batch` is its one-job case.  This module
supplies the jobs and describes their layout:

* **Jobs.** One :class:`MultiPointJob` per chunk: an engine, the chunk's
  streams in order, a horizon and a stop predicate.  Several chunks of
  one point share one memoised engine.
* **Layout.** Each distinct engine owns one contiguous *lane* of rows,
  its jobs adjacent in job order, and keeps its own compile artifacts
  (slot layout, lowered groups, fire programs, refresh tables); its
  kernels touch only its lane and its own column range.  Results come
  back per job, in stream order.
* **Padding.** The tensor is padded to the sweep's max layout —
  ``max(n_slots)`` marking columns and ``max(n_acts)`` rate columns.
  Padding is exact by construction: a row's trailing rate columns are
  never written, so they stay ``0.0``, and appending zeros to a row
  leaves every cumulative-sum prefix (and the row total) bitwise
  unchanged; the selection count over padded columns either equals the
  unpadded count (``u < total``) or runs past every column (the
  ``u == total`` edge), which the per-row clamp-back resolves from
  ``n_acts - 1`` of the *owning* point — exactly where a one-job run
  starts its own clamp.

Equivalence contract: per stream, runs are **bit-identical** to the
per-point stepped engine (draw order, IS weights, stop times, final
markings) at every (R, P) shape, including ragged sweeps where points
differ in layout.  Each row draws only from its own
:class:`~repro.stochastic.rng.RandomStream`; a row's holding times,
selection uniforms and case choices are pure functions of its own
marking trajectory, so co-residence with other points' rows is
unobservable.  The intentional divergences are the stepped engine's
own: error *ordering* within a step, and re-evaluation timing of
model-bug errors.

Biased (importance-sampled) and unbiased engines cannot share a tensor
— the biased step draws against ``Rb`` while computing weights from
``Ro`` — so :class:`MultiPointContext` requires a uniform bias flag;
callers partition jobs by :attr:`BatchedJumpEngine.has_bias` first (the
pool's grouped dispatch does).

See ``docs/engine_perf.md`` for measurements and when per-point wins.
"""

from __future__ import annotations

from typing import Optional

from repro.san.simulator import SimulationRun
from repro.san.stepped import SteppedJumpEngine, _step_loop

__all__ = ["MultiPointJob", "MultiPointContext", "tensor_compatible"]


def tensor_compatible(engine) -> Optional[str]:
    """Why ``engine`` cannot ride in a multi-point tensor, or ``None``.

    The tensor step loop is the stepped engine's loop over rows of
    several engines; anything that forces per-row delegation
    (observers) or a different loop entirely (other engine kinds) keeps
    its per-point path.
    """
    if not isinstance(engine, SteppedJumpEngine):
        name = getattr(engine, "engine_name", type(engine).__name__)
        return f"engine {name!r} is not the stepped engine"
    if engine.diagnose:
        return "diagnose-mode engines have no runtime kernels"
    if engine.observer is not None:
        return "observers force per-row compiled delegation"
    return None


class MultiPointJob:
    """One sweep point's slice of a tensor run.

    ``streams`` are the point's per-replication
    :class:`~repro.stochastic.rng.RandomStream` objects in chunk order;
    the run result for this job is one :class:`SimulationRun` per
    stream, in the same order.
    """

    __slots__ = ("engine", "streams", "horizon", "stop_predicate")

    def __init__(self, engine, streams, horizon: float,
                 stop_predicate=None) -> None:
        self.engine = engine
        self.streams = list(streams)
        self.horizon = float(horizon)
        self.stop_predicate = stop_predicate


class MultiPointContext:
    """Shared SoA tensor over many sweep points' stepped engines.

    Construction validates every job's engine (see
    :func:`tensor_compatible`) and enforces a uniform bias flag;
    :meth:`run` executes all jobs' replications in one step loop and
    demultiplexes per-job results in stream order.
    """

    def __init__(self, jobs: list[MultiPointJob]) -> None:
        if not jobs:
            raise ValueError("MultiPointContext needs at least one job")
        for job in jobs:
            reason = tensor_compatible(job.engine)
            if reason is not None:
                raise ValueError(f"job cannot be tensorized: {reason}")
        self.jobs = list(jobs)
        if len({bool(job.engine.has_bias) for job in self.jobs}) > 1:
            raise ValueError(
                "cannot tensorize biased and unbiased engines together; "
                "partition jobs by engine.has_bias first"
            )
        self.n_rows = sum(len(job.streams) for job in self.jobs)

    def run(self) -> list[list[SimulationRun]]:
        """Advance every job's replications; one result list per job."""
        return _step_loop([
            (job.engine, job.streams, job.horizon, job.stop_predicate)
            for job in self.jobs
        ])
