"""Cross-point tensorized sweeps: one SoA tensor for many sweep points.

A figure sweep runs the *same step loop* P times — once per parameter
point — and each per-point batch pays the loop's fixed Python and NumPy
overhead (array slicing, cumulative sums, kernel dispatch) on its own R
rows.  This module stacks R replications × P points into one
``B = R·P``-row tensor so neighbouring sweep points share every masked
time advance, cumsum/``searchsorted`` selection, ``np.add.at`` delta
scatter and direct-address table lookup, leaving one Python-level step
loop for the whole figure.

Layout: each point's stepped engine keeps its own compile artifacts
(slot layout, lowered groups, fire programs, refresh tables); the tensor
is padded to the sweep's **max layout** — ``max(n_slots)`` marking
columns and ``max(n_acts)`` rate columns — and each engine's kernels
touch only its own rows and its own column range.  Padding is exact by
construction: a row's trailing rate columns are never written, so they
stay ``0.0``, and appending zeros to a row leaves every cumulative-sum
prefix (and the row total) bitwise unchanged; the selection count over
padded columns either equals the unpadded count (``u < total``) or
lands past the row's real activities (the ``u == total`` edge), which
the per-row clamp-back resolves from ``n_acts - 1`` of the *owning*
point — exactly where the per-point loop starts its own clamp.

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

import math
from typing import Optional

import numpy as np

from repro.san.marking import DeferredMarking
from repro.san.simulator import SimulationRun, _RewardIntegrator
from repro.san.stepped import SteppedJumpEngine, _bool_rows

__all__ = ["MultiPointJob", "MultiPointContext", "tensor_compatible"]


def tensor_compatible(engine) -> Optional[str]:
    """Why ``engine`` cannot ride in a multi-point tensor, or ``None``.

    The tensor step loop is the stepped engine's loop generalised over
    rows of several engines; anything that forces per-row delegation
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


def _refresh_engine(engine, changed_mask: int, matrix, rows, Ro, Rb,
                    alive_mask, has_bias: bool) -> None:
    """One engine's lowered-group refresh, restricted to ``rows``.

    The row-restricted replay of
    :meth:`SteppedJumpEngine._refresh_lowered`: same changed-slot →
    affected-group bitmask walk, but the alive rows are the engine's
    own (the caller computes them) and the tables refresh with
    ``restrict=True`` so direct-tree escapes cannot touch other
    engines' rows.
    """
    lowered_dep = engine._lowered_dep
    affected = 0
    while changed_mask:
        low = changed_mask & -changed_mask
        affected |= lowered_dep[low.bit_length() - 1]
        changed_mask ^= low
    if not affected:
        return
    tables = engine._tables
    cache: dict = {}
    with np.errstate(all="ignore"):
        while affected:
            low = affected & -affected
            tables[low.bit_length() - 1].refresh(
                matrix, rows, Ro, Rb, alive_mask, has_bias, cache,
                restrict=True,
            )
            affected ^= low


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
        # dedupe engines by identity (several chunks of one point share
        # one memoised engine) preserving first-seen order
        self.engines: list = []
        self._engine_index: dict[int, int] = {}
        for job in self.jobs:
            if id(job.engine) not in self._engine_index:
                self._engine_index[id(job.engine)] = len(self.engines)
                self.engines.append(job.engine)
        flags = {bool(engine.has_bias) for engine in self.engines}
        if len(flags) > 1:
            raise ValueError(
                "cannot tensorize biased and unbiased engines together; "
                "partition jobs by engine.has_bias first"
            )
        self.has_bias = flags.pop()
        self.n_rows = sum(len(job.streams) for job in self.jobs)

    # ------------------------------------------------------------------
    def run(self) -> list[list[SimulationRun]]:
        """Advance every job's replications; one result list per job."""
        n_rows = self.n_rows
        if n_rows == 0:
            return [[] for _ in self.jobs]
        engines = self.engines
        n_engines = len(engines)
        has_bias = self.has_bias

        # --- row layout: jobs in order, each job's streams in order ---
        eng_of = np.empty(n_rows, dtype=np.intp)
        job_of = np.empty(n_rows, dtype=np.intp)
        hz = np.empty(n_rows, dtype=np.float64)
        n_acts_of = np.empty(n_rows, dtype=np.int64)
        streams_of: list = []
        job_rows: list[list[int]] = []
        row = 0
        for j, job in enumerate(self.jobs):
            e = self._engine_index[id(job.engine)]
            rows_j = []
            for stream in job.streams:
                eng_of[row] = e
                job_of[row] = j
                hz[row] = job.horizon
                n_acts_of[row] = job.engine._n
                streams_of.append(stream)
                rows_j.append(row)
                row += 1
            job_rows.append(rows_j)
        engine_rows = [
            np.flatnonzero(eng_of == e) for e in range(n_engines)
        ]

        max_slots = max(engine.compiled.n_slots for engine in engines)
        max_acts = max(engine._n for engine in engines)
        cursors = [engine._cursor for engine in engines]
        places_of = [engine.compiled.places for engine in engines]
        insta_reads_of = [
            engine.compiled.insta_reads_mask for engine in engines
        ]
        fb_counts = [len(engine._fb_indices) for engine in engines]
        stop_exprs = [
            self.engines[self._engine_index[id(job.engine)]]._lowered_stop(
                job.stop_predicate
            )
            for job in self.jobs
        ]
        stop_preds = [job.stop_predicate for job in self.jobs]
        any_stop = any(pred is not None for pred in stop_preds)

        # --- tensors: padded marking matrix + rate rows ---------------
        rows_vals: list[list] = [None] * n_rows  # type: ignore[list-item]
        matrix = np.zeros((n_rows, max_slots), dtype=np.int64, order="F")
        for e, engine in enumerate(engines):
            initial = engine.compiled.initial_values
            rows_e = engine_rows[e]
            for r in rows_e:
                rows_vals[r] = list(initial)
            mirror = cursors[e]._mirror
            for slot, mirrored in enumerate(mirror):
                if mirrored:
                    matrix[rows_e, slot] = initial[slot]
            cursors[e].bind_batch(rows_vals, matrix)

        Ro = np.zeros((n_rows, max_acts), dtype=np.float64)
        Rb = (
            np.zeros((n_rows, max_acts), dtype=np.float64)
            if has_bias else Ro
        )
        alive_mask = np.zeros(n_rows, dtype=bool)

        results: list[Optional[SimulationRun]] = [None] * n_rows
        now = [0.0] * n_rows
        weights = [1.0] * n_rows
        firings = [0] * n_rows
        integrators = [_RewardIntegrator(None) for _ in range(n_rows)]
        stale = [0] * n_rows
        changed_masks = [0] * n_rows
        fb_reads = [[0] * fb_counts[eng_of[r]] for r in range(n_rows)]
        fb_union = [0] * n_rows

        def sync(row: int) -> None:
            mask = stale[row]
            if mask:
                values = rows_vals[row]
                while mask:
                    low = mask & -mask
                    slot = low.bit_length() - 1
                    values[slot] = int(matrix[row, slot])
                    mask ^= low
                stale[row] = 0

        def finalize(row: int, end_time: float, stopped: bool,
                     stop_time: float) -> None:
            # as in SteppedJumpEngine.run_batch: the finished row is
            # never written again, so its marking snapshot is deferred
            alive_mask[row] = False
            sync(row)
            results[row] = SimulationRun(
                end_time=end_time,
                stopped=stopped,
                stop_time=stop_time,
                weight=weights[row],
                firings=firings[row],
                final_marking=DeferredMarking(
                    places_of[eng_of[row]], rows_vals[row]
                ),
                reward_integrals=integrators[row].integrals,
            )

        # --- entry: per-engine stabilise, time-zero exits, refresh ----
        alive: list[int] = []
        for e, engine in enumerate(engines):
            rows_e = [int(r) for r in engine_rows[e]]
            cursor = cursors[e]
            broadcast = engine._insta_single_case and len(rows_e) > 1
            if broadcast:
                first = rows_e[0]
                cursor.set_row(first)
                cursor.changed_mask = 0
                engine._stabilize(streams_of[first])
                cursor.changed_mask = 0
                base_values = rows_vals[first]
                others = np.asarray(rows_e[1:], dtype=np.intp)
                for r in rows_e[1:]:
                    rows_vals[r][:] = base_values
                matrix[others] = matrix[first]
            for r in rows_e:
                cursor.set_row(r)
                cursor.changed_mask = 0
                if not broadcast:
                    engine._stabilize(streams_of[r])
                    cursor.changed_mask = 0
                pred = stop_preds[job_of[r]]
                if pred is not None and pred(cursor):
                    finalize(r, 0.0, True, 0.0)
                elif hz[r] <= 0.0:
                    finalize(r, hz[r], False, math.inf)
                else:
                    alive_mask[r] = True
                    alive.append(r)
        alive.sort()
        for e, engine in enumerate(engines):
            rows_e = engine_rows[e]
            alive_e = rows_e[alive_mask[rows_e]]
            if not len(alive_e):
                continue
            entry_cache: dict = {}
            with np.errstate(all="ignore"):
                for table in engine._tables:
                    table.refresh(matrix, alive_e, Ro, Rb, alive_mask,
                                  has_bias, entry_cache, restrict=True)
            if fb_counts[e]:
                cursor = cursors[e]
                for r in alive_e:
                    r = int(r)
                    cursor.set_row(r)
                    engine._refresh_fallback_row(r, -1, fb_reads[r], Ro, Rb)
                    fb_union[r] = engine._fold_union(fb_reads[r])
                    cursor.changed_mask = 0

        kernel_counts = [0] * n_engines
        step_counts = np.zeros(n_engines, dtype=np.int64)
        row_step_counts = np.zeros(n_engines, dtype=np.int64)

        # --- batch-step loop over all points' rows --------------------
        while alive:
            alive_per_engine = np.bincount(
                eng_of[alive], minlength=n_engines
            )
            step_counts += alive_per_engine > 0
            row_step_counts += alive_per_engine
            full = len(alive) == n_rows
            Cb = np.cumsum(Rb if full else Rb[alive], axis=1)
            if has_bias:
                Co = np.cumsum(Ro if full else Ro[alive], axis=1)

            # phase 1: per-row draws, deadlock and horizon exits (each
            # row's exponential and selection uniform stay consecutive
            # on its own stream, against its own horizon)
            fired_rows: list[int] = []
            fired_u: list[float] = []
            fired_pos: list[int] = []
            fired_tb: list[float] = []
            fired_tot: list[float] = []
            fired_hold: list[float] = []
            for position, r in enumerate(alive):
                stream = streams_of[r]
                total_biased = float(Cb[position, -1])
                total = (
                    float(Co[position, -1]) if has_bias else total_biased
                )
                if total <= 0.0:
                    finalize(r, now[r], False, math.inf)
                    continue
                holding = stream.exponential(total_biased)
                if now[r] + holding > hz[r]:
                    if has_bias:
                        weights[r] *= math.exp(
                            -(total - total_biased) * (hz[r] - now[r])
                        )
                    now[r] = hz[r]
                    finalize(r, hz[r], False, math.inf)
                    continue
                u = stream.random() * total_biased
                now[r] += holding
                firings[r] += 1
                changed_masks[r] = 0
                kernel_counts[eng_of[r]] += 1
                fired_rows.append(r)
                fired_pos.append(position)
                fired_u.append(u)
                if has_bias:
                    fired_tb.append(total_biased)
                    fired_tot.append(total)
                    fired_hold.append(holding)
            if not fired_rows:
                alive = []
                continue

            # phase 2: vectorized selection with per-row clamp-back at
            # the owning point's activity count (see module docstring)
            pos_arr = np.array(fired_pos, dtype=np.intp)
            u_arr = np.array(fired_u, dtype=np.float64)
            indices = (Cb[pos_arr] <= u_arr[:, None]).sum(axis=1)
            limits = n_acts_of[fired_rows]
            for k in np.nonzero(indices >= limits)[0]:
                r = fired_rows[k]
                index = int(limits[k]) - 1
                while index > 0 and Rb[r, index] <= 0.0:
                    index -= 1
                indices[k] = index
            if has_bias:
                for k, r in enumerate(fired_rows):
                    index = int(indices[k])
                    weights[r] *= (
                        float(Ro[r, index]) / float(Rb[r, index])
                    ) * math.exp(
                        -(fired_tot[k] - fired_tb[k]) * fired_hold[k]
                    )

            # phase 3: fused firing, grouped by (engine, activity, case)
            groups: dict[tuple[int, int], list[int]] = {}
            for k in range(len(fired_rows)):
                key = (int(eng_of[fired_rows[k]]), int(indices[k]))
                groups.setdefault(key, []).append(k)
            for (e, index), members in groups.items():
                engine = engines[e]
                cursor = cursors[e]
                chooser = engine._choosers[index]
                if chooser is None:
                    by_case = {0: members}
                else:
                    by_case = {}
                    for k in members:
                        r = fired_rows[k]
                        sync(r)
                        cursor.set_row(r)
                        by_case.setdefault(
                            chooser(streams_of[r]), []
                        ).append(k)
                programs = engine._fire_programs[index]
                firer = engine._firers[index]
                for case, ks in by_case.items():
                    program = programs[case]
                    if program is not None:
                        if len(ks) <= 2:
                            write_mask = program.write_mask
                            for k in ks:
                                r = fired_rows[k]
                                if program.apply_row(matrix, r):
                                    stale[r] |= write_mask
                                    changed_masks[r] |= write_mask
                                else:
                                    sync(r)
                                    cursor.set_row(r)
                                    cursor.changed_mask = 0
                                    firer(case)
                                    changed_masks[r] |= (
                                        cursor.clear_changed_mask()
                                    )
                                    engine._closure_firings += 1
                            continue
                        krows = np.fromiter(
                            (fired_rows[k] for k in ks),
                            dtype=np.intp,
                            count=len(ks),
                        )
                        if program.apply(matrix, krows):
                            write_mask = program.write_mask
                            for k in ks:
                                r = fired_rows[k]
                                stale[r] |= write_mask
                                changed_masks[r] |= write_mask
                            continue
                    engine._closure_firings += len(ks)
                    for k in ks:
                        r = fired_rows[k]
                        sync(r)
                        cursor.set_row(r)
                        cursor.changed_mask = 0
                        firer(case)
                        changed_masks[r] |= cursor.clear_changed_mask()

            # phase 4: instantaneous stabilisation, per owning engine
            triggered_by_engine: dict[int, list[int]] = {}
            for r in fired_rows:
                e = int(eng_of[r])
                if changed_masks[r] & insta_reads_of[e]:
                    triggered_by_engine.setdefault(e, []).append(r)
            for e, triggered in triggered_by_engine.items():
                engine = engines[e]
                if not engine._insta:
                    continue
                if engine._insta_tables is not None:
                    with np.errstate(all="ignore"):
                        enabled = engine._insta_enabled_rows(
                            matrix, np.asarray(triggered, dtype=np.intp)
                        )
                    scan_rows = [
                        triggered[k] for k in np.flatnonzero(enabled)
                    ]
                else:
                    scan_rows = triggered
                engine._insta_scans += len(scan_rows)
                cursor = cursors[e]
                for r in scan_rows:
                    sync(r)
                    cursor.set_row(r)
                    cursor.changed_mask = 0
                    engine._stabilize(streams_of[r])
                    changed_masks[r] |= cursor.clear_changed_mask()

            # phase 5: absorption (lowered per job where possible),
            # horizon, fallback refresh, per-engine lowered refresh
            if any_stop:
                by_job: dict[int, list[int]] = {}
                for r in fired_rows:
                    j = int(job_of[r])
                    if stop_preds[j] is not None:
                        by_job.setdefault(j, []).append(r)
                for j, jrows in by_job.items():
                    expr = stop_exprs[j]
                    if expr is not None:
                        jarr = np.asarray(jrows, dtype=np.intp)
                        with np.errstate(all="ignore"):
                            hit = _bool_rows(expr(matrix[jarr]), len(jarr))
                        for r, h in zip(jrows, hit):
                            if h:
                                finalize(r, now[r], True, now[r])
                    else:
                        pred = stop_preds[j]
                        for r in jrows:
                            sync(r)
                            cursor = cursors[eng_of[r]]
                            cursor.set_row(r)
                            if pred(cursor):
                                finalize(r, now[r], True, now[r])

            changed_unions = [0] * n_engines
            survivors: list[int] = []
            for r in fired_rows:
                if results[r] is not None:
                    continue
                if now[r] >= hz[r]:
                    finalize(r, now[r], False, math.inf)
                    continue
                changed = changed_masks[r]
                if changed:
                    e = int(eng_of[r])
                    changed_unions[e] |= changed
                    if fb_counts[e] and changed & fb_union[r]:
                        sync(r)
                        cursors[e].set_row(r)
                        reads = fb_reads[r]
                        if engines[e]._refresh_fallback_row(
                            r, changed, reads, Ro, Rb
                        ):
                            fb_union[r] = engines[e]._fold_union(reads)
                survivors.append(r)
            alive = survivors
            for e in range(n_engines):
                if not changed_unions[e] or not engines[e]._lowered:
                    continue
                rows_e = engine_rows[e]
                alive_e = rows_e[alive_mask[rows_e]]
                if len(alive_e):
                    _refresh_engine(engines[e], changed_unions[e], matrix,
                                    alive_e, Ro, Rb, alive_mask, has_bias)

        for e, engine in enumerate(engines):
            engine._kernel_events += kernel_counts[e]
            engine._steps += int(step_counts[e])
            engine._row_steps += int(row_step_counts[e])
        for cursor in cursors:
            cursor.release()
        return [
            [results[r] for r in rows_j]  # type: ignore[misc]
            for rows_j in job_rows
        ]
