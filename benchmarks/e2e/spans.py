"""Layer-boundary spans for ``run.py --trace``.

:func:`install` wraps the public functions that bound each layer of the
program (orchestrator round loop and warm start, model build, engine
compile, jump kernels, pool dispatch, result cache, chunk merging, event
emission).  Each call records one span: name, start, end, parent span
and optional counts (rows simulated, cache hit).

Spans stay in memory.  Workers of a process pool are forked after
:func:`install`, so they inherit the wrappers; a worker appends its
spans to ``spans-<pid>.jsonl`` in the spill directory whenever its
outermost span closes (pool workers exit without running ``atexit``
hooks, so nothing may wait for process exit).  :func:`collect` merges
the driver's spans with every worker file, and :func:`layer_metrics`
turns the merged list into the per-layer table.

A span's *self time* is its duration minus the durations of its direct
children; summed over every span, self times partition the traced time
without double counting.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import time
from pathlib import Path
from typing import Any, Callable, Optional

from gate import point_relative_ci

__all__ = ["Tracer", "install", "collect", "self_times", "layer_metrics"]


class Tracer:
    """In-memory span store for one process (reset in forked children)."""

    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = Path(spill_dir)
        self.driver_pid = os.getpid()
        self.pid = self.driver_pid
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._next_id = 0

    def _own_process(self) -> None:
        # a forked worker inherits the driver's spans and open stack;
        # it records only its own
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.spans = []
            self._stack = []

    def open(self, name: str) -> dict:
        self._own_process()
        span = {
            "id": self._next_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "pid": self.pid,
            "start": time.perf_counter(),
        }
        self._next_id += 1
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)
        if not self._stack and self.pid != self.driver_pid:
            self._spill()

    def _spill(self) -> None:
        path = self.spill_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        annotate: Optional[Callable[[tuple, Any], dict]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``annotate(args, result)`` returns extra fields for the span
        (row counts, cache hits).
        """
        inner = getattr(owner, attr)
        tracer = self

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = inner(*args, **kwargs)
                if annotate is not None:
                    span.update(annotate(args, result))
                return result
            finally:
                tracer.close(span)

        setattr(owner, attr, traced)


def _job_bytes(runner, jobs) -> int:
    """Pickled size of a dispatch's jobs (0 when nothing leaves the process)."""
    if runner.workers <= 1:
        return 0
    return sum(
        len(pickle.dumps((fn, args), pickle.HIGHEST_PROTOCOL))
        for fn, args in jobs.values()
    )


def install(spill_dir: Path) -> Tracer:
    """Wrap every layer boundary; call before the first pool is created."""
    import repro.orchestrate.driver as driver
    from repro.core import composed
    from repro.obs.events import EventBus
    from repro.runtime.cache import ResultCache
    from repro.runtime.pool import ParallelRunner
    from repro.san import compiled
    from repro.san.compiled import CompiledJumpEngine
    from repro.san.multipoint import MultiPointContext
    from repro.san.stepped import SteppedJumpEngine

    tracer = Tracer(spill_dir)
    wrap = tracer.wrap
    wrap(driver.Orchestrator, "run", "orchestrate.run")
    wrap(driver, "warm_start", "orchestrate.warm_start")
    wrap(driver, "combine", "runtime.merge")
    wrap(driver, "pooled_intervals", "runtime.merge")
    wrap(composed, "build_composed_model", "core.model_build")
    wrap(compiled, "make_jump_engine", "san.compile")
    wrap(
        SteppedJumpEngine, "run_batch", "san.kernel",
        lambda args, result: {"rows": len(args[1])},
    )
    wrap(
        CompiledJumpEngine, "run", "san.kernel",
        lambda args, result: {"rows": 1},
    )
    wrap(
        MultiPointContext, "run", "san.kernel",
        lambda args, result: {"rows": args[0].n_rows},
    )
    wrap(
        ResultCache, "get", "runtime.cache_get",
        lambda args, result: {"hit": result is not None},
    )
    wrap(ResultCache, "put", "runtime.cache_put")
    wrap(EventBus, "emit", "obs.emit")
    for method in ("execute_jobs", "execute_jobs_grouped"):
        inner = getattr(ParallelRunner, method)

        def dispatch(self, jobs, *args, _inner=inner, **kwargs):
            # sized before the span opens, so the probe is not dispatch time
            size = _job_bytes(self, jobs)
            span = tracer.open("runtime.dispatch")
            span["job_bytes"] = size
            try:
                return _inner(self, jobs, *args, **kwargs)
            finally:
                tracer.close(span)

        setattr(ParallelRunner, method, functools.wraps(inner)(dispatch))
    return tracer


def collect(tracer: Tracer) -> list[dict]:
    """The driver's spans plus every worker's spilled spans."""
    spans = list(tracer.spans)
    for path in sorted(tracer.spill_dir.glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus its direct children's durations."""
    child_time: dict[tuple, float] = {}
    for span in spans:
        if span["parent"] is not None:
            key = (span["pid"], span["parent"])
            child_time[key] = (
                child_time.get(key, 0.0) + span["end"] - span["start"]
            )
    return [
        span["end"] - span["start"]
        - child_time.get((span["pid"], span["id"]), 0.0)
        for span in spans
    ]


def layer_metrics(
    spans: list[dict],
    *,
    driver_pid: int,
    record: dict,
    wall_s: float,
    import_s: float,
    workers: int,
    target: Optional[float],
    events_emitted: int,
    ledger_bytes: int,
) -> tuple[dict, float]:
    """Per-layer table (name -> value) and the traced share of ``wall_s``.

    ``record`` is the run's ``repro-estimates/1`` artifact; counts the
    program already keeps (rounds, chunks, events, draws, busy seconds,
    retries) are read from it rather than re-derived from spans.  The
    traced share counts the import plus the self time of the driver
    process's spans, which nest inside ``orchestrate.run``.
    """
    selfs = self_times(spans)
    by_name: dict[str, float] = {}
    counts: dict[str, int] = {}
    for span, own in zip(spans, selfs):
        by_name[span["name"]] = by_name.get(span["name"], 0.0) + own
        counts[span["name"]] = counts.get(span["name"], 0) + 1
    kernel = [s for s in spans if s["name"] == "san.kernel"]
    dispatches = [s for s in spans if s["name"] == "runtime.dispatch"]
    gets = [s for s in spans if s["name"] == "runtime.cache_get"]
    covered = import_s + sum(
        own for span, own in zip(spans, selfs) if span["pid"] == driver_pid
    )

    telemetry = record["telemetry"]
    points = record["points"]
    spent = int(record["ledger"]["spent"])
    kernel_s = by_name.get("san.kernel", 0.0)
    events = sum(int(p["events"]) for p in points)
    busy = sum(
        float(w["busy_seconds"]) for w in telemetry["per_worker"].values()
    )
    dispatch_wall = sum(s["end"] - s["start"] for s in dispatches)
    # replications the target would have needed at each point's final
    # width: n_p (w_p / target)^2, against what was spent
    goal = target if target else 0.1
    needed = 0.0
    widest = 0.0
    for point in points:
        rel = point_relative_ci(point)
        if rel is not None:
            needed += point["n_replications"] * (rel / goal) ** 2
            widest = max(widest, rel)

    metrics = {
        "process.import_s": import_s,
        "orchestrate.warm_start_s": by_name.get("orchestrate.warm_start", 0.0),
        "orchestrate.rounds": len(record["rounds"]),
        "orchestrate.self_s": by_name.get("orchestrate.run", 0.0),
        "orchestrate.needed_share": needed / spent,
        "orchestrate.max_rel_ci": widest,
        "core.model_builds": counts.get("core.model_build", 0),
        "core.model_build_s": by_name.get("core.model_build", 0.0),
        "san.compile_s": by_name.get("san.compile", 0.0),
        "san.kernel_s": kernel_s,
        "san.kernel_calls": len(kernel),
        "san.rows_per_call": (
            sum(s.get("rows", 0) for s in kernel) / len(kernel)
            if kernel else 0.0
        ),
        "san.events": events,
        "san.draws": int(telemetry["draws"]),
        "san.events_per_s": events / kernel_s if kernel_s > 0 else 0.0,
        "san.kernel_share": kernel_s / (wall_s * workers),
        "runtime.chunks": int(telemetry["chunks"]),
        "runtime.dispatch_self_s": by_name.get("runtime.dispatch", 0.0),
        "runtime.worker_busy_s": busy,
        "runtime.worker_idle_s": max(workers * dispatch_wall - busy, 0.0),
        "runtime.job_bytes": sum(s.get("job_bytes", 0) for s in dispatches),
        "runtime.cache_puts": counts.get("runtime.cache_put", 0),
        "runtime.cache_put_s": by_name.get("runtime.cache_put", 0.0),
        "runtime.cache_get_s": by_name.get("runtime.cache_get", 0.0),
        "runtime.cache_hit_ratio": (
            sum(1 for s in gets if s.get("hit")) / len(gets) if gets else 0.0
        ),
        "runtime.merge_s": by_name.get("runtime.merge", 0.0),
        "runtime.retries": int(telemetry["retries"]),
        "runtime.fallbacks": int(telemetry["fallbacks"]),
        "obs.events_emitted": events_emitted,
        "obs.emit_s": by_name.get("obs.emit", 0.0),
        "obs.ledger_bytes": ledger_bytes,
    }
    return metrics, covered / wall_s
