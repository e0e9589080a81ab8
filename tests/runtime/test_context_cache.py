"""The per-worker context memo and its profiler accounting.

Sequential-stopping runs dispatch many chunks of the same task to each
worker; :meth:`UnsafetySimulationTask.build_cached` memoises the built
context per process so the model is compiled at most once per worker,
and cache hits report ``compile_seconds == 0.0`` so the driver's compile
span totals exactly one compile per worker.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.partasks as partasks
from repro.core.parameters import AHSParameters
from repro.core.partasks import UnsafetySimulationTask
from repro.obs import PhaseProfiler
from repro.runtime import ParallelRunner
from repro.stats import SequentialStoppingRule
from repro.stochastic import StreamFactory


def make_task(engine="compiled", **kwargs):
    return UnsafetySimulationTask(
        params=AHSParameters(max_platoon_size=2, base_failure_rate=5e-3),
        times=(2.0, 6.0),
        engine=engine,
        **kwargs,
    )


@pytest.fixture(autouse=True)
def clean_context_cache():
    partasks._CONTEXT_CACHE.clear()
    yield
    partasks._CONTEXT_CACHE.clear()


class TestBuildCached:
    def test_hit_returns_same_context_with_zero_compile_seconds(self):
        task = make_task()
        first = task.build_cached()
        assert first.compile_seconds > 0.0
        second = task.build_cached()
        assert second.simulator is first.simulator
        assert second.compile_seconds == 0.0

    def test_distinct_tasks_get_distinct_contexts(self):
        ctx_a = make_task().build_cached()
        ctx_b = make_task(engine="stepped").build_cached()
        assert ctx_b.simulator is not ctx_a.simulator

    def test_batch_size_shares_the_context(self):
        # stepped results are bit-identical at every width, so the token
        # (and therefore the worker context) is shared across widths
        ctx_a = make_task(engine="stepped", batch_size=64).build_cached()
        ctx_b = make_task(engine="stepped", batch_size=256).build_cached()
        assert ctx_b.simulator is ctx_a.simulator

    def test_metrics_tasks_bypass_the_memo(self):
        task = make_task(metrics=True)
        first = task.build_cached()
        second = task.build_cached()
        assert second.simulator is not first.simulator
        assert second.recorder is not first.recorder
        assert partasks._CONTEXT_CACHE == {}

    def test_memo_is_bounded_fifo(self):
        for n in range(2, 2 + partasks._CONTEXT_CACHE_MAX + 1):
            UnsafetySimulationTask(
                params=AHSParameters(max_platoon_size=n),
                times=(2.0,),
            ).build_cached()
        assert len(partasks._CONTEXT_CACHE) == partasks._CONTEXT_CACHE_MAX

    def test_batch_size_validated(self):
        with pytest.raises(ValueError, match="batch_size"):
            make_task(batch_size=0)


class TestSampleBatch:
    def test_batch_rows_match_serial_samples(self):
        task = make_task(engine="stepped", batch_size=4)
        context = task.build()
        assert task.supports_batch(context)
        streams_a = StreamFactory(3).stream_batch("mc", 10)
        streams_b = StreamFactory(3).stream_batch("mc", 10)
        block = task.sample_batch(context, streams_a)

        serial_task = make_task(engine="compiled")
        serial_context = serial_task.build()
        rows = np.vstack(
            [serial_task.sample(serial_context, s) for s in streams_b]
        )
        np.testing.assert_array_equal(block, rows)
        assert [s.draw_count for s in streams_a] == [
            s.draw_count for s in streams_b
        ]

    def test_compiled_context_has_no_batch_path(self):
        task = make_task(engine="compiled")
        assert not task.supports_batch(task.build())


class TestProfilerAccounting:
    def test_add_matches_span_accounting(self):
        profiler = PhaseProfiler()
        sunk = []
        profiler.sink = lambda phase, seconds: sunk.append((phase, seconds))
        profiler.add("compile", 1.5)
        profiler.add("compile", 0.5)
        stats = profiler.phases["compile"]
        assert stats.calls == 2
        assert stats.seconds == 2.0
        assert sunk == [("compile", 1.5), ("compile", 0.5)]

    def test_parallel_run_compiles_once_per_worker(self):
        # >= 3 sequential-stopping rounds over 2 workers: the compile
        # span must total one build per worker, not one per chunk
        rule = SequentialStoppingRule(
            relative_width=0.5, min_replications=100, max_replications=600
        )
        profiler = PhaseProfiler()
        runner = ParallelRunner(workers=2, chunk_size=50, profiler=profiler)
        try:
            result = runner.run(make_task(engine="stepped"), seed=11, rule=rule)
        finally:
            runner.close()
        assert result.n_replications >= 300  # several rounds actually ran
        compile_stats = profiler.phases.get("compile")
        assert compile_stats is not None
        assert compile_stats.calls <= 2


class TestConfigurableFifo:
    """The per-process FIFO size is a runner parameter, and driver-side
    evictions surface as ``CacheMiss(scope="worker-context")`` ledger
    events."""

    @pytest.fixture(autouse=True)
    def restore_workerctx(self):
        from repro.runtime import workerctx

        yield
        workerctx.clear_eviction_hook()
        workerctx.configure(workerctx.DEFAULT_MAX_ENTRIES)

    @staticmethod
    def fill(count):
        """Build ``count`` distinct contexts through the memo."""
        for n in range(2, 2 + count):
            UnsafetySimulationTask(
                params=AHSParameters(max_platoon_size=n),
                times=(2.0,),
            ).build_cached()

    def test_configure_shrinks_the_memo(self):
        from repro.runtime import workerctx

        workerctx.configure(3)
        self.fill(5)
        assert len(partasks._CONTEXT_CACHE) == 3

    def test_runner_parameter_sets_the_driver_fifo(self):
        from repro.runtime import workerctx

        runner = ParallelRunner(workers=1, context_cache_size=4)
        try:
            assert workerctx.max_entries() == 4
        finally:
            runner.close()

    def test_runner_rejects_non_positive_size(self):
        with pytest.raises(ValueError, match="context_cache_size"):
            ParallelRunner(workers=1, context_cache_size=0)

    def test_eviction_emits_cache_miss_event(self):
        from repro.obs import EventBus

        records = []
        bus = EventBus("ctx-test", sinks=[records.append])
        runner = ParallelRunner(workers=1, context_cache_size=2, events=bus)
        try:
            self.fill(4)  # 4 builds through a 2-deep FIFO: 2 evictions
        finally:
            runner.close()
        misses = [r for r in records if r["event"] == "CacheMiss"]
        assert len(misses) == 2
        for envelope in misses:
            assert envelope["data"]["scope"] == "worker-context"
            assert envelope["data"]["key"]

    def test_close_detaches_the_eviction_hook(self):
        from repro.obs import EventBus

        records = []
        bus = EventBus("ctx-test", sinks=[records.append])
        runner = ParallelRunner(workers=1, context_cache_size=2, events=bus)
        runner.close()
        self.fill(4)
        assert [r for r in records if r["event"] == "CacheMiss"] == []
