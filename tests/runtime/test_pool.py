"""Tests for repro.runtime.pool — determinism, stopping rule, fault tolerance."""

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.core.parameters import AHSParameters
from repro.core.partasks import UnsafetySimulationTask
from repro.runtime import ParallelRunner, ReplicationPlan, ResultCache
from repro.stats import SequentialStoppingRule, normal_ci


# ----------------------------------------------------------------------
# picklable toy tasks (module level so workers can import them)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NormalMeanTask:
    """Cheap two-coordinate workload with a known mean."""

    mu: float = 5.0
    coords: int = 2

    def build(self):
        return None

    def sample(self, context, stream):
        return np.array(
            [stream.normal(self.mu + j, 1.0) for j in range(self.coords)]
        )

    def cache_token(self):
        return {"kind": "test-normal", "mu": self.mu, "coords": self.coords}


@dataclass(frozen=True)
class FlakyBuildTask(NormalMeanTask):
    """Raises on the first build() ever attempted (marker-file latch)."""

    marker_dir: str = ""

    def build(self):
        marker = Path(self.marker_dir) / "failed-once"
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return None
        os.close(fd)
        raise RuntimeError("injected chunk failure")


@dataclass(frozen=True)
class CrashOutsideParentTask(NormalMeanTask):
    """Kills the worker process outright — only the driver can compute it."""

    parent_pid: int = 0

    def build(self):
        if os.getpid() != self.parent_pid:
            os._exit(17)
        return None


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SquarePointTask:
    """Sweep-map point with a cache token."""

    x: float = 3.0

    def __call__(self):
        return [self.x * self.x]

    def cache_token(self):
        return {"kind": "test-square", "x": self.x}


def _run(task, workers, **kwargs):
    defaults = dict(seed=2009, n_replications=120)
    defaults.update(kwargs)
    with ParallelRunner(workers=workers, chunk_size=30) as runner:
        return runner.run(task, **defaults)


class TestDeterminism:
    def test_same_seed_same_estimate_for_1_2_4_workers(self):
        task = NormalMeanTask()
        results = [_run(task, workers) for workers in (1, 2, 4)]
        for other in results[1:]:
            assert np.array_equal(results[0].values, other.values)
            assert np.array_equal(results[0].half_widths, other.half_widths)
            assert results[0].n_replications == other.n_replications

    @pytest.mark.slow
    def test_ahs_simulation_task_identical_across_workers(self):
        task = UnsafetySimulationTask(
            params=AHSParameters(max_platoon_size=4, base_failure_rate=1e-2),
            times=(0.5, 1.0),
        )
        results = [_run(task, workers, seed=42) for workers in (1, 2, 4)]
        for other in results[1:]:
            assert np.array_equal(results[0].values, other.values)
            assert np.array_equal(results[0].half_widths, other.half_widths)

    def test_different_seeds_differ(self):
        task = NormalMeanTask()
        a = _run(task, 1, seed=1)
        b = _run(task, 1, seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_pooled_estimate_equals_serial_estimator(self):
        """The chunked/merged path reproduces a plain serial mean + CI."""
        task = NormalMeanTask()
        result = _run(task, 1, seed=5, n_replications=200)
        plan = ReplicationPlan(5, chunk_size=30)
        samples = np.vstack(
            [task.sample(None, plan.stream(i)) for i in range(200)]
        )
        assert np.allclose(result.values, samples.mean(axis=0), rtol=1e-12)
        for j in range(samples.shape[1]):
            serial = normal_ci(samples[:, j], 0.95)
            assert result.half_widths[j] == pytest.approx(
                serial.half_width, rel=1e-12
            )


class TestStoppingRule:
    def test_rule_driven_run_converges_identically_across_workers(self):
        task = NormalMeanTask()
        rule = SequentialStoppingRule(
            confidence=0.95,
            relative_width=0.1,
            min_replications=60,
            max_replications=600,
        )
        outcomes = []
        for workers in (1, 2):
            with ParallelRunner(workers=workers, chunk_size=25) as runner:
                outcomes.append(runner.run(task, seed=11, rule=rule))
        a, b = outcomes
        assert a.converged and b.converged
        assert a.n_replications == b.n_replications
        assert np.array_equal(a.values, b.values)
        # mu = 5 with sigma = 1: the 0.1 relative target is immediate
        assert a.n_replications <= 100

    def test_budget_exhaustion_reports_unconverged(self):
        # zero-mean workload never satisfies the relative-width criterion
        task = NormalMeanTask(mu=0.0, coords=1)
        rule = SequentialStoppingRule(
            min_replications=50, max_replications=100
        )
        with ParallelRunner(workers=1, chunk_size=25) as runner:
            result = runner.run(task, seed=3, rule=rule)
        assert not result.converged
        assert result.n_replications == 100

    def test_requires_exactly_one_budget(self):
        runner = ParallelRunner(workers=1)
        with pytest.raises(ValueError):
            runner.run(NormalMeanTask(), seed=1)
        with pytest.raises(ValueError):
            runner.run(
                NormalMeanTask(),
                seed=1,
                n_replications=10,
                rule=SequentialStoppingRule(),
            )


class TestFaultTolerance:
    def test_failed_chunk_is_retried_and_result_unchanged(self, tmp_path):
        flaky = FlakyBuildTask(marker_dir=str(tmp_path / "a"))
        (tmp_path / "a").mkdir()
        with ParallelRunner(workers=2, chunk_size=30, max_retries=2) as runner:
            result = runner.run(flaky, seed=2009, n_replications=120)
        assert result.telemetry.retries >= 1
        assert result.telemetry.fallbacks == 0

        # a clean serial reference: pre-latch the marker so build succeeds
        clean_dir = tmp_path / "b"
        clean_dir.mkdir()
        (clean_dir / "failed-once").touch()
        reference = _run(FlakyBuildTask(marker_dir=str(clean_dir)), 1)
        assert np.array_equal(result.values, reference.values)
        assert np.array_equal(result.half_widths, reference.half_widths)

    def test_crashing_worker_falls_back_in_process(self):
        task = CrashOutsideParentTask(parent_pid=os.getpid())
        with ParallelRunner(workers=2, chunk_size=60, max_retries=1) as runner:
            result = runner.run(task, seed=2009, n_replications=120)
        # every chunk crashed its worker; the driver computed them all
        assert result.telemetry.fallbacks == 2
        assert result.telemetry.retries >= 2
        # same chunk_size so the merge tree is bit-identical
        with ParallelRunner(workers=1, chunk_size=60) as runner:
            reference = runner.run(
                NormalMeanTask(), seed=2009, n_replications=120
            )
        assert np.array_equal(result.values, reference.values)

    def test_persistently_failing_task_raises_from_driver(self, tmp_path):
        @dataclass(frozen=True)
        class AlwaysFails(NormalMeanTask):
            def build(self):
                raise RuntimeError("broken model")

        # defined locally on purpose: serial path needs no pickling
        with ParallelRunner(workers=1, chunk_size=30) as runner:
            with pytest.raises(RuntimeError, match="broken model"):
                runner.run(AlwaysFails(), seed=1, n_replications=30)


class TestCachedRuns:
    def test_second_run_is_served_from_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = NormalMeanTask()
        with ParallelRunner(workers=1, chunk_size=30, cache=cache) as runner:
            cold = runner.run(task, seed=8, n_replications=90)
            warm = runner.run(task, seed=8, n_replications=90)
        assert not cold.from_cache
        assert warm.from_cache
        assert warm.telemetry.cache_hits == 1
        assert warm.telemetry.units == 0  # nothing was re-simulated
        assert np.allclose(cold.values, warm.values, rtol=0, atol=0)
        assert np.allclose(cold.half_widths, warm.half_widths, rtol=0, atol=0)

    def test_worker_count_does_not_fragment_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = NormalMeanTask()
        with ParallelRunner(workers=1, chunk_size=30, cache=cache) as runner:
            runner.run(task, seed=8, n_replications=90)
        with ParallelRunner(workers=2, chunk_size=30, cache=cache) as runner:
            warm = runner.run(task, seed=8, n_replications=90)
        assert warm.from_cache

    def test_damaged_chunk_entries_rerun_with_reasons(self, tmp_path):
        from repro.obs import EventBus

        task = NormalMeanTask()
        with ParallelRunner(workers=1, chunk_size=30) as runner:
            fresh = runner.run(task, seed=8, n_replications=150)

        def resume(records=None):
            bus = None if records is None else EventBus(
                "resume", sinks=[records.append]
            )
            with ParallelRunner(
                workers=1, chunk_size=30, cache=ResultCache(tmp_path),
                chunk_cache=True, events=bus,
            ) as runner:
                return runner.run(task, seed=8, n_replications=150)

        def chunk_entries():
            # drop the whole-run record so the next run consults chunks
            entries = {}
            for path in tmp_path.glob("??/*.json"):
                payload = json.loads(path.read_text())["payload"]
                if "chunk_index" in payload:
                    entries[payload["chunk_index"]] = path
                else:
                    path.unlink()
            return entries

        resume()
        entries = chunk_entries()
        assert sorted(entries) == [0, 1, 2, 3, 4]
        # a copied file, a record with no payload, valid JSON that is not
        # an object, and a chunk payload with no ``n``
        entries[0].write_text(entries[1].read_text())
        entries[1].write_text(json.dumps({"key": entries[1].stem}))
        entries[2].write_text(json.dumps([1, 2]))
        record = json.loads(entries[3].read_text())
        del record["payload"]["n"]
        entries[3].write_text(json.dumps(record))

        records = []
        resumed = resume(records)
        assert np.array_equal(resumed.values, fresh.values)
        assert np.array_equal(resumed.half_widths, fresh.half_widths)
        misses = {
            r["data"].get("chunk_id"): r["data"]["reason"]
            for r in records
            if r["event"] == "CacheMiss"
        }
        assert misses == {
            None: "absent",  # the whole-run record
            "chunk-0": "key-mismatch",
            "chunk-1": "corrupt",
            "chunk-2": "corrupt",
            "chunk-3": "corrupt",
        }
        assert resumed.telemetry.cache_hits == 1  # chunk 4

        # the reruns overwrote every damaged entry
        chunk_entries()
        again = resume()
        assert again.telemetry.cache_hits == 5
        assert np.array_equal(again.values, fresh.values)

    def test_point_miss_carries_its_reason(self, tmp_path):
        from repro.obs import EventBus

        tasks = [SquarePointTask(2.0), SquarePointTask(3.0)]
        with ParallelRunner(workers=1, cache=ResultCache(tmp_path)) as runner:
            assert runner.map(tasks) == [[4.0], [9.0]]
        first, second = sorted(tmp_path.glob("??/*.json"))
        second.write_text(first.read_text())
        records = []
        bus = EventBus("points", sinks=[records.append])
        with ParallelRunner(
            workers=1, cache=ResultCache(tmp_path), events=bus
        ) as runner:
            assert runner.map(tasks) == [[4.0], [9.0]]
        assert [
            r["data"]["reason"] for r in records if r["event"] == "CacheMiss"
        ] == ["key-mismatch"]

    def test_seed_and_budget_are_part_of_the_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = NormalMeanTask()
        with ParallelRunner(workers=1, chunk_size=30, cache=cache) as runner:
            runner.run(task, seed=8, n_replications=90)
            other_seed = runner.run(task, seed=9, n_replications=90)
            other_budget = runner.run(task, seed=8, n_replications=120)
        assert not other_seed.from_cache
        assert not other_budget.from_cache


class TestTelemetry:
    def test_snapshot_accounts_for_all_replications_and_draws(self):
        task = NormalMeanTask(coords=3)
        result = _run(task, 2, n_replications=120)
        snapshot = result.telemetry
        assert snapshot.units == 120
        assert snapshot.chunks == 4
        # 3 normal draws per replication, counted via draw_count
        assert snapshot.draws == 120 * 3
        assert snapshot.unit == "replications"
        assert sum(s.units for s in snapshot.per_worker.values()) == 120
        assert snapshot.units_per_second > 0
        text = snapshot.format()
        assert "replications/sec=" in text
        assert "cache hit rate=" in text

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ParallelRunner(workers=0)
        with pytest.raises(ValueError):
            ParallelRunner(max_retries=-1)

    def test_worker_label_disambiguates_pid_reuse(self, monkeypatch):
        """Telemetry keys are pid+token: a recycled pid gets a fresh
        token, so a crash-replacement worker never merges its accounting
        into the dead worker's row."""
        from repro.runtime import pool

        label = pool._worker_label()
        assert label.startswith(f"pid-{os.getpid()}.")
        # same process, same cached label
        assert pool._worker_label() == label
        # simulate the cache carrying another process's pid (fork
        # inheritance or pid reuse): the token must be regenerated
        monkeypatch.setattr(
            pool, "_WORKER_UID", (os.getpid() + 1, "deadbe")
        )
        renewed = pool._worker_label()
        assert renewed.startswith(f"pid-{os.getpid()}.")
        assert renewed.split(".", 1)[1] != "deadbe"


class TestSweepBatch:
    """Grouped dispatch is pure scheduling: summaries are bit-identical."""

    @staticmethod
    def _point_jobs(runner, telemetry, n_points=3, chunks_per_point=4):
        """Multi-point job dict exactly as the orchestrator builds it."""
        jobs = {}
        for point in range(n_points):
            task = NormalMeanTask(mu=float(point + 1))
            plan = ReplicationPlan(900 + point, chunk_size=20)
            specs = plan.chunks(0, chunks_per_point * 20)
            point_jobs, cached = runner.chunk_jobs(
                task, plan, specs, telemetry, key_prefix=f"p{point}"
            )
            assert not cached
            jobs.update(point_jobs)
        return jobs

    @staticmethod
    def _comparable(results):
        return {
            key: (
                summary.chunk_index,
                summary.n,
                summary.draws,
                tuple(np.asarray(summary.mean).ravel().tolist()),
                tuple(np.asarray(summary.m2).ravel().tolist()),
            )
            for key, summary in results.items()
        }

    def test_grouped_results_bit_identical_to_per_chunk(self):
        from repro.runtime.telemetry import TelemetryRecorder

        with ParallelRunner(workers=2, chunk_size=20) as runner:
            telemetry = TelemetryRecorder(runner.workers)
            telemetry.start()
            flat = runner.execute_jobs(
                self._point_jobs(runner, telemetry), telemetry
            )
            for group_size in (1, 3, None):
                grouped = runner.execute_jobs_grouped(
                    self._point_jobs(runner, telemetry),
                    telemetry,
                    group_size=group_size,
                )
                assert self._comparable(grouped) == self._comparable(flat)

    def test_serial_runner_short_circuits_grouping(self):
        from repro.runtime.telemetry import TelemetryRecorder

        with ParallelRunner(workers=1, chunk_size=20) as runner:
            telemetry = TelemetryRecorder(runner.workers)
            telemetry.start()
            jobs = self._point_jobs(runner, telemetry)
            grouped = runner.execute_jobs_grouped(jobs, telemetry)
            flat = runner.execute_jobs(
                self._point_jobs(runner, telemetry), telemetry
            )
            assert self._comparable(grouped) == self._comparable(flat)

    def test_failing_group_falls_back_in_process(self, tmp_path):
        from repro.runtime.telemetry import TelemetryRecorder

        task = CrashOutsideParentTask(parent_pid=os.getpid())
        plan = ReplicationPlan(7, chunk_size=20)
        with ParallelRunner(
            workers=2, chunk_size=20, max_retries=1
        ) as runner:
            telemetry = TelemetryRecorder(runner.workers)
            telemetry.start()
            jobs, _ = runner.chunk_jobs(
                task, plan, plan.chunks(0, 40), telemetry, key_prefix="p0"
            )
            results = runner.execute_jobs_grouped(jobs, telemetry)
            assert sorted(results) == sorted(jobs)
            assert telemetry.fallbacks > 0
