"""End-to-end tests: parallel runtime wired through experiments and the CLI."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.experiments import outcome_to_json, run_experiment
from repro.experiments.runner import RunOutcome
from repro.runtime import ParallelRunner, ResultCache


class TestFigureParity:
    def test_figure10_fast_matches_serial_run(self):
        serial = run_experiment("figure10", fast=True)
        with ParallelRunner(workers=2) as runner:
            parallel = run_experiment("figure10", fast=True, runner=runner)
        for label, values in serial.result.series.items():
            assert np.allclose(
                values, parallel.result.series[label], rtol=0, atol=0
            ), label

    def test_telemetry_lands_in_outcome_and_json(self, tmp_path):
        cache = ResultCache(tmp_path)
        with ParallelRunner(workers=1, cache=cache) as runner:
            outcome = run_experiment("figure10", fast=True, runner=runner)
        assert outcome.telemetry is not None
        assert outcome.telemetry["unit"] == "points"
        assert "replications_per_sec" in outcome.telemetry
        assert "points/sec=" in outcome.rendered

        record = outcome_to_json(outcome)
        assert record["runtime"] == outcome.telemetry
        json.dumps(record)  # must stay serialisable

    def test_serial_outcome_has_no_runtime_block(self):
        outcome = run_experiment("figure10", fast=True)
        assert outcome.telemetry is None
        assert "runtime" not in outcome_to_json(outcome)


class TestCliFlags:
    def test_figure_with_workers_prints_telemetry(self, capsys, tmp_path):
        code = main(
            [
                "figure",
                "10",
                "--fast",
                "--workers",
                "1",
                "--cache-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "points/sec=" in out
        assert "cache hit rate=" in out

        # warm rerun is served entirely from cache
        main(
            [
                "figure",
                "10",
                "--fast",
                "--workers",
                "1",
                "--cache-dir",
                str(tmp_path),
            ]
        )
        warm = capsys.readouterr().out
        assert "cache hit rate=2/2 (100%)" in warm

    def test_no_cache_flag_disables_the_store(self, capsys, tmp_path):
        code = main(
            [
                "figure",
                "10",
                "--fast",
                "--workers",
                "1",
                "--no-cache",
                "--cache-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cache hit rate=0/0" in out
        assert not any(tmp_path.iterdir())

    def test_unsafety_simulation_with_workers(self, capsys, tmp_path):
        args = [
            "unsafety",
            "--method",
            "simulation",
            "--times",
            "0.5,1.0",
            "--n",
            "4",
            "--replications",
            "60",
            "--seed",
            "2009",
            "--workers",
            "2",
            "--cache-dir",
            str(tmp_path),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "method=simulation  params=" in out
        assert "replications/sec=" in out

    def test_unsafety_non_simulation_ignores_workers(self, capsys):
        code = main(
            [
                "unsafety",
                "--method",
                "analytical",
                "--times",
                "2",
                "--n",
                "4",
                "--workers",
                "2",
                "--no-cache",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "--workers applies to the simulation methods" in out

    def test_workers_flag_must_be_positive(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure", "10", "--fast", "--workers", "0"])


class TestRunnerGate:
    def test_runner_only_passed_to_aware_experiments(self):
        """Experiments whose run() lacks a ``runner`` parameter still work."""
        with ParallelRunner(workers=1) as runner:
            outcome = run_experiment("table2", fast=True, runner=runner)
        assert isinstance(outcome, RunOutcome)
        assert outcome.telemetry is None
