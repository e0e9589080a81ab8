"""Every simulation entry point defaults to ``DEFAULT_ENGINE``.

The default lives in one constant next to ``ENGINES``; this pins that
each entry point still reads it, so a change of default is one edit.
Splitting is the exception: it only runs per-row path segments and
stays on the compiled engine.
"""

from __future__ import annotations

import inspect

import pytest

from repro.cli import build_parser, main
from repro.core.measures import unsafety
from repro.core.partasks import (
    ImportanceSimulationTask,
    SplittingReplicationTask,
    UnsafetySimulationTask,
)
from repro.orchestrate import Orchestrator
from repro.rare import FixedEffortSplitting, ImportanceSamplingEstimator
from repro.san import (
    CompiledJumpEngine,
    DEFAULT_ENGINE,
    ENGINES,
    make_jump_engine,
)

from tests.conftest import make_two_state_model


def _default(target) -> str:
    return inspect.signature(target).parameters["engine"].default


def test_default_engine_is_stepped():
    assert DEFAULT_ENGINE == "stepped"
    assert DEFAULT_ENGINE in ENGINES


@pytest.mark.parametrize(
    "target", [Orchestrator, unsafety, ImportanceSamplingEstimator]
)
def test_callables_default_to_it(target):
    assert _default(target) == DEFAULT_ENGINE


def test_orchestrator_default_is_a_literal_string():
    # benchmark set-up code reads it with inspect.signature
    assert isinstance(_default(Orchestrator), str)


@pytest.mark.parametrize(
    "task", [UnsafetySimulationTask, ImportanceSimulationTask]
)
def test_tasks_default_to_it(task):
    assert task.__dataclass_fields__["engine"].default == DEFAULT_ENGINE


@pytest.mark.parametrize(
    "argv", [["unsafety"], ["orchestrate", "12"], ["trace"]]
)
def test_cli_engine_flags_default_to_it(argv):
    assert build_parser().parse_args(argv).engine == DEFAULT_ENGINE


def test_splitting_stays_on_compiled():
    assert _default(FixedEffortSplitting) == "compiled"
    assert (
        SplittingReplicationTask.__dataclass_fields__["engine"].default
        == "compiled"
    )


@pytest.mark.parametrize("engine", ["stepped"])
def test_splitting_builds_compiled_for_batch_engines(engine):
    model, _up, down = make_two_state_model()
    splitter = FixedEffortSplitting(
        model, lambda m: float(m.get(down)), [1.0], engine=engine
    )
    assert type(splitter.simulator) is CompiledJumpEngine


def test_batched_is_no_engine_choice(capsys):
    """Only the stepped engine runs lockstep batches: ``"batched"`` is
    neither an engine name nor a CLI ``--engine`` choice."""
    assert ENGINES == ("interpreted", "compiled", "stepped")
    model, _up, _down = make_two_state_model()
    with pytest.raises(ValueError, match="unknown engine 'batched'") as raised:
        make_jump_engine(model, engine="batched")
    for name in ENGINES:
        assert repr(name) in str(raised.value)
    with pytest.raises(SystemExit) as exited:
        main(["unsafety", "--engine", "batched"])
    assert exited.value.code == 2
    assert "invalid choice: 'batched'" in capsys.readouterr().err
