"""Determinism lints (rules DT001-DT003).

Every engine (interpreted, compiled, stepped) and every worker count must
produce bit-identical trajectories from the same seed.  Gate code that
consults wall-clock time, the process environment, or an unseeded RNG
breaks that immediately (DT001); iterating over a set makes behaviour
depend on ``PYTHONHASHSEED`` (DT002); and a captured mutable object
shared between replicas or across replications is state the simulator
does not snapshot or restore (DT003).
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.probe import code_facts, source_location
from repro.san.marking import MarkingFunction
from repro.san.model import SANModel

__all__ = ["check_determinism"]


def _gate_functions(activity: Any) -> Iterator[tuple[str, str, Any]]:
    for gate in activity.input_gates:
        yield "enabling predicate", gate.name, gate.predicate
        if gate.function is not None:
            yield "input function", gate.name, gate.function
    rate = getattr(activity, "rate", None)
    if isinstance(rate, MarkingFunction):
        yield "rate", activity.name, rate.fn
    for index, case in enumerate(activity.cases):
        if isinstance(case.probability, MarkingFunction):
            yield f"case[{index}] probability", activity.name, case.probability.fn
        for gate in case.output_gates:
            yield f"case[{index}] output function", gate.name, gate.function


def check_determinism(model: SANModel) -> Iterator[Diagnostic]:
    """Run DT001-DT003 over every gate function of every activity."""
    for activity in model.activities:
        seen: set[int] = set()
        for role, gate_name, fn in _gate_functions(activity):
            if id(fn) in seen:
                continue
            seen.add(id(fn))
            facts = code_facts(fn)
            if not facts.analyzable:
                continue  # FP004 already reports unanalyzable code
            location = source_location(fn)
            if facts.nondet_modules:
                modules = ", ".join(sorted(facts.nondet_modules))
                yield Diagnostic(
                    "DT001",
                    f"{role} reaches nondeterministic module(s) {modules}; "
                    f"gate code must depend only on the marking, or replay "
                    f"across engines and worker counts diverges",
                    activity=activity.name,
                    gate=gate_name,
                    location=location,
                )
            if facts.set_iteration:
                yield Diagnostic(
                    "DT002",
                    f"{role} iterates over a set; iteration order depends "
                    f"on PYTHONHASHSEED, so runs are not reproducible "
                    f"across processes",
                    activity=activity.name,
                    gate=gate_name,
                    location=location,
                )
            if facts.mutable_captures:
                names = ", ".join(sorted(facts.mutable_captures))
                yield Diagnostic(
                    "DT003",
                    f"{role} captures mutable object(s) {names} from its "
                    f"closure or module globals; mutations there are "
                    f"invisible to the marking and are not restored "
                    f"between replications",
                    activity=activity.name,
                    gate=gate_name,
                    location=location,
                )
