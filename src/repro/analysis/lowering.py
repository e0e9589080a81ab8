"""Static lowering verifier (LW001-LW007) + tensor predictor (TZ001-TZ003).

The batched/stepped compile pass (:mod:`repro.san.batched`,
:mod:`repro.san.stepped`) turns gate predicates and rates into lowered
column trees, per-(activity, case) delta programs and direct-address
refresh tables.  Simulation correctness then rests on properties of
*those* artifacts — not of the source model — which until now were only
checked dynamically (the negative-rate guard, the NaN miss sentinel,
the span cap) or not at all.  This pass makes them lint rules:

* :func:`extract_kernel_ir` runs a **diagnose-mode** stepped compile
  (no runtime kernels, no batch arrays) and serialises the typed kernel
  IR: lowered group shapes and read sets, delta-program firing
  matrices, refresh-table specs (roles, bounds, spans), instantaneous
  scan coverage with per-group gate-table specs, and fallback reasons.
  Its :meth:`KernelIR.digest` is the content address the model
  registry stores on admission.
* :func:`check_lowering` verifies the IR by abstract interpretation
  over the bounded reachable-marking envelope: the lowered trees are
  evaluated on the *whole* explored marking set at once (value-range
  and dtype propagation, rules LW001/LW002/LW006), predicted
  mixed-radix spans of the refresh and instantaneous gate tables are
  bounded against the 2^20 cap (LW003),
  case probabilities are re-normalised at every reachable marking
  (LW004), and the lowered read/write sets are cross-checked against
  the AST-derived footprints so scalar/vectorized semantic divergence
  is a lint error (LW005) instead of a bit-identity test failure.
* :func:`check_tensor` predicts at lint time why a sweep would fall
  back to per-point execution (TZ001-TZ003) instead of leaving it to
  the dispatch-time ``tensor_compatible`` UserWarning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.probe import code_facts
from repro.san.marking import MarkingFunction
from repro.san.model import SANModel

__all__ = [
    "KernelIR",
    "TENSOR_FALLBACK_RULE",
    "check_lowering",
    "check_tensor",
    "extract_kernel_ir",
]

#: the stable rule ID the dispatch-time tensorize fallback reports under
TENSOR_FALLBACK_RULE = "TZ001"


def _diagnose_engine(model: SANModel):
    """A diagnose-mode stepped engine, or ``None`` when not applicable."""
    if not model.timed_activities or not model.is_markovian:
        return None
    from repro.san.stepped import SteppedJumpEngine

    return SteppedJumpEngine(model, diagnose=True)


def _mask_names(mask: int, places) -> list[str]:
    names = []
    while mask:
        low = mask & -mask
        names.append(places[low.bit_length() - 1].name)
        mask ^= low
    return sorted(names)


def _probe_matrix(compiled) -> np.ndarray:
    """Four deterministic synthetic markings for behavioural probing.

    The structural IR alone cannot distinguish two models whose lowered
    trees differ only in closure constants (the AHS coordination
    strategies differ exactly there), so the digest also folds in the
    trees' outputs at fixed probe points: the initial marking, all-ones,
    all-twos, and a ``slot % 3`` ramp.  Extended-place slots stay zero —
    lowered trees never read them.
    """
    rows = np.zeros((4, compiled.n_slots), dtype=np.int64)
    for slot, place in enumerate(compiled.places):
        if place.is_extended:
            continue
        try:
            rows[0, slot] = int(compiled.initial_values[slot])
        except (TypeError, ValueError):
            pass
        rows[1, slot] = 1
        rows[2, slot] = 2
        rows[3, slot] = slot % 3
    return rows


def _part_spec(part) -> Optional[dict]:
    """Serialise one :class:`_PartMemo` refresh-table part."""
    if part is None:
        return None
    return {
        "member_roles": [
            [int(slot) for slot in role] for role in part.member_slots
        ],
        "shared_slots": [int(slot) for slot in part.shared_slots],
        "bounds": list(part.bounds),
        "span": int(part.span),
        "dtype": "float64" if part.is_float else "uint8",
        "dead": bool(part.dead),
    }


@dataclass
class KernelIR:
    """The typed kernel IR of one model's batched/stepped compile.

    Everything in here is derived from a diagnose-mode compile —
    deterministic for a given model, so :meth:`digest` is a stable
    content address for "what the engines will actually execute".
    """

    model_name: str
    stats: dict = field(default_factory=dict)
    groups: list = field(default_factory=list)
    fire: list = field(default_factory=list)
    tables: list = field(default_factory=list)
    insta: dict = field(default_factory=dict)
    fallbacks: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": "repro-kernel-ir/1",
            "model": self.model_name,
            "stats": dict(self.stats),
            "groups": list(self.groups),
            "fire": list(self.fire),
            "tables": list(self.tables),
            "insta": dict(self.insta),
            "fallbacks": dict(self.fallbacks),
        }

    def digest(self) -> str:
        """Content address of the IR (same keyspace as the result cache)."""
        from repro.runtime.cache import cache_key

        return cache_key({"kind": "lowering-ir", "ir": self.to_dict()})


def _probe_markings(compiled, probe: np.ndarray) -> list:
    """:class:`Marking` objects for the probe rows (extended: initial)."""
    from repro.san.marking import Marking

    markings = []
    for row in probe:
        values = {}
        for place, value in zip(compiled.places, row):
            values[place] = place.initial if place.is_extended else int(value)
        markings.append(Marking(values))
    return markings


def _case_prob_probe(activity, probe_markings) -> list:
    """Per-case probabilities: the constant, or probe-point samples.

    Marking-function probabilities close over model parameters the
    structural IR cannot see; sampling them at the probe markings folds
    those constants into the digest.  A function that rejects a
    synthetic marking samples as ``None`` — deterministically.
    """
    probs: list = []
    for case in activity.cases:
        probability = case.probability
        if isinstance(probability, MarkingFunction):
            samples = []
            for marking in probe_markings:
                try:
                    samples.append(float(probability(marking)))
                except Exception:  # user code on synthetic markings
                    samples.append(None)
            probs.append({"probe": samples})
        else:
            probs.append(float(probability))
    return probs


def extract_kernel_ir(model: SANModel, engine=None) -> Optional[KernelIR]:
    """Extract the kernel IR from a (diagnose-mode) stepped compile.

    Pass an existing :class:`~repro.san.stepped.SteppedJumpEngine` to
    reuse its compile; otherwise a diagnose engine is built.  Returns
    ``None`` when the model cannot go through the batch compile pass
    (no timed activities, or non-exponential ones).
    """
    if engine is None:
        engine = _diagnose_engine(model)
        if engine is None:
            return None
    compiled = engine.compiled
    places = compiled.places
    ir = KernelIR(model_name=model.name, stats=engine.lowering_stats())

    probe = _probe_matrix(compiled)
    for group in engine._lowered:
        shape = (probe.shape[0], len(group.indices))
        with np.errstate(all="ignore"):
            gate_probe = [
                np.broadcast_to(np.asarray(expr(probe)) != 0, shape)
                .astype(int).tolist()
                for expr in group.gate_exprs
            ]
            rate_probe = (
                None
                if group.rate_expr is None
                else np.broadcast_to(
                    np.asarray(group.rate_expr(probe), dtype=np.float64),
                    shape,
                ).tolist()
            )
        ir.groups.append({
            "members": list(group.names),
            "indices": [int(i) for i in group.indices],
            "n_gates": len(group.gate_exprs),
            "rate": "const" if group.rate_expr is None else "expr",
            "rate_consts": (
                None
                if group.eff_consts is None
                else [float(c) for c in group.eff_consts]
            ),
            "reads": _mask_names(group.reads_mask, places),
            "probe": {"gates": gate_probe, "rates": rate_probe},
        })

    probe_markings = _probe_markings(compiled, probe)
    for index, activity in enumerate(compiled.timed):
        cases = []
        for program in engine._fire_programs[index]:
            if program is None:
                cases.append(None)
                continue
            cases.append({
                "checks": [
                    [places[src].name, int(delta)]
                    for src, delta in program.checks
                ],
                "finals": [
                    [
                        places[slot].name,
                        None if src is None else places[src].name,
                        int(delta),
                    ]
                    for slot, src, delta in program.finals
                ],
                "reads": sorted(places[src].name for src in program.srcs),
                "writes": _mask_names(program.write_mask, places),
            })
        ir.fire.append({
            "activity": activity.name,
            "cases": cases,
            "probs": _case_prob_probe(activity, probe_markings),
        })

    for position, table in enumerate(engine._tables):
        ir.tables.append({
            "group": position,
            "direct": bool(table.direct),
            "gate": _part_spec(table.gate and table.gate.memo),
            "rate": _part_spec(table.rate and table.rate.memo),
        })

    ir.insta = {
        "lowered": engine._insta_tables is not None,
        "reads": sorted(
            places[slot].name for slot in engine._insta_read_slots
        ),
        "activities": [a.name for a in compiled.instantaneous],
        "groups": [
            {"members": list(table.names), "table": _part_spec(table.memo)}
            for table in engine._insta_tables or []
        ],
    }
    ir.fallbacks = dict(engine.fallback_reasons)
    return ir


# ----------------------------------------------------------------------
# LW: abstract interpretation of the lowered trees
# ----------------------------------------------------------------------
def _marking_matrix(compiled, markings) -> np.ndarray:
    """(n_markings, n_slots) int64 evaluation matrix over the envelope.

    Extended-place slots stay zero: extended reads abort lowering, so no
    lowered tree ever looks at those columns.
    """
    n = len(markings)
    matrix = np.zeros((n, compiled.n_slots), dtype=np.int64)
    for row, marking in enumerate(markings):
        for slot, place in enumerate(compiled.places):
            if place.is_extended:
                continue
            try:
                matrix[row, slot] = int(marking.get(place))
            except (TypeError, ValueError):
                pass
    return matrix


def _group_blocks(group, matrix):
    """``(enabled, rates)`` of one lowered group over the whole envelope.

    ``enabled`` is the gate conjunction as a bool block (or None for
    gateless groups); ``rates`` is the raw rate-tree output as float64
    (or None for constant-rate groups).  Shapes are broadcast to
    ``(n_markings, G)`` exactly like the runtime refresh.
    """
    shape = (matrix.shape[0], len(group.indices))
    enabled = None
    for expr in group.gate_exprs:
        gate = np.asarray(expr(matrix)) != 0
        enabled = gate if enabled is None else (enabled & gate)
    if enabled is not None and enabled.ndim != 2:
        enabled = np.broadcast_to(enabled, shape)
    rates = None
    if group.rate_expr is not None:
        rates = np.asarray(group.rate_expr(matrix))
        if rates.ndim != 2:
            rates = np.broadcast_to(rates, shape)
    return enabled, rates


def _check_value_ranges(engine, matrix) -> Iterator[Diagnostic]:
    """LW001/LW002/LW006: dtype + value-range propagation per group."""
    for group in engine._lowered:
        label = group.names[0]
        with np.errstate(all="ignore"):
            for expr in group.gate_exprs:
                out = np.asarray(expr(matrix))
                if out.ndim > 0 and np.issubdtype(out.dtype, np.floating):
                    yield Diagnostic(
                        "LW006",
                        "gate tree evaluates in float dtype "
                        f"({out.dtype}); enabling compares it against "
                        "exact zero",
                        activity=label,
                    )
            enabled, rates = _group_blocks(group, matrix)
        if rates is None:
            continue
        if not np.issubdtype(rates.dtype, np.floating):
            yield Diagnostic(
                "LW006",
                f"rate tree evaluates in integer dtype ({rates.dtype}); "
                "values are cast to float64 for the rate tables",
                activity=label,
            )
        rates = np.asarray(rates, dtype=np.float64)
        nan = np.isnan(rates)
        if nan.any():
            yield Diagnostic(
                "LW001",
                f"rate evaluates to NaN at {int(nan.any(axis=1).sum())} "
                "reachable marking(s); NaN is the float64 rate-table "
                "miss sentinel, so those entries re-evaluate every step "
                "(and the activity counts as disabled there)",
                activity=label,
            )
        negative = rates < 0.0
        if enabled is not None:
            negative = negative & enabled
        if negative.any():
            col = int(np.nonzero(negative)[1][0])
            worst = float(rates[negative].min())
            yield Diagnostic(
                "LW002",
                f"rate evaluates to {worst} at an enabled reachable "
                "marking; the runtime refresh raises ValueError there",
                activity=group.names[col],
            )


def _table_parts(engine) -> Iterator[tuple]:
    """``(activity, table kind, consequence, part)`` per table part."""
    for table in engine._tables:
        if table.direct and table.gate is None and table.rate is None:
            continue  # roles never derived; tabulation was never on offer
        for kind, part in (("gate", table.gate), ("rate", table.rate)):
            if part is not None:
                yield (
                    table.group.names[0],
                    f"{kind} refresh table",
                    "the group reverts to direct tree evaluation every step",
                    part.memo,
                )
    for table in engine._insta_tables or []:
        if table.memo is not None:
            yield (
                table.names[0],
                "instantaneous gate table",
                "the instantaneous check evaluates the group's gate trees "
                "on every triggered row",
                table.memo,
            )


def _check_table_spans(engine, matrix, complete) -> Iterator[Diagnostic]:
    """LW003: predicted mixed-radix spans against the 2^20 cap.

    Covers the refresh tables and the instantaneous gate tables.
    Replays :class:`_PartMemo`'s bound-growth rule (bound = observed
    maximum + 2) over the reachable envelope, so the prediction is the
    span the runtime tables converge to — a lower bound when the
    bounded exploration was incomplete.
    """
    from repro.san.stepped import _SPAN_CAP

    for label, kind, consequence, part in _table_parts(engine):
        span = 1
        for role in part.member_slots:
            top = int(matrix[:, role].max()) if matrix.size else 0
            span *= max(top + 2, 2)
        for slot in part.shared_slots:
            top = int(matrix[:, slot].max()) if matrix.size else 0
            span *= max(top + 2, 2)
        if part.dead or span > _SPAN_CAP:
            qualifier = "" if complete else "at least "
            yield Diagnostic(
                "LW003",
                f"{kind} needs {qualifier}{span} entries over the "
                f"reachable envelope (cap {_SPAN_CAP}); {consequence}",
                activity=label,
            )


def _check_normalization(model, markings) -> Iterator[Diagnostic]:
    """LW004: case probabilities must sum to 1 at reachable markings.

    ``validate_model`` checks the initial marking only; here every
    explored marking where the activity is enabled is checked, so a
    marking-dependent probability that drifts off simplex inside the
    reachable envelope is caught before a run dies mid-replication.
    """
    for activity in model.activities:
        if len(activity.cases) < 2:
            continue
        if not any(
            isinstance(case.probability, MarkingFunction)
            for case in activity.cases
        ):
            continue
        for marking in markings:
            try:
                if not activity.enabled(marking):
                    continue
            except Exception:  # noqa: BLE001 - probing must not crash
                continue
            try:
                activity.case_probabilities(marking)
            except ValueError as exc:
                yield Diagnostic("LW004", str(exc), activity=activity.name)
                break
            except Exception:  # noqa: BLE001
                continue


def _ast_gate_reads(fn, bindings) -> Optional[set]:
    """Union of AST-derived read place names across member bindings.

    ``None`` when the AST walker cannot pin the read set down (the
    footprint family reports those cases under FP004 instead).
    """
    facts = code_facts(fn)
    if facts.unanalyzable or facts.dynamic_reads or facts.view_escapes:
        return None
    names: set = set()
    for binding in bindings:
        for local in facts.read_names:
            place = binding.get(local)
            if place is not None:
                names.add(place.name)
    return names


def _check_footprint_parity(model, engine) -> Iterator[Diagnostic]:
    """LW005: lowered read/write sets vs the AST-derived footprints.

    The lowered trees' traced reads and the delta programs' write masks
    are what the vectorized engines *actually* consult and mutate; the
    AST footprints are what the scalar engines' contract says the code
    touches.  Any divergence means the two engine families can observe
    different semantics, so it is an error even before a bit-identity
    test could trip over it.
    """
    compiled = engine.compiled
    places = compiled.places
    for group in engine._lowered:
        template = compiled.timed[int(group.indices[0])]
        members = [compiled.timed[int(i)] for i in group.indices]
        ast_reads: set = set()
        analyzable = True
        for position in range(len(template.input_gates)):
            reads = _ast_gate_reads(
                template.input_gates[position].predicate,
                [m.input_gates[position].binding for m in members],
            )
            if reads is None:
                analyzable = False
                break
            ast_reads |= reads
        _constant, rate_fn = template.exponential_parts()
        if analyzable and rate_fn is not None:
            reads = _ast_gate_reads(
                rate_fn.fn,
                [m.exponential_parts()[1].binding for m in members],
            )
            if reads is None:
                analyzable = False
            else:
                ast_reads |= reads
        if not analyzable:
            continue
        lowered_reads = set(_mask_names(group.reads_mask, places))
        if lowered_reads != ast_reads:
            extra = sorted(lowered_reads - ast_reads)
            missing = sorted(ast_reads - lowered_reads)
            detail = []
            if extra:
                detail.append(f"lowered-only reads {extra}")
            if missing:
                detail.append(f"AST-only reads {missing}")
            yield Diagnostic(
                "LW005",
                "lowered read set diverges from the AST footprint "
                f"({'; '.join(detail)}); the vectorized refresh and the "
                "scalar tracing closures would consult different places",
                activity=template.name,
            )

    for index, activity in enumerate(compiled.timed):
        declared = {place.name for place in activity.writes()}
        for case, program in enumerate(engine._fire_programs[index]):
            if program is None:
                continue
            lowered_writes = set(_mask_names(program.write_mask, places))
            rogue = sorted(lowered_writes - declared)
            if rogue:
                yield Diagnostic(
                    "LW005",
                    f"delta program for case {case} writes {rogue} "
                    "outside the activity's declared write footprint",
                    activity=activity.name,
                )
                break


def check_lowering(
    model: SANModel, markings, complete: bool
) -> Iterator[Diagnostic]:
    """Run LW001-LW007 over the bounded reachable-marking envelope."""
    engine = _diagnose_engine(model)
    if engine is None:
        reason = (
            "no timed activities"
            if not model.timed_activities
            else "non-exponential timed activities"
        )
        yield Diagnostic(
            "LW007",
            f"batch compile pass not applicable ({reason}); "
            "lowering verifier skipped",
        )
        return
    matrix = _marking_matrix(engine.compiled, markings)
    yield from _check_value_ranges(engine, matrix)
    yield from _check_table_spans(engine, matrix, complete)
    yield from _check_normalization(model, markings)
    yield from _check_footprint_parity(model, engine)
    if not complete:
        yield Diagnostic(
            "LW007",
            f"bounded exploration stopped at {len(markings)} markings; "
            "value-range, span and normalization checks cover only the "
            "explored envelope",
        )


# ----------------------------------------------------------------------
# TZ: static tensor-eligibility prediction
# ----------------------------------------------------------------------
def check_tensor(model: SANModel) -> Iterator[Diagnostic]:
    """Run TZ001-TZ003: why would a sweep fall back per-point?

    Mirrors what ``tensor_compatible`` + the stepped step loop decide at
    dispatch time, as lint output: a clean model yields nothing.
    """
    if not model.timed_activities:
        yield Diagnostic(
            "TZ003",
            "no timed activities; tensor-eligibility report skipped",
        )
        return
    if not model.is_markovian:
        bad = sorted(
            a.name for a in model.timed_activities if not a.is_markovian
        )
        yield Diagnostic(
            TENSOR_FALLBACK_RULE,
            f"non-exponential timed activities {bad[:5]} keep the "
            "stepped engine unavailable, so cross-point tensor sweeps "
            "fall back to per-point execution",
        )
        return
    engine = _diagnose_engine(model)
    stats = engine.lowering_stats()
    timed = stats["timed_activities"]
    fallback = stats["fallback"]
    if fallback:
        yield Diagnostic(
            "TZ002",
            f"{fallback}/{timed} timed activities refresh on the "
            "per-row scalar fallback inside the tensor step loop",
        )
    covered = stats["fire_lowered"] + stats["fire_tabulated"]
    if covered < stats["fire_cases"]:
        unlowered = stats["fire_cases"] - covered
        yield Diagnostic(
            "TZ002",
            f"{unlowered}/{stats['fire_cases']} firing cases have neither "
            "a delta program nor a write memo and fire through per-row "
            "closures",
        )
    if model.instantaneous_activities and not stats["insta_lowered"]:
        yield Diagnostic(
            "TZ002",
            "instantaneous gate conjunctions did not lower; every "
            "triggered row pays a per-row stabilisation scan",
        )
    if stats["insta_tabulated"] < stats["insta_groups"]:
        untabulated = stats["insta_groups"] - stats["insta_tabulated"]
        yield Diagnostic(
            "TZ002",
            f"instantaneous gates not tabulated: {untabulated}/"
            f"{stats['insta_groups']} gate groups have no direct-address "
            "table and evaluate their trees on every triggered row",
        )
    if stats["groups_tabulated"] < stats["groups"]:
        direct = stats["groups"] - stats["groups_tabulated"]
        yield Diagnostic(
            "TZ002",
            f"{direct}/{stats['groups']} refresh groups are not "
            "direct-address tabulated and re-evaluate their trees "
            "every step",
        )
