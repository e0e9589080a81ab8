"""Compiled SAN execution: array-backed markings, incremental propensities.

The interpreted :class:`~repro.san.simulator.MarkovJumpSimulator` pays
O(all activities) of Python-level gate evaluation *per jump*: every input
gate predicate and every rate is re-evaluated against a dict-backed
marking even when the firing touched two places out of hundreds.  This
module removes that cost with a one-time compile pass:

* :func:`compile_model` assigns every place an integer *slot*, lowers gate
  bindings to ``local name → slot`` maps, and builds the place→activity
  dependency index (as bitmasks over activity indices) once;
* :class:`CompiledMarking` stores the marking as a flat list indexed by
  slot, with a changed-slot bitmask instead of a changed-place set;
* :class:`CompiledJumpEngine` keeps a per-activity rate table and only
  re-evaluates the activities whose read slots changed since the last
  firing (*incremental propensity maintenance*), instead of rescanning
  the whole model.

Equivalence contract (enforced by ``tests/san/test_compiled_equivalence``):
for the same seed the compiled engine consumes the random stream in
exactly the same order as the interpreted engine and produces bit-identical
``SimulationRun``/``JumpOutcome`` fields, including importance-sampling
likelihood-ratio weights.  Two implementation details make this exact:

1. **Totals.**  The total (biased) exit rate is reduced left-to-right over
   the *full* rate table, with disabled activities contributing ``0.0``.
   Adding ``0.0`` to a non-negative partial sum is a bitwise no-op, so the
   result equals the interpreted engine's compact-list sum exactly.  The
   reduction runs every jump, at C speed via ``sum``.
2. **Selection.**  Activity selection replays the interpreted engine's
   ``choice_index`` draw (one uniform) and resolves it with a C-level
   prefix sum + bisection over the rate table; zero entries cannot be
   selected, so the winning activity is identical.

See ``docs/engine_perf.md`` for the full invariant list and fallback
guidance.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import partial
from itertools import accumulate
from operator import itemgetter
from typing import Any, Callable, Iterable, Mapping, Optional, Union

from repro.san.activities import InstantaneousActivity, TimedActivity
from repro.san.marking import Marking, MarkingFunction
from repro.san.model import SANModel
from repro.san.places import Place
from repro.san.simulator import (
    MAX_INSTANTANEOUS_CHAIN,
    JumpOutcome,
    MarkovJumpSimulator,
    SimulationRun,
    UnstableMarkingError,
    _RewardIntegrator,
)
from repro.stochastic.rng import RandomStream

__all__ = [
    "ENGINES",
    "DEFAULT_ENGINE",
    "CompiledMarking",
    "CompiledModel",
    "CompiledJumpEngine",
    "FireProgram",
    "compile_model",
    "make_jump_engine",
    "trace_fire_programs",
]

#: engine names accepted by :func:`make_jump_engine` and the CLI ``--engine``
ENGINES = ("interpreted", "compiled", "stepped")

#: engine of every simulation entry point (measures, tasks, importance
#: sampling, the orchestrator and the CLI); splitting stays on compiled
DEFAULT_ENGINE = "stepped"


class CompiledMarking:
    """A marking lowered to a flat slot-indexed list.

    Duck-type compatible with the read/write surface of
    :class:`~repro.san.marking.Marking` that stop predicates, level
    functions, rate rewards and gate views use (``get``/``set`` by place,
    ``as_dict``), so user callbacks run unchanged against it.  Mutations
    record the written slot in :attr:`changed_mask` (bit ``1 << slot``).
    """

    __slots__ = ("values", "changed_mask", "_slot_of", "_places", "_validators")

    def __init__(
        self,
        places: list[Place],
        slot_of: dict[Place, int],
        validators: list[Callable[[Any], Any]],
        values: list,
    ) -> None:
        self._places = places
        self._slot_of = slot_of
        self._validators = validators
        self.values = values
        self.changed_mask = 0

    # ------------------------------------------------------------------
    # Marking-compatible surface (place-keyed)
    # ------------------------------------------------------------------
    def get(self, place: Place) -> Any:
        """Current value of ``place``."""
        try:
            return self.values[self._slot_of[place]]
        except KeyError:
            raise KeyError(f"place {place.name!r} is not part of this marking")

    def set(self, place: Place, value: Any) -> None:
        """Assign ``value`` to ``place`` (validated by the place)."""
        try:
            slot = self._slot_of[place]
        except KeyError:
            raise KeyError(f"place {place.name!r} is not part of this marking")
        self.set_slot(slot, value)

    def places(self) -> Iterable[Place]:
        """The places of this marking (slot order)."""
        return self._places

    def as_dict(self) -> dict[str, Any]:
        """Name-keyed snapshot for reports and debugging."""
        return {p.name: v for p, v in zip(self._places, self.values)}

    # ------------------------------------------------------------------
    # slot-indexed fast path
    # ------------------------------------------------------------------
    def set_slot(self, slot: int, value: Any) -> None:
        """Validated write through a slot index (the gate-view fast path)."""
        value = self._validators[slot](value)
        if self.values[slot] != value:
            self.values[slot] = value
            self.changed_mask |= 1 << slot

    def clear_changed_mask(self) -> int:
        """Return and reset the bitmask of slots written since last call."""
        mask, self.changed_mask = self.changed_mask, 0
        return mask

    def load(self, marking: Union[Marking, "CompiledMarking"]) -> None:
        """Overwrite all slots from another marking (no validation — the
        source marking already validated its values)."""
        if isinstance(marking, CompiledMarking):
            self.values[:] = marking.values
        else:
            self.values[:] = marking.values_in(self._places)
        self.changed_mask = 0

    def export(self) -> Marking:
        """An independent dict-backed :class:`Marking` snapshot."""
        return Marking(dict(zip(self._places, self.values)))

    def copy(self) -> Marking:
        """Alias of :meth:`export` (splitting pools call ``copy``)."""
        return self.export()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(
            f"{p.name}={v}" for p, v in zip(self._places, self.values)
        )
        return f"CompiledMarking({inner})"


class _SlotView:
    """Gate-local window onto a :class:`CompiledMarking`.

    Same API as :class:`~repro.san.marking.GateView`, but local names
    resolve through a precompiled ``name → slot`` map: one dict lookup and
    one list index per access, no per-call view allocation.
    """

    __slots__ = ("_marking", "_slots")

    def __init__(self, marking: CompiledMarking, slots: dict[str, int]) -> None:
        self._marking = marking
        self._slots = slots

    def _slot(self, local: str) -> int:
        try:
            return self._slots[local]
        except KeyError:
            raise KeyError(
                f"gate refers to undeclared local place {local!r}; "
                f"declared: {sorted(self._slots)}"
            )

    def __getitem__(self, local: str) -> Any:
        try:
            return self._marking.values[self._slots[local]]
        except KeyError:
            return self._marking.values[self._slot(local)]

    def __setitem__(self, local: str, value: Any) -> None:
        self._marking.set_slot(self._slot(local), value)

    def inc(self, local: str, amount: int = 1) -> None:
        """Add ``amount`` tokens to an integer place."""
        slot = self._slot(local)
        marking = self._marking
        marking.set_slot(slot, marking.values[slot] + amount)

    def dec(self, local: str, amount: int = 1) -> None:
        """Remove ``amount`` tokens from an integer place."""
        self.inc(local, -amount)

    def tuple_set(self, local: str, index: int, value: Any) -> None:
        """Replace one element of an extended place's tuple marking."""
        slot = self._slot(local)
        marking = self._marking
        current = list(marking.values[slot])
        current[index] = value
        marking.set_slot(slot, tuple(current))


class _TracingSlotView(_SlotView):
    """A :class:`_SlotView` that records every slot it reads.

    The engine evaluates enabling predicates and rate functions through
    tracing views and collects the union of read slots in a shared one-cell
    accumulator (``trace[0]``).  Because predicates and rates are pure
    functions of the marking, the slots read by the *last* evaluation are
    exactly the slots that determine its result: if none of them changed,
    re-execution would take the same branches, read the same slots, and
    return the same value.  The engine therefore skips it — this is what
    makes the dependency index *dynamic* and tight even when gate bindings
    are conservatively broad (e.g. every gate binding all shared places).
    """

    __slots__ = ("_trace",)

    def __init__(
        self, marking: CompiledMarking, slots: dict[str, int], trace: list[int]
    ) -> None:
        super().__init__(marking, slots)
        self._trace = trace

    def __getitem__(self, local: str) -> Any:
        try:
            slot = self._slots[local]
        except KeyError:
            slot = self._slot(local)
        self._trace[0] |= 1 << slot
        return self._marking.values[slot]


class CompiledModel:
    """The marking-independent output of :func:`compile_model`.

    Holds the slot assignment, per-slot validators and initial values, the
    activity lists in execution order, and the slot → timed-activity
    dependency bitmasks.  Engines bind it to a concrete
    :class:`CompiledMarking` (see :meth:`new_marking`); one compiled model
    can back any number of engines.
    """

    def __init__(self, model: SANModel) -> None:
        self.model = model
        self.places: list[Place] = list(model.places)
        self.slot_of: dict[Place, int] = model.place_slots()
        self.validators: list[Callable[[Any], Any]] = [
            place.validate_value for place in self.places
        ]
        self.initial_values: list = [place.initial for place in self.places]
        #: per slot, whether the batch kernels mirror it into their int64
        #: marking matrix (every place but the extended ones)
        self.mirrored: list[bool] = [
            not place.is_extended for place in self.places
        ]
        self.timed: list[TimedActivity] = list(model.timed_activities)
        self.instantaneous: list[InstantaneousActivity] = (
            model.ordered_instantaneous()
        )
        self.n_slots = len(self.places)
        self.n_timed = len(self.timed)

        # slot → bitmask of timed-activity indices whose enabling or rate
        # depends on that slot.  Enabling depends only on input-gate places
        # and the rate only on the rate function's binding — NOT on the
        # places case probabilities or output gates touch (those are read
        # at fire time), so the tighter set keeps the per-jump refresh
        # fan-out small even when output gates write widely-shared places.
        self.dep_masks: list[int] = [0] * self.n_slots
        for index, activity in enumerate(self.timed):
            bit = 1 << index
            for place in _enabling_reads(activity):
                self.dep_masks[self.slot_of[place]] |= bit

        # union of the instantaneous activities' enabling slots: if a
        # firing's changed slots miss this mask, no instantaneous activity
        # can have become enabled and the stabilisation scan is skipped
        self.insta_reads_mask = 0
        for activity in self.instantaneous:
            for place in _enabling_reads(activity):
                self.insta_reads_mask |= 1 << self.slot_of[place]

    def new_marking(self, values: Optional[list] = None) -> CompiledMarking:
        """A fresh array-backed marking (initial values by default)."""
        return CompiledMarking(
            self.places,
            self.slot_of,
            self.validators,
            list(self.initial_values) if values is None else list(values),
        )

    def stats(self) -> dict[str, int]:
        """Size summary for reports."""
        return {
            "slots": self.n_slots,
            "timed_activities": self.n_timed,
            "instantaneous_activities": len(self.instantaneous),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"CompiledModel({self.model.name!r}, slots={s['slots']}, "
            f"timed={s['timed_activities']}, "
            f"instantaneous={s['instantaneous_activities']})"
        )


def compile_model(model: SANModel) -> CompiledModel:
    """Compile a SAN into its array-backed execution form.

    The pass is a snapshot: places or activities registered afterwards are
    not part of the compiled model.
    """
    return CompiledModel(model)


def _enabling_reads(activity) -> set[Place]:
    """Places that can change the activity's enabling or (timed) rate.

    Strictly the input-gate bindings plus a marking-dependent rate's
    binding.  Places read by case probabilities or touched by output gates
    are excluded: both are evaluated at fire time, never cached, so they
    need no dependency tracking.
    """
    places: set[Place] = set()
    for gate in activity.input_gates:
        places |= gate.places()
    rate = getattr(activity, "rate", None)
    if isinstance(rate, MarkingFunction):
        places |= rate.reads()
    return places


# ----------------------------------------------------------------------
# closure compilation (per engine, bound to one CompiledMarking)
# ----------------------------------------------------------------------
class _SlotBindings:
    """``obj -> {local name: slot}`` for gates and marking functions.

    One dict per distinct binding: the replicas' gates, rates and case
    probabilities mostly bind the same names to one vehicle's places,
    so an engine's views (and the stepped engine's recording views)
    share a few dicts instead of holding one each.  Objects are looked
    up by ``id``; the model holds them for longer than an engine's
    bind, which is all this cache lives.  Views only read these dicts.
    """

    __slots__ = ("slot_of", "_by_id", "_by_content")

    def __init__(self, slot_of) -> None:
        self.slot_of = slot_of
        self._by_id: dict[int, dict[str, int]] = {}
        self._by_content: dict[tuple, dict[str, int]] = {}

    def __call__(self, obj) -> dict[str, int]:
        slots = self._by_id.get(id(obj))
        if slots is None:
            slots = obj.slot_binding(self.slot_of)
            content = (tuple(slots), tuple(slots.values()))
            slots = self._by_content.setdefault(content, slots)
            self._by_id[id(obj)] = slots
        return slots


def _view(
    marking: CompiledMarking, slots: dict[str, int], trace: Optional[list[int]]
) -> _SlotView:
    """A plain or tracing slot view, depending on ``trace``."""
    if trace is None:
        return _SlotView(marking, slots)
    return _TracingSlotView(marking, slots, trace)


def _compile_enabled(
    activity,
    marking: CompiledMarking,
    slots: _SlotBindings,
    trace: Optional[list[int]] = None,
) -> Optional[Callable[[], bool]]:
    """The activity's conjunction of input-gate predicates, slot-lowered.

    ``None`` for always-enabled activities (no input gates); a C-level
    ``partial`` for the common single-gate case.  With ``trace``, the
    views record every slot the predicates read (incremental-maintenance
    dependency discovery).
    """
    checks = [
        (gate.predicate, _view(marking, slots(gate), trace))
        for gate in activity.input_gates
    ]
    if not checks:
        return None
    if len(checks) == 1:
        predicate, view = checks[0]
        return partial(predicate, view)

    def enabled() -> bool:
        for predicate, view in checks:
            if not predicate(view):
                return False
        return True

    return enabled


def _compile_rate(
    activity: TimedActivity,
    marking: CompiledMarking,
    slots: _SlotBindings,
    trace: Optional[list[int]] = None,
) -> tuple[float, Optional[Callable[[], float]]]:
    """``(constant, None)`` or ``(0.0, closure)`` for the activity's rate.

    The closure mirrors :meth:`TimedActivity.rate_in` exactly, including
    the negative-rate guard and its message.
    """
    constant, fn = activity.exponential_parts()
    if fn is None:
        return float(constant), None
    view = _view(marking, slots(fn), trace)
    raw = fn.fn
    name = activity.name

    def rate() -> float:
        value = float(raw(view))
        if value < 0.0:
            raise ValueError(f"activity {name!r}: negative rate {value}")
        return value

    return 0.0, rate


def _no_key(values: list) -> None:
    return None


#: entries a role-keyed memo holds before it starts over; a bound for
#: values over unbounded counters (the AHS models stay far below it)
_CASE_MEMO_CAP = 1 << 16


class _RoleTracingView(_SlotView):
    """A :class:`_SlotView` that records the *roles* it reads.

    A role is a binding name of code shared by a group of activities
    (the replicas of one activity type); ``role_bits`` maps the names to
    the same bits for every member, so the recorded mask means the same
    thing whichever member read it.
    """

    __slots__ = ("_role_bits", "_trace")

    def __init__(self, marking, slots: dict[str, int],
                 role_bits: dict[str, int], trace: list[int]) -> None:
        super().__init__(marking, slots)
        self._role_bits = role_bits
        self._trace = trace

    def __getitem__(self, local: str) -> Any:
        try:
            slot = self._slots[local]
        except KeyError:
            slot = self._slot(local)
        self._trace[0] |= self._role_bits[local]
        return self._marking.values[slot]


class _RoleMemo:
    """A memo shared by a code group, keyed on the values of read roles.

    Members run the same pure code under different bindings, so a value
    computed for one member from some role values is the value every
    member computes from the same role values.  ``roles`` names the
    roles (one bit each); ``slot_maps[m][bit]`` is member ``m``'s slot
    for role ``bit``, and ``getters[m]`` reads member ``m``'s current key
    from a row's values.  A miss that reads a role outside the key
    widens the key for every member and starts the memo over.
    ``lookups`` and ``fills`` count reads of the memo and stored misses.
    """

    __slots__ = ("roles", "slot_maps", "key_mask", "getters", "table",
                 "lookups", "fills")

    def __init__(self, roles: list, slot_maps: list[list[int]]) -> None:
        self.roles = roles
        self.slot_maps = slot_maps
        self.key_mask = 0
        self.getters: list[Callable[[list], Any]] = [_no_key] * len(slot_maps)
        self.table: dict = {}
        self.lookups = 0
        self.fills = 0

    def clear(self) -> None:
        """Forget every entry."""
        self.table.clear()

    def store(self, member: int, values: list, reads: int, value) -> None:
        """Store ``value`` under member ``member``'s key of ``values``
        (the values the miss read).  When ``reads`` holds a role outside
        the key, the key widens and the memo starts over first."""
        if reads & ~self.key_mask:
            self.key_mask |= reads
            bits = [
                bit for bit in range(self.key_mask.bit_length())
                if self.key_mask >> bit & 1
            ]
            self.getters[:] = [
                itemgetter(*[slot_map[bit] for bit in bits])
                for slot_map in self.slot_maps
            ]
            self.clear()
        elif len(self.table) >= _CASE_MEMO_CAP:
            self.clear()
        self.fills += 1
        self.table[self.getters[member](values)] = value


def _probability_signature(activity) -> Optional[tuple]:
    """Code identity of the case probabilities (functions and binding
    names, in order), or ``None`` when a probability may read an
    extended place (never cached)."""
    signature = []
    for case in activity.cases:
        probability = case.probability
        if isinstance(probability, MarkingFunction):
            binding = probability.binding
            if any(place.is_extended for place in binding.values()):
                return None
            signature.append((id(probability.fn), tuple(binding)))
        else:
            signature.append(probability)
    return tuple(signature)


def _compile_choosers(
    activities: list, marking: CompiledMarking, slots: _SlotBindings
) -> tuple[list, list[_RoleMemo]]:
    """Case selection per activity, and the engine's case memos.

    Each chooser replays :meth:`_ActivityBase.choose_case` exactly:
    identical probability evaluation (with the [0,1] clamp and error
    messages of ``Case.probability_in``), the same sum-to-1 check, and
    the same single ``choice_index`` draw.  Single-case activities get
    ``None`` (no draw).

    The validated probability list is memoised in a :class:`_RoleMemo`
    shared by the activities whose probabilities are the same functions
    over the same binding names (the 2n replicas of a maneuver), keyed
    on the values of the roles the functions read.  Case probabilities
    are pure, so a list computed from the same role values is the list
    any member's re-evaluation would give.  Errors are never cached, and
    an activity whose probability may read an extended place keeps the
    uncached path.
    """
    choosers: list = [None] * len(activities)
    groups: dict[tuple, list[int]] = {}
    for index, activity in enumerate(activities):
        if len(activity.cases) == 1:
            continue
        signature = _probability_signature(activity)
        if signature is None:
            choosers[index] = _uncached_chooser(activity, marking, slots)
        else:
            groups.setdefault(signature, []).append(index)
    memos = []
    for indices in groups.values():
        # a role is a (case, name) read; roles bound to the same slot in
        # every member (the success and failure probabilities of one
        # maneuver read the same places) share one key position
        bit_of: dict[tuple, int] = {}
        role_bit: dict[tuple, int] = {}
        roles: list[tuple] = []
        bound = [
            [
                slots(case.probability)
                if isinstance(case.probability, MarkingFunction) else None
                for case in activities[index].cases
            ]
            for index in indices
        ]
        for position, case in enumerate(activities[indices[0]].cases):
            if not isinstance(case.probability, MarkingFunction):
                continue
            # the signature fixed the binding names, in order, so the
            # members' slot dicts line up name by name
            vectors = zip(*(member[position].values() for member in bound))
            for name, vector in zip(case.probability.binding, vectors):
                bit = role_bit[position, name] = bit_of.setdefault(
                    vector, len(bit_of)
                )
                if bit == len(roles):
                    roles.append((position, name))
        memo = _RoleMemo(
            roles,
            [[vector[member] for vector in bit_of]
             for member in range(len(indices))],
        )
        memos.append(memo)
        # per case, the bit of each name (the same for every member)
        case_bits = {}
        for (position, name), bit in role_bit.items():
            case_bits.setdefault(position, {})[name] = 1 << bit
        for member, index in enumerate(indices):
            choosers[index] = _memo_chooser(
                activities[index], marking, bound[member], memo, member,
                case_bits,
            )
    return choosers, memos


def _probability_evaluators(activity, views) -> Callable:
    """``() -> list``: the validated probability list, the views built
    by ``views(position, probability)``."""
    evaluators: list[Callable[[], float]] = []
    for position, case in enumerate(activity.cases):
        probability = case.probability
        if isinstance(probability, MarkingFunction):
            view = views(position, probability)
            raw = probability.fn
            label = case.label

            def evaluate(raw=raw, view=view, label=label) -> float:
                value = float(raw(view))
                if not -1e-9 <= value <= 1.0 + 1e-9:
                    raise ValueError(
                        f"case {label!r}: marking-dependent probability "
                        f"{value} outside [0,1]"
                    )
                return min(max(value, 0.0), 1.0)

            evaluators.append(evaluate)
        else:
            evaluators.append(lambda probability=probability: probability)
    name = activity.name

    def probabilities() -> list[float]:
        probs = [evaluate() for evaluate in evaluators]
        total = sum(probs)
        if abs(total - 1.0) > 1e-6:
            raise ValueError(
                f"activity {name!r}: case probabilities sum to {total}, "
                f"expected 1"
            )
        return probs

    return probabilities


def _uncached_chooser(activity, marking, slots: _SlotBindings) -> Callable:
    probabilities = _probability_evaluators(
        activity,
        lambda _position, probability: _SlotView(marking, slots(probability)),
    )

    def choose_uncached(stream: RandomStream) -> int:
        return stream.choice_index(probabilities())

    return choose_uncached


def _memo_chooser(activity, marking, case_slots: list, memo: _RoleMemo,
                  member: int, case_bits: dict[int, dict]) -> Callable:
    trace = [0]
    probabilities = _probability_evaluators(
        activity,
        lambda position, _probability: _RoleTracingView(
            marking, case_slots[position], case_bits[position], trace
        ),
    )
    table = memo.table
    getters = memo.getters

    def choose(stream: RandomStream) -> int:
        values = marking.values
        memo.lookups += 1
        probs = table.get(getters[member](values))
        if probs is None:
            trace[0] = 0
            probs = probabilities()
            memo.store(member, values, trace[0], probs)
        return stream.choice_index(probs)

    return choose


def _compile_fire(
    activity, marking: CompiledMarking, slots: _SlotBindings
) -> Callable[[int], None]:
    """Input-gate functions then the chosen case's output gates, in order."""
    input_calls = [
        (gate.function, _SlotView(marking, slots(gate)))
        for gate in activity.input_gates
        if gate.function is not None
    ]
    case_calls = [
        [
            (gate.function, _SlotView(marking, slots(gate)))
            for gate in case.output_gates
        ]
        for case in activity.cases
    ]

    def fire(case_index: int) -> None:
        for function, view in input_calls:
            function(view)
        for function, view in case_calls[case_index]:
            function(view)

    return fire


# ----------------------------------------------------------------------
# delta-matrix fire programs (consumed by the stepped batch engine)
# ----------------------------------------------------------------------
class _FireTraceAbort(BaseException):
    """The fire function resists delta lowering (branches, extended
    places, non-integer writes...).  A ``BaseException`` so gate code
    wrapped in broad ``except Exception`` handlers cannot swallow it."""


class _PendingShift:
    """Symbolic fire-time value: ``initial marking of slot + delta``.

    Supports exactly the integer ``+``/``-`` arithmetic that token moves
    (``inc``/``dec``/read-modify-write) need; anything else — truthiness,
    comparisons, coercions — aborts the trace, sending the activity to
    the per-row closure path.
    """

    __slots__ = ("slot", "delta")

    def __init__(self, slot: int, delta: int) -> None:
        self.slot = slot
        self.delta = delta

    def _shift(self, amount: Any) -> "_PendingShift":
        if not isinstance(amount, int) or isinstance(amount, bool):
            raise _FireTraceAbort("non-integer arithmetic in fire function")
        return _PendingShift(self.slot, self.delta + amount)

    def __add__(self, other: Any) -> "_PendingShift":
        return self._shift(other)

    def __radd__(self, other: Any) -> "_PendingShift":
        return self._shift(other)

    def __sub__(self, other: Any) -> "_PendingShift":
        if not isinstance(other, int) or isinstance(other, bool):
            raise _FireTraceAbort("non-integer arithmetic in fire function")
        return _PendingShift(self.slot, self.delta - other)

    def __bool__(self):
        raise _FireTraceAbort("branch on a marking value in fire function")

    def __eq__(self, other):
        raise _FireTraceAbort("comparison on a marking value in fire function")

    def __ne__(self, other):
        raise _FireTraceAbort("comparison on a marking value in fire function")

    def __lt__(self, other):
        raise _FireTraceAbort("comparison on a marking value in fire function")

    def __le__(self, other):
        raise _FireTraceAbort("comparison on a marking value in fire function")

    def __gt__(self, other):
        raise _FireTraceAbort("comparison on a marking value in fire function")

    def __ge__(self, other):
        raise _FireTraceAbort("comparison on a marking value in fire function")

    def __hash__(self):
        raise _FireTraceAbort("hashing a marking value in fire function")

    def __int__(self):
        raise _FireTraceAbort("int() coercion in fire function")

    def __index__(self):
        raise _FireTraceAbort("index coercion in fire function")

    def __float__(self):
        raise _FireTraceAbort("float() coercion in fire function")

    def __mul__(self, other):
        raise _FireTraceAbort("non-shift arithmetic in fire function")

    __rmul__ = __truediv__ = __rtruediv__ = __floordiv__ = __rsub__ = __mul__
    __mod__ = __pow__ = __neg__ = __mul__


class _FireTraceView:
    """Stand-in gate view that records a fire function's writes.

    Reads resolve against a *pending value* table keyed by global slot —
    a read after a write sees the written symbolic value, so the
    recorded ops can later be applied against an **initial-column
    snapshot** in any order without read-after-write hazards.  Values
    are either exact ``int`` constants or :class:`_PendingShift`\\ s
    (initial value of some slot plus an integer delta).
    """

    __slots__ = ("_slots", "_state")

    def __init__(self, slots: dict[str, int], state: "_FireTraceState") -> None:
        self._slots = slots
        self._state = state

    def _slot(self, local: str) -> int:
        try:
            slot = self._slots[local]
        except KeyError:
            raise _FireTraceAbort(f"undeclared local place {local!r}")
        if not self._state.mirrored[slot]:
            raise _FireTraceAbort("extended place access in fire function")
        return slot

    def __getitem__(self, local: str) -> Any:
        slot = self._slot(local)
        pending = self._state.pending
        if slot in pending:
            return pending[slot]
        return _PendingShift(slot, 0)

    def __setitem__(self, local: str, value: Any) -> None:
        slot = self._slot(local)
        state = self._state
        if isinstance(value, _PendingShift):
            state.ops.append((slot, value.slot, value.delta))
        elif isinstance(value, int) and not isinstance(value, bool):
            if value < 0:
                # the compiled path would raise at this write; keep the
                # activity on the per-row closures so it actually does
                raise _FireTraceAbort("negative constant write")
            state.ops.append((slot, None, value))
        else:
            raise _FireTraceAbort(
                f"non-integer write {type(value).__name__} in fire function"
            )
        state.pending[slot] = value

    def inc(self, local: str, amount: int = 1) -> None:
        self[local] = self[local] + amount

    def dec(self, local: str, amount: int = 1) -> None:
        self.inc(local, -amount)

    def tuple_set(self, local: str, index: int, value: Any) -> None:
        raise _FireTraceAbort("extended place write in fire function")


class _FireTraceState:
    """Shared op recorder for one (activity, case) trace."""

    __slots__ = ("mirrored", "pending", "ops")

    def __init__(self, mirrored: list[bool]) -> None:
        self.mirrored = mirrored
        self.pending: dict[int, Any] = {}
        self.ops: list[tuple] = []


class FireProgram:
    """One (activity, case) firing lowered to batched column writes.

    Applying the program to rows of the batch marking matrix is
    equivalent to running the compiled fire closures row by row:

    * every op value is a function of the **pre-fire** marking only
      (read-after-write was resolved symbolically at trace time), so the
      per-slot final values can be written in any order from an initial
      column snapshot;
    * the only runtime validation the compiled path could fail is a
      negative marking, which only a negative net shift can produce —
      :meth:`apply_row` checks exactly those ops and reports ``False``
      so the caller can replay the row through the compiled closures,
      reproducing the exact per-row error.

    ``write_mask`` is the union of written slots — a superset of the
    compiled engine's changed mask (a write of an unchanged value sets no
    bit there).  All batch-engine consumers of changed masks are pure
    re-evaluation triggers, so the superset is bitwise harmless.
    """

    __slots__ = ("checks", "finals", "srcs", "write_mask")

    def __init__(self, ops: list[tuple]) -> None:
        # validation set: any traced op with a negative net shift can
        # drive a marking negative (consts were validated at trace time,
        # and a non-negative shift of a non-negative marking stays >= 0)
        self.checks = tuple(
            (src, delta) for _slot, src, delta in ops
            if src is not None and delta < 0
        )
        finals: dict[int, tuple] = {}
        for op in ops:
            finals[op[0]] = op
        self.finals = tuple(finals.values())
        self.srcs = tuple(
            {src for _slot, src, _d in self.finals if src is not None}
            | {src for src, _d in self.checks}
        )
        self.write_mask = 0
        for slot, _src, _delta in self.finals:
            self.write_mask |= 1 << slot

    def apply_row(self, matrix, row: int) -> bool:
        """Fire the program for one ``row`` of ``matrix``.

        Returns ``False`` without touching the matrix when the row
        would validate-fail (negative marking); the caller replays it
        through the compiled closures to surface the exact error.  The
        stepped engine fires larger row sets of a code group at once,
        from the members' programs stacked into slot arrays.
        """
        vals = {src: int(matrix[row, src]) for src in self.srcs}
        for src, delta in self.checks:
            if vals[src] + delta < 0:
                return False
        for slot, src, delta in self.finals:
            matrix[row, slot] = delta if src is None else vals[src] + delta
        return True


def trace_fire_programs(
    compiled: CompiledModel, activity
) -> list[Optional["FireProgram"]]:
    """Delta-matrix fire programs for each case of ``activity``.

    Entries are ``None`` for cases whose firing resists lowering
    (data-dependent control flow, extended places, non-integer writes,
    writes the compiled path would reject outright); those cases keep the
    per-row compiled closures.
    """
    slot_of = compiled.slot_of
    mirrored = compiled.mirrored
    input_gates = [
        (gate.function, gate.slot_binding(slot_of))
        for gate in activity.input_gates
        if gate.function is not None
    ]
    programs: list[Optional[FireProgram]] = []
    for case in activity.cases:
        state = _FireTraceState(mirrored)
        try:
            for function, slots in input_gates:
                function(_FireTraceView(slots, state))
            for gate in case.output_gates:
                function = gate.function
                function(
                    _FireTraceView(gate.slot_binding(slot_of), state)
                )
        except (_FireTraceAbort, Exception):
            # any exception at trace time (including gate code raising
            # on symbolic values) means the case cannot be lowered; the
            # per-row path reproduces the real runtime behaviour
            programs.append(None)
        else:
            programs.append(FireProgram(state.ops))
    return programs


class CompiledJumpEngine:
    """Jump-chain executor over a compiled SAN with incremental propensities.

    Drop-in replacement for :class:`~repro.san.simulator.MarkovJumpSimulator`
    (same constructor validation, same ``run``/``simulate`` signatures and
    semantics, including importance-sampling weights), several times faster
    on models with many activities because a jump only re-evaluates the
    activities whose read slots actually changed.

    Parameters
    ----------
    model:
        The flattened all-exponential SAN, or an existing
        :class:`CompiledModel` (sharing one compile pass across engines).
    bias:
        Optional activity-name → rate-multiplier mapping (importance
        sampling, exactly as in the interpreted engine).
    observer:
        Optional observability hook (see :mod:`repro.obs`).  Hooks fire
        after every random draw of the step they describe and never
        consult the stream, so draw order and weights stay bit-identical
        with the observer attached or not.
    """

    #: engine label reported in runtime telemetry footers
    engine_name = "compiled"

    def __init__(
        self,
        model: Union[SANModel, CompiledModel],
        bias: Optional[Mapping[str, float]] = None,
        observer=None,
    ) -> None:
        compiled = model if isinstance(model, CompiledModel) else None
        san = compiled.model if compiled is not None else model
        if not san.is_markovian:
            bad = [a.name for a in san.timed_activities if not a.is_markovian]
            raise TypeError(
                f"CompiledJumpEngine requires exponential activities; "
                f"non-exponential: {bad[:5]}"
            )
        self.compiled = compiled if compiled is not None else compile_model(san)
        self.model = self.compiled.model
        self.bias: dict[str, float] = dict(bias or {})
        unknown = set(self.bias) - {a.name for a in self.model.timed_activities}
        if unknown:
            raise ValueError(f"bias refers to unknown activities: {sorted(unknown)}")
        for name, factor in self.bias.items():
            if factor <= 0.0 or not math.isfinite(factor):
                raise ValueError(
                    f"bias factor for {name!r} must be finite and > 0, got {factor}"
                )
        self.observer = observer
        #: timed firings executed over this engine's lifetime (telemetry)
        self.fired_events = 0
        self._bind()

    # ------------------------------------------------------------------
    def _bind(self) -> None:
        """Build the slot-indexed closures over this engine's marking."""
        compiled = self.compiled
        marking = compiled.new_marking()
        slot_of = compiled.slot_of
        self._marking = marking
        self._n = compiled.n_timed
        self._factors = [
            self.bias.get(activity.name, 1.0) for activity in compiled.timed
        ]
        self._has_bias = any(factor != 1.0 for factor in self._factors)
        self._names = [activity.name for activity in compiled.timed]
        # one-cell read-trace accumulator shared by every tracing view;
        # _refresh resets it, evaluates, then harvests the union of reads
        self._trace = [0]
        slots = _SlotBindings(slot_of)
        self._enabled = [
            _compile_enabled(activity, marking, slots, self._trace)
            for activity in compiled.timed
        ]
        rate_parts = [
            _compile_rate(activity, marking, slots, self._trace)
            for activity in compiled.timed
        ]
        self._rate_consts = [constant for constant, _ in rate_parts]
        self._rate_fns = [fn for _, fn in rate_parts]
        self._choosers, _memos = _compile_choosers(
            compiled.timed, marking, slots
        )
        self._firers = [
            _compile_fire(activity, marking, slots)
            for activity in compiled.timed
        ]
        insta_choosers, _memos = _compile_choosers(
            compiled.instantaneous, marking, slots
        )
        self._insta = [
            (
                _compile_enabled(activity, marking, slots),
                chooser,
                _compile_fire(activity, marking, slots),
            )
            for activity, chooser in zip(compiled.instantaneous,
                                         insta_choosers)
        ]
        # propensity state: original and biased rate tables (0.0 when the
        # activity is disabled or at rate 0) and the active count
        self._orig = [0.0] * self._n
        self._biased = [0.0] * self._n
        self._n_active = 0
        # dynamic dependency index: per-activity mask of the slots its last
        # enabling/rate evaluation actually read, and the per-slot reverse
        # masks.  Seeded from the static (conservative) compile-time index;
        # tightened to the traced read sets as activities are evaluated.
        self._read_masks = [0] * self._n
        for index, activity in enumerate(compiled.timed):
            bit = 1 << index
            for place in _enabling_reads(activity):
                self._read_masks[index] |= 1 << slot_of[place]
        self._dep_masks = list(compiled.dep_masks)

    # ------------------------------------------------------------------
    # propensity maintenance
    # ------------------------------------------------------------------
    def _refresh(self, index: int) -> None:
        """Re-evaluate one activity's enabling and rate; update the tables,
        the active count, and the dynamic dependency index."""
        trace = self._trace
        trace[0] = 0
        enabled = self._enabled[index]
        if enabled is None or enabled():
            fn = self._rate_fns[index]
            rate = self._rate_consts[index] if fn is None else fn()
            if rate > 0.0:
                new_orig = rate
                new_biased = rate * self._factors[index]
            else:
                new_orig = 0.0
                new_biased = 0.0
        else:
            new_orig = 0.0
            new_biased = 0.0
        old_orig = self._orig[index]
        if new_orig != old_orig or new_biased != self._biased[index]:
            if (new_orig > 0.0) != (old_orig > 0.0):
                self._n_active += 1 if new_orig > 0.0 else -1
            self._orig[index] = new_orig
            self._biased[index] = new_biased
        # fold the traced read set into the reverse index (purity of gate
        # predicates/rates guarantees the last evaluation's reads are the
        # complete determinant of the cached result)
        reads = trace[0]
        old_reads = self._read_masks[index]
        if reads != old_reads:
            dep_masks = self._dep_masks
            bit = 1 << index
            stale = old_reads & ~reads
            while stale:
                low_bit = stale & -stale
                dep_masks[low_bit.bit_length() - 1] &= ~bit
                stale ^= low_bit
            fresh = reads & ~old_reads
            while fresh:
                low_bit = fresh & -fresh
                dep_masks[low_bit.bit_length() - 1] |= bit
                fresh ^= low_bit
            self._read_masks[index] = reads

    def _refresh_all(self) -> None:
        """Full rebuild of the propensity tables (run entry)."""
        self._orig = [0.0] * self._n
        self._biased = [0.0] * self._n
        self._n_active = 0
        for index in range(self._n):
            self._refresh(index)

    def _refresh_affected(self, changed_mask: int) -> None:
        """Re-evaluate only the activities whose last evaluation read one
        of the changed slots."""
        dep_masks = self._dep_masks
        affected = 0
        while changed_mask:
            low_bit = changed_mask & -changed_mask
            affected |= dep_masks[low_bit.bit_length() - 1]
            changed_mask ^= low_bit
        refresh = self._refresh
        while affected:
            low_bit = affected & -affected
            refresh(low_bit.bit_length() - 1)
            affected ^= low_bit

    def _marking_delta(self, changed_mask: int) -> dict:
        """``{place name: new value}`` for the slots in ``changed_mask``.

        Keys are sorted so traces serialise identically to the interpreted
        engine's :func:`~repro.san.simulator._marking_delta`.
        """
        cm = self._marking
        places = self.compiled.places
        entries = []
        while changed_mask:
            low_bit = changed_mask & -changed_mask
            slot = low_bit.bit_length() - 1
            entries.append((places[slot].name, cm.values[slot]))
            changed_mask ^= low_bit
        entries.sort()
        return dict(entries)

    # ------------------------------------------------------------------
    # stabilisation (instantaneous activities)
    # ------------------------------------------------------------------
    def _stabilize(self, stream: RandomStream) -> None:
        """Fire enabled instantaneous activities until none remains.

        Same scan order and draw sequence as the interpreted
        :func:`~repro.san.simulator._stabilize`.
        """
        insta = self._insta
        if not insta:
            return
        for _ in range(MAX_INSTANTANEOUS_CHAIN):
            for enabled, choose, fire in insta:
                if enabled is None or enabled():
                    fire(0 if choose is None else choose(stream))
                    break
            else:
                return
        raise UnstableMarkingError(
            f"more than {MAX_INSTANTANEOUS_CHAIN} consecutive instantaneous "
            f"firings in model {self.model.name!r}; the marking never "
            f"stabilises"
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        stream: RandomStream,
        horizon: float,
        stop_predicate: Optional[Callable[[Any], bool]] = None,
        rate_rewards=None,
    ) -> SimulationRun:
        """One replication from the model's initial marking."""
        outcome = self.simulate(
            None,
            start_time=0.0,
            horizon=horizon,
            stream=stream,
            stop_predicate=stop_predicate,
            rate_rewards=rate_rewards,
        )
        if self.observer is not None:
            self.observer.record_run(
                outcome.stopped, outcome.stop_time, outcome.weight, outcome.time
            )
        return SimulationRun(
            end_time=outcome.time,
            stopped=outcome.stopped,
            stop_time=outcome.stop_time,
            weight=outcome.weight,
            firings=outcome.firings,
            final_marking=outcome.marking,
            reward_integrals=outcome.reward_integrals,
        )

    def simulate(
        self,
        marking: Optional[Union[Marking, CompiledMarking]],
        start_time: float,
        horizon: float,
        stream: RandomStream,
        stop_predicate: Optional[Callable[[Any], bool]] = None,
        level_fn: Optional[Callable[[Any], float]] = None,
        level_target: Optional[float] = None,
        initial_weight: float = 1.0,
        rate_rewards=None,
    ) -> JumpOutcome:
        """Simulate a path segment (mirrors the interpreted engine).

        ``marking`` may be a dict-backed :class:`Marking` (as handed out by
        the splitting engine's pools), a :class:`CompiledMarking`, or
        ``None`` for the model's initial marking.  The returned
        :class:`JumpOutcome` carries an independent dict-backed snapshot,
        never the engine's working marking.
        """
        cm = self._marking
        if marking is None:
            cm.values[:] = self.compiled.initial_values
            cm.changed_mask = 0
        else:
            cm.load(marking)
        weight = float(initial_weight)
        now = float(start_time)
        firings = 0
        observer = self.observer
        integrator = _RewardIntegrator(rate_rewards)

        self._stabilize(stream)
        cm.changed_mask = 0
        if stop_predicate is not None and stop_predicate(cm):
            if observer is not None:
                observer.record_absorption("(initial)", now, cm)
            return JumpOutcome(
                cm.export(), now, weight, True, now, False, firings,
                integrator.integrals,
            )
        if (
            level_fn is not None
            and level_target is not None
            and level_fn(cm) >= level_target
        ):
            return JumpOutcome(
                cm.export(), now, weight, False, math.inf, True, firings,
                integrator.integrals,
            )

        self._refresh_all()
        orig = self._orig
        biased = self._biased
        has_bias = self._has_bias
        insta_reads = self.compiled.insta_reads_mask
        exponential = stream.exponential
        random = stream.random

        while now < horizon:
            # exact per-jump reduction: left-to-right over the full table,
            # 0.0 entries are bitwise no-ops, so this equals the
            # interpreted engine's compact sum exactly
            total_biased = sum(biased)
            total = sum(orig) if has_bias else total_biased

            if self._n_active == 0:
                # deadlock: the marking persists until the horizon
                integrator.accumulate(cm, horizon - now)
                return JumpOutcome(
                    cm.export(), now, weight, False, math.inf, False,
                    firings, integrator.integrals,
                )

            holding = exponential(total_biased)
            if now + holding > horizon:
                # No event before the horizon under the biased law; correct
                # for the survival-probability ratio over the residual time.
                weight *= math.exp(-(total - total_biased) * (horizon - now))
                integrator.accumulate(cm, horizon - now)
                now = horizon
                break

            # replay choice_index: one uniform, resolved by prefix-sum
            # bisection (zero-rate entries are never selected)
            u = random() * total_biased
            cumulative = list(accumulate(biased))
            index = bisect_right(cumulative, u)
            if index >= self._n:
                # numerical edge u == total: last enabled activity, as in
                # the interpreted engine's choice_index fallback
                index = self._n - 1
                while index > 0 and biased[index] <= 0.0:
                    index -= 1
            weight *= (orig[index] / biased[index]) * math.exp(
                -(total - total_biased) * holding
            )
            integrator.accumulate(cm, holding)
            now += holding

            chooser = self._choosers[index]
            case = 0 if chooser is None else chooser(stream)
            self._firers[index](case)
            firings += 1
            self.fired_events += 1
            if cm.changed_mask & insta_reads:
                self._stabilize(stream)

            if observer is not None:
                delta = (
                    self._marking_delta(cm.changed_mask)
                    if observer.wants_deltas
                    else None
                )
                observer.record_firing(
                    self._names[index], now, holding, case, delta
                )

            if stop_predicate is not None and stop_predicate(cm):
                if observer is not None:
                    observer.record_absorption(self._names[index], now, cm)
                return JumpOutcome(
                    cm.export(), now, weight, True, now, False, firings,
                    integrator.integrals,
                )
            if (
                level_fn is not None
                and level_target is not None
                and level_fn(cm) >= level_target
            ):
                return JumpOutcome(
                    cm.export(), now, weight, False, math.inf, True,
                    firings, integrator.integrals,
                )

            self._refresh_affected(cm.clear_changed_mask())

        return JumpOutcome(
            cm.export(), now, weight, False, math.inf, False, firings,
            integrator.integrals,
        )


def make_jump_engine(
    model: SANModel,
    bias: Optional[Mapping[str, float]] = None,
    engine: str = "compiled",
    observer=None,
    batch_size: int = 256,
):
    """The jump-chain executor for ``engine`` ∈ :data:`ENGINES`.

    ``"compiled"`` (default) builds a :class:`CompiledJumpEngine`;
    ``"interpreted"`` the original
    :class:`~repro.san.simulator.MarkovJumpSimulator`; ``"stepped"`` the
    lockstep batch-step kernel
    (:class:`~repro.san.stepped.SteppedJumpEngine`, fastest for large
    replication counts — ``batch_size`` sets its default lockstep
    width).  All three produce bit-identical results for the same seed;
    fall back to ``interpreted`` when debugging gate code (plain
    dict-backed markings) — see ``docs/engine_perf.md``.  ``observer``
    attaches an observability hook (:mod:`repro.obs`) to any engine (the
    stepped engine then delegates traced runs to its per-row compiled
    path, keeping RNG invariance).
    """
    if engine == "compiled":
        return CompiledJumpEngine(model, bias=bias, observer=observer)
    if engine == "interpreted":
        return MarkovJumpSimulator(model, bias=bias, observer=observer)
    if engine == "stepped":
        from repro.san.stepped import SteppedJumpEngine

        return SteppedJumpEngine(
            model, bias=bias, observer=observer, batch_size=batch_size
        )
    raise ValueError(f"unknown engine {engine!r}; choose one of {ENGINES}")
