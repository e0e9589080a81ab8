"""Stepped SAN execution: the select-and-fire loop lowered to array kernels.

The lowering pass (:mod:`repro.san.batched`) vectorizes gate and rate
*evaluation* across a lockstep batch.  A jump loop that walked that
batch per event in Python would still pay, for every firing, a cursor
row-switch, a scalar ``searchsorted``, per-write closure calls with
per-write validation, and an instantaneous-activity scan.  This module
lowers the loop itself so the Python-level iteration is **per batch
step** rather than per event:

* holding times and selection uniforms are drawn per replication stream
  (bit-identity pins each row to its own
  :class:`~repro.stochastic.rng.RandomStream`), but activity selection is
  resolved for the whole step at once — a masked comparison against the
  cumulative-sum rate rows replays ``choice_index``'s left-to-right
  tie-break exactly (``(cumsum <= u).sum()`` ≡ ``bisect_right``);
* firing is fused by *code group* (the replicas of one activity type):
  :func:`~repro.san.compiled.trace_fire_programs` precomputes
  per-(activity, case) **delta programs** — column writes of the form
  ``const`` or ``initial[slot] + delta`` — stacked per group into slot
  arrays and applied to all rows that fired the same case of any member
  in one NumPy operation, with per-row Python values synchronised
  lazily (a ``stale`` bitmask per row) only when a scalar closure, stop
  predicate or export actually needs them; a branchy case without a
  program replays its final writes from a per-group **write memo**
  keyed on the values of the roles it read;
* the instantaneous-activity check and the stop predicate are lowered
  to column expressions where possible (the check served from one
  direct-address table per gate-code group), so the per-event Python
  work for the common movement firings collapses to the two stream
  draws;
* masked time-advance: absorbed, deadlocked and horizon-crossed rows
  drop out of the step loop while the rest of the batch keeps running.

Equivalence contract: per stream, runs are **bit-identical** to the
compiled engine (draw order, IS weights, stop times, final markings) at
any batch size.  Each row draws from its own stream in exactly the
compiled engine's order, and totals are reduced with ``np.cumsum``
(strictly sequential, bitwise equal to the compiled engine's
left-to-right sum).  Every lowering above is an exact replay: delta programs reproduce the compiled write
(and negative-marking error) semantics or fall back per row; a write
memo replays only what a real, validated firing from the same role
values wrote, with the compiled engine's changed mask; the
instantaneous skip only elides scans that would provably fire nothing
(which draw nothing and write nothing); lowered stop predicates evaluate
the same integer comparisons over the matrix.  The one intentional
divergence is error *ordering* inside a single step when several rows
raise simultaneously (rows are processed grouped by code group rather
than by row index), and re-evaluation timing of model-bug errors
(negative rates) may differ because changed-slot masks are supersets of
the compiled engine's.

Observed runs and runs with rate rewards go to the per-row compiled
delegate, preserving trace ordering, ``wants_deltas`` delta reporting
and reward integrals.

There is one batch-step loop, :func:`_step_loop`.  It advances the rows
of one or more *jobs* — ``(engine, streams, horizon, stop_predicate)``
— as one tensor: :meth:`SteppedJumpEngine.run_batch` runs it with one
job, and :class:`~repro.san.multipoint.MultiPointContext` with one job
per chunk of a cross-point sweep, so per-point and tensorized runs are
the same code.  Each engine's rows form one contiguous *lane* of the
tensor; the draws, the cumulative sums and the selection run over all
rows at once, and the rest of a step runs lane by lane.

See ``docs/engine_perf.md`` for measurements and guidance.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Callable, Optional

import numpy as np

from repro.san.batched import (
    BatchedJumpEngine,
    _build_tree,
    _CannotLower,
    _enumerate_paths,
    _lower_group,
    _Node,
    _tree_expr,
)
from repro.san.compiled import _RoleMemo, _SlotView, trace_fire_programs
from repro.san.marking import DeferredMarking
from repro.san.places import Place
from repro.san.simulator import SimulationRun

__all__ = ["SteppedJumpEngine"]


class _StopProbe:
    """Marking stand-in for tracing a stop predicate into a column expr.

    Only the read surface stop predicates actually use (``get``) is
    provided; anything else raises and aborts lowering, sending the
    predicate to the per-row path.
    """

    __slots__ = ("_slot_of", "_extended")

    def __init__(self, slot_of, extended: frozenset) -> None:
        self._slot_of = slot_of
        self._extended = extended

    def get(self, place) -> _Node:
        slot = self._slot_of.get(place)
        if slot is None:
            raise _CannotLower("unknown place in stop predicate")
        if slot in self._extended:
            raise _CannotLower("extended place in stop predicate")
        return _Node(lambda M, _s=slot: M[:, _s])


def _bool_rows(value, n_rows: int) -> np.ndarray:
    """Normalise a lowered expression's output to an (R,) bool array."""
    arr = np.asarray(value)
    if arr.ndim == 0:
        return np.full(n_rows, bool(arr != 0))
    return (arr != 0).reshape(n_rows, -1).any(axis=1)


#: per-part table size cap — a span beyond this falls back to the
#: direct tree refresh (8 MiB of float64 per part at the cap)
_SPAN_CAP = 1 << 20


class _PartMemo:
    """Direct-address value table over one lowered part's read *roles*.

    A lowered group fuses 2n replicas of the same gate/rate code; each
    member's value is a pure function of the slots its binding maps the
    code's place names to.  Because the code (and hence the traced name
    set) is identical across members, the name-aligned slot vectors —
    the *roles* — give a sound shared key: ``role values → value`` is
    the same map for every member.  Roles whose slot is the same for
    all members (the shared occupancy counters) contribute one column
    read per refresh; per-member roles (per-vehicle flags) contribute a
    ``(rows, G)`` gather.  The mixed-radix index over per-role value
    bounds addresses a dense table, so a warm refresh is a handful of
    gathers with no tree evaluation at all.

    Bounds adapt: a value at or beyond a role's bound grows the bound
    and rebuilds (clears) the table — rare, since the paper models'
    occupancies are bounded by the platoon size.  A span above
    ``_SPAN_CAP`` reports ``None`` and the owner reverts to the direct
    refresh for good.
    """

    __slots__ = ("member_slots", "member_cols", "member_keys",
                 "shared_slots", "signature", "bounds", "strides", "key",
                 "table", "is_float", "dead", "span", "defer")

    def __init__(self, roles: list, is_float: bool,
                 defer: bool = False) -> None:
        # dedupe identical roles (a name bound twice to the same slots)
        seen: set = set()
        unique = []
        for role in roles:
            key = role.tobytes()
            if key not in seen:
                seen.add(key)
                unique.append(role)
        self.member_slots = [
            role for role in unique if (role != role[0]).any()
        ]
        #: per member role, the matrix columns it reads: a strided slice
        #: when the role's slots are evenly spaced (every AHS role is),
        #: else the slot array for a fancy gather
        self.member_cols = [_columns(role) for role in self.member_slots]
        # cache key per member role: the same per-vehicle flag role is
        # read by many groups, so its gather is shared within a refresh
        self.member_keys = [role.tobytes() for role in self.member_slots]
        self.shared_slots = [
            int(role[0]) for role in unique if not (role != role[0]).any()
        ]
        #: parts with the same roles and bounds compute the same index
        #: from the same rows, so one refresh call computes it once
        self.signature = (tuple(self.member_keys), tuple(self.shared_slots))
        self.bounds = [2] * (len(self.member_slots) + len(self.shared_slots))
        self.is_float = is_float
        #: diagnose-mode flag: derive spans/strides but never allocate
        #: the backing array (the static analyzer only reads the specs)
        self.defer = defer
        self.strides: list = []
        self.key: tuple = ()
        self.table = None
        self.span = 1
        self.dead = False
        self._rebuild()

    def _rebuild(self) -> bool:
        span = 1
        strides = []
        for bound in self.bounds:
            strides.append(span)
            span *= bound
        self.span = span
        if span > _SPAN_CAP:
            self.dead = True
            self.table = None
            return False
        self.strides = strides
        self.key = (self.signature, tuple(self.bounds))
        if self.defer:
            self.table = None
        elif self.is_float:
            self.table = np.full(span, np.nan, dtype=np.float64)
        else:
            # 0/1 cached predicate values; 2 marks a never-seen key
            self.table = np.full(span, 2, dtype=np.uint8)
        return True

    def index(self, matrix, rows, cache: dict):
        """Mixed-radix table index per (row, member) — ``(a,)`` when all
        roles are shared, ``(a, G)`` otherwise, ``None`` once dead.

        ``cache`` lives for one refresh call over one row set.  It
        shares the gathered columns (and their maxima) and the finished
        index of every role signature across the parts refreshed in
        that call: the AHS groups key on the same few occupancy counters
        and per-vehicle flags, so most gathers and indices hit it.
        """
        if self.dead:
            return None
        memoised = cache.get(self.key)
        if memoised is not None:
            return memoised
        n_member = len(self.member_slots)
        while True:
            grow = False
            vals_member = []
            for k, cols in enumerate(self.member_cols):
                entry = cache.get(self.member_keys[k])
                if entry is None:
                    if isinstance(cols, slice):
                        v = matrix[rows, cols]
                    else:
                        rows2 = cache.get("rows2")
                        if rows2 is None:
                            rows2 = cache["rows2"] = rows[:, None]
                        v = matrix[rows2, cols]
                    entry = (v, int(v.max()) if v.size else 0)
                    cache[self.member_keys[k]] = entry
                v, top = entry
                if top >= self.bounds[k]:
                    self.bounds[k] = top + 2
                    grow = True
                vals_member.append(v)
            vals_shared = []
            for j, slot in enumerate(self.shared_slots):
                entry = cache.get(slot)
                if entry is None:
                    v = matrix[rows, slot]
                    entry = (v, int(v.max()) if v.size else 0)
                    cache[slot] = entry
                v, top = entry
                if top >= self.bounds[n_member + j]:
                    self.bounds[n_member + j] = top + 2
                    grow = True
                vals_shared.append(v)
            if not grow:
                break
            if not self._rebuild():
                return None
        idx_shared = None
        for j, v in enumerate(vals_shared):
            stride = self.strides[n_member + j]
            term = v if stride == 1 else v * stride
            idx_shared = term if idx_shared is None else idx_shared + term
        idx_member = None
        for k, v in enumerate(vals_member):
            stride = self.strides[k]
            term = v if stride == 1 else v * stride
            idx_member = term if idx_member is None else idx_member + term
        if idx_member is None:
            idx = (np.zeros(len(rows), dtype=np.int64)
                   if idx_shared is None else idx_shared)
        elif idx_shared is not None:
            idx = idx_member + idx_shared[:, None]
        else:
            idx = idx_member
        # bounds may have grown above: key under the final ones
        cache[self.key] = idx
        return idx


def _columns(slots: np.ndarray):
    """``slots`` as a strided slice when evenly spaced, else the array.

    ``matrix[rows, lo:hi:step]`` gathers (and ``R[rows, lo:hi:step] =``
    scatters) a ``(rows, G)`` block 2-3x faster than the equivalent
    2-D fancy index ``matrix[rows[:, None], slots]``.
    """
    step = int(slots[1]) - int(slots[0]) if len(slots) > 1 else 1
    if step > 0 and (np.diff(slots) == step).all():
        return slice(int(slots[0]), int(slots[-1]) + 1, step)
    return slots


def _name_roles(fn, bindings: list, extended: frozenset, what: str) -> list:
    """Per read name of ``fn``, the slot each member binds it to.

    The trace runs once on the template (first) binding; the read name
    set is code-determined (path enumeration never looks at values), so
    the other members' slots come straight from their bindings.
    """
    template = bindings[0]
    _expr, reads = _lower_group(fn, [template], extended)
    names = sorted(name for name, slot in template.items() if slot in reads)
    if reads - {template[name] for name in names}:
        raise _CannotLower(f"{what} read outside its binding")
    return [
        np.array([binding[name] for binding in bindings], dtype=np.intp)
        for name in names
    ]


def _gate_roles(slot_of, members, extended: frozenset) -> list:
    """Name-aligned role vectors of a member group's input gates."""
    roles: list = []
    for position, gate in enumerate(members[0].input_gates):
        roles += _name_roles(
            gate.predicate,
            [m.input_gates[position].slot_binding(slot_of) for m in members],
            extended,
            "gate",
        )
    return roles


def _conjunction(gate_exprs: list) -> Callable:
    """``sub -> bool block``: the AND of a group's lowered gate trees."""

    def evaluate(sub):
        enabled = None
        for expr in gate_exprs:
            gate = np.asarray(expr(sub)) != 0
            enabled = gate if enabled is None else (enabled & gate)
        return enabled

    return evaluate


class _TreeTable:
    """A lowered tree of a member group, served from a :class:`_PartMemo`.

    The tree is a group's gate conjunction (a 0/1 table) or its rate
    expression (a float table).  Missing entries are filled by
    evaluating the tree on just the missing rows, so every cached value
    holds exactly the bits a direct full-batch evaluation would produce
    (elementwise ufuncs are bitwise shape-independent).

    A rate table stores the *clamped* rate ``where(raw > 0, raw, 0.0)``
    (a NaN rate becomes 0.0, as the scalar path treats it), so a
    refresh only masks it with the gate.  A negative rate is never
    stored: its entry stays a miss, and the fill leaves the raw values
    of the missing rows in :attr:`negative` for the caller's
    gate-masked error check.
    """

    __slots__ = ("names", "evaluate", "memo", "lookups", "fills",
                 "negative")

    def __init__(self, names: list, evaluate: Callable,
                 memo: Optional[_PartMemo]) -> None:
        self.names = names
        #: ``sub -> values`` over a row subset of the marking matrix
        self.evaluate = evaluate
        #: None when the group's roles could not be derived
        self.memo = memo
        #: rows looked up in / filled into the table (kernel counters)
        self.lookups = 0
        self.fills = 0
        #: ``(missing row positions, raw block)`` when the last fill of
        #: a rate table met a negative rate, else None
        self.negative: Optional[tuple] = None

    def block(self, sub: np.ndarray) -> np.ndarray:
        """``(rows, G)``: the tree evaluated on ``sub``, per member."""
        return np.broadcast_to(
            self.evaluate(sub), (sub.shape[0], len(self.names))
        )

    def lookup(self, matrix, rows: np.ndarray, cache: dict):
        """Table values for ``rows``: ``(R,)`` when every role is shared,
        ``(R, G)`` otherwise; ``None`` without a live table."""
        memo = self.memo
        idx = None if memo is None else memo.index(matrix, rows, cache)
        if idx is None:
            return None
        self.lookups += len(rows)
        vals = memo.table[idx]
        miss = np.isnan(vals) if memo.is_float else vals == 2
        if miss.any():
            if miss.ndim == 2:
                local = np.flatnonzero(miss.any(axis=1))
            else:
                local = np.flatnonzero(miss)
            self.fills += len(local)
            block = self.block(matrix[rows[local]])
            target = idx[local]
            # shared-only roles: every member caches the same value
            fill = block[:, 0] if target.ndim == 1 else block
            if memo.is_float:
                negative = fill < 0.0
                fill = np.where(fill > 0.0, fill, 0.0)
                if negative.any():
                    fill[negative] = np.nan
                    self.negative = (local, block)
            memo.table[target] = fill
            vals = memo.table[idx]
        return vals


class _TableGroup:
    """Tabulated refresh for one lowered group (stepped engine only).

    Splits the group into its gate conjunction and its rate expression,
    each a :class:`_TreeTable`, so the per-step work in the steady
    state collapses to column gathers, two table lookups and one
    ``where``, written back through a strided slice when the group's
    rate columns are evenly spaced.

    Parity notes: the negative-rate guard runs on the raw values of the
    rows whose rate missed the table (a negative rate always misses),
    gate-masked, alive rows only, exactly like the direct refresh.
    """

    __slots__ = ("group", "gate", "rate", "direct", "cols")

    def __init__(self, compiled, group, extended: frozenset,
                 defer: bool = False) -> None:
        self.group = group
        self.gate: Optional[_TreeTable] = None
        self.rate: Optional[_TreeTable] = None
        self.direct = False
        #: the group's rate columns (slice or index array)
        self.cols = _columns(group.indices)
        members = [compiled.timed[i] for i in group.indices]
        try:
            gate_roles, rate_roles = self._derive_roles(
                compiled.slot_of, members, extended
            )
        except (_CannotLower, KeyError, TypeError):
            self.direct = True
            return
        if group.gate_exprs:
            self.gate = _TreeTable(
                group.names,
                _conjunction(group.gate_exprs),
                _PartMemo(gate_roles, is_float=False, defer=defer),
            )
        if group.rate_expr is not None:
            rate_expr = group.rate_expr
            self.rate = _TreeTable(
                group.names,
                lambda sub: np.asarray(rate_expr(sub), dtype=np.float64),
                _PartMemo(rate_roles, is_float=True, defer=defer),
            )
        if any(part is not None and part.memo.dead
               for part in (self.gate, self.rate)):
            self.direct = True

    @staticmethod
    def _derive_roles(slot_of, members, extended: frozenset) -> tuple:
        """Name-aligned per-role slot vectors for gates and rate."""
        rate_roles: list = []
        _constant, rate_fn = members[0].exponential_parts()
        if rate_fn is not None:
            rate_roles = _name_roles(
                rate_fn.fn,
                [m.exponential_parts()[1].slot_binding(slot_of)
                 for m in members],
                extended,
                "rate",
            )
        return _gate_roles(slot_of, members, extended), rate_roles

    def _raise_negative(self, n_rows: int, en) -> None:
        """Raise the direct refresh's error for the first gate-enabled
        negative rate of the last fill, if there is one."""
        local, block = self.rate.negative
        self.rate.negative = None
        shape = (n_rows, len(self.group.indices))
        rates = np.zeros(shape)
        rates[local] = block
        negative = rates < 0.0
        if en is not None:
            negative &= (en != 0) if en.ndim == 2 else (en != 0)[:, None]
        if negative.any():
            row, col = divmod(int(np.argmax(negative)), shape[1])
            raise ValueError(
                f"activity {self.group.names[col]!r}: negative rate "
                f"{float(rates[row, col])}"
            )

    def refresh(self, matrix, rows, Ro, Rb, has_bias: bool,
                cache: dict) -> None:
        """Refresh the group's rate columns for ``rows``, and no others.

        A group without live tables evaluates its trees on just ``rows``
        (:meth:`_LoweredGroup.refresh_rows`), so no write reaches a
        finished row or another engine's lane of a multi-point tensor.
        ``cache`` shares gathered columns and table indices between the
        groups refreshed for the same rows.
        """
        group = self.group
        en = rt = None
        if not self.direct and self.gate is not None:
            en = self.gate.lookup(matrix, rows, cache)
            self.direct = en is None
        if not self.direct and self.rate is not None:
            rt = self.rate.lookup(matrix, rows, cache)
            self.direct = rt is None
            if self.rate.negative is not None:
                self._raise_negative(len(rows), en)
        if self.direct:
            group.refresh_rows(matrix, rows, Ro, Rb, has_bias)
            return

        if en is not None and en.ndim == 1:
            en = en[:, None]
        if rt is None:
            if en is None:
                # gateless constant-rate group: its constants, every row
                block = np.broadcast_to(
                    group.eff_consts, (len(rows), len(group.indices))
                )
            else:
                block = np.where(en, group.eff_consts, 0.0)
        else:
            if rt.ndim == 1:
                rt = rt[:, None]
            # a NaN left by a negative rate is behind a closed gate here
            block = rt if en is None else np.where(en, rt, 0.0)
        cols = self.cols
        if isinstance(cols, slice):
            target = rows
        else:
            target = cache.get("rows2")
            if target is None:
                target = cache["rows2"] = rows[:, None]
        Ro[target, cols] = block
        if has_bias:
            if group.any_factor:
                Rb[target, cols] = block * group.factors
            else:
                Rb[target, cols] = block


def _program_shape(program) -> tuple:
    """What a delta program does, up to which slots it does it to."""
    return (
        tuple((src is None, delta) for _slot, src, delta in program.finals),
        tuple(delta for _src, delta in program.checks),
    )


class _GroupProgram:
    """One case's delta programs over a fire group, as slot arrays.

    Every member's program has the same shape, so row ``k`` firing
    member ``m`` gathers ``gather[m]`` (the shifted finals' sources,
    then the checked sources), checks, and writes ``shift_slots[m]`` and
    ``const_slots[m]``: one gather, one check and two scatters for all
    the group's rows, whichever members they fire.
    """

    __slots__ = ("gather", "n_shift", "shifts", "check_deltas",
                 "shift_slots", "const_slots", "consts", "write_masks")

    def __init__(self, programs: list) -> None:
        template = programs[0]
        finals = template.finals
        shift = [j for j, op in enumerate(finals) if op[1] is not None]
        const = [j for j, op in enumerate(finals) if op[1] is None]
        self.gather = np.array(
            [[p.finals[j][1] for j in shift] + [src for src, _d in p.checks]
             for p in programs],
            dtype=np.intp,
        ).reshape(len(programs), -1)
        self.n_shift = len(shift)
        self.shifts = np.array([template.finals[j][2] for j in shift],
                               dtype=np.int64)
        self.check_deltas = np.array(
            [delta for _src, delta in template.checks], dtype=np.int64
        )
        self.shift_slots = np.array(
            [[p.finals[j][0] for j in shift] for p in programs],
            dtype=np.intp,
        ).reshape(len(programs), -1)
        self.const_slots = np.array(
            [[p.finals[j][0] for j in const] for p in programs],
            dtype=np.intp,
        ).reshape(len(programs), -1)
        self.consts = np.array([template.finals[j][2] for j in const],
                               dtype=np.int64)
        self.write_masks = [p.write_mask for p in programs]

    def apply(self, matrix, rows: np.ndarray, members: np.ndarray) -> bool:
        """Fire row ``rows[k]`` as member ``members[k]``, for every k.

        ``False``, with the matrix untouched, when a row would
        validate-fail (a negative marking); the caller replays the rows
        through the compiled closures.
        """
        rows2 = rows[:, None]
        n_shift = self.n_shift
        if self.gather.shape[1]:
            pre = matrix[rows2, self.gather[members]]
            if len(self.check_deltas) and (
                pre[:, n_shift:] + self.check_deltas < 0
            ).any():
                return False
            if n_shift:
                matrix[rows2, self.shift_slots[members]] = (
                    pre[:, :n_shift] + self.shifts
                )
        if len(self.consts):
            matrix[rows2, self.const_slots[members]] = self.consts
        return True


class _WriteLog:
    """What one recorded firing read and wrote, by role bit.

    ``reads`` has the bits of the roles read before the firing wrote
    them; ``writes`` maps a written role's bit to ``[first value, final
    value, changed after the first write]``.
    """

    __slots__ = ("reads", "writes")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.reads = 0
        self.writes: dict[int, list] = {}

    def read(self, bit: int) -> None:
        if bit not in self.writes:
            self.reads |= 1 << bit

    def wrote(self, bit: int, value) -> None:
        entry = self.writes.get(bit)
        if entry is None:
            self.writes[bit] = [value, value, False]
        else:
            if value != entry[1]:
                entry[2] = True
            entry[1] = value


class _RecordingView(_SlotView):
    """A gate view that fires for real and logs roles read and written."""

    __slots__ = ("_log", "_bit")

    def __init__(self, marking, slots: dict[str, int], log: _WriteLog,
                 bit: dict[str, int]) -> None:
        super().__init__(marking, slots)
        self._log = log
        self._bit = bit

    def __getitem__(self, local: str):
        value = _SlotView.__getitem__(self, local)
        self._log.read(self._bit[local])
        return value

    def __setitem__(self, local: str, value) -> None:
        slot = self._slot(local)
        marking = self._marking
        marking.set_slot(slot, value)
        self._log.wrote(self._bit[local], marking.values[slot])

    def inc(self, local: str, amount: int = 1) -> None:
        slot = self._slot(local)
        marking = self._marking
        bit = self._bit[local]
        self._log.read(bit)
        marking.set_slot(slot, marking.values[slot] + amount)
        self._log.wrote(bit, marking.values[slot])


def _fire_gates(activity, case: int) -> list:
    """The gates a firing of ``activity``'s ``case`` runs, in order."""
    return [
        gate for gate in activity.input_gates if gate.function is not None
    ] + list(activity.cases[case].output_gates)


def _memo_binding(gate_slots: list, plain: list,
                  checked: dict) -> Optional[tuple]:
    """``(name -> slot, sorted names)`` over one firing's gates, or None.

    ``gate_slots`` are the firing's gate bindings (interned, so the
    gates of one vehicle usually share one dict).  A write memo serves a
    member only when its firing names each slot once: every gate binds
    a name to the same slot, no two names share a slot (so a role's
    recorded writes are the slot's writes), and every slot is a plain
    integer place (so validation depends on the value alone, and the
    matrix mirrors it).  ``checked`` caches the answer per shared dict.
    """
    binding = gate_slots[0] if gate_slots else {}
    shared = all(slots is binding for slots in gate_slots)
    if shared and id(binding) in checked:
        return checked[id(binding)]
    if not shared:
        binding = {}
        for slots in gate_slots:
            for name, slot in slots.items():
                if binding.setdefault(name, slot) != slot:
                    return None
    values = binding.values()
    answer = None
    if len(set(values)) == len(binding) and all(
        plain[slot] for slot in values
    ):
        answer = (binding, tuple(sorted(binding)))
    if shared:
        checked[id(binding)] = answer
    return answer


class _WriteMemo(_RoleMemo):
    """The final writes of one branchy (fire group, case), by role values.

    The roles are the binding names of the firing's gates.  A miss runs
    the member's real closures through recording views (the firing
    happens, validated, as on the closure path) and, unless it raised,
    stores the written roles as ``(role bit, first value, final value,
    changed after the first write)`` tuples.  (Members bind plain
    integer places only, so a ``tuple_set`` raises like any error.)
    Gate functions are pure, so a firing from the same values of the
    roles read writes the same values; a hit reads each role's slot from
    the member's precomputed ``slot_maps`` row.
    """

    __slots__ = ("recorders", "log")

    def __init__(self, roles: list, slot_maps: list) -> None:
        super().__init__(roles, slot_maps)
        #: per member, its firing through recording views
        self.recorders: list[Callable[[], None]] = []
        self.log = _WriteLog()

    def record(self, member: int, values: list) -> None:
        """Fire member ``member`` on the cursor's row, whose values are
        ``values``, and store what it wrote."""
        before = list(values)
        log = self.log
        log.reset()
        self.recorders[member]()
        self.store(member, before, log.reads, tuple(
            (bit, first, final, later)
            for bit, (first, final, later) in log.writes.items()
        ))


class _FireGroup:
    """Timed activities that fire the same code, fired together.

    Members are the replicas of one activity type: the same input-gate
    functions and, per case, the same output-gate functions, delta
    programs of one shape (or none), and the same write-memo
    eligibility.  Per case, ``programs`` holds the group's
    :class:`_GroupProgram` and ``memos`` its :class:`_WriteMemo` (None
    where the case has no program, or no memo).
    """

    __slots__ = ("indices", "programs", "memos", "tabulated")

    def __init__(self, indices: list, programs: list,
                 tabulated: list) -> None:
        self.indices = indices
        self.programs = programs
        #: per case, whether a write memo serves it (diagnose mode too)
        self.tabulated = tabulated
        self.memos: list[Optional[_WriteMemo]] = [None] * len(programs)


class SteppedJumpEngine(BatchedJumpEngine):
    """Per-batch-step lockstep executor (see module docstring).

    Accepts exactly the :class:`BatchedJumpEngine` constructor surface,
    builds on its lowering pass and adds the batch loop: bit-identical
    per stream to the compiled engine, faster on models whose firings
    lower to delta programs (all of the built-in AHS models' movement
    activities do).
    """

    #: engine label reported in runtime telemetry footers
    engine_name = "stepped"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._bind_stepped()

    # ------------------------------------------------------------------
    def _bind_stepped(self) -> None:
        compiled = self.compiled
        #: per timed activity, per case: FireProgram or None (fallback)
        self._fire_programs = [
            trace_fire_programs(compiled, activity)
            for activity in compiled.timed
        ]
        #: the fire groups, and per timed activity its group and its
        #: member position there
        self._fire_groups, self._fire_group_of, self._fire_pos = (
            self._bind_fire_groups()
        )
        extended = self._extended
        #: per gate-code group of instantaneous activities, its enabling
        #: table (None when the gates did not lower)
        self._insta_tables = self._lower_insta(extended)
        #: per lowered group, its tabulated refresh (tables persist
        #: across batches — read-value combinations recur between sweep
        #: points, so later points start warm)
        self._tables = [
            _TableGroup(compiled, group, extended, defer=self.diagnose)
            for group in self._lowered
        ]
        #: always-on kernel counters, see :meth:`kernel_counters`
        self._steps = 0
        self._row_steps = 0
        self._insta_scans = 0
        self._closure_firings = 0
        #: entry stabilisation is deterministic (and so broadcastable
        #: from the first row) exactly when no instantaneous activity
        #: can draw a case — single-case activities never touch the
        #: stream, and all rows share the same initial marking
        self._insta_single_case = all(
            len(activity.cases) == 1 for activity in compiled.instantaneous
        )
        # stop-predicate lowering cache: id → (predicate, expr or None);
        # the strong predicate reference prevents id reuse
        self._stop_cache: dict[int, tuple] = {}
        self._slot_bindings = None  # the bind is over

    def _bind_fire_groups(self) -> tuple:
        """Group the timed activities by fire code (:class:`_FireGroup`).

        A case without a delta program gets a write memo when its
        firing names each slot once (:func:`_memo_binding`); diagnose
        mode records that, but builds no memo.
        """
        compiled = self.compiled
        slot_of = compiled.slot_of
        plain = [
            type(place).validate_value is Place.validate_value
            for place in compiled.places
        ]
        signatures: dict[tuple, list[int]] = {}
        #: per activity and case, its gates' bindings and memo binding
        bindings: list[list] = []
        slots = self._slot_bindings
        checked: dict[int, bool] = {}
        for index, activity in enumerate(compiled.timed):
            cases = []
            member = []
            for case, program in enumerate(self._fire_programs[index]):
                memo_binding = gate_slots = None
                if program is None:
                    gate_slots = [
                        slots(gate) for gate in _fire_gates(activity, case)
                    ]
                    memo_binding = _memo_binding(gate_slots, plain, checked)
                member.append((gate_slots, memo_binding))
                cases.append((
                    tuple(id(gate.function)
                          for gate in activity.cases[case].output_gates),
                    None if program is None else _program_shape(program),
                    None if memo_binding is None else memo_binding[1],
                ))
            bindings.append(member)
            signature = (
                tuple(id(gate.function) for gate in activity.input_gates
                      if gate.function is not None),
                tuple(cases),
            )
            signatures.setdefault(signature, []).append(index)
        groups: list[_FireGroup] = []
        group_of = [0] * compiled.n_timed
        position = [0] * compiled.n_timed
        for (_inputs, cases), indices in signatures.items():
            for pos, index in enumerate(indices):
                group_of[index] = len(groups)
                position[index] = pos
            group = _FireGroup(
                indices,
                [
                    None if shape is None else _GroupProgram(
                        [self._fire_programs[i][case] for i in indices]
                    )
                    for case, (_outputs, shape, _names) in enumerate(cases)
                ],
                [names is not None for _outputs, _shape, names in cases],
            )
            for case, (_outputs, _shape, names) in enumerate(cases):
                if names is None or self.diagnose:
                    continue
                memo = _WriteMemo(
                    list(names),
                    [[bindings[i][case][1][0][name] for name in names]
                     for i in indices],
                )
                bit = {name: b for b, name in enumerate(names)}
                memo.recorders = [
                    self._recorder(compiled.timed[i], case,
                                   bindings[i][case][0], memo.log, bit)
                    for i in indices
                ]
                group.memos[case] = memo
            groups.append(group)
        return groups, group_of, position

    def _recorder(self, activity, case: int, gate_slots: list,
                  log: _WriteLog, bit: dict[str, int]) -> Callable[[], None]:
        """The real firing of ``activity``'s ``case`` on the cursor's
        row, through views (over ``gate_slots``) that log it into
        ``log``."""
        calls = [
            (gate.function, _RecordingView(self._cursor, slot_map, log, bit))
            for gate, slot_map in zip(_fire_gates(activity, case), gate_slots)
        ]

        def fire() -> None:
            for function, view in calls:
                function(view)

        return fire

    def _lower_insta(self, extended: frozenset) -> Optional[list]:
        """Per gate-code group of instantaneous activities, its table.

        Groups by gate code as :meth:`BatchedJumpEngine._bind` does for
        timed activities, retrying a group that fails collectively
        member by member.  ``None`` when any activity resists lowering
        (or is gateless, i.e. unconditionally enabled): the conservative
        changed-mask trigger (``insta_reads_mask``) then decides when a
        row scans, as in the compiled engine.
        """
        slot_of = self.compiled.slot_of
        self._insta_read_slots: frozenset = frozenset()
        signatures: dict[tuple, list] = {}
        for activity in self.compiled.instantaneous:
            if not activity.input_gates:
                return None
            signature = tuple(
                id(gate.predicate) for gate in activity.input_gates
            )
            signatures.setdefault(signature, []).append(activity)
        reads_union: set[int] = set()

        def lower(members: list) -> _TreeTable:
            gate_exprs = []
            reads: set[int] = set()
            for position, gate in enumerate(members[0].input_gates):
                expr, gate_reads = _lower_group(
                    gate.predicate,
                    [m.input_gates[position].slot_binding(slot_of)
                     for m in members],
                    extended,
                )
                gate_exprs.append(expr)
                reads |= gate_reads
            try:
                memo: Optional[_PartMemo] = _PartMemo(
                    _gate_roles(slot_of, members, extended),
                    is_float=False,
                    defer=self.diagnose,
                )
            except (_CannotLower, KeyError, TypeError):
                memo = None
            reads_union.update(reads)
            return _TreeTable(
                [m.name for m in members], _conjunction(gate_exprs), memo
            )

        tables: list[_TreeTable] = []
        for members in signatures.values():
            try:
                tables.append(lower(members))
            except _CannotLower:
                if len(members) == 1:
                    return None
                try:
                    tables.extend(lower([member]) for member in members)
                except _CannotLower:
                    return None
        self._insta_read_slots = frozenset(reads_union)
        return tables

    def _insta_enabled_rows(self, matrix, rows: np.ndarray) -> np.ndarray:
        """(len(rows),) bool: some instantaneous activity enabled, per row.

        The OR of the gate-code groups' table lookups; a group without a
        live table (roles underivable, or the span past the cap)
        evaluates its gate trees on just ``rows``.
        """
        cache: dict = {}
        enabled = np.zeros(len(rows), dtype=bool)
        for table in self._insta_tables:  # type: ignore[union-attr]
            vals = table.lookup(matrix, rows, cache)
            if vals is None:
                vals = table.block(matrix[rows])
            enabled |= vals.any(axis=1) if vals.ndim == 2 else vals != 0
        return enabled

    def _lowered_stop(self, stop_predicate) -> Optional[Callable]:
        """Column expression for ``stop_predicate``, or ``None``."""
        if stop_predicate is None:
            return None
        key = id(stop_predicate)
        entry = self._stop_cache.get(key)
        if entry is not None and entry[0] is stop_predicate:
            return entry[1]
        probe = _StopProbe(self.compiled.slot_of, self._extended)
        try:
            paths = _enumerate_paths(stop_predicate, probe)
            expr, _const = _tree_expr(_build_tree(paths, 0))
        except _CannotLower:
            expr = None
        self._stop_cache[key] = (stop_predicate, expr)
        return expr

    # ------------------------------------------------------------------
    def _affected(self, changed_mask: int) -> int:
        """Bitmask of the lowered groups that read a changed slot."""
        lowered_dep = self._lowered_dep
        affected = 0
        while changed_mask:
            low = changed_mask & -changed_mask
            affected |= lowered_dep[low.bit_length() - 1]
            changed_mask ^= low
        return affected

    def _refresh_rows(self, affected: int, matrix, rows, Ro, Rb,
                      has_bias: bool) -> None:
        """Refresh the ``affected`` groups' rate columns on ``rows`` only.

        Callers pass the engine's alive rows.  Finished rows' rate lanes
        go stale, which is unobservable: every consumer (cumulative
        sums, selection clamp-back, weight ratios) reads alive rows only.
        """
        tables = self._tables
        cache: dict = {}
        with np.errstate(all="ignore"):
            while affected:
                low = affected & -affected
                tables[low.bit_length() - 1].refresh(
                    matrix, rows, Ro, Rb, has_bias, cache
                )
                affected ^= low

    # ------------------------------------------------------------------
    def lowering_stats(self) -> dict[str, int]:
        """Batched stats plus the stepped fire/stop/insta coverage."""
        stats = super().lowering_stats()
        cases = lowered = 0
        for programs in self._fire_programs:
            cases += len(programs)
            lowered += sum(1 for program in programs if program is not None)
        stats["fire_cases"] = cases
        stats["fire_lowered"] = lowered
        stats["fire_tabulated"] = sum(
            len(group.indices) * sum(group.tabulated)
            for group in self._fire_groups
        )
        insta = self._insta_tables or []
        stats["insta_lowered"] = int(self._insta_tables is not None)
        stats["insta_groups"] = len(insta)
        stats["insta_tabulated"] = sum(
            1 for table in insta
            if table.memo is not None and not table.memo.dead
        )
        stats["groups_tabulated"] = sum(
            1 for table in self._tables if not table.direct
        )
        return stats

    def kernel_counters(self) -> dict[str, int]:
        """Lifetime step-loop counters of this engine (always on).

        ``steps`` counts batch steps and ``row_steps`` the rows alive at
        their start, so occupancy is ``row_steps / (steps * width)``;
        ``events`` counts timed firings; ``insta_lookups`` and
        ``insta_fills`` count rows looked up in and filled into the
        instantaneous-gate tables (once per group); ``insta_scans``
        counts rows that ran the per-row stabilisation scan;
        ``closure_firings`` counts firings that ran the compiled
        closures (write-memo misses included); ``case_lookups`` and
        ``case_fills`` count case choices read from and stored into the
        shared case-choice memos; and ``write_lookups`` and
        ``write_fills`` count firings looked up in and stored into the
        write memos.  :func:`_step_loop` updates them for per-point and
        tensor runs alike; no counter touches a stream.
        """
        insta = self._insta_tables or []
        memos = [
            memo for group in self._fire_groups for memo in group.memos
            if memo is not None
        ]
        return {
            "steps": self._steps,
            "row_steps": self._row_steps,
            "events": self._kernel_events,
            "insta_lookups": sum(table.lookups for table in insta),
            "insta_fills": sum(table.fills for table in insta),
            "insta_scans": self._insta_scans,
            "closure_firings": self._closure_firings,
            "case_lookups": sum(memo.lookups for memo in self._case_memos),
            "case_fills": sum(memo.fills for memo in self._case_memos),
            "write_lookups": sum(memo.lookups for memo in memos),
            "write_fills": sum(memo.fills for memo in memos),
        }

    # ------------------------------------------------------------------
    def run_batch(
        self,
        streams,
        horizon: float,
        stop_predicate=None,
        rate_rewards=None,
    ) -> list[SimulationRun]:
        """Advance one replication per stream, one batch step at a time.

        A one-job run of :func:`_step_loop`.  Observed runs and runs
        with rate rewards go to the per-row compiled delegate instead,
        keeping their contracts intact.  Each run's ``final_marking`` is
        a :class:`~repro.san.marking.DeferredMarking`: its dict is built
        only if a caller reads it.
        """
        self._require_runtime()
        if self.observer is not None or rate_rewards:
            delegate = self._delegate()
            return [
                delegate.run(stream, horizon, stop_predicate, rate_rewards)
                for stream in streams
            ]
        return _step_loop([(self, streams, horizon, stop_predicate)])[0]


class _Lane:
    """One engine's rows of a step-loop tensor: the range ``[lo, hi)``.

    ``stops`` splits the range into runs of adjacent jobs that share a
    stop predicate: ``(lo, hi, predicate, lowered expression or None)``.
    """

    __slots__ = ("engine", "cursor", "lo", "hi", "stops")

    def __init__(self, engine, lo: int) -> None:
        self.engine = engine
        self.cursor = engine._cursor
        self.lo = self.hi = lo
        self.stops: list[tuple] = []

    def add_job(self, hi: int, predicate) -> None:
        """Append a job's rows ``[self.hi, hi)`` to the lane."""
        lo, self.hi = self.hi, hi
        if hi == lo:
            return
        stops = self.stops
        if stops and stops[-1][2] is predicate:
            stops[-1] = (stops[-1][0], hi) + stops[-1][2:]
        else:
            stops.append(
                (lo, hi, predicate, self.engine._lowered_stop(predicate))
            )

    def alive_rows(self, alive_mask: np.ndarray) -> np.ndarray:
        """The lane's rows still running, as an index array."""
        rows = np.flatnonzero(alive_mask[self.lo:self.hi])
        if self.lo:
            rows += self.lo
        return rows


def _runs(rows: list[int], ends: list[int]) -> list[tuple[int, int, int]]:
    """``(lane, start, stop)``: each lane's stretch of the sorted ``rows``.

    Lane ``i`` owns the rows from ``ends[i - 1]`` (0 for the first) up
    to ``ends[i]``; lanes without rows in ``rows`` are left out.
    """
    spans = []
    start = 0
    for lane, end in enumerate(ends):
        stop = bisect_left(rows, end, start)
        if stop > start:
            spans.append((lane, start, stop))
            start = stop
    return spans


def _step_loop(jobs: list) -> list[list[SimulationRun]]:
    """The batch-step loop: every job's replications, one run list each.

    ``jobs`` are ``(engine, streams, horizon, stop_predicate)`` tuples
    of runnable, observer-free stepped engines that share one bias flag
    (a biased step draws against ``Rb`` but weighs with ``Ro``).

    Rows are laid out engine by engine, in first-seen order, with each
    engine's jobs adjacent in job order, so every engine owns one
    contiguous lane and every job a contiguous range within it.  The
    tensor is padded to the widest engine: ``max(n_slots)`` marking and
    ``max(n_acts)`` rate columns, the padding never written.  Trailing
    zero rates leave a row's cumulative sums, and so its total and its
    selection, bitwise unchanged, except at the ``u == total`` edge,
    where the count runs past the padding and the clamp-back starts
    from the row's own last activity.

    Each row reads only its own stream, so its run is the same whatever
    shares the tensor: bit-identical to the compiled engine per stream.
    Engine state that rows share (refresh tables, case memos) holds
    pure functions of the marking.
    """
    # --- layout: one lane per engine, jobs contiguous inside it ------
    by_engine: dict[int, list[int]] = {}
    for j, job in enumerate(jobs):
        by_engine.setdefault(id(job[0]), []).append(j)
    lanes: list[_Lane] = []
    streams_of: list = []
    horizon_of: list[float] = []
    lane_of: list[int] = []
    job_span: list[tuple[int, int]] = [(0, 0)] * len(jobs)
    for members in by_engine.values():
        lane = _Lane(jobs[members[0]][0], len(streams_of))
        for j in members:
            _engine, streams, horizon, predicate = jobs[j]
            lo = len(streams_of)
            streams_of.extend(streams)
            job_span[j] = (lo, len(streams_of))
            horizon_of.extend([float(horizon)] * (len(streams_of) - lo))
            lane.add_job(len(streams_of), predicate)
        lane_of.extend([len(lanes)] * (lane.hi - lane.lo))
        lanes.append(lane)
    n_rows = len(streams_of)
    if n_rows == 0:
        return [[] for _ in jobs]
    ends = [lane.hi for lane in lanes]
    n_acts_of = [lane.engine._n for lane in lanes]
    n_cols = max(n_acts_of)
    places_of = [lane.engine.compiled.places for lane in lanes]
    has_bias = lanes[0].engine._has_bias

    # --- tensors: padded marking matrix and rate rows -----------------
    values: list[list] = []
    matrix = np.zeros(
        (n_rows, max(lane.engine.compiled.n_slots for lane in lanes)),
        dtype=np.int64, order="F",
    )
    for lane in lanes:
        initial = lane.engine.compiled.initial_values
        values.extend(list(initial) for _ in range(lane.lo, lane.hi))
        for slot, mirrored in enumerate(lane.cursor._mirror):
            if mirrored:
                matrix[lane.lo:lane.hi, slot] = initial[slot]
    for lane in lanes:
        lane.cursor.bind_batch(values, matrix)
    Ro = np.zeros((n_rows, n_cols), dtype=np.float64)
    Rb = np.zeros((n_rows, n_cols), dtype=np.float64) if has_bias else Ro
    alive_mask = np.zeros(n_rows, dtype=bool)

    results: list[Optional[SimulationRun]] = [None] * n_rows
    now = [0.0] * n_rows
    weights = [1.0] * n_rows
    firings = [0] * n_rows
    #: per-row bitmask of matrix slots not yet copied back into the
    #: exact Python row values (delta programs write the matrix only)
    stale = [0] * n_rows
    changed_masks = [0] * n_rows
    fb_reads = [
        [0] * len(lanes[e].engine._fb_indices) for e in lane_of
    ]
    fb_union = [0] * n_rows

    def sync(row: int) -> None:
        mask = stale[row]
        if mask:
            row_values = values[row]
            while mask:
                low = mask & -mask
                slot = low.bit_length() - 1
                row_values[slot] = int(matrix[row, slot])
                mask ^= low
            stale[row] = 0

    def finalize(row: int, end_time: float, stopped: bool,
                 stop_time: float) -> None:
        # a finished row's values are never written again, so its
        # marking snapshot is deferred until a caller reads it
        alive_mask[row] = False
        sync(row)
        results[row] = SimulationRun(
            end_time=end_time,
            stopped=stopped,
            stop_time=stop_time,
            weight=weights[row],
            firings=firings[row],
            final_marking=DeferredMarking(places_of[lane_of[row]],
                                          values[row]),
        )

    # --- entry: stabilise, time-zero exits, refresh, lane by lane -----
    alive: list[int] = []
    for lane in lanes:
        engine, cursor, lo, hi = lane.engine, lane.cursor, lane.lo, lane.hi
        # With only single-case instantaneous activities the entry
        # stabilisation draws nothing and every row starts from the
        # same initial marking, so the first row's stabilised state is
        # every row's: broadcast it instead of re-scanning per row (the
        # rows' streams are untouched either way, so the replay is exact)
        broadcast = engine._insta_single_case and hi - lo > 1
        if broadcast:
            cursor.set_row(lo)
            cursor.changed_mask = 0
            engine._stabilize(streams_of[lo])
            cursor.changed_mask = 0
            for row in range(lo + 1, hi):
                values[row][:] = values[lo]
            matrix[lo + 1:hi] = matrix[lo]
        for start, stop, predicate, _expr in lane.stops:
            for row in range(start, stop):
                cursor.set_row(row)
                cursor.changed_mask = 0
                if not broadcast:
                    engine._stabilize(streams_of[row])
                    cursor.changed_mask = 0
                if predicate is not None and predicate(cursor):
                    finalize(row, 0.0, True, 0.0)
                elif horizon_of[row] <= 0.0:
                    finalize(row, horizon_of[row], False, math.inf)
                else:
                    alive_mask[row] = True
                    alive.append(row)
        rows_alive = lane.alive_rows(alive_mask)
        if not len(rows_alive):
            continue
        engine._refresh_rows((1 << len(engine._tables)) - 1, matrix,
                             rows_alive, Ro, Rb, has_bias)
        if engine._fb_indices:
            for row in rows_alive.tolist():
                cursor.set_row(row)
                engine._refresh_fallback_row(row, -1, fb_reads[row], Ro, Rb)
                fb_union[row] = engine._fold_union(fb_reads[row])
                cursor.changed_mask = 0

    # --- batch-step loop ----------------------------------------------
    while alive:
        for e, start, stop in _runs(alive, ends):
            engine = lanes[e].engine
            engine._steps += 1
            engine._row_steps += stop - start
        full = len(alive) == n_rows
        Cb = np.cumsum(Rb if full else Rb[alive], axis=1)
        if has_bias:
            Co = np.cumsum(Ro if full else Ro[alive], axis=1)

        # phase 1: per-row draws (a row's exponential and selection
        # uniform stay consecutive on its own stream), deadlock and
        # horizon-crossing exits
        fired_rows: list[int] = []
        fired_pos: list[int] = []
        fired_u: list[float] = []
        fired_tb: list[float] = []
        fired_tot: list[float] = []
        fired_hold: list[float] = []
        for position, row in enumerate(alive):
            stream = streams_of[row]
            total_biased = float(Cb[position, -1])
            total = float(Co[position, -1]) if has_bias else total_biased
            if total <= 0.0:
                # deadlock: the marking persists until the horizon
                finalize(row, now[row], False, math.inf)
                continue
            holding = stream.exponential(total_biased)
            horizon = horizon_of[row]
            if now[row] + holding > horizon:
                if has_bias:
                    weights[row] *= math.exp(
                        -(total - total_biased) * (horizon - now[row])
                    )
                now[row] = horizon
                finalize(row, horizon, False, math.inf)
                continue
            u = stream.random() * total_biased
            now[row] += holding
            firings[row] += 1
            changed_masks[row] = 0
            fired_rows.append(row)
            fired_pos.append(position)
            fired_u.append(u)
            if has_bias:
                fired_tb.append(total_biased)
                fired_tot.append(total)
                fired_hold.append(holding)
        if not fired_rows:
            alive = []
            continue

        # phase 2: vectorized selection — count of cumulative sums
        # <= u replays searchsorted(side="right") ≡ bisect_right, with
        # the other engines' numerical-edge clamp-back (u == total
        # selects the row's last enabled activity)
        pos_arr = np.array(fired_pos, dtype=np.intp)
        u_arr = np.array(fired_u, dtype=np.float64)
        indices = (Cb[pos_arr] <= u_arr[:, None]).sum(axis=1)
        chosen = indices.tolist()
        for k in np.flatnonzero(indices >= n_cols).tolist():
            row = fired_rows[k]
            index = n_acts_of[lane_of[row]] - 1
            while index > 0 and Rb[row, index] <= 0.0:
                index -= 1
            chosen[k] = index
        if has_bias:
            for k, row in enumerate(fired_rows):
                index = chosen[k]
                weights[row] *= (
                    float(Ro[row, index]) / float(Rb[row, index])
                ) * math.exp(-(fired_tot[k] - fired_tb[k]) * fired_hold[k])
        # (without bias the weight factor is exactly 1.0: Ro is Rb,
        # x/x == 1.0 and exp(-0.0·h) == 1.0 — skipping it is exact)

        # phases 3-5, lane by lane
        survivors: list[int] = []
        for e, start, stop in _runs(fired_rows, ends):
            lane = lanes[e]
            engine, cursor = lane.engine, lane.cursor
            lane_rows = fired_rows[start:stop]

            # phase 3: fused firing, grouped by (fire group, case)
            fire_group_of = engine._fire_group_of
            fire_pos = engine._fire_pos
            groups: dict[int, list[int]] = {}
            for k in range(start, stop):
                groups.setdefault(fire_group_of[chosen[k]], []).append(k)
            for gid, members in groups.items():
                group = engine._fire_groups[gid]
                if len(group.programs) == 1:
                    by_case = {0: members}
                else:
                    choosers = engine._choosers
                    by_case = {}
                    for k in members:
                        row = fired_rows[k]
                        sync(row)
                        cursor.set_row(row)
                        by_case.setdefault(
                            choosers[chosen[k]](streams_of[row]), []
                        ).append(k)
                for case, ks in by_case.items():
                    program = group.programs[case]
                    memo = group.memos[case]
                    if program is not None:
                        if len(ks) <= 2:
                            # tiny groups: plain-integer writes beat the
                            # fancy-indexing overhead; per-row failure
                            # replays just that row (the batch variant
                            # replays the whole group through the same
                            # closures with identical values and the
                            # same first-offender error)
                            for k in ks:
                                row = fired_rows[k]
                                index = chosen[k]
                                own = engine._fire_programs[index][case]
                                if own.apply_row(matrix, row):
                                    stale[row] |= own.write_mask
                                    changed_masks[row] |= own.write_mask
                                else:
                                    sync(row)
                                    cursor.set_row(row)
                                    cursor.changed_mask = 0
                                    engine._firers[index](case)
                                    changed_masks[row] |= (
                                        cursor.clear_changed_mask()
                                    )
                                    engine._closure_firings += 1
                            continue
                        krows = np.fromiter(
                            (fired_rows[k] for k in ks),
                            dtype=np.intp,
                            count=len(ks),
                        )
                        kpos = [fire_pos[chosen[k]] for k in ks]
                        if program.apply(matrix, krows,
                                         np.array(kpos, dtype=np.intp)):
                            write_masks = program.write_masks
                            for k, pos in zip(ks, kpos):
                                row = fired_rows[k]
                                stale[row] |= write_masks[pos]
                                changed_masks[row] |= write_masks[pos]
                            continue
                    elif memo is not None:
                        # branchy case: the memo's final writes, written
                        # into the row's values and the matrix alike
                        memo.lookups += len(ks)
                        table = memo.table
                        getters = memo.getters
                        slot_maps = memo.slot_maps
                        for k in ks:
                            row = fired_rows[k]
                            sync(row)
                            row_values = values[row]
                            pos = fire_pos[chosen[k]]
                            writes = table.get(getters[pos](row_values))
                            if writes is None:
                                cursor.set_row(row)
                                cursor.changed_mask = 0
                                memo.record(pos, row_values)
                                changed_masks[row] |= (
                                    cursor.clear_changed_mask()
                                )
                                engine._closure_firings += 1
                                continue
                            slot_map = slot_maps[pos]
                            mask = 0
                            for bit, first, final, later in writes:
                                slot = slot_map[bit]
                                if later or row_values[slot] != first:
                                    mask |= 1 << slot
                                row_values[slot] = final
                                matrix[row, slot] = final
                            changed_masks[row] |= mask
                        continue
                    # unlowered case, or a row would validate-fail:
                    # compiled closures reproduce the exact semantics
                    engine._closure_firings += len(ks)
                    for k in ks:
                        row = fired_rows[k]
                        sync(row)
                        cursor.set_row(row)
                        cursor.changed_mask = 0
                        engine._firers[chosen[k]](case)
                        changed_masks[row] |= cursor.clear_changed_mask()

            # phase 4: instantaneous stabilisation — scan only the rows
            # whose changes can have enabled an instantaneous activity
            # (and, when the gates lower, only rows where one actually
            # is enabled: a scan that fires nothing draws and writes
            # nothing, so skipping it is exact)
            if engine._insta:
                insta_reads = engine.compiled.insta_reads_mask
                triggered = [
                    row for row in lane_rows
                    if changed_masks[row] & insta_reads
                ]
                if triggered:
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
                    for row in scan_rows:
                        sync(row)
                        cursor.set_row(row)
                        cursor.changed_mask = 0
                        engine._stabilize(streams_of[row])
                        changed_masks[row] |= cursor.clear_changed_mask()

            # phase 5: absorption (lowered where possible), horizon,
            # fallback-rate refresh for survivors, lowered refresh
            for lo, hi, predicate, expr in lane.stops:
                if predicate is None:
                    continue
                if expr is not None:
                    # over the stop run's whole row range on purpose: a
                    # lowered predicate reads column views for free,
                    # while gathering the fired rows first costs 3-12x
                    # more at B = 256 (docs/engine_perf.md); the alive
                    # rows of the range are exactly its fired rows
                    with np.errstate(all="ignore"):
                        hit = _bool_rows(expr(matrix[lo:hi]), hi - lo)
                    hit &= alive_mask[lo:hi]
                    for row in (np.flatnonzero(hit) + lo).tolist():
                        finalize(row, now[row], True, now[row])
                else:
                    for row in lane_rows[bisect_left(lane_rows, lo):
                                         bisect_left(lane_rows, hi)]:
                        sync(row)
                        cursor.set_row(row)
                        if predicate(cursor):
                            finalize(row, now[row], True, now[row])

            changed_union = 0
            n_survivors = len(survivors)
            fb_any = bool(engine._fb_indices)
            for row in lane_rows:
                if results[row] is not None:
                    continue
                if now[row] >= horizon_of[row]:
                    finalize(row, now[row], False, math.inf)
                    continue
                changed = changed_masks[row]
                if changed:
                    changed_union |= changed
                    if fb_any and changed & fb_union[row]:
                        sync(row)
                        cursor.set_row(row)
                        reads = fb_reads[row]
                        if engine._refresh_fallback_row(row, changed, reads,
                                                        Ro, Rb):
                            fb_union[row] = engine._fold_union(reads)
                survivors.append(row)
            if changed_union and len(survivors) > n_survivors:
                affected = engine._affected(changed_union)
                if affected:
                    engine._refresh_rows(affected, matrix,
                                         lane.alive_rows(alive_mask),
                                         Ro, Rb, has_bias)
        alive = survivors

    for lane in lanes:
        lane.engine._kernel_events += sum(firings[lane.lo:lane.hi])
        lane.cursor.release()
    return [results[lo:hi] for lo, hi in job_span]  # type: ignore[misc]
