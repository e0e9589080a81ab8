"""The lowering pass of the lockstep batch engine.

The compiled engine (:mod:`repro.san.compiled`) advances one replication
at a time: every jump pays Python-level closure calls for the affected
gates plus an O(activities) total-rate reduction.  The stepped engine
(:mod:`repro.san.stepped`) amortises that cost over a *batch* of B
replications advanced in lockstep.  :class:`BatchedJumpEngine` is its
base class and holds what the batch kernel is built from:

* the batch's markings live in a ``(B, n_places)`` int64 matrix (column
  major, so per-place columns are contiguous) mirrored from exact
  per-row Python values through a :class:`_BatchCursor`;
* a lowering pass translates the paper model's gate predicates and rate
  functions — threshold comparisons and arithmetic on place markings —
  into vectorized column expressions, traced once per *code group* (the
  replicas of one activity type) and evaluated over ``(B, G)`` column
  blocks (:class:`_LoweredGroup`);
* a slot → group reverse index says which groups a firing's changed
  slots make stale.

Any gate that resists lowering (writes, extended places, ``float()``
coercions, data-dependent Python control flow beyond branch-enumerable
comparisons) automatically degrades to a **per-row closure fallback**
that reuses the compiled engine's tracing closures — arbitrary SANs
still run, only the lowered fraction of the model gets the vector
speedup.

The class also carries the shared engine surface: constructor
validation, the per-row compiled delegate that ``run`` (a single
replication), ``simulate`` (splitting segments, arbitrary start
markings, level functions) and observed batches go to — built on first
use, so unobserved batch callers never pay for its closures — and
diagnose mode (lowering facts without runtime closures).  It has no
batch loop of its own: :meth:`SteppedJumpEngine.run_batch
<repro.san.stepped.SteppedJumpEngine.run_batch>` runs the lockstep
batches, bit-identical per stream to the compiled engine at any batch
size.

See ``docs/engine_perf.md`` for layout details and batch-size guidance.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Mapping, Optional, Union

import numpy as np

from repro.san.compiled import (
    CompiledJumpEngine,
    CompiledMarking,
    CompiledModel,
    _SlotBindings,
    _compile_choosers,
    _compile_enabled,
    _compile_fire,
    _compile_rate,
    _enabling_reads,
    compile_model,
)
from repro.san.model import SANModel
from repro.san.simulator import (
    MAX_INSTANTANEOUS_CHAIN,
    SimulationRun,
    UnstableMarkingError,
)
from repro.stochastic.rng import RandomStream

__all__ = ["DEFAULT_BATCH_SIZE", "BatchedJumpEngine"]

#: default replications advanced in lockstep (see docs/engine_perf.md)
DEFAULT_BATCH_SIZE = 256

# lowering caps: a gate whose branch structure exceeds these falls back
# to the per-row closure path instead of exploding the compile pass
_MAX_PATHS = 128
_MAX_DEPTH = 48


class _CannotLower(BaseException):
    """Raised (and caught internally) when a gate resists vectorization.

    Deliberately a ``BaseException``: gate code wrapped in broad
    ``except Exception`` handlers must not swallow the abort signal and
    let a half-traced expression masquerade as a lowered result.
    """


# ----------------------------------------------------------------------
# symbolic tracing: expression nodes + branch-path enumeration
# ----------------------------------------------------------------------
#: the branch trail the tracer is currently recording into (single
#: threaded by construction: lowering happens once, at engine build)
_ACTIVE_TRAIL: list = [None]


class _Node:
    """A deferred column expression over the batch marking matrix.

    ``ev(M)`` maps the ``(B, n_slots)`` matrix to a length-B column (or
    a scalar for constant subtrees).  Arithmetic and comparisons build
    bigger nodes; truthiness (`bool`) defers to the active branch trail,
    which is how data-dependent control flow is enumerated.  Escapes the
    numeric domain (``float``/``int``/``len``/iteration) abort lowering.
    """

    __slots__ = ("ev",)

    def __init__(self, ev: Callable[[np.ndarray], Any]) -> None:
        self.ev = ev

    # -- coercions that end symbolic execution --------------------------
    def __bool__(self) -> bool:
        trail = _ACTIVE_TRAIL[0]
        if trail is None:
            raise _CannotLower("truth value outside a tracing context")
        return trail.decide(self)

    def __float__(self):
        raise _CannotLower("float() coercion")

    def __int__(self):
        raise _CannotLower("int() coercion")

    def __index__(self):
        raise _CannotLower("index coercion")

    def __iter__(self):
        raise _CannotLower("iteration over a marking expression")

    def __len__(self):
        raise _CannotLower("len() of a marking expression")

    def __hash__(self):
        raise _CannotLower("hashing a marking expression")


def _ev_of(value: Any) -> Callable[[np.ndarray], Any]:
    """The evaluator of an operand (node or plain number)."""
    if isinstance(value, _Node):
        return value.ev
    if isinstance(value, (bool, int, float)):
        return lambda M, _c=value: _c
    raise _CannotLower(f"non-numeric operand {type(value).__name__}")


def _binary(op: Callable[[Any, Any], Any]):
    def method(self: _Node, other: Any) -> _Node:
        ev_other = _ev_of(other)
        ev_self = self.ev
        return _Node(lambda M: op(ev_self(M), ev_other(M)))

    return method


def _rbinary(op: Callable[[Any, Any], Any]):
    def method(self: _Node, other: Any) -> _Node:
        ev_other = _ev_of(other)
        ev_self = self.ev
        return _Node(lambda M: op(ev_other(M), ev_self(M)))

    return method


def _unary(op: Callable[[Any], Any]):
    def method(self: _Node) -> _Node:
        ev_self = self.ev
        return _Node(lambda M: op(ev_self(M)))

    return method


import operator as _op  # noqa: E402  (kept next to its sole use)

for _name, _fn in [
    ("__add__", _op.add), ("__sub__", _op.sub), ("__mul__", _op.mul),
    ("__truediv__", _op.truediv), ("__floordiv__", _op.floordiv),
    ("__mod__", _op.mod), ("__pow__", _op.pow),
    ("__lt__", _op.lt), ("__le__", _op.le), ("__gt__", _op.gt),
    ("__ge__", _op.ge), ("__eq__", _op.eq), ("__ne__", _op.ne),
]:
    setattr(_Node, _name, _binary(_fn))
for _name, _fn in [
    ("__radd__", _op.add), ("__rsub__", _op.sub), ("__rmul__", _op.mul),
    ("__rtruediv__", _op.truediv), ("__rfloordiv__", _op.floordiv),
    ("__rmod__", _op.mod), ("__rpow__", _op.pow),
]:
    setattr(_Node, _name, _rbinary(_fn))
for _name, _fn in [
    ("__neg__", _op.neg), ("__pos__", _op.pos), ("__abs__", _op.abs),
]:
    setattr(_Node, _name, _unary(_fn))
del _name, _fn


class _BranchTrail:
    """One forced-outcome replay of a gate function.

    The first ``len(forced)`` truthiness decisions take the forced
    outcomes; later ones default to ``True`` and are recorded so the
    enumerator can queue their flipped variants.
    """

    __slots__ = ("forced", "decisions")

    def __init__(self, forced: tuple) -> None:
        self.forced = forced
        self.decisions: list[tuple[_Node, bool]] = []

    def decide(self, node: _Node) -> bool:
        depth = len(self.decisions)
        if depth >= _MAX_DEPTH:
            raise _CannotLower("branch depth cap exceeded")
        outcome = self.forced[depth] if depth < len(self.forced) else True
        self.decisions.append((node, outcome))
        return outcome


class _LowerView:
    """The gate-view stand-in used while tracing a predicate or rate.

    Bound to a *group* of activities sharing the same gate/rate code:
    each local name maps to one slot per group member, so reads return
    ``(B, G)`` column-block :class:`_Node` expressions and record every
    member's global slot.  Writes and extended-place reads abort
    lowering (the per-row closure fallback handles those activities with
    compiled-engine semantics).
    """

    __slots__ = ("_cols", "_extended", "reads")

    def __init__(
        self, cols: dict[str, np.ndarray], extended: frozenset
    ) -> None:
        self._cols = cols
        self._extended = extended
        self.reads: set[int] = set()

    def __getitem__(self, local: str) -> _Node:
        cols = self._cols[local]  # KeyError → _CannotLower via enumerator
        slots = [int(slot) for slot in cols]
        if any(slot in self._extended for slot in slots):
            raise _CannotLower(f"extended place read {local!r}")
        self.reads.update(slots)
        return _Node(lambda M, _c=cols: M[:, _c])

    def __setitem__(self, local: str, value: Any):
        raise _CannotLower("marking write during predicate/rate tracing")

    def inc(self, local: str, amount: int = 1):
        raise _CannotLower("marking write during predicate/rate tracing")

    def dec(self, local: str, amount: int = 1):
        raise _CannotLower("marking write during predicate/rate tracing")

    def tuple_set(self, local: str, index: int, value: Any):
        raise _CannotLower("marking write during predicate/rate tracing")


def _enumerate_paths(fn: Callable, view: _LowerView) -> list:
    """All (decision sequence, result) pairs of ``fn`` over the view.

    Depth-first forced replay: run with every decision defaulting to
    True, then re-run with each defaulted decision flipped, recursively.
    Pure numeric gate code terminates with at most 2^depth paths; the
    caps bound pathological cases.
    """
    paths = []
    stack: list[tuple] = [()]
    while stack:
        forced = stack.pop()
        trail = _BranchTrail(forced)
        previous = _ACTIVE_TRAIL[0]
        _ACTIVE_TRAIL[0] = trail
        try:
            result = fn(view)
        except _CannotLower:
            raise
        except Exception as exc:
            # a gate that raises under some branch combination cannot be
            # vectorized; the runtime fallback reproduces the real error
            raise _CannotLower(f"path evaluation raised {type(exc).__name__}")
        finally:
            _ACTIVE_TRAIL[0] = previous
        paths.append((tuple(trail.decisions), result))
        if len(paths) > _MAX_PATHS:
            raise _CannotLower("branch path cap exceeded")
        for depth in range(len(forced), len(trail.decisions)):
            prefix = tuple(o for _, o in trail.decisions[:depth])
            stack.append(prefix + (False,))
    return paths


def _build_tree(paths: list, depth: int):
    """Fold enumerated paths into a binary decision tree.

    Nodes are ``("leaf", value)`` or ``("branch", cond, true, false)``.
    Purity of gate code guarantees all paths sharing a decision prefix
    met the same condition at the same depth; violations abort lowering.
    """
    terminal = [p for p in paths if len(p[0]) == depth]
    ongoing = [p for p in paths if len(p[0]) > depth]
    if terminal and ongoing:
        raise _CannotLower("non-deterministic branch structure")
    if terminal:
        if len(terminal) != 1:
            raise _CannotLower("duplicate decision paths")
        value = terminal[0][1]
        if not isinstance(value, (_Node, bool, int, float)):
            raise _CannotLower(f"non-numeric result {type(value).__name__}")
        return ("leaf", value)
    if not ongoing:
        raise _CannotLower("empty path set")
    condition = ongoing[0][0][depth][0]
    true_side = [p for p in ongoing if p[0][depth][1]]
    false_side = [p for p in ongoing if not p[0][depth][1]]
    if not true_side or not false_side:
        raise _CannotLower("one-sided branch enumeration")
    return (
        "branch",
        condition,
        _build_tree(true_side, depth + 1),
        _build_tree(false_side, depth + 1),
    )


def _tree_expr(tree) -> tuple[Callable, Optional[float]]:
    """Fold the tree into one column expression ``expr(M)``.

    Returns ``(expr, const)`` where ``const`` is the Python value when
    the whole tree is a constant leaf (letting callers special-case it).
    Branches become element-wise ``np.where`` selections — both sides are
    evaluated over all rows, which is exactly what the earlier masked
    formulation did too (a leaf's expression ignores its mask), so the
    selected values are bit-identical while the per-branch mask algebra,
    ``.any()`` guards and per-leaf ``copyto`` calls disappear.
    """
    kind = tree[0]
    if kind == "leaf":
        value = tree[1]
        if isinstance(value, _Node):
            return value.ev, None
        constant = float(value)
        return (lambda M, _c=constant: _c), constant

    _, condition, true_tree, false_tree = tree
    cond_ev = condition.ev
    true_expr, true_const = _tree_expr(true_tree)
    false_expr, false_const = _tree_expr(false_tree)
    if true_const == 1.0 and false_const == 0.0:
        # `x and y`-style predicate chains bottom out in 1/0 leaves; the
        # branch then IS its condition (as 0/1 via the boolean array)
        return (lambda M: np.asarray(cond_ev(M)) != 0), None

    def expr(M):
        return np.where(
            np.asarray(cond_ev(M)) != 0, true_expr(M), false_expr(M)
        )

    return expr, None


def _lower_group(
    fn: Callable,
    bindings: list[dict[str, int]],
    extended: frozenset,
) -> tuple[Callable, set[int]]:
    """Lower one predicate/rate over a member group.

    ``bindings`` carries each member's local-name → global-slot mapping;
    the shared ``fn`` is traced once and the resulting expression reads
    ``(B, G)`` column blocks (member ``g``'s slots in column ``g``).
    Returns the fused expression and the union of read slots.
    """
    try:
        cols = {
            name: np.array(
                [binding[name] for binding in bindings], dtype=np.intp
            )
            for name in bindings[0]
        }
    except KeyError as exc:
        raise _CannotLower(f"unaligned gate binding {exc}") from None
    view = _LowerView(cols, extended)
    paths = _enumerate_paths(fn, view)
    tree = _build_tree(paths, 0)
    expr, _const = _tree_expr(tree)
    return expr, set(view.reads)


class _LoweredGroup:
    """Timed activities sharing gate/rate code, refreshed as one block.

    The paper model instantiates the same per-vehicle activity types
    across its 2n replicas, so most predicate/rate *functions* recur ~2n
    times with different place bindings.  Grouping those members means
    each unique decision tree is evaluated once per refresh over a
    ``(B, G)`` column block instead of once per member — the second
    amortization axis of the SoA layout (rows amortize over
    replications, columns over model replicas).
    """

    __slots__ = ("indices", "names", "gate_exprs", "eff_consts",
                 "rate_expr", "factors", "any_factor", "reads_mask")

    def __init__(self, indices, names, gate_exprs, eff_consts, rate_expr,
                 factors, reads_mask: int) -> None:
        self.indices = indices        # (G,) intp — activity columns in R
        self.names = names
        self.gate_exprs = gate_exprs  # fused truthy expressions, (B, G)
        self.eff_consts = eff_consts  # (G,) float64, <= 0 clamped (or None)
        self.rate_expr = rate_expr
        self.factors = factors        # (G,) float64 bias multipliers
        self.any_factor = bool((factors != 1.0).any())
        self.reads_mask = reads_mask

    def refresh_rows(self, M, rows, Ro, Rb, has_bias: bool) -> None:
        """Recompute the group's rate columns on ``rows`` only.

        The stepped engine's step loop refreshes an untabulated group
        through this method.  It evaluates the lowered expressions on
        the ``rows`` sub-matrix — elementwise ufuncs are bitwise
        shape-independent — and writes only those rows: no write
        reaches a finished row or, in a multi-point tensor, a sibling
        point's rows, and no tree runs on a foreign marking.  Callers
        pass the owning engine's *alive* rows, which keeps the
        negative-rate guard to the rows the compiled engine would
        evaluate.  NaN rates count as "not > 0" (disabled), like the
        scalar path.
        """
        sub = M[rows]
        shape = (len(rows), len(self.indices))
        enabled = None
        for expr in self.gate_exprs:
            gate = np.asarray(expr(sub)) != 0
            enabled = gate if enabled is None else (enabled & gate)
        if enabled is not None and enabled.ndim != 2:
            enabled = np.broadcast_to(enabled, shape)
        if self.rate_expr is None:
            if enabled is None:
                block = np.broadcast_to(self.eff_consts, shape)
            else:
                block = np.where(enabled, self.eff_consts, 0.0)
        else:
            rates = np.asarray(self.rate_expr(sub), dtype=np.float64)
            if rates.ndim != 2:
                rates = np.broadcast_to(rates, shape)
            positive = rates > 0.0
            negative = rates < 0.0
            if enabled is not None:
                positive = enabled & positive
                negative = enabled & negative
            if negative.any():
                row, col = divmod(int(np.argmax(negative)), shape[1])
                raise ValueError(
                    f"activity {self.names[col]!r}: negative rate "
                    f"{float(rates[row, col])}"
                )
            block = np.where(positive, rates, 0.0)
        rows2 = rows[:, None]
        Ro[rows2, self.indices] = block
        if has_bias:
            if self.any_factor:
                Rb[rows2, self.indices] = block * self.factors
            else:
                Rb[rows2, self.indices] = block


class _BatchCursor(CompiledMarking):
    """A :class:`CompiledMarking` pointed at one row of the batch.

    ``values`` aliases the current row's exact Python-valued list (so
    closures, validators and stop predicates see the compiled engine's
    value domain), while integer writes are mirrored into the int64
    matrix column the vector kernels read.
    """

    __slots__ = ("_rows", "_matrix", "_mirror", "_row")

    def __init__(self, compiled: CompiledModel) -> None:
        super().__init__(
            compiled.places, compiled.slot_of, compiled.validators,
            list(compiled.initial_values),
        )
        self._rows: list[list] = []
        self._matrix: Optional[np.ndarray] = None
        self._mirror = compiled.mirrored
        self._row = 0

    def bind_batch(self, rows: list[list], matrix: np.ndarray) -> None:
        self._rows = rows
        self._matrix = matrix
        self._row = 0
        if rows:
            self.values = rows[0]
        self.changed_mask = 0

    def set_row(self, row: int) -> None:
        self._row = row
        self.values = self._rows[row]

    def release(self) -> None:
        """Drop the finished batch's rows and matrix.

        ``values`` is detached from the last row it pointed at, which a
        deferred final marking may still hold.
        """
        self._rows = []
        self._matrix = None
        self.values = list(self.values)

    def set_slot(self, slot: int, value: Any) -> None:
        value = self._validators[slot](value)
        if self.values[slot] != value:
            self.values[slot] = value
            self.changed_mask |= 1 << slot
            if self._mirror[slot]:
                self._matrix[self._row, slot] = value


class BatchedJumpEngine:
    """The lowering base of the lockstep batch engine (see module docstring).

    Holds what :class:`~repro.san.stepped.SteppedJumpEngine` builds its
    batch kernel from: the lowered code groups and their slot → group
    index, the per-row closures of unlowerable activities, the batch
    cursor and the stabilisation scan.  Same constructor validation and
    ``run``/``simulate`` surface as :class:`CompiledJumpEngine` — both
    go to the per-row compiled delegate — but no batch loop: the
    subclass defines ``run_batch``.  Constructed directly, it serves
    lowering reports (``lowering_stats``, ``fallback_reasons``,
    diagnose mode).

    Parameters
    ----------
    model:
        The flattened all-exponential SAN or a shared
        :class:`CompiledModel`.
    bias:
        Optional activity-name → rate multiplier (importance sampling).
    observer:
        Optional observability hook; forces per-row delegation to an
        internal compiled engine so trace ordering and RNG invariance
        are preserved (see module docstring).
    batch_size:
        Default lockstep width, used by callers that slice replication
        stream batches (``run_batch`` accepts any length).
    diagnose:
        Compile-for-inspection mode: run the full lowering pass (so
        ``lowering_stats``/``fallback_reasons`` and the lowered trees are
        populated) but skip the per-row delegate and every runtime
        closure.  A diagnose engine cannot run — ``run``/``simulate``
        (and the subclass's ``run_batch``) raise — which is what the
        static analyzer wants: lowering facts without paying for
        executable kernels.
    """

    #: engine label reported in runtime telemetry footers
    engine_name = "batched"

    def __init__(
        self,
        model: Union[SANModel, CompiledModel],
        bias: Optional[Mapping[str, float]] = None,
        observer=None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        diagnose: bool = False,
    ) -> None:
        compiled = model if isinstance(model, CompiledModel) else None
        san = compiled.model if compiled is not None else model
        if not san.is_markovian:
            bad = [a.name for a in san.timed_activities if not a.is_markovian]
            raise TypeError(
                f"{type(self).__name__} requires exponential activities; "
                f"non-exponential: {bad[:5]}"
            )
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.compiled = compiled if compiled is not None else compile_model(san)
        self.model = self.compiled.model
        self.batch_size = int(batch_size)
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
        self.diagnose = bool(diagnose)
        self._kernel_events = 0
        #: per-row compiled delegate (observed runs, single replications,
        #: simulate() segments), built on first use by :meth:`_delegate`
        self._delegate_engine: Optional[CompiledJumpEngine] = None
        self._bind()

    # ------------------------------------------------------------------
    def _require_runtime(self) -> None:
        if self.diagnose:
            raise RuntimeError(
                f"{type(self).__name__} was built with diagnose=True and "
                f"has no runtime kernels; construct without diagnose to run"
            )

    def _delegate(self) -> CompiledJumpEngine:
        """The per-row compiled engine, built on first use.

        It shares this engine's compile pass but still binds its own
        closures (1.3-2.8 MiB per AHS model at n = 8-18, and up to a
        fifth of the compile time), so plain ``run_batch`` use never
        pays for it.
        """
        self._require_runtime()
        delegate = self._delegate_engine
        if delegate is None:
            delegate = self._delegate_engine = CompiledJumpEngine(
                self.compiled, bias=self.bias, observer=self.observer
            )
        return delegate

    @property
    def fired_events(self) -> int:
        """Timed firings over this engine's lifetime (kernel + delegate)."""
        delegate = self._delegate_engine
        delegated = 0 if delegate is None else delegate.fired_events
        return self._kernel_events + delegated

    @property
    def has_bias(self) -> bool:
        """Whether any activity carries an importance-sampling factor.

        Multi-point tensor runs partition engines on this flag: biased
        and unbiased rows cannot share one cumulative-sum pass because
        the biased path draws against ``Rb`` while computing weights
        from ``Ro``.
        """
        return self._has_bias

    # ------------------------------------------------------------------
    def _bind(self) -> None:
        """Lower what lowers; compile per-row closures for the rest."""
        compiled = self.compiled
        slot_of = compiled.slot_of
        cursor = _BatchCursor(compiled)
        self._cursor = cursor
        self._n = compiled.n_timed
        self._factors = [
            self.bias.get(activity.name, 1.0) for activity in compiled.timed
        ]
        self._has_bias = any(factor != 1.0 for factor in self._factors)
        #: slots of extended places, which no lowered expression may read
        extended = self._extended = frozenset(
            slot for slot, mirrored in enumerate(compiled.mirrored)
            if not mirrored
        )

        # group members by shared gate/rate *code*: the composed model
        # stamps the same per-vehicle activity types across 2n replicas,
        # so one traced tree covers a whole column block of activities
        signatures: dict[tuple, list[int]] = {}
        for index, activity in enumerate(compiled.timed):
            _constant, rate_fn = activity.exponential_parts()
            signature = (
                tuple(id(gate.predicate) for gate in activity.input_gates),
                id(rate_fn.fn) if rate_fn is not None else None,
            )
            signatures.setdefault(signature, []).append(index)

        def lower_members(indices: list[int]) -> _LoweredGroup:
            members = [compiled.timed[i] for i in indices]
            template = members[0]
            gate_exprs = []
            reads: set[int] = set()
            for position in range(len(template.input_gates)):
                expr, gate_reads = _lower_group(
                    template.input_gates[position].predicate,
                    [m.input_gates[position].slot_binding(slot_of)
                     for m in members],
                    extended,
                )
                gate_exprs.append(expr)
                reads |= gate_reads
            _c0, rate_fn = template.exponential_parts()
            if rate_fn is None:
                rate_expr = None
                consts = np.array(
                    [float(m.exponential_parts()[0]) for m in members]
                )
                eff_consts = np.where(consts > 0.0, consts, 0.0)
            else:
                eff_consts = None
                rate_expr, rate_reads = _lower_group(
                    rate_fn.fn,
                    [m.exponential_parts()[1].slot_binding(slot_of)
                     for m in members],
                    extended,
                )
                reads |= rate_reads
            reads_mask = 0
            for slot in reads:
                reads_mask |= 1 << slot
            return _LoweredGroup(
                np.array(indices, dtype=np.intp),
                [m.name for m in members],
                gate_exprs,
                eff_consts,
                rate_expr,
                np.array([self._factors[i] for i in indices]),
                reads_mask,
            )

        self._lowered: list[_LoweredGroup] = []
        fallback_indices: list[int] = []
        fallback_reasons: dict[str, str] = {}
        for members in signatures.values():
            try:
                self._lowered.append(lower_members(members))
            except _CannotLower as group_exc:
                # a group can fail collectively (e.g. one member binds an
                # extended place) while others still lower individually
                group_reason = str(group_exc)
                for index in members:
                    if len(members) > 1:
                        try:
                            self._lowered.append(lower_members([index]))
                            continue
                        except _CannotLower as solo_exc:
                            fallback_reasons[compiled.timed[index].name] = str(
                                solo_exc
                            )
                    else:
                        fallback_reasons[compiled.timed[index].name] = (
                            group_reason
                        )
                    fallback_indices.append(index)
        fallback_indices.sort()
        self.fallback_reasons = fallback_reasons

        # slot → bitmask of *positions in self._lowered* (reverse index)
        self._lowered_dep = [0] * compiled.n_slots
        for position, lowered in enumerate(self._lowered):
            bit = 1 << position
            mask = lowered.reads_mask
            while mask:
                low = mask & -mask
                self._lowered_dep[low.bit_length() - 1] |= bit
                mask ^= low

        # fallback activities: compiled tracing closures over the cursor
        self._fb_indices = fallback_indices
        self._trace = [0]
        self._fb_enabled = []
        self._fb_rate_consts = []
        self._fb_rate_fns = []
        self._fb_static_reads = []
        #: gate and marking-function bindings, for this bind (a subclass
        #: may reuse it for its own views, then drop it)
        slots = self._slot_bindings = _SlotBindings(slot_of)
        if self.diagnose:
            # diagnose mode keeps the lowering facts (groups, fallback
            # reasons, dependency masks) but compiles no runtime closures
            self._choosers = []
            self._firers = []
            self._insta = []
            self._case_memos = []
            return
        for index in fallback_indices:
            activity = compiled.timed[index]
            self._fb_enabled.append(
                _compile_enabled(activity, cursor, slots, self._trace)
            )
            constant, fn = _compile_rate(activity, cursor, slots, self._trace)
            self._fb_rate_consts.append(constant)
            self._fb_rate_fns.append(fn)
            static = 0
            for place in _enabling_reads(activity):
                static |= 1 << slot_of[place]
            self._fb_static_reads.append(static)

        # fire-path closures (chooser + gate functions) for every timed
        # activity, and the instantaneous scan — all bound to the cursor
        self._choosers, timed_memos = _compile_choosers(
            compiled.timed, cursor, slots
        )
        self._firers = [
            _compile_fire(activity, cursor, slots)
            for activity in compiled.timed
        ]
        insta_choosers, insta_memos = _compile_choosers(
            compiled.instantaneous, cursor, slots
        )
        self._insta = [
            (
                _compile_enabled(activity, cursor, slots),
                chooser,
                _compile_fire(activity, cursor, slots),
            )
            for activity, chooser in zip(compiled.instantaneous,
                                         insta_choosers)
        ]
        #: the case-choice memos of the cursor-bound choosers
        self._case_memos = timed_memos + insta_memos

    # ------------------------------------------------------------------
    def lowering_stats(self) -> dict[str, int]:
        """How much of the model the vector kernels cover (reports)."""
        return {
            "timed_activities": self._n,
            "lowered": sum(len(group.indices) for group in self._lowered),
            "groups": len(self._lowered),
            "fallback": len(self._fb_indices),
        }

    # ------------------------------------------------------------------
    def _stabilize(self, stream: RandomStream) -> None:
        """Compiled-identical instantaneous scan on the cursor's row."""
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
    def run(
        self,
        stream: RandomStream,
        horizon: float,
        stop_predicate: Optional[Callable[[Any], bool]] = None,
        rate_rewards=None,
    ) -> SimulationRun:
        """One replication, on the per-row compiled delegate.

        A batch of one pays the lockstep set-up for a single row, so the
        compiled engine is several times faster here; per stream the two
        are bit-identical.
        """
        return self._delegate().run(stream, horizon, stop_predicate,
                                    rate_rewards)

    def simulate(self, *args, **kwargs):
        """Path-segment simulation (splitting); always per-row compiled."""
        return self._delegate().simulate(*args, **kwargs)

    # ------------------------------------------------------------------
    def _refresh_fallback_row(self, row: int, changed_mask: int,
                              reads: list[int], Ro, Rb) -> bool:
        """Re-evaluate the row's fallback activities (compiled semantics).

        ``changed_mask == -1`` forces a full pass (batch entry); else only
        activities whose last traced read set intersects the mask run.
        The cursor must already be on ``row``.  Returns True when any
        read set changed (caller refolds the row's union mask).
        """
        trace = self._trace
        factors = self._factors
        has_bias = self._has_bias
        changed_reads = False
        for k, index in enumerate(self._fb_indices):
            if changed_mask != -1 and not (changed_mask & reads[k]):
                continue
            trace[0] = 0
            enabled = self._fb_enabled[k]
            if enabled is None or enabled():
                fn = self._fb_rate_fns[k]
                rate = self._fb_rate_consts[k] if fn is None else fn()
                if rate > 0.0:
                    new_orig = rate
                    new_biased = rate * factors[index]
                else:
                    new_orig = 0.0
                    new_biased = 0.0
            else:
                new_orig = 0.0
                new_biased = 0.0
            Ro[row, index] = new_orig
            if has_bias:
                Rb[row, index] = new_biased
            traced = trace[0] if trace[0] else self._fb_static_reads[k]
            if traced != reads[k]:
                reads[k] = traced
                changed_reads = True
        return changed_reads

    @staticmethod
    def _fold_union(reads: list[int]) -> int:
        union = 0
        for mask in reads:
            union |= mask
        return union
