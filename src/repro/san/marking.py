"""Markings (SAN state) and the views gate code reads/writes through."""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping

from repro.san.places import Place

__all__ = ["Marking", "DeferredMarking", "GateView", "MarkingFunction"]


class Marking:
    """An assignment of values to places.

    Write tracking: every mutation records the place in :attr:`changed`,
    which the simulator uses to re-evaluate only the activities whose
    enabling could have been affected.
    """

    __slots__ = ("_values", "changed")

    def __init__(self, values: Mapping[Place, Any]) -> None:
        self._values: dict[Place, Any] = dict(values)
        self.changed: set[Place] = set()

    @classmethod
    def initial(cls, places: Iterable[Place]) -> "Marking":
        """Marking with every place at its declared initial value."""
        return cls({p: p.initial for p in places})

    # ------------------------------------------------------------------
    def get(self, place: Place) -> Any:
        """Current value of ``place``."""
        try:
            return self._values[place]
        except KeyError:
            raise KeyError(f"place {place.name!r} is not part of this marking")

    def set(self, place: Place, value: Any) -> None:
        """Assign ``value`` to ``place`` (validated by the place)."""
        if place not in self._values:
            raise KeyError(f"place {place.name!r} is not part of this marking")
        value = place.validate_value(value)
        if self._values[place] != value:
            self._values[place] = value
            self.changed.add(place)

    def places(self) -> Iterable[Place]:
        """The places of this marking."""
        return self._values.keys()

    def clear_changed(self) -> set[Place]:
        """Return and reset the set of places written since the last call."""
        changed, self.changed = self.changed, set()
        return changed

    def copy(self) -> "Marking":
        """Independent copy (used by splitting and state-space search)."""
        return Marking(self._values)

    def values_in(self, order: Iterable[Place]) -> list:
        """Values in the given place order (the compiled engine's loader).

        Raises
        ------
        KeyError
            If a requested place is not part of this marking.
        """
        values = self._values
        try:
            return [values[p] for p in order]
        except KeyError as exc:
            place = exc.args[0]
            raise KeyError(
                f"place {getattr(place, 'name', place)!r} is not part of "
                f"this marking"
            ) from None

    def freeze(self, order: list[Place]) -> tuple:
        """Hashable snapshot of the marking, in the given place order."""
        return tuple(self._values[p] for p in order)

    @classmethod
    def thaw(cls, frozen: tuple, order: list[Place]) -> "Marking":
        """Rebuild a marking from a frozen snapshot."""
        if len(frozen) != len(order):
            raise ValueError(
                f"frozen state has {len(frozen)} entries for {len(order)} places"
            )
        return cls(dict(zip(order, frozen)))

    def as_dict(self) -> dict[str, Any]:
        """Name-keyed snapshot for reports and debugging."""
        return {p.name: v for p, v in self._values.items()}

    def __eq__(self, other: object) -> bool:
        """Value equality: the same places holding the same values."""
        if not isinstance(other, Marking):
            return NotImplemented
        return self._values == other._values

    #: markings are mutable, so value equality makes them unhashable
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{p.name}={v}" for p, v in self._values.items())
        return f"Marking({inner})"


class DeferredMarking(Marking):
    """A :class:`Marking` whose place-to-value dict is built on first use.

    Batch engines finish hundreds of replications per call, and most
    callers read only a run's stop time and weight.  This snapshot keeps
    the shared place order and the finished row's value list (which the
    engine no longer writes) and builds the dict when something first
    reads it, through the unset ``_values`` slot.
    """

    __slots__ = ("_order", "_row")

    def __init__(self, order: list[Place], row: list) -> None:
        self._order = order
        self._row = row
        self.changed = set()

    def __getattr__(self, name: str) -> Any:
        # only reached while the ``_values`` slot is still unset
        if name != "_values":
            raise AttributeError(name)
        self._values = dict(zip(self._order, self._row))
        self._order = self._row = None
        return self._values


class GateView:
    """Gate-local window onto a marking.

    Gate predicates and functions are written against *local* place names
    declared in the gate's binding — never against global place objects —
    so that a gate can be cloned for the Rep operator by rebinding.

    Examples
    --------
    ``g["CC"]`` reads the place bound to local name ``"CC"``;
    ``g["CC"] = 1`` writes it; ``g.inc("SM")`` / ``g.dec("SM")`` adjust
    integer markings.
    """

    __slots__ = ("_marking", "_binding")

    def __init__(self, marking: Marking, binding: Mapping[str, Place]) -> None:
        self._marking = marking
        self._binding = binding

    def _place(self, local: str) -> Place:
        try:
            return self._binding[local]
        except KeyError:
            raise KeyError(
                f"gate refers to undeclared local place {local!r}; "
                f"declared: {sorted(self._binding)}"
            )

    def __getitem__(self, local: str) -> Any:
        return self._marking.get(self._place(local))

    def __setitem__(self, local: str, value: Any) -> None:
        self._marking.set(self._place(local), value)

    def inc(self, local: str, amount: int = 1) -> None:
        """Add ``amount`` tokens to an integer place."""
        place = self._place(local)
        self._marking.set(place, self._marking.get(place) + amount)

    def dec(self, local: str, amount: int = 1) -> None:
        """Remove ``amount`` tokens from an integer place."""
        self.inc(local, -amount)

    def tuple_set(self, local: str, index: int, value: Any) -> None:
        """Replace one element of an extended place's tuple marking."""
        place = self._place(local)
        current = list(self._marking.get(place))
        current[index] = value
        self._marking.set(place, tuple(current))


class MarkingFunction:
    """A clonable marking-dependent scalar (rate or case probability).

    Wraps a pure function of a :class:`GateView` together with the binding
    naming the places it reads.  Cloning for the Rep operator substitutes
    the binding while keeping the function.
    """

    __slots__ = ("binding", "fn")

    def __init__(
        self, binding: Mapping[str, Place], fn: Callable[[GateView], float]
    ) -> None:
        self.binding = dict(binding)
        self.fn = fn

    def __call__(self, marking: Marking) -> float:
        return self.fn(GateView(marking, self.binding))

    def rebind(self, place_map: Mapping[Place, Place]) -> "MarkingFunction":
        """Copy with places substituted through ``place_map``."""
        new_binding = {
            local: place_map.get(place, place)
            for local, place in self.binding.items()
        }
        return MarkingFunction(new_binding, self.fn)

    def reads(self) -> set[Place]:
        """Places this function may read (conservative: all bound)."""
        return set(self.binding.values())

    def slot_binding(self, slot_of: Mapping[Place, int]) -> dict[str, int]:
        """Local name → slot index (compile-pass lowering of the binding)."""
        return {local: slot_of[place] for local, place in self.binding.items()}
