"""Classical-state algebra: empty state, single bindings, disjoint
concatenation and formal superpositions.

States serve purely as finite index labels for semantic functions.  They are
immutable, hashable and kept in a canonical normal form so equal states
compare and hash equal: concatenations are flattened, empty units dropped and
children sorted; superposition children keep their branch order because the
position indexes a guard branch.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .errors import ArityError, DomainClashError


class ClassicalState:
    """Base class; use the module constructors, not subclasses directly."""

    __slots__ = ()


@dataclass(frozen=True)
class Empty(ClassicalState):
    __slots__ = ()


@dataclass(frozen=True)
class Bind(ClassicalState):
    __slots__ = ("name", "value")
    name: str
    value: int


@dataclass(frozen=True)
class Concat(ClassicalState):
    __slots__ = ("parts",)
    parts: tuple[ClassicalState, ...]


@dataclass(frozen=True)
class Oplus(ClassicalState):
    __slots__ = ("parts",)
    parts: tuple[ClassicalState, ...]


EPS = Empty()


def bind(name: str, value: int) -> Bind:
    return Bind(str(name), int(value))


def dom(state: ClassicalState) -> frozenset[str]:
    if isinstance(state, Empty):
        return frozenset()
    if isinstance(state, Bind):
        return frozenset((state.name,))
    return frozenset().union(*(dom(p) for p in state.parts))


def sort_key(state: ClassicalState):
    """Deterministic total order on normalized states."""
    if isinstance(state, Empty):
        return (0,)
    if isinstance(state, Bind):
        return (1, state.name, state.value)
    if isinstance(state, Oplus):
        return (2, len(state.parts)) + tuple(sort_key(p) for p in state.parts)
    return (3, len(state.parts)) + tuple(sort_key(p) for p in state.parts)


def _flatten(state: ClassicalState) -> list[ClassicalState]:
    if isinstance(state, Empty):
        return []
    if isinstance(state, Concat):
        return list(state.parts)
    return [state]


def _normal_concat(parts: Sequence[ClassicalState]) -> ClassicalState:
    seen: set[str] = set()
    for p in parts:
        d = dom(p)
        clash = seen & d
        if clash:
            raise DomainClashError(f"classical variables bound twice: {sorted(clash)}")
        seen |= d
    parts = sorted(parts, key=sort_key)
    if not parts:
        return EPS
    if len(parts) == 1:
        return parts[0]
    return Concat(tuple(parts))


def concat(a: ClassicalState, b: ClassicalState) -> ClassicalState:
    """Concatenation of states with disjoint domains, in normal form; the
    empty state is its unit, so with it the other state is returned as is."""
    if isinstance(a, Empty) or isinstance(b, Empty):
        return b if isinstance(a, Empty) else a
    return _normal_concat(_flatten(a) + _flatten(b))


def extend(state: ClassicalState, name: str, value: int) -> ClassicalState:
    """``state[name <- value]`` for a name outside the state's domain, as the
    caller guarantees: the binding goes in among the parts by binary search,
    so a state of ``k`` parts costs one copy of them, not ``k`` domains."""
    new = bind(name, value)
    parts = _flatten(state)
    parts.insert(bisect_left(parts, sort_key(new), key=sort_key), new)
    return parts[0] if len(parts) == 1 else Concat(tuple(parts))


def oplus(children: Sequence[ClassicalState]) -> Oplus:
    """Formal superposition label; arity and branch order are significant."""
    children = tuple(children)
    if not children:
        raise ArityError("superposition of zero classical states")
    return Oplus(children)


def state_set_product(
    first: Sequence[ClassicalState], second: Sequence[ClassicalState]
) -> list[ClassicalState]:
    """All pairwise concatenations, in deterministic order."""
    return [concat(a, b) for a, b in product(first, second)]


def render(state: ClassicalState) -> str:
    """Textual form: ``eps``, ``[x<-3]``, ``a*b``, ``(+ a b)``."""
    if isinstance(state, Empty):
        return "eps"
    if isinstance(state, Bind):
        return f"[{state.name}<-{state.value}]"
    if isinstance(state, Concat):
        return "*".join(render(p) for p in state.parts)
    return "(+ " + " ".join(render(p) for p in state.parts) + ")"
