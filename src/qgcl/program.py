"""Abstract syntax of guarded-command quantum programs.

Programs are immutable trees, values that never change.  Quantum variables
appear as (name, dimension) pairs so a program is self-contained; classical
variables range over the integers and record measurement outcomes.
``children`` and ``rebuild`` reach any node's subprograms through its
dataclass fields, and ``walk`` is the one traversal every pass over a
program makes (the parser, ``well_formed``, the printer, ``repr``,
``ast_equal``, ``desugar`` and every evaluator): a rule per node run from
an explicit stack, so no pass stops at Python's recursion limit, with a
per-call memo so a shared subprogram is folded once.  ``;`` is
associative, so a chain is one ``Seq`` node however it was grouped.

A node keeps a read-only complex copy of every matrix it is given
(``Unitary``, ``Measurement``, ``GuardBasis``, ``Block``; ``linalg.frozen``),
so what is worked out from a node is fixed for its lifetime and kept on it:
``own_layout``, ``layout`` and ``core``, ``Unitary.operator`` and
``kernel``, ``Measurement.kernels`` and ``stack``, ``GuardBasis.kernel``, a
quantum choice's coin-then-guard ``seq``, what the rules pass found
(``_PASSED``) and, from ``semantics``, a guard's branch functions.

Each construct's side conditions are written once, in ``RULES``: every rule
gives a diagnostic code, a message and an error type, and one pass,
``rules``, runs them: ``well_formed`` collects every violation, evaluation
raises the first.  Among them are the leaf contracts, each within ``tol``:
the Gram matrices ``U† U``, ``sum M† M`` and ``B† B`` of a unitary, a
complete measurement and a guard basis are within ``tol`` of ``I`` entry by
entry and at most ``(1 + tol) I`` (``linalg.near_identity``), ``pchoice``
weights are finite, nonnegative and sum to at most ``1 + tol``, and a
block's initial state is Hermitian within ``tol`` with no eigenvalue below
``-tol`` and positive eigenvalues summing to at most ``1 + tol``.  Every
construct preserves the trace bound ``sum F† F <= I``, so it holds for every
accepted program with no global check: within about ``tol`` per leaf, ``2
tol`` per guard basis, which acts on both sides of its branches.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cache, cached_property
from types import GeneratorType

import numpy as np

from . import kernels, linalg
from .errors import (ArityError, ContractError, Diagnostic, DomainClashError, LayoutError, QgclError,
                     SourceError, Span, UnsupportedConstructError)
from .registers import QVar, RegisterLayout, check_cap


@dataclass(frozen=True, eq=False)
class Measurement:
    """Complete quantum measurement: integer outcomes to operators M_m with
    sum_m M_m† M_m = I."""

    operators: tuple[tuple[int, np.ndarray], ...]

    def __post_init__(self):
        ops = tuple(
            sorted(
                ((int(m), linalg.as_matrix(linalg.frozen(op))) for m, op in self.operators),
                key=lambda pair: pair[0],
            )
        )
        outcomes = [m for m, _ in ops]
        if len(set(outcomes)) != len(outcomes):
            raise LayoutError(f"duplicate measurement outcomes {outcomes}")
        object.__setattr__(self, "operators", ops)

    @property
    def outcomes(self) -> tuple[int, ...]:
        return tuple(m for m, _ in self.operators)

    def operator(self, outcome: int) -> np.ndarray:
        for m, op in self.operators:
            if m == outcome:
                return op
        raise KeyError(outcome)

    @property
    def dim(self) -> int:
        return self.operators[0][1].shape[0]

    def is_complete(self, tol: float = linalg.DEFAULT_TOL) -> bool:
        """``sum_m M_m† M_m`` within ``tol`` of ``I`` (``linalg.near_identity``)."""
        if not self.operators:  # the empty sum is 0, not I
            return False
        return linalg.near_identity(linalg.gram((op for _, op in self.operators), self.dim), tol)

    @cached_property
    def kernels(self) -> tuple:
        """The operators by outcome, classified once for streaming (``kernels.kernel``)."""
        return tuple(kernels.kernel(op) for _, op in self.operators)

    @cached_property
    def stack(self) -> np.ndarray:
        """The operators by outcome as one ``(K, d, d)`` array, for a
        measurement whose operators share one shape."""
        return np.array([op for _, op in self.operators])

    @staticmethod
    def computational(dim: int) -> "Measurement":
        ops = []
        for m in range(dim):
            k = linalg.basis_ket(dim, m)
            ops.append((m, k @ linalg.dagger(k)))
        return Measurement(tuple(ops))


@dataclass(frozen=True, eq=False)
class GuardBasis:
    """Orthonormal guard states, stored as the columns of a square matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", linalg.as_matrix(linalg.frozen(self.matrix)))

    @property
    def arity(self) -> int:
        return self.matrix.shape[1]

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def column(self, i: int) -> np.ndarray:
        return self.matrix[:, i : i + 1]

    def is_orthonormal(self, tol: float = linalg.DEFAULT_TOL) -> bool:
        return self.matrix.shape[0] == self.matrix.shape[1] and linalg.is_unitary(
            self.matrix, tol
        )

    @cached_property  # the basis is immutable; guards ask once per streamed op
    def is_computational(self) -> bool:
        return self.matrix.shape[0] == self.matrix.shape[1] and bool(
            np.all(self.matrix == linalg.identity(self.dim))
        )

    @cached_property
    def kernel(self):
        """``matrix`` as a streamed guard rotates by it, classified once (``kernels.rotation``)."""
        return kernels.rotation(self.matrix)

    @staticmethod
    def computational(dim: int) -> "GuardBasis":
        return GuardBasis(linalg.identity(dim))


def walk(root, rule):
    """The one traversal: ``rule`` run on ``root`` and every subprogram it
    asks for, from an explicit stack, so no depth nests Python frames.

    ``rule(node)`` gives the node's value, or a generator that asks for
    values by yielding and returns it: work before its yields is pre-order,
    after them post-order.  ``(yield sub)`` gives a subprogram's value once
    per call, memoised by node identity (never written in place) until every
    parent below ``root`` (``_parents``) has it, so a shared subprogram is
    folded once and a tree holds what a recursion would; ``None`` is not
    memoised.  ``(yield sub, *args)`` gives ``rule(sub, *args)`` each time
    (streaming passes the state).  ``root`` is a node or such a tuple."""
    memo: dict[int, list] = {}  # id -> [node, value, requests still to come]
    parents = None
    stack: list[tuple] = []  # suspended rules, each with the node whose value it gives
    out, node = rule(*root) if type(root) is tuple else rule(root), None
    while True:
        if type(out) is GeneratorType:
            stack.append((out, node))
            out = node = None
        while True:
            if node is not None and out is not None:
                parents = _parents(root) if parents is None else parents
                if parents.get(id(node), 0) > 1:
                    memo[id(node)] = [node, out, parents[id(node)] - 1]
            if not stack:
                return out
            gen, node = stack[-1]
            try:
                ask = gen.send(out)
            except StopIteration as done:
                stack.pop()
                out = done.value
                continue
            out = None
            break
        if type(ask) is tuple:
            out, node = rule(*ask), None
        elif id(ask) in memo:
            entry = memo[id(ask)]
            entry[2] -= 1
            if not entry[2]:
                del memo[id(ask)]
            out, node = entry[1], None
        else:
            out, node = rule(ask), ask
        ask = None  # the request's arguments live in the rule's frame only


def _parents(root) -> dict[int, int]:
    """How many times each node below ``root`` is a distinct node's child."""
    count: dict[int, int] = {}
    todo = [root] if isinstance(root, Program) else []
    while todo:
        for c in children(todo.pop()):
            n = count.get(id(c), 0)
            count[id(c)] = n + 1
            if not n:
                todo.append(c)
    return count


class _bottom_up:
    """``cached_property`` whose ``rule(node, values)`` combines the node's
    subprograms' values, filled by ``walk`` for the nodes below lacking it,
    children before parents.  The values kept on the nodes are the memo, so
    the walk asks for them unmemoised."""

    def __init__(self, rule):
        self.rule, self.key, self.__doc__ = rule, rule.__name__, rule.__doc__

    def __get__(self, p, owner=None):
        if p is None:
            return self
        return walk((p,), self._node)

    def _node(self, p):
        return p.__dict__[self.key] if self.key in p.__dict__ else self._fill(p)

    def _fill(self, p):
        values = []
        for c in children(p):
            values.append((yield c,))
        p.__dict__[self.key] = value = self.rule(p, values)
        return value


@dataclass(frozen=True, eq=False)
class Program:
    span: Span | None = field(default=None, repr=False, kw_only=True)

    def __repr__(self) -> str:
        """The dataclass form, ``Seq(parts=(Skip(), Abort()))``, by ``walk``
        (node classes take no generated ``repr``, which would recurse)."""
        return text(walk(self, _repr))

    @cached_property
    def own_layout(self) -> RegisterLayout:
        """``declared(self)`` as a layout, built (and so validated) once."""
        return RegisterLayout(declared(self))

    @_bottom_up
    def layout(self, layouts) -> RegisterLayout:
        """Quantum variables as an ordered layout, the tensor-factor order of
        the semantics (``joined_layout``)."""
        return joined_layout(self, layouts)

    @property
    def cvars(self) -> frozenset[str]:
        """Classical variables: the outcome variables the program binds.
        Worked out per call and not kept: a nest of ``k`` measurements would
        keep ``k²/2`` names."""
        return walk(self, _cvars)

    @_bottom_up
    def core(self, cores) -> bool:
        """Whether the program uses only the measurement-and-guard core (a
        quantum choice counts: it desugars into the core)."""
        return not isinstance(self, (Block, ProbChoice)) and all(cores)


@dataclass(frozen=True, eq=False, repr=False)
class Abort(Program):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Skip(Program):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Unitary(Program):
    qvars: tuple[QVar, ...]
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", linalg.frozen(self.matrix))

    @cached_property
    def operator(self) -> np.ndarray:
        """``matrix``, checked once to be a finite complex matrix."""
        return linalg.as_matrix(self.matrix)

    @cached_property
    def kernel(self):
        """``operator`` classified once, for its rule and for streaming (``kernels.kernel``)."""
        return kernels.kernel(self.operator)


@dataclass(frozen=True, eq=False, repr=False)
class Measure(Program):
    """Measure ``qvars``, store the outcome in classical ``x``, then run the
    branch selected by the outcome."""

    x: str
    qvars: tuple[QVar, ...]
    measurement: Measurement
    branches: tuple[tuple[int, "Program"], ...]

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(sorted(self.branches, key=lambda kv: kv[0])))

    def branch(self, outcome: int) -> "Program":
        for m, p in self.branches:
            if m == outcome:
                return p
        raise KeyError(outcome)


@dataclass(frozen=True, eq=False, repr=False)
class Guarded(Program):
    """Quantum guarded command: fresh guard variables, one branch per basis
    state, branch order follows basis-column order."""

    qvars: tuple[QVar, ...]
    basis: GuardBasis
    branches: tuple["Program", ...]


@dataclass(frozen=True, eq=False, repr=False)
class Seq(Program):
    """``P1; P2; ...``: the parts run in order.  ``;`` is associative, so a
    chain is one node: a part that is itself a ``Seq`` is spliced in."""

    parts: tuple["Program", ...]

    def __init__(self, *parts: "Program", span: Span | None = None):
        flat = tuple(q for part in parts
                     for q in (part.parts if isinstance(part, Seq) else (part,)))
        if len(flat) < 2:
            raise ArityError(f"a sequence has two or more parts, not {len(flat)}")
        object.__setattr__(self, "parts", flat)
        object.__setattr__(self, "span", span)


@dataclass(frozen=True, eq=False, repr=False)
class Block(Program):
    """Local quantum variables initialised to a density operator."""

    qvars: tuple[QVar, ...]
    init: np.ndarray
    body: "Program"

    def __post_init__(self):
        object.__setattr__(self, "init", linalg.frozen(self.init))


@dataclass(frozen=True, eq=False, repr=False)
class ProbChoice(Program):
    weights: tuple[float, ...]
    branches: tuple["Program", ...]


@dataclass(frozen=True, eq=False, repr=False)
class QChoice(Program):
    """Coin program followed by a guarded command over the coin's variables."""

    coin: "Program"
    basis: GuardBasis
    branches: tuple["Program", ...]

    @cached_property
    def seq(self) -> "Seq":
        """``desugar_qchoice(self)``, built once: evaluation reads the choice through it."""
        return desugar_qchoice(self)


@cache
def _child_fields(cls: type) -> tuple[str, ...]:
    """Fields of a node class whose annotation mentions ``Program``: a single
    subprogram, a tuple of them, or a tuple of (outcome, subprogram) pairs."""
    return tuple(f.name for f in fields(cls) if "Program" in str(f.type))


def children(p: Program) -> list[Program]:
    """Immediate subprograms in field order, so a quantum choice's coin comes
    before its branches."""
    out: list[Program] = []
    for name in _child_fields(type(p)):
        value = getattr(p, name)
        if isinstance(value, Program):
            out.append(value)
        else:
            out.extend(v[1] if isinstance(v, tuple) else v for v in value)
    return out


def rebuild(p: Program, fn) -> Program:
    """Copy of ``p`` with ``fn`` applied to each immediate subprogram; every
    other field, the span included, is kept.  A leaf is returned as is."""
    if isinstance(p, Seq):  # through its constructor, which splices
        return Seq(*map(fn, p.parts), span=p.span)
    changes = {}
    for name in _child_fields(type(p)):
        value = getattr(p, name)
        if isinstance(value, Program):
            changes[name] = fn(value)
        else:
            changes[name] = tuple(
                (v[0], fn(v[1])) if isinstance(v, tuple) else fn(v) for v in value
            )
    return replace(p, **changes) if changes else p


def declared(p: Program) -> tuple[QVar, ...]:
    """Quantum variables a node names itself: operands, guard variables or
    block locals."""
    return getattr(p, "qvars", ())


def var(p: Program) -> frozenset[str]:
    """Classical variables of a program (``Program.cvars``)."""
    return p.cvars


def qvar_layout(p: Program) -> RegisterLayout:
    """Quantum variables of a program as an ordered layout (``Program.layout``)."""
    return p.layout


def joined_layout(p: Program, layouts: list[RegisterLayout]) -> RegisterLayout:
    """``qvar_layout(p)`` from its subprograms' layouts: variables in first
    occurrence order, the node's own, then each subprogram's in turn; a
    block's locals go out of scope, so the block's layout is its body's
    without them.  A variable used with two dimensions raises
    :class:`LayoutError`."""
    if isinstance(p, Block):  # building the locals' layout validates them too
        return layouts[0].remove(p.own_layout.names)
    if declared(p) or not layouts:
        own = p.own_layout  # built, and so validated, once per node
        if not layouts:
            return own
    variables, clashes = _join(p, [dict(lay.variables) for lay in layouts])
    for name, first, d in clashes:
        raise LayoutError(f"variable {name!r} has dimension {first} here, {d} there")
    return RegisterLayout(tuple(variables.items()))


def _join(p: Program, layouts: list[dict[str, int] | None]
          ) -> tuple[dict[str, int], list[tuple[str, int, int]]]:
    """A node's own variables, then each subprogram layout that exists (a
    dict of dimensions by name), each merged in one dict update: the
    variables in first-occurrence order with their first dimension, and
    every ``(name, first, other)`` dimension clash in that order."""
    variables: dict[str, int] = {}
    clashes = []
    for name, d in declared(p):
        if variables.setdefault(name, d) != d:
            clashes.append((name, variables[name], d))
    for lay in layouts:
        if lay is None:
            continue
        bad = [n for n in variables.keys() & lay.keys() if variables[n] != lay[n]]
        if bad:
            order = list(lay)
            bad.sort(key=order.index)
            clashes += [(n, variables[n], lay[n]) for n in bad]
            lay = {n: d for n, d in lay.items() if n not in bad}
        variables.update(lay)
    return variables, clashes


def qvar(p: Program) -> frozenset[str]:
    return frozenset(qvar_layout(p).names)


def desugar_qchoice(p: QChoice) -> Seq:
    """Quantum choice as coin followed by the guarded command."""
    guard_vars = tuple(qvar_layout(p.coin).variables)
    return Seq(p.coin, Guarded(guard_vars, p.basis, p.branches), span=p.span)


def desugar(p: Program) -> Program:
    """Replace every quantum choice by its sequential form."""
    return walk(p, _desugar)


def _desugar(p: Program):
    subs = []
    for c in children(p):
        subs.append((yield c))
    it = iter(subs)
    out = rebuild(p, lambda _: next(it))  # ``rebuild`` goes in ``children`` order
    return desugar_qchoice(out) if isinstance(out, QChoice) else out


def _repr(p: Program):
    out = [f"{type(p).__name__}("]
    for f in fields(p):
        if not f.repr:
            continue
        value = getattr(p, f.name)
        out.append(f"{', ' if len(out) > 1 else ''}{f.name}=")
        if f.name not in _child_fields(type(p)):
            out.append(repr(value))
        elif isinstance(value, Program):
            out.append((yield value))
        else:
            items = []
            for v in value:
                sub = ["(", repr(v[0]), ", ", (yield v[1]), ")"] if isinstance(v, tuple) else (yield v)
                items += [", " if items else "", sub]
            out += ["(", items, "," if len(value) == 1 else "", ")"]
    return out + [")"]


def text(pieces: list) -> str:
    """The strings of nested lists of strings, in order, joined: a rule's
    text for ``walk``, which no level copies."""
    out, todo = [], [pieces]
    while todo:
        piece = todo.pop()
        if isinstance(piece, str):
            out.append(piece)
        else:
            todo += reversed(piece)
    return "".join(out)


def is_core(p: Program) -> bool:
    """Whether a program lies in the measurement-and-guard core (``Program.core``)."""
    return p.core


def ast_equal(a: Program, b: Program) -> bool:
    """Structural equality; matrices compare entrywise, spans are ignored."""
    return walk((a, b), _equal)


def _equal(x, y):
    """``x`` and ``y`` compared as ``_same`` compares them, then each pair
    of subprograms it left, stopping at the first difference."""
    pairs: list[tuple] = []
    if not _same(x, y, pairs, nested=False):
        return False
    for pair in pairs:
        if not (yield pair):
            return False
    return True


def _same(x, y, pairs: list, nested: bool = True) -> bool:
    """Nodes, guard bases and measurements (all dataclasses) compare field
    by field, tuples elementwise, anything else entrywise as arrays; a pair
    of subprograms is left in ``pairs``, for ``walk`` to compare."""
    if nested and isinstance(x, Program):
        pairs.append((x, y))
        return True
    if is_dataclass(x):
        return type(x) is type(y) and all(
            _same(getattr(x, f.name), getattr(y, f.name), pairs)
            for f in fields(x) if f.name != "span")
    if isinstance(x, tuple):
        return isinstance(y, tuple) and len(x) == len(y) and all(
            _same(u, v, pairs) for u, v in zip(x, y))
    return bool(np.array_equal(x, y))


def well_formed(p: Program, tol: float = linalg.DEFAULT_TOL) -> list[Diagnostic]:
    """All violated side conditions, empty when the program is well-formed:
    the rules pass (``rules``) collecting."""
    out, todo = [], [walk(p, lambda q: rules(q, tol))[2]]
    while todo:  # the diagnostics tree, a node's own before its subprograms'
        tree = todo.pop()
        if tree is not None:
            out += tree[0]
            todo += reversed(tree[1])
    return out


def check(p: Program, tol: float = linalg.DEFAULT_TOL) -> Program:
    """Raise :class:`SourceError` unless the program is well-formed."""
    diags = well_formed(p, tol)
    if diags:
        raise SourceError(diags)
    return p


_PASSED = "_passed"  # the key of a node's record of the ``tol`` and ``(tol, max_dim)`` it passed at


def rules(p: Program, tol: float, max_dim: int | None = None):
    """The rules pass at node ``p``, a rule for ``walk``: bottom-up, its
    value is ``p``'s layout (a dict of dimensions by name, ``None`` where a
    layout error leaves it undefined), classical variables and diagnostics,
    not kept.  Collecting (``well_formed``, no ``max_dim``), the diagnostics
    are a tree, ``(own, [subprograms'])``, which a ``cut`` violation prunes.
    Raising (evaluation), the first violated rule raises its typed error,
    its code leading the message; then a guard over branches outside the
    core, the ``max_dim`` cap and an unknown node class.  A node records
    (``_PASSED``) each ``tol`` its rules held at, not run again in either
    mode, and each ``(tol, max_dim)`` its subtree passed raising at, not
    walked again; raising, a node that runs no rules gives ``None``."""
    if max_dim is not None and (tol, max_dim) in p.__dict__.get(_PASSED, ()):
        return None
    return _rules(p, tol, max_dim, p.__dict__.setdefault(_PASSED, set()))


def _rules(p: Program, tol: float, max_dim: int | None, passed: set):
    subs, values = children(p), []
    for sub in subs:
        values.append((yield sub))
    value = None
    if max_dim is None or tol not in passed:
        values = [v or (dict(s.layout.variables), s.cvars, None) for s, v in zip(subs, values)]
        layouts, cvars = [v[0] for v in values], [v[1] for v in values]
        variables, clashes = _join(p, layouts)
        found = violations(p, cvars, layouts, tol, clashes) if tol not in passed else ()
        try:  # as ``joined_layout`` builds it
            if isinstance(p, Block) and layouts[0] is not None:
                variables = {n: d for n, d in layouts[0].items() if n not in p.own_layout}
            elif declared(p):
                p.own_layout  # built, and so validated, once per node
            layout = None if clashes or None in layouts else variables
        except LayoutError:
            layout = None
        value = layout, _union(p, cvars), None
        if max_dim is not None:
            enforce(found)
        else:
            found = list(found)
            below = [] if any(v.cut for v in found) else [v[2] for v in values if v[2]]
            if not found and layout is not None:
                passed.add(tol)
            own = [Diagnostic(v.code, v.message, p.span) for v in found]
            return layout, value[1], (own, below) if own or below else None
    if "layout" not in p.__dict__:
        p.__dict__["layout"] = joined_layout(p, [s.layout for s in subs])
    if isinstance(p, (Guarded, QChoice)) and not all(map(is_core, p.branches)):
        raise UnsupportedConstructError(
            "guarded command over block/probabilistic branches has no defined semantics")
    check_cap(p.layout.dim, max_dim)
    if type(p) not in _NODES:
        raise UnsupportedConstructError(f"cannot evaluate {type(p).__name__}")
    passed.update((tol, (tol, max_dim)))
    return value


def _cvars(p: Program):
    """``Program.cvars`` at one node, a rule for ``walk``."""
    sets = []
    for c in children(p):
        sets.append((yield c))
    return _union(p, sets)


def _union(p: Program, sets: list[frozenset[str]]) -> frozenset[str]:
    """``p``'s classical variables from its subprograms'; a set is shared,
    not copied, where it is the only nonempty one and ``p`` binds none."""
    own = (p.x,) if isinstance(p, Measure) else ()
    nonempty = [c for c in sets if c]
    return nonempty[0] if not own and len(nonempty) == 1 else frozenset(own).union(*nonempty)


# -- The side conditions ---------------------------------------------------------
# One rule per condition, grouped by construct in ``RULES``; ``dim-conflict``
# (``violations``) is the one every construct has.  Each construct's rules
# see the node, its subprograms' classical variables and layouts (a layout
# is ``None`` in ``well_formed`` where it does not exist) and ``tol``.
# ``well_formed`` reports every violation; evaluation raises the first one
# (``rules``).


@dataclass(frozen=True)
class Violation:
    """A violated side condition: its diagnostic code and message, and the
    error evaluation raises for it.  ``cut`` leaves the subprograms'
    diagnostics out of ``well_formed``."""

    code: str
    message: str
    error: type[QgclError]
    cut: bool = False


def violations(p: Program, cvars: list[frozenset[str]], layouts: list[dict[str, int] | None],
               tol: float, clashes: list) -> Iterator[Violation]:
    """The violated side conditions of node ``p``, in order, lazily: first
    one ``dim-conflict`` per clash of ``_join`` (``clashes``).  A block's
    locals are out of scope outside it, so they may shadow outer
    variables."""
    for name, first, d in clashes:
        yield Violation("dim-conflict",
                        f"quantum variable {name!r} used with dimensions {first} and {d}", LayoutError)
    yield from RULES.get(type(p), lambda *_: ())(p, cvars, layouts, tol)


def enforce(found: Iterable[Violation]) -> None:
    """Raise the first violation as its typed error, its code leading the message."""
    for v in found:
        raise v.error(f"{v.code}: {v.message}")


def _operands(qvars: tuple[QVar, ...], what: str, empty: str | None = None,
              cut: bool = False) -> Violation | None:
    """A node's own variables must be named, each once; ``empty`` is the
    message for none, ``None`` where none is allowed."""
    names = [n for n, _ in qvars]
    if empty is not None and not names:
        return Violation("qvar-empty", empty, ArityError, cut)
    if len(set(names)) != len(names):
        return Violation("qvar-duplicate", f"repeated {what} variable in {names}", LayoutError, cut)
    return None


def _unitary(p: Unitary, cvars, layouts, tol):
    if bad := _operands(p.qvars, "quantum", "unitary statement needs at least one variable"):
        yield bad
        return
    dim, shape = p.own_layout.dim, np.shape(p.matrix)
    if shape != (dim, dim):
        yield Violation("unitary-shape",
                        f"matrix shape {shape} does not match variables of dimension {dim}",
                        LayoutError)
    elif not (linalg.finite(p.matrix)  # else ``kernel`` raises
              and linalg.is_unitary(p.kernel, tol)):  # O(n) for a monomial U, e.g. a shift
        yield Violation("unitary-nonunitary", "matrix is not unitary within tolerance", ContractError)


def _measure(p: Measure, cvars, layouts, tol):
    if bad := _operands(p.qvars, "quantum", "measurement needs at least one variable", cut=True):
        yield bad
        return
    dim = p.own_layout.dim
    if any(op.shape != (dim, dim) for _, op in p.measurement.operators):
        yield Violation("measure-op-shape",
                        f"measurement operators must be {dim}x{dim} for these variables", LayoutError)
    elif not p.measurement.is_complete(tol):
        yield Violation("measure-incomplete",
                        "measurement operators do not sum to the identity", ContractError)
    if p.measurement.outcomes != tuple(m for m, _ in p.branches):
        yield Violation("measure-branch-outcomes",
                        "branch outcomes do not match the measurement's outcomes", ContractError)
    if any(p.x in v for v in cvars):
        yield Violation("measure-var-capture", f"outcome variable {p.x!r} reused inside a branch",
                        DomainClashError)


def _guard(qvars: tuple[QVar, ...], basis: GuardBasis, branches: list[dict[str, int] | None],
           tol: float):
    if bad := _operands(qvars, "guard"):
        yield bad
        return
    guard_dim = math.prod(d for _, d in qvars)
    if not basis.is_orthonormal(tol):
        yield Violation("guard-basis", "guard basis columns are not orthonormal", ContractError)
    if basis.dim != guard_dim:
        yield Violation("guard-basis",
                        f"guard basis dimension {basis.dim} does not match guard space {guard_dim}",
                        LayoutError)
    if basis.arity != len(branches):
        yield Violation("guard-arity", f"{basis.arity} basis states but {len(branches)} branches",
                        ArityError)
    overlap = {n for n, _ in qvars if any(n in b for b in branches)} if None not in branches else ()
    if overlap:
        yield Violation("guard-var-overlap",
                        f"guard variables {sorted(overlap)} also occur in a branch", LayoutError)


def _seq(cvars: list[frozenset[str]]):
    """No classical variable is bound in two parts of one chain; a chain with
    one binding part copies no set."""
    seen, shared = set(), set()
    for c in cvars:
        if c:
            shared |= seen & c
            seen = seen | c if seen else c
    if shared:
        yield Violation("var-reuse",
                        f"classical variables {sorted(shared)} appear on both sides of ';'",
                        DomainClashError)


def _qchoice(p: QChoice, cvars, layouts, tol):
    """The guard over the coin's variables, run after the coin."""
    coin = layouts[0] if layouts[0] is not None else {}
    yield from _guard(tuple(coin.items()), p.basis, layouts[1:], tol)
    yield from _seq([cvars[0], frozenset().union(*cvars[1:])])


def block_rules(qvars: tuple[QVar, ...], init, body: RegisterLayout | dict[str, int] | None,
                tol: float = linalg.DEFAULT_TOL) -> Iterator[Violation]:
    """Side conditions of a block with locals ``qvars`` over a body on
    ``body`` (a layout, or a dict of dimensions by name): its locals occur
    in the body and ``init`` is a density operator on them (Hermitian,
    positive, trace at most one)."""
    if not qvars:
        yield Violation("block-locals", "block declares no local variables", ArityError)
        return
    if bad := _operands(qvars, "local"):
        yield bad
        return
    names = [n for n, _ in qvars]
    missing = set(names) - set(body.names if isinstance(body, RegisterLayout) else body or ())
    if missing:
        yield Violation("block-locals",
                        f"local variables {sorted(missing)} do not occur in the body", LayoutError)
    dim = RegisterLayout(qvars).dim
    init = np.asarray(init, dtype=complex)
    if init.shape != (dim, dim):
        yield Violation(
            "block-init",
            f"initial state shape {init.shape} does not match locals of dimension {dim}",
            LayoutError)
    elif (not linalg.finite(init) or (herm := linalg.hermitian_part(init, tol)) is None
          or not _density_spectrum(herm, tol)):
        yield Violation("block-init", "initial state is not a density operator", ContractError)


def _density_spectrum(herm: np.ndarray, tol: float) -> bool:
    """No eigenvalue of the Hermitian part below ``-tol``, and the positive
    ones sum to at most ``1 + tol``: that sum, not the trace, bounds what
    the block keeps.  A diagonal part's eigenvalues are its diagonal, such as
    a ``|i>`` initial state's, so it needs no eigensolver."""
    diag = herm.diagonal().real  # exactly the diagonal: the Hermitian part's is real
    eigs = diag if np.count_nonzero(herm) == np.count_nonzero(diag) else np.linalg.eigvalsh(herm)
    return bool(eigs.min() >= -tol and eigs[eigs > 0].sum() <= 1 + tol)


def _prob_choice(p: ProbChoice, cvars, layouts, tol):
    if len(p.weights) != len(p.branches) or not p.branches:
        yield Violation("prob-arity", f"{len(p.weights)} weights for {len(p.branches)} branches",
                        ArityError)
    if not all(np.isfinite(w) and w >= 0 for w in p.weights):
        yield Violation("prob-weights", "branch probabilities must be finite and nonnegative",
                        ContractError)
    elif sum(p.weights) > 1 + tol:
        yield Violation("prob-weights", f"branch probabilities sum to {sum(p.weights)} > 1",
                        ContractError)


RULES = {
    Unitary: _unitary,
    Measure: _measure,
    Guarded: lambda p, cvars, layouts, tol: _guard(p.qvars, p.basis, layouts, tol),
    QChoice: _qchoice,
    Seq: lambda p, cvars, layouts, tol: _seq(cvars),
    Block: lambda p, cvars, layouts, tol: block_rules(p.qvars, p.init, layouts[0], tol),
    ProbChoice: _prob_choice,
}

_NODES = frozenset((Abort, Skip, Unitary, Measure, Guarded, Seq, Block, ProbChoice, QChoice))
