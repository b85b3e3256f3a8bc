"""Abstract syntax of guarded-command quantum programs.

Programs are immutable trees, values that never change.  Quantum variables
appear as (name, dimension) pairs so a program is self-contained; classical
variables range over the integers and record measurement outcomes.
``children`` and ``rebuild`` walk any node through its dataclass fields.

A node keeps a read-only complex copy of every matrix it is given
(``Unitary``, ``Measurement``, ``GuardBasis``, ``Block``; ``linalg.frozen``),
so writing later into the array passed in leaves the program as it was.
What is worked out from a node is therefore fixed for the node's lifetime
and kept in its ``__dict__``: ``own_layout``, ``Unitary.operator`` and
``kernel``, ``Measurement.kernels``, the ``tol`` at which ``well_formed``
found its rules to hold, and the checked step of ``semantics._prepare`` per
``(tol, max_dim)``, which keeps only what is worked out from subprograms.

Each construct's side conditions are written once, in ``RULES``: every rule
gives a diagnostic code, a message and an error type.  ``well_formed``
collects every violation at parse and ``check`` time; every evaluator in
``semantics`` runs the same rules in its one checked pass and raises the
first violation as its typed error.  Among them are the leaf contracts: a
unitary has ``U† U = I``, a measurement is complete and every outcome has a
branch, ``pchoice`` weights are finite, nonnegative and sum to at most one,
a guard basis is orthonormal, and a block starts from a density operator.
Each holds within ``tol``: the Gram matrices ``U† U``, ``sum M† M`` and
``B† B`` are within ``tol`` of ``I`` entry by entry and at most
``(1 + tol) I`` (``linalg.near_identity``), weights sum to at most
``1 + tol``, and an initial state is Hermitian within ``tol`` with no
eigenvalue below ``-tol`` and positive eigenvalues summing to at most
``1 + tol``.  Guarded composition, ``;``, measurement, probabilistic choice
and blocks all preserve the trace bound ``sum F† F <= I``, so it holds for
every accepted program with no global check: within about ``tol`` per leaf,
``2 tol`` per guard basis, which acts on both sides of its branches.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cache, cached_property, reduce

import numpy as np

from . import linalg
from .errors import (
    ArityError,
    ContractError,
    Diagnostic,
    DomainClashError,
    LayoutError,
    QgclError,
    SourceError,
    Span,
)
from .registers import QVar, RegisterLayout


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
        return linalg.near_identity(sum(linalg.dagger(op) @ op for _, op in self.operators), tol)

    @cached_property
    def kernels(self) -> tuple:
        """The operators by outcome, classified once for streaming (``linalg.kernel``)."""
        return tuple(linalg.kernel(op) for _, op in self.operators)

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

    def is_computational(self) -> bool:
        return self.matrix.shape[0] == self.matrix.shape[1] and bool(
            np.all(self.matrix == linalg.identity(self.dim))
        )

    @staticmethod
    def computational(dim: int) -> "GuardBasis":
        return GuardBasis(linalg.identity(dim))


@dataclass(frozen=True, eq=False)
class Program:
    span: Span | None = field(default=None, repr=False, kw_only=True)

    @cached_property
    def own_layout(self) -> RegisterLayout:
        """``declared(self)`` as a layout, built (and so validated) once."""
        return RegisterLayout(declared(self))


@dataclass(frozen=True, eq=False)
class Abort(Program):
    pass


@dataclass(frozen=True, eq=False)
class Skip(Program):
    pass


@dataclass(frozen=True, eq=False)
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
        """``operator`` classified once, for its rule and for streaming."""
        return linalg.kernel(self.operator)


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class Guarded(Program):
    """Quantum guarded command: fresh guard variables, one branch per basis
    state, branch order follows basis-column order."""

    qvars: tuple[QVar, ...]
    basis: GuardBasis
    branches: tuple["Program", ...]


@dataclass(frozen=True, eq=False)
class Seq(Program):
    first: "Program"
    second: "Program"


@dataclass(frozen=True, eq=False)
class Block(Program):
    """Local quantum variables initialised to a density operator."""

    qvars: tuple[QVar, ...]
    init: np.ndarray
    body: "Program"

    def __post_init__(self):
        object.__setattr__(self, "init", linalg.frozen(self.init))


@dataclass(frozen=True, eq=False)
class ProbChoice(Program):
    weights: tuple[float, ...]
    branches: tuple["Program", ...]


@dataclass(frozen=True, eq=False)
class QChoice(Program):
    """Coin program followed by a guarded command over the coin's variables."""

    coin: "Program"
    basis: GuardBasis
    branches: tuple["Program", ...]


@dataclass(frozen=True, eq=False)
class Name(Program):
    """Program name with a-priori variable sets; no executable semantics."""

    ident: str
    quantum: tuple[QVar, ...] = ()
    classical: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class Mu(Program):
    """Recursion binder; only bounded unrollings are executable."""

    ident: str
    body: "Program"
    quantum: tuple[QVar, ...] = ()
    classical: tuple[str, ...] = ()


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
    """Quantum variables a node names itself: operands, guard variables,
    block locals, or the a-priori set of a name or recursion."""
    return getattr(p, "qvars", getattr(p, "quantum", ()))


def var(p: Program) -> frozenset[str]:
    """Classical variables of a program: the outcome variables it binds, or
    the declared set of a name or recursion."""
    return joined_cvars(p, [var(c) for c in children(p)])


def joined_cvars(p: Program, cvars: list[frozenset[str]]) -> frozenset[str]:
    """``var(p)`` from its subprograms' classical variables: a measurement
    binds its outcome variable; a name or recursion declares its own set."""
    if isinstance(p, (Name, Mu)):
        return frozenset(p.classical)
    return frozenset((p.x,) if isinstance(p, Measure) else ()).union(*cvars)


def qvar_layout(p: Program) -> RegisterLayout:
    """Quantum variables of a program as an ordered layout.

    Order is first occurrence in a left-to-right traversal, a node's own
    variables before its subprograms', which fixes the tensor-factor order
    used by the semantics.  Block locals are removed from the body's layout;
    a name or recursion contributes its declared set only.  A variable used
    with two different dimensions raises :class:`LayoutError`.
    """
    if isinstance(p, (Name, Mu)):
        return RegisterLayout(p.quantum)
    return joined_layout(p, [qvar_layout(c) for c in children(p)])


def joined_layout(p: Program, layouts: list[RegisterLayout]) -> RegisterLayout:
    """``qvar_layout(p)`` from its subprograms' layouts: the node's own
    variables, then each subprogram's in turn; a block's locals go out of
    scope, so the block's layout is its body's without them."""
    if isinstance(p, (Name, Mu)):
        return RegisterLayout(p.quantum)
    if isinstance(p, Block):  # building the locals' layout validates them too
        return layouts[0].remove(p.own_layout.names)
    return reduce(RegisterLayout.extended, layouts, p.own_layout)


def qvar(p: Program) -> frozenset[str]:
    return frozenset(qvar_layout(p).names)


def desugar_qchoice(p: QChoice) -> Seq:
    """Quantum choice as coin followed by the guarded command."""
    guard_vars = tuple(qvar_layout(p.coin).variables)
    return Seq(p.coin, Guarded(guard_vars, p.basis, p.branches), span=p.span)


def desugar(p: Program) -> Program:
    """Replace every quantum choice by its sequential form."""
    out = rebuild(p, desugar)
    return desugar_qchoice(out) if isinstance(out, QChoice) else out


def is_core(p: Program) -> bool:
    """True when the program uses only the measurement-and-guard core (quantum
    choice counts: it desugars into the core)."""
    return not isinstance(p, (Block, ProbChoice, Name, Mu)) and all(
        is_core(c) for c in children(p)
    )


def ast_equal(a: Program, b: Program) -> bool:
    """Structural equality; matrices compare entrywise, spans are ignored."""
    return _same(a, b)


def _same(x, y) -> bool:
    """Nodes, guard bases and measurements (all dataclasses) compare field by
    field, tuples elementwise, anything else entrywise as arrays."""
    if is_dataclass(x):
        return type(x) is type(y) and all(
            _same(getattr(x, f.name), getattr(y, f.name)) for f in fields(x) if f.name != "span"
        )
    if isinstance(x, tuple):
        return isinstance(y, tuple) and len(x) == len(y) and all(map(_same, x, y))
    return bool(np.array_equal(x, y))


def well_formed(p: Program, tol: float = linalg.DEFAULT_TOL) -> list[Diagnostic]:
    """All violated side conditions, empty when the program is well-formed."""
    out: list[Diagnostic] = []
    _well_formed_rec(p, tol, out)
    return out


def check(p: Program, tol: float = linalg.DEFAULT_TOL) -> Program:
    """Raise :class:`SourceError` unless the program is well-formed."""
    diags = well_formed(p, tol)
    if diags:
        raise SourceError(diags)
    return p


def _layout_from(p: Program, subs: list[RegisterLayout | None]) -> RegisterLayout | None:
    """``qvar_layout(p)`` from its children's layouts, or ``None`` where
    ``qvar_layout`` raises :class:`LayoutError`."""
    if None in subs and not isinstance(p, (Name, Mu)):
        return None
    try:
        return joined_layout(p, subs)
    except LayoutError:
        return None


def _well_formed_rec(p: Program, tol: float, out: list[Diagnostic]
                     ) -> tuple[frozenset[str], RegisterLayout | None]:
    """Append the diagnostics of ``p``, its own before its subprograms', and
    return ``(var(p), qvar_layout(p))`` with ``None`` for a layout error, so
    every node is walked once."""
    inner: list[Diagnostic] = []
    subs = [_well_formed_rec(c, tol, inner) for c in children(p)]
    cvars = [v for v, _ in subs]
    layouts = [lay for _, lay in subs]
    found = list(violations(p, cvars, layouts, tol))
    if not found and None not in layouts:
        p.__dict__[_RULES_PASSED] = tol
    out.extend(Diagnostic(v.code, v.message, p.span) for v in found)
    if not any(v.cut for v in found):
        out.extend(inner)
    return joined_cvars(p, cvars), _layout_from(p, layouts)


# -- The side conditions ---------------------------------------------------------
# One rule per condition, grouped by construct in ``RULES``; ``_dims`` is the
# one every construct has.  Each construct's rules see the node, its
# subprograms' classical variables and layouts (a layout is ``None`` in
# ``well_formed`` where it does not exist) and ``tol``.  ``well_formed``
# reports every violation; evaluation raises the first one.


@dataclass(frozen=True)
class Violation:
    """A violated side condition: its diagnostic code and message, and the
    error evaluation raises for it.  ``cut`` leaves the subprograms'
    diagnostics out of ``well_formed``."""

    code: str
    message: str
    error: type[QgclError]
    cut: bool = False


def violations(p: Program, cvars: list[frozenset[str]], layouts: list[RegisterLayout | None],
               tol: float) -> Iterator[Violation]:
    """The violated side conditions of node ``p``, in order, lazily."""
    yield from _dims(p, layouts)
    yield from RULES.get(type(p), lambda *_: ())(p, cvars, layouts, tol)


def enforce(found: Iterable[Violation]) -> None:
    """Raise the first violation as its typed error, its code leading the message."""
    for v in found:
        raise v.error(f"{v.code}: {v.message}")


# ``well_formed`` stores under this key of a node's ``__dict__`` the ``tol`` at
# which the node passed every rule with all its subprograms' layouts known.
_RULES_PASSED = "_rules_passed_at"


def enforce_rules(p: Program, cvars: list[frozenset[str]], layouts: list[RegisterLayout],
                  tol: float) -> None:
    """``enforce`` the side conditions of node ``p`` over its subprograms'
    classical variables and layouts, unless ``well_formed`` found them all
    to hold at this ``tol``: a node and its matrices never change, and the
    subprograms' variables and layouts are the ones ``well_formed`` saw."""
    if p.__dict__.get(_RULES_PASSED) != tol:
        enforce(violations(p, cvars, layouts, tol))


def _dims(p: Program, layouts: list[RegisterLayout | None]) -> Iterator[Violation]:
    """Each quantum variable has one dimension among a node's own variables
    and its subprograms' layouts, as ``joined_layout`` joins them; a block's
    locals are out of scope outside it, so they may shadow outer variables."""
    seen: dict[str, int] = {}
    for pairs in (declared(p), *(lay.variables for lay in layouts if lay is not None)):
        for name, d in pairs:
            if seen.setdefault(name, d) != d:
                yield Violation("dim-conflict",
                                f"quantum variable {name!r} used with dimensions {seen[name]} and {d}",
                                LayoutError)


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
    elif not linalg.is_unitary(p.kernel, tol):  # O(n) for a monomial U, e.g. a shift
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


def _guard(qvars: tuple[QVar, ...], basis: GuardBasis, branches: list[RegisterLayout | None],
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
    used = set().union(*(b.names for b in branches)) if None not in branches else set()
    overlap = {n for n, _ in qvars} & used
    if overlap:
        yield Violation("guard-var-overlap",
                        f"guard variables {sorted(overlap)} also occur in a branch", LayoutError)


def _seq(cvars: list[frozenset[str]]):
    shared = cvars[0] & frozenset().union(*cvars[1:])
    if shared:
        yield Violation("var-reuse",
                        f"classical variables {sorted(shared)} appear on both sides of ';'",
                        DomainClashError)


def _qchoice(p: QChoice, cvars, layouts, tol):
    """The guard over the coin's variables, run after the coin."""
    coin = layouts[0] if layouts[0] is not None else RegisterLayout()
    yield from _guard(tuple(coin.variables), p.basis, layouts[1:], tol)
    yield from _seq(cvars)


def block_rules(qvars: tuple[QVar, ...], init, body: RegisterLayout | None,
                tol: float = linalg.DEFAULT_TOL) -> Iterator[Violation]:
    """Side conditions of a block with locals ``qvars`` over a body on
    ``body``: its locals occur in the body and ``init`` is a density
    operator on them (Hermitian, positive, trace at most one)."""
    if not qvars:
        yield Violation("block-locals", "block declares no local variables", ArityError)
        return
    if bad := _operands(qvars, "local"):
        yield bad
        return
    names = [n for n, _ in qvars]
    missing = set(names) - set(body.names if body is not None else ())
    if missing:
        yield Violation("block-locals",
                        f"local variables {sorted(missing)} do not occur in the body", LayoutError)
    dim = RegisterLayout(qvars).dim
    init = linalg.as_matrix(init)
    if init.shape != (dim, dim):
        yield Violation(
            "block-init",
            f"initial state shape {init.shape} does not match locals of dimension {dim}",
            LayoutError)
    elif (herm := linalg.hermitian_part(init, tol)) is None or not _density_spectrum(herm, tol):
        yield Violation("block-init", "initial state is not a density operator", ContractError)


def _density_spectrum(herm: np.ndarray, tol: float) -> bool:
    """No eigenvalue of the Hermitian part below ``-tol``, and the positive
    ones sum to at most ``1 + tol``: that sum, not the trace, bounds what
    the block keeps."""
    eigs = np.linalg.eigvalsh(herm)
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


def _mu(p: Mu, cvars, layouts, tol):
    if not cvars[0] <= frozenset(p.classical):
        yield Violation("mu-scope", "body uses classical variables outside the declared set",
                        LayoutError)
    body_q = set(layouts[0].names) if layouts[0] is not None else set()
    if not body_q <= {n for n, _ in p.quantum}:
        yield Violation("mu-scope", "body uses quantum variables outside the declared set",
                        LayoutError)


RULES = {
    Unitary: _unitary,
    Measure: _measure,
    Guarded: lambda p, cvars, layouts, tol: _guard(p.qvars, p.basis, layouts, tol),
    QChoice: _qchoice,
    Seq: lambda p, cvars, layouts, tol: _seq(cvars),
    Block: lambda p, cvars, layouts, tol: block_rules(p.qvars, p.init, layouts[0], tol),
    ProbChoice: _prob_choice,
    Mu: _mu,
}
