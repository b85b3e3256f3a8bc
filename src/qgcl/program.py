"""Abstract syntax of guarded-command quantum programs.

Programs are immutable trees.  Quantum variables appear as (name, dimension)
pairs so a program is self-contained; classical variables range over the
integers and record measurement outcomes.  ``children`` and ``rebuild`` walk
any node through its dataclass fields.  Checks happen at the edges:
``well_formed`` collects each construct's side conditions at parse and
``check`` time, input states and observables are checked when loaded, and
evaluation assumes well-formedness, checking only the trace bound, once, at
the root of ``semantics.semi_classical`` and ``semantics.denote``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cache

import numpy as np

from . import linalg
from .errors import Diagnostic, LayoutError, SourceError, Span
from .registers import QVar, RegisterLayout


@dataclass(eq=False)
class Measurement:
    """Complete quantum measurement: integer outcomes to operators M_m with
    sum_m M_m† M_m = I."""

    operators: tuple[tuple[int, np.ndarray], ...]

    def __post_init__(self):
        ops = tuple(
            sorted(
                ((int(m), linalg.as_matrix(op)) for m, op in self.operators),
                key=lambda pair: pair[0],
            )
        )
        outcomes = [m for m, _ in ops]
        if len(set(outcomes)) != len(outcomes):
            raise LayoutError(f"duplicate measurement outcomes {outcomes}")
        self.operators = ops

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
        d = self.dim
        total = sum(linalg.dagger(op) @ op for _, op in self.operators)
        return linalg.max_abs_diff(total, linalg.identity(d)) <= tol

    @staticmethod
    def computational(dim: int) -> "Measurement":
        ops = []
        for m in range(dim):
            k = linalg.basis_ket(dim, m)
            ops.append((m, k @ linalg.dagger(k)))
        return Measurement(tuple(ops))


@dataclass(eq=False)
class GuardBasis:
    """Orthonormal guard states, stored as the columns of a square matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = linalg.as_matrix(self.matrix)

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

    def is_computational(self, tol: float = 0.0) -> bool:
        return self.matrix.shape[0] == self.matrix.shape[1] and bool(
            np.all(self.matrix == linalg.identity(self.dim))
        )

    @staticmethod
    def computational(dim: int) -> "GuardBasis":
        return GuardBasis(linalg.identity(dim))


@dataclass(frozen=True, eq=False)
class Program:
    span: Span | None = field(default=None, repr=False, kw_only=True)


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
    if isinstance(p, (Name, Mu)):
        return frozenset(p.classical)
    bound = frozenset((p.x,)) if isinstance(p, Measure) else frozenset()
    return bound.union(*(var(c) for c in children(p)))


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
    if isinstance(p, Block):  # building the locals' layout validates them too
        return qvar_layout(p.body).remove(RegisterLayout(p.qvars).names)
    out = RegisterLayout(declared(p))
    for child in children(p):
        out = out.extended(qvar_layout(child))
    return out


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


def _diag(code: str, message: str, node: Program) -> Diagnostic:
    return Diagnostic(code, message, node.span)


def well_formed(p: Program, tol: float = linalg.DEFAULT_TOL) -> list[Diagnostic]:
    """All violated side conditions, empty when the program is well-formed."""
    out: list[Diagnostic] = []
    _check_dims_consistent(p, {}, out)
    _well_formed_rec(p, tol, out)
    return out


def check(p: Program, tol: float = linalg.DEFAULT_TOL) -> Program:
    """Raise :class:`SourceError` unless the program is well-formed."""
    diags = well_formed(p, tol)
    if diags:
        raise SourceError(diags)
    return p


def _check_dims_consistent(p: Program, seen: dict[str, int], out: list[Diagnostic]) -> None:
    for name, d in declared(p):
        if name in seen and seen[name] != d:
            out.append(
                _diag(
                    "dim-conflict",
                    f"quantum variable {name!r} used with dimensions {seen[name]} and {d}",
                    p,
                )
            )
        seen.setdefault(name, d)
    for child in children(p):
        _check_dims_consistent(child, seen, out)


def _guard_checks(p: Program, qvars: tuple[QVar, ...], basis: GuardBasis,
                  branches: tuple[Program, ...], tol: float, out: list[Diagnostic]) -> None:
    names = [n for n, _ in qvars]
    if len(set(names)) != len(names):
        out.append(_diag("qvar-duplicate", f"repeated guard variable in {names}", p))
        return
    guard_dim = 1
    for _, d in qvars:
        guard_dim *= d
    if not basis.is_orthonormal(tol):
        out.append(_diag("guard-basis", "guard basis columns are not orthonormal", p))
    if basis.dim != guard_dim:
        out.append(
            _diag(
                "guard-basis",
                f"guard basis dimension {basis.dim} does not match guard space {guard_dim}",
                p,
            )
        )
    if basis.arity != len(branches):
        out.append(
            _diag(
                "guard-arity",
                f"{basis.arity} basis states but {len(branches)} branches",
                p,
            )
        )
    try:
        used = frozenset().union(*(qvar(b) for b in branches)) if branches else frozenset()
    except LayoutError:
        used = frozenset()
    overlap = set(names) & used
    if overlap:
        out.append(
            _diag(
                "guard-var-overlap",
                f"guard variables {sorted(overlap)} also occur in a branch",
                p,
            )
        )


def _well_formed_rec(p: Program, tol: float, out: list[Diagnostic]) -> None:
    if isinstance(p, (Abort, Skip, Name)):
        return
    if isinstance(p, Unitary):
        names = [n for n, _ in p.qvars]
        if not p.qvars:
            out.append(_diag("qvar-empty", "unitary statement needs at least one variable", p))
            return
        if len(set(names)) != len(names):
            out.append(_diag("qvar-duplicate", f"repeated quantum variable in {names}", p))
            return
        dim = RegisterLayout(p.qvars).dim
        if p.matrix.shape != (dim, dim):
            out.append(
                _diag(
                    "unitary-shape",
                    f"matrix shape {p.matrix.shape} does not match variables of dimension {dim}",
                    p,
                )
            )
        elif not linalg.is_unitary(p.matrix, tol):
            out.append(_diag("unitary-nonunitary", "matrix is not unitary within tolerance", p))
        return
    if isinstance(p, Measure):
        names = [n for n, _ in p.qvars]
        if not p.qvars:
            out.append(_diag("qvar-empty", "measurement needs at least one variable", p))
            return
        if len(set(names)) != len(names):
            out.append(_diag("qvar-duplicate", f"repeated quantum variable in {names}", p))
            return
        dim = RegisterLayout(p.qvars).dim
        bad_shape = any(op.shape != (dim, dim) for _, op in p.measurement.operators)
        if bad_shape:
            out.append(
                _diag(
                    "measure-op-shape",
                    f"measurement operators must be {dim}x{dim} for these variables",
                    p,
                )
            )
        elif not p.measurement.is_complete(tol):
            out.append(
                _diag("measure-incomplete", "measurement operators do not sum to the identity", p)
            )
        if p.measurement.outcomes != tuple(m for m, _ in p.branches):
            out.append(
                _diag(
                    "measure-branch-outcomes",
                    "branch outcomes do not match the measurement's outcomes",
                    p,
                )
            )
        captured = [sub for _, sub in p.branches if p.x in var(sub)]
        if captured:
            out.append(
                _diag(
                    "measure-var-capture",
                    f"outcome variable {p.x!r} reused inside a branch",
                    p,
                )
            )
        for _, sub in p.branches:
            _well_formed_rec(sub, tol, out)
        return
    if isinstance(p, Guarded):
        _guard_checks(p, p.qvars, p.basis, p.branches, tol, out)
        for b in p.branches:
            _well_formed_rec(b, tol, out)
        return
    if isinstance(p, Seq):
        shared = var(p.first) & var(p.second)
        if shared:
            out.append(
                _diag(
                    "var-reuse",
                    f"classical variables {sorted(shared)} appear on both sides of ';'",
                    p,
                )
            )
        _well_formed_rec(p.first, tol, out)
        _well_formed_rec(p.second, tol, out)
        return
    if isinstance(p, Block):
        names = [n for n, _ in p.qvars]
        if not p.qvars:
            out.append(_diag("block-locals", "block declares no local variables", p))
        elif len(set(names)) != len(names):
            out.append(_diag("qvar-duplicate", f"repeated local variable in {names}", p))
        else:
            try:
                body_vars = qvar(p.body)
            except LayoutError:
                body_vars = frozenset()
            missing = set(names) - body_vars
            if missing:
                out.append(
                    _diag(
                        "block-locals",
                        f"local variables {sorted(missing)} do not occur in the body",
                        p,
                    )
                )
            dim = RegisterLayout(p.qvars).dim
            init = linalg.as_matrix(p.init)
            if init.shape != (dim, dim):
                out.append(
                    _diag(
                        "block-init",
                        f"initial state shape {init.shape} does not match locals of dimension {dim}",
                        p,
                    )
                )
            elif not (
                linalg.is_hermitian(init, tol)
                and linalg.is_positive(init, tol)
                and float(np.trace(init).real) <= 1 + tol
            ):
                out.append(_diag("block-init", "initial state is not a density operator", p))
        _well_formed_rec(p.body, tol, out)
        return
    if isinstance(p, ProbChoice):
        if len(p.weights) != len(p.branches) or not p.branches:
            out.append(
                _diag(
                    "prob-arity",
                    f"{len(p.weights)} weights for {len(p.branches)} branches",
                    p,
                )
            )
        if any(w < 0 for w in p.weights):
            out.append(_diag("prob-weights", "negative branch probability", p))
        elif sum(p.weights) > 1 + tol:
            out.append(
                _diag("prob-weights", f"branch probabilities sum to {sum(p.weights)} > 1", p)
            )
        for b in p.branches:
            _well_formed_rec(b, tol, out)
        return
    if isinstance(p, QChoice):
        try:
            coin_layout = qvar_layout(p.coin)
        except LayoutError:
            coin_layout = RegisterLayout()
        _guard_checks(p, tuple(coin_layout.variables), p.basis, p.branches, tol, out)
        _well_formed_rec(p.coin, tol, out)
        for b in p.branches:
            _well_formed_rec(b, tol, out)
        return
    if isinstance(p, Mu):
        if not var(p.body) <= frozenset(p.classical):
            out.append(
                _diag("mu-scope", "body uses classical variables outside the declared set", p)
            )
        try:
            body_q = qvar(p.body)
        except LayoutError:
            body_q = frozenset()
        if not body_q <= frozenset(n for n, _ in p.quantum):
            out.append(
                _diag("mu-scope", "body uses quantum variables outside the declared set", p)
            )
        _well_formed_rec(p.body, tol, out)
        return
    raise TypeError(f"unknown program node {type(p).__name__}")
