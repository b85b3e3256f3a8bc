"""Program semantics at two levels.

The semi-classical denotation of a core program (``semi_classical``) is the
paper's operator-valued function over the program's classical states: one
operator per measurement-outcome path, guard branches combined by guarded
composition over the product of their domains.  The channel (``denote``) is
one fold that builds each construct's Kraus family from its parts: a
leaf's operator; sequencing, measurement and probabilistic choice by
composing the sub-families; a block from its body's family by reshaping; a
guard from its branch functions, without their joint domain.  Each family
is pruned of zero operators and held at ``d²`` operators or fewer.  Bounded
loop unrolling and the system-environment model of channels support the
coin-relocation equivalences.

Every evaluator starts from one checked pass, ``_prepare``, which builds each
node's layout and guard branch functions bottom-up, once per program and
``(tol, max_dim)``: each node keeps its step; operators, weights and initial
states are read from the node itself.  At each node it runs the side
conditions of ``program.RULES``, the ones ``well_formed`` reports, and
raises the first violated one with its code leading the message; so ``semi_classical``, ``denote``, ``apply_program`` and
``wp_apply`` accept the same programs and reject the rest with the same
error.  The trace bound ``sum F† F <= I`` is not checked again on the
result: it follows from the leaf contracts among those rules (unitarity,
complete measurements, orthonormal guard bases, weights summing to at most
one, density initial states), each within ``tol`` in norm, since every
construct preserves it.

``apply_program`` and ``wp_apply`` never build the channel: ``stream``
pushes the state (or, backwards, the observable) through the steps, each
operator acting on its own tensor factors, a guard block by block in its
basis.  A monomial leaf operator (``linalg.Monomial``: the walk's shifts,
diagonals, phase permutations, basis projectors), classified once on its
node (``Unitary.kernel``, ``Measurement.kernels``), is applied as a gather
times a scale vector; any other by dense matmul."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from . import classical as cs
from . import linalg
from .errors import (
    ArityError,
    CapacityError,
    ContractError,
    LayoutError,
    UnsupportedConstructError,
)
from .ovf import (
    OperatorValuedFunction,
    SuperOperator,
    lambda_weights,
    prune_zero_kraus,
    to_superop,
)
from .program import (
    Abort,
    Block,
    GuardBasis,
    Guarded,
    Measure,
    Measurement,
    Mu,
    Name,
    ProbChoice,
    Program,
    QChoice,
    QVar,
    Seq,
    Skip,
    Unitary,
    block_rules,
    children,
    enforce,
    enforce_rules,
    is_core,
    joined_cvars,
    joined_layout,
    qvar_layout,
)
from .registers import DensityMatrix, RegisterLayout, embed

RESERVED_PREFIX = "@"
MAX_UNROLL_DEFAULT = 6


def _scalar_function(value: complex) -> OperatorValuedFunction:
    return OperatorValuedFunction(
        RegisterLayout(), {cs.EPS: np.array([[value]], dtype=complex)}
    )


def _check_cap(layout: RegisterLayout, max_dim: int) -> RegisterLayout:
    if layout.dim > max_dim:
        raise CapacityError(f"layout dimension {layout.dim} exceeds the cap {max_dim}")
    return layout


def semi_classical(
    p: Program,
    *,
    tol: float = linalg.DEFAULT_TOL,
    max_dim: int = linalg.MAX_DIM_DEFAULT,
) -> OperatorValuedFunction:
    """Semi-classical denotation of a core program: an operator-valued
    function over the program's classical states and quantum layout.

    Defined for the measurement-and-guard core only; quantum choice is
    accepted through its sequential desugaring.  Blocks, probabilistic
    choices and recursion are rejected: their meaning exists only at the
    channel level.  The trace bound ``sum F† F <= I`` holds as for ``denote``.
    """
    return _semi(_prepare(p, tol, max_dim), max_dim)


def _semi(step: _Step, max_dim: int) -> OperatorValuedFunction:
    """Fold of a prepared step into its function; ``_prepare`` made the checks."""
    p, full = step.node, step.layout
    if isinstance(p, Abort):
        return _scalar_function(0.0)
    if isinstance(p, Skip):
        return _scalar_function(1.0)
    if isinstance(p, Unitary):
        return OperatorValuedFunction(full, {cs.EPS: p.operator})
    if isinstance(p, Measure):  # outcomes and branches agree, both sorted
        table: dict[cs.ClassicalState, np.ndarray] = {}
        for (m, op), sub in zip(p.measurement.operators, step.subs):
            sub_f = _semi(sub, max_dim).extended_to(full, max_dim=max_dim)
            m_op = embed(op, p.own_layout, full, max_dim=max_dim)
            for delta in sub_f.sorted_states():
                table[cs.extend(delta, p.x, m)] = sub_f(delta) @ m_op
        return OperatorValuedFunction(full, table)
    if isinstance(p, Guarded):
        data = reduce(RegisterLayout.extended, (sub.layout for sub in step.subs), RegisterLayout())
        branch_fs = [f.extended_to(data, max_dim=max_dim) for f in step.fns]
        from .ovf import guarded_ovf

        combined = guarded_ovf(p.basis, branch_fs, p.own_layout, max_dim=max_dim)
        return combined.extended_to(full, max_dim=max_dim)
    if isinstance(p, Seq):
        f1, f2 = (_semi(sub, max_dim).extended_to(full, max_dim=max_dim) for sub in step.subs)
        return OperatorValuedFunction(full, {
            cs.concat(d1, d2): f2(d2) @ f1(d1)
            for d1 in f1.sorted_states() for d2 in f2.sorted_states()
        })
    raise UnsupportedConstructError(
        f"{type(p).__name__} has no semi-classical denotation; evaluate it as a channel"
    )


def denote(
    p: Program,
    *,
    tol: float = linalg.DEFAULT_TOL,
    max_dim: int = linalg.MAX_DIM_DEFAULT,
) -> SuperOperator:
    """Channel semantics of a program over its quantum-variable layout, as
    a Kraus family of at most ``d²`` operators composed node by node.

    A guarded command whose branches fall outside the core is rejected, as
    is recursion.  The channel is trace-nonincreasing by construction,
    within about ``tol`` per leaf (``2 tol`` per guard basis): the leaf
    contracts bound each leaf's norm within ``tol`` and every construct
    preserves the bound.
    """
    return _denote(_prepare(p, tol, max_dim), tol, max_dim)


def _denote(step: _Step, tol: float, max_dim: int) -> SuperOperator:
    """Fold of a prepared step into its channel: a leaf's operator, and for
    every other construct a Kraus family composed from its parts' families,
    pruned and held at ``d²`` operators or fewer (``_family``)."""
    p, full = step.node, step.layout
    if not step.subs:  # abort, skip, unitary
        return to_superop(_semi(step, max_dim))
    if isinstance(p, Guarded):
        return _family(full, _guard_family(step, max_dim))
    subs = [_denote(sub, tol, max_dim) for sub in step.subs]
    if isinstance(p, Block):
        return block_channel(subs[0], p.own_layout, p.init, tol=tol)
    subs = [e.extended_to(full, max_dim=max_dim) for e in subs]
    if isinstance(p, Seq):
        return _family(full, subs[0].then(subs[1]).kraus)
    if isinstance(p, Measure):  # each branch after its measurement operator
        ops = (op for _, op in p.measurement.operators)
        first = [embed(op, p.own_layout, full, max_dim=max_dim) for op in ops]
    else:  # probabilistic choice: each branch scaled by its weight's root
        first = [np.sqrt(w) for w in p.weights]
    return _family(full, [np.dot(e, m) for m, sub in zip(first, subs) for e in sub.kraus])


def _guard_family(step: _Step, max_dim: int) -> list[np.ndarray]:
    """With ``P_i`` the guard's basis projectors and branch ``i``'s function
    ``F_i``, weights ``λ_i`` and ``A_i = sum_d λ_i(d) F_i(d)``: the family
    ``sum_i P_i (x) A_i`` and every nonzero ``P_i (x) (F_i(d) - λ_i(d) A_i)``.

    It induces ``guarded_ovf``'s channel: as ``sum_d λ_i(d)² = 1``, that
    function's Choi matrix is ``sum_ij vec(P_i (x) A_i) vec(P_j (x) A_j)†``
    plus ``P_i (x) (Choi(F_i) - vec A_i vec A_i†)`` per branch, which the
    deviations give exactly, since ``I - λ_i λ_i†`` is a projector."""
    p, full = step.node, step.layout
    tops, rest = [], []
    for i, (f, a) in enumerate(zip(step.fns, step.a)):
        col = p.basis.column(i)
        proj, lay = col @ linalg.dagger(col), p.own_layout.extended(f.layout)
        ops = (a, *prune_zero_kraus([f(d) - w * a for d, w in lambda_weights(f).items()]))
        branch = SuperOperator(lay, tuple(linalg.tensor(proj, op, max_dim=max_dim) for op in ops))
        top, *devs = branch.extended_to(full, max_dim=max_dim).kraus
        tops.append(top)
        rest += devs
    return [sum(tops), *rest]


def _family(layout: RegisterLayout, ops) -> SuperOperator:
    """The channel of ``ops``: zero operators pruned, and a family longer
    than ``d²`` reduced to the Choi rank with no tolerance cut
    (``linalg.reduce_kraus``), so no verdict can move."""
    ops = prune_zero_kraus(ops)
    if len(ops) > layout.dim**2:
        ops = prune_zero_kraus(linalg.reduce_kraus(ops, layout.dim, 0.0))
    return SuperOperator(layout, ops)


def block_channel(
    inner: SuperOperator,
    locals_layout: RegisterLayout,
    init,
    *,
    tol: float = linalg.DEFAULT_TOL,
) -> SuperOperator:
    """Channel of a block: initialise locals, run the body, trace them out.

    With ``init = sum_k val_k φ_k φ_k†``, each body operator ``E`` (locals
    last) gives the Kraus operators ``(I (x) <b|) E (I (x) √val_k φ_k)`` for
    every local basis state ``b``, read off ``E`` reshaped to
    ``(d_out, d_loc, d_out, d_loc)``.  The induced channel equals
    initialise-apply-partial-trace.
    """
    init = linalg.as_matrix(init)
    full = inner.layout
    enforce(block_rules(locals_layout.variables, init, full, tol))
    outer = locals_layout.extended(full).remove(locals_layout.names)  # locals' dimensions agree
    vals, vecs = np.linalg.eigh((init + linalg.dagger(init)) / 2)
    keep = vals > 1e-12
    cols = vecs[:, keep] * np.sqrt(vals[keep])
    order = [full.index(name) for name in outer.names + locals_layout.names]
    d_out, d_loc = outer.dim, locals_layout.dim
    body = np.array([linalg.permute_factors(e, full.dims, order) for e in inner.kraus])
    ops = np.einsum("naibj,jk->kniab", body.reshape(-1, d_out, d_loc, d_out, d_loc), cols)
    return _family(outer, list(ops.reshape(-1, d_out, d_out)))


def apply_program(
    p: Program,
    rho: DensityMatrix,
    *,
    tol: float = linalg.DEFAULT_TOL,
    max_dim: int = linalg.MAX_DIM_DEFAULT,
) -> DensityMatrix:
    """Evaluate a program on an input state given over at least its variables."""
    return DensityMatrix(stream(p, rho.matrix, rho.layout, tol=tol, max_dim=max_dim), rho.layout)


def stream(
    p: Program,
    x: np.ndarray,
    layout: RegisterLayout,
    *,
    adjoint: bool = False,
    tol: float = linalg.DEFAULT_TOL,
    max_dim: int = linalg.MAX_DIM_DEFAULT,
) -> np.ndarray:
    """Push a state through a program, or with ``adjoint`` an observable
    backwards to its weakest precondition, without building the channel.

    ``x`` is given on ``layout``: a state over at least the program's
    variables, an observable over exactly them, in any factor order.  Every
    operator acts on its own factors of ``x``.  The program is checked, and
    ``x``'s layout, before ``x`` is touched.  No ``wp(I) <= I`` pass is made:
    the trace bound follows from the leaf contracts, each checked on the
    leaf's own operator, its norm within ``tol`` (as for ``denote``).
    """
    step = _prepare(p, tol, max_dim)
    _check_input(step.layout, layout, adjoint)
    if layout.variables != step.layout.variables:
        _check_cap(layout, max_dim)
    t = linalg.as_matrix(x).reshape(layout.dims * 2)
    out = _Stream(tol, max_dim).push(step, t, layout.names, adjoint).reshape(layout.dim, layout.dim)
    return out.copy() if np.may_share_memory(out, x) else out


def _check_input(program: RegisterLayout, given: RegisterLayout, adjoint: bool) -> None:
    """A state must carry every program variable; an observable exactly them."""
    if adjoint:
        if not given.same_variables(program):
            raise ContractError(
                "observable must be given over exactly the program's quantum variables"
            )
        return
    for name, d in program.variables:
        if name not in given:
            raise LayoutError(f"input state lacks program variable {name!r}")
        if given.dim_of(name) != d:
            raise LayoutError(f"input state dimension mismatch on {name!r}")


@dataclass(eq=False)
class _Step:
    """A checked program node, the common input of every evaluator; the
    node keeps it (``_prepare``).

    It holds only what evaluation works out from the subprograms; for a
    guard, each branch's semi-classical function ``fns[i]`` and ``a[i] =
    sum_d lambda(d) F(d)`` over it, on ``subs[i].layout``.  Operators,
    weights and a block's initial state are read from the node.
    """

    node: Program
    layout: RegisterLayout
    cvars: frozenset = frozenset()
    subs: tuple = ()
    fns: tuple = ()
    a: tuple = ()

    @cached_property
    def kernels(self) -> tuple:
        """A guard's ``a`` as streaming applies them (``linalg.kernel``)."""
        return tuple(map(linalg.kernel, self.a))


_STEPS = "_steps"  # the key of a node's prepared steps by (tol, max_dim)


def _prepare(p: Program, tol: float, max_dim: int) -> _Step:
    """The one checked pass: layouts, classical variables and guard branch
    functions of ``p``, bottom-up, memoized on each node.

    Once a node's subprograms are prepared, the first of its side conditions
    (``program.RULES``) that fails raises, with its code leading the
    message; ``_build`` adds what only evaluation needs.  A quantum choice
    becomes its coin followed by the guard over the coin's variables.

    A node and its matrices never change, so its step depends only on
    ``(tol, max_dim)``: it is kept in the node's ``__dict__`` under that key,
    as ``cached_property`` keeps ``Unitary.kernel``, and a shared subprogram
    is prepared once.  A node that raises keeps nothing.  The step refers
    back to its node, so a dropped program goes with the cyclic collector.
    """
    key = (tol, max_dim)
    memo = p.__dict__.get(_STEPS)
    if memo is not None and key in memo:
        return memo[key]
    subs = tuple(_prepare(c, tol, max_dim) for c in children(p))
    enforce_rules(p, [sub.cvars for sub in subs], [sub.layout for sub in subs], tol)
    if isinstance(p, QChoice):
        guard = Guarded(tuple(subs[0].layout.variables), p.basis, p.branches)
        step = _build(Seq(p.coin, guard, span=p.span),
                      (subs[0], _build(guard, subs[1:], max_dim)), max_dim)
    else:
        step = _build(p, subs, max_dim)
    p.__dict__.setdefault(_STEPS, {})[key] = step
    return step


def _build(p: Program, subs: tuple[_Step, ...], max_dim: int) -> _Step:
    """The step of a node whose side conditions hold.  Raised here: what only
    evaluation rejects, which is recursion, a guard over branches outside
    the core, the ``max_dim`` cap and a node class it does not know."""
    if isinstance(p, (Name, Mu)):
        raise UnsupportedConstructError(
            "recursion has no channel semantics; use a bounded unrolling"
        )
    if isinstance(p, Guarded) and not all(map(is_core, p.branches)):
        raise UnsupportedConstructError(
            "guarded command over block/probabilistic branches has no defined semantics"
        )
    layout = _check_cap(joined_layout(p, [sub.layout for sub in subs]), max_dim)
    if not isinstance(p, (Abort, Skip, Unitary, Measure, Guarded, Seq, Block, ProbChoice)):
        raise UnsupportedConstructError(f"cannot evaluate {type(p).__name__}")
    cvars = joined_cvars(p, [sub.cvars for sub in subs])
    if not isinstance(p, Guarded):
        return _Step(p, layout, cvars, subs)
    fns = tuple(_semi(sub, max_dim) for sub in subs)
    return _Step(p, layout, cvars, subs, fns,
                 tuple(sum(w * f(d) for d, w in lambda_weights(f).items()) for f in fns))


@dataclass
class _Stream:
    """One evaluation pass over prepared steps.  A block whose state with
    its locals would exceed ``max_dim`` is applied through its dense Kraus
    family on its own layout, kept in ``blocks`` for the rest of the call."""

    tol: float
    max_dim: int
    blocks: dict = field(default_factory=dict)

    def push(self, step: _Step, t: np.ndarray, names: tuple[str, ...], adjoint: bool) -> np.ndarray:
        """``t`` is a matrix on ``names`` shaped ``dims + dims``; the result
        has the same shape.  Forward: the program's channel applied to
        ``t``; adjoint: its dual, ``sum_k E_k† t E_k``."""
        p = step.node
        if isinstance(p, Abort):
            return np.zeros_like(t)
        if isinstance(p, Skip):
            return t
        if isinstance(p, Unitary):
            return _sandwich(t, names, _side(p.kernel, adjoint), p.own_layout.names)
        if isinstance(p, Seq):
            for sub in reversed(step.subs) if adjoint else step.subs:
                t = self.push(sub, t, names, adjoint)
            return t
        if isinstance(p, Measure):
            out, site = np.zeros_like(t), p.own_layout.names
            for op, sub in zip(p.measurement.kernels, step.subs):
                if adjoint:
                    out += _sandwich(self.push(sub, t, names, True), names, _side(op, True), site)
                else:
                    out += self.push(sub, _sandwich(t, names, op, site), names, False)
            return out
        if isinstance(p, ProbChoice):
            out = np.zeros_like(t)
            for w, sub in zip(p.weights, step.subs):
                out += w * self.push(sub, t, names, adjoint)
            return out
        if isinstance(p, Block):
            return self._block(step, t, names, adjoint)
        return self._guard(step, t, names, adjoint)

    def _block(self, step: _Step, t: np.ndarray, names, adjoint: bool) -> np.ndarray:
        """Forward: ``tr_loc[body(X (x) init)]``; adjoint:
        ``tr_loc[wp_body(M (x) I_loc) (I (x) init)]``."""
        p, (body,) = step.node, step.subs
        local, init = p.own_layout, p.init
        d, dl = int(np.prod(t.shape[: len(names)])), local.dim
        if d * dl > self.max_dim:
            if id(step) not in self.blocks:
                self.blocks[id(step)] = _denote(step, self.tol, self.max_dim).kraus
            out = np.zeros_like(t)
            for k in self.blocks[id(step)]:
                out += _sandwich(t, names, _side(k, adjoint), step.layout.names)
            return out
        # A local shadows any variable of the same name outside the block.
        outer = tuple(_fresh_name(n + "'", set(names) | set(local.names)) if n in local else n
                      for n in names)
        shape = t.shape[: len(names)] + local.dims
        x = t.reshape(d, d)
        if adjoint:
            w = self.push(body, np.kron(x, linalg.identity(dl)).reshape(shape * 2),
                          outer + local.names, True)
            out = np.einsum("aibj,ji->ab", w.reshape(d, dl, d, dl), init)
        else:
            r = self.push(body, np.kron(x, init).reshape(shape * 2), outer + local.names, False)
            out = np.einsum("aibi->ab", r.reshape(d, dl, d, dl))
        return out.reshape(t.shape)

    def _guard(self, step: _Step, t: np.ndarray, names, adjoint: bool) -> np.ndarray:
        """In the guard basis, diagonal block ``i`` is branch ``i``'s own
        evaluation and off-diagonal block ``(i, j)`` is ``A_i X_ij A_j†``
        (with ``A†`` for the adjoint): the square branch weights sum to one,
        so the guarded composition never needs its joint domain."""
        p = step.node
        gnames = p.own_layout.names
        rotate = not p.basis.is_computational()
        if rotate:
            t = _sandwich(t, names, linalg.dagger(p.basis.matrix), gnames)
        n = len(names)
        gpos = [names.index(g) for g in gnames]
        moved = gpos + [n + a for a in gpos]
        data = tuple(name for name in names if name not in gnames)
        blocks = np.moveaxis(t, moved, range(len(moved)))
        gshape = blocks.shape[: len(moved)]
        dg = p.basis.dim
        blocks = blocks.reshape((dg, dg) + blocks.shape[len(moved):])
        sides = [_side(a, adjoint) for a in step.kernels]
        out = np.empty_like(blocks)
        for i in range(dg):
            for j in range(dg):
                if not blocks[i, j].any():  # e.g. the identity's off-diagonal blocks
                    out[i, j] = 0
                elif i == j:
                    out[i, i] = self.push(step.subs[i], blocks[i, i], data, adjoint)
                else:
                    out[i, j] = _sandwich(blocks[i, j], data, sides[i], step.subs[i].layout.names,
                                          sides[j], step.subs[j].layout.names)
        t = np.moveaxis(out.reshape(gshape + out.shape[2:]), range(len(moved)), moved)
        if rotate:
            t = _sandwich(t, names, p.basis.matrix, gnames)
        return t


def _side(op, adjoint: bool):
    """``op`` or its adjoint; transposing first reuses a monomial's cached ``T``."""
    return op.T.conj() if adjoint else op


def _sandwich(t, names, left, site, right=None, right_site=None) -> np.ndarray:
    """``(L (x) I) X (R (x) I)†`` with ``L`` on the variables ``site`` and
    ``R`` (default ``L``) on ``right_site`` (default ``site``); ``t`` and the
    result are shaped ``dims + dims`` over ``names``."""
    if right is None:
        right, right_site = left, site
    n = len(names)
    t = _contract(left, t, [names.index(v) for v in site])
    return _contract(right.conj(), t, [n + names.index(v) for v in right_site])


def _contract(op, t: np.ndarray, axes: list[int]) -> np.ndarray:
    """Apply ``op`` to the tensor factors of ``t`` at ``axes``, in order: a
    ``linalg.Monomial`` as a gather of their rows, a dense matrix by matmul."""
    if not axes:
        return op[0, 0] * t
    if isinstance(op, linalg.Monomial) and len(axes) == 1:  # gather in place, no transposes
        out = t[(slice(None),) * axes[0] + (op.col,)]
        out *= op.scale.reshape((-1,) + (1,) * (t.ndim - axes[0] - 1))
        return out
    order = axes + [a for a in range(t.ndim) if a not in axes]
    moved = t.transpose(order)
    if isinstance(op, linalg.Monomial):
        rest = moved.shape[len(axes):]
        out = moved.reshape((len(op.col),) + rest)[op.col]
        out *= op.scale.reshape((-1,) + (1,) * len(rest))
    else:
        out = op @ moved.reshape(op.shape[1], -1)
    return out.reshape(moved.shape).transpose(np.argsort(order))


@dataclass(eq=False)
class DilationModel:
    """System-environment form of a channel: unitary, environment state and
    projector with ``tr_env(K U (rho (x) |phi0><phi0|) U† K) = channel(rho)``."""

    env_layout: RegisterLayout
    env_state: np.ndarray
    unitary: np.ndarray
    projector: np.ndarray
    kept: int

    @property
    def env_dim(self) -> int:
        return self.env_layout.dim

    def reconstruct(self, rho: np.ndarray, system_dim: int) -> np.ndarray:
        """Apply the model to a system state; used to validate the dilation."""
        joint = np.kron(linalg.as_matrix(rho), self.env_state @ linalg.dagger(self.env_state))
        out = self.projector @ self.unitary @ joint @ linalg.dagger(self.unitary) @ self.projector
        dims = [system_dim, self.env_dim]
        return linalg.partial_trace(out, dims, [0])


def _fresh_name(base: str, taken) -> str:
    name = base
    counter = 1
    while name in taken:
        name = f"{base}{counter}"
        counter += 1
    return name


def system_environment_model(
    e: SuperOperator,
    *,
    tol: float = linalg.DEFAULT_TOL,
    max_dim: int = linalg.MAX_DIM_DEFAULT,
    env_name: str = RESERVED_PREFIX + "r",
) -> DilationModel:
    """Dilate a trace-nonincreasing channel to unitary-plus-projection form.

    The environment dimension equals the Kraus count after removing zero
    operators (reduced by ``linalg.reduce_kraus`` when above dim**2), plus one
    completion operator when the channel is strictly trace-decreasing.  A
    trace-preserving channel gets the identity projector; the zero channel
    the zero projector.  Unitary channels need no environment at all: the
    returned environment layout is empty (dimension one).
    """
    d = e.layout.dim
    ops = list(prune_zero_kraus(e.kraus))
    if len(ops) > d * d:
        ops = linalg.reduce_kraus(ops, d, tol)
    gram = sum((linalg.dagger(op) @ op for op in ops), np.zeros((d, d), dtype=complex))
    if not linalg.loewner_leq(gram, linalg.identity(d), tol):
        raise ContractError("dilation needs a trace-nonincreasing channel")
    kept = len(ops)
    defect = linalg.identity(d) - gram
    if linalg.max_abs_diff(defect, np.zeros_like(defect)) > tol:
        ops = ops + [linalg.psd_sqrt(defect, tol)]
    m = len(ops)
    if d * m > max_dim:
        raise CapacityError(f"dilated dimension {d * m} exceeds the cap {max_dim}")
    if m == 1:
        projector = linalg.identity(d) if kept == 1 else np.zeros((d, d), dtype=complex)
        return DilationModel(
            env_layout=RegisterLayout(),
            env_state=np.array([[1.0]], dtype=complex),
            unitary=ops[0],
            projector=projector,
            kept=kept,
        )
    isometry = np.stack(ops, axis=1).reshape(d * m, d)  # row s*m + j: row s of ops[j]
    q, _ = np.linalg.qr(isometry, mode="complete")
    # column s*m is the isometry's column s, columns s*m + 1 .. s*m + m-1 spare ones
    spare = q[:, d:].reshape(d * m, d, m - 1)
    unitary = np.concatenate([isometry[:, :, None], spare], axis=2).reshape(d * m, d * m)
    if not linalg.is_unitary(unitary, 1e-8):
        raise ContractError("dilation unitary completion failed")
    env_proj = np.diag([1.0 if j < kept else 0.0 for j in range(m)]).astype(complex)
    projector = np.kron(linalg.identity(d), env_proj)
    env_layout = RegisterLayout.of((env_name, m))
    return DilationModel(
        env_layout=env_layout,
        env_state=linalg.basis_ket(m, 0),
        unitary=unitary,
        projector=projector,
        kept=kept,
    )


def coin_relocation_lhs_rhs(
    coin: Program,
    basis: GuardBasis,
    branches,
    *,
    tol: float = linalg.DEFAULT_TOL,
    max_dim: int = linalg.MAX_DIM_DEFAULT,
) -> tuple[Program, Program]:
    """Equivalent program pair that moves a choice's coin behind the guard.

    For a unitary coin the right-hand side guards in the back-rotated basis
    and applies the coin afterwards.  For a general coin program the channel
    is dilated: fresh local environment variables are initialised, the guard
    runs over coin-plus-environment states, branches hit by the discarded
    part of the environment abort, and the dilation unitary closes the block.
    A discarded branch keeps its program in front of the abort so both sides
    range over the same quantum variables.
    """
    branches = tuple(branches)
    coin_layout = qvar_layout(coin)
    if basis.arity != len(branches):
        raise ArityError(f"{basis.arity} guard states but {len(branches)} branches")
    if basis.dim != coin_layout.dim:
        raise LayoutError(
            f"basis dimension {basis.dim} does not match coin variables (dim {coin_layout.dim})"
        )
    lhs = QChoice(coin, basis, branches)
    coin_vars = tuple(coin_layout.variables)
    if isinstance(coin, Unitary):
        rotated = GuardBasis(linalg.dagger(coin.matrix) @ basis.matrix)
        rhs: Program = Seq(Guarded(coin_vars, rotated, branches), Unitary(coin_vars, coin.matrix))
        return lhs, rhs
    channel = denote(coin, tol=tol, max_dim=max_dim)
    taken = set(qvar_layout(lhs).names)
    dilation = system_environment_model(
        channel, tol=tol, max_dim=max_dim, env_name=_fresh_name(RESERVED_PREFIX + "r", taken)
    )
    m = dilation.env_dim

    if m == 1:
        kept_branches = (
            branches if dilation.kept == 1 else tuple(Seq(b, Abort()) for b in branches)
        )
        rotated = GuardBasis(linalg.dagger(dilation.unitary) @ basis.matrix)
        rhs = Seq(
            Guarded(coin_vars, rotated, kept_branches),
            Unitary(coin_vars, dilation.unitary),
        )
        return lhs, rhs
    env_vars = tuple(dilation.env_layout.variables)
    joint_vars = coin_vars + env_vars
    lifted_basis = GuardBasis(
        linalg.dagger(dilation.unitary) @ np.kron(basis.matrix, linalg.identity(m))
    )
    rhs_branches = tuple(
        branches[i] if j < dilation.kept else Seq(branches[i], Abort())
        for i in range(len(branches))
        for j in range(m)
    )
    body = Seq(
        Guarded(joint_vars, lifted_basis, rhs_branches),
        Unitary(joint_vars, dilation.unitary),
    )
    init = dilation.env_state @ linalg.dagger(dilation.env_state)
    rhs = Block(env_vars, init, body)
    return lhs, rhs


def _binary_guard_measurement(dim: int) -> Measurement:
    head = linalg.basis_ket(dim, 0)
    p0 = head @ linalg.dagger(head)
    return Measurement(((0, p0), (1, linalg.identity(dim) - p0)))


def unroll_loop(
    u,
    coin,
    n: int,
    flavor: str,
    *,
    qvars: tuple[QVar, ...] | None = None,
) -> Program:
    """Bounded iterations of the guarded loop over a body unitary.

    ``classical`` measures a fresh outcome variable per level (a binary
    head-versus-rest guard measurement on the loop register); ``quantum``
    tosses a fresh qubit coin per level and guards on it; ``localized``
    wraps the quantum form in a block that initialises all coins to zero.
    Fresh names carry a reserved prefix, so the loop register may not use it.
    """
    u = linalg.as_matrix(u)
    d = linalg.require_square(u)
    coin = linalg.as_matrix(coin)
    if coin.shape != (2, 2):
        raise ContractError(f"coin must be a 2x2 unitary, got shape {coin.shape}")
    if not linalg.is_unitary(u) or not linalg.is_unitary(coin):
        raise ContractError("loop body and coin must be unitary")
    if qvars is None:
        qvars = (("q", d),)
    layout = RegisterLayout(qvars)
    if layout.dim != d:
        raise LayoutError(f"loop variables have dimension {layout.dim}, body unitary {d}")
    for name, _ in qvars:
        if name.startswith(RESERVED_PREFIX):
            raise ContractError(f"variable {name!r} collides with the reserved prefix")
    if n < 0:
        raise ArityError("iteration count must be nonnegative")
    if n > MAX_UNROLL_DEFAULT:
        raise CapacityError(f"iteration count {n} exceeds the bound {MAX_UNROLL_DEFAULT}")
    if flavor not in ("classical", "quantum", "localized"):
        raise ContractError(f"unknown loop flavor {flavor!r}")

    if flavor == "classical":
        guard = _binary_guard_measurement(d)
        prog: Program = Abort()
        for level in range(1, n + 1):
            prog = Measure(
                f"{RESERVED_PREFIX}x{level}",
                qvars,
                guard,
                ((0, Skip()), (1, Seq(Unitary(qvars, u), prog))),
            )
        return prog

    prog = Abort()
    for level in range(1, n + 1):
        coin_var = ((f"{RESERVED_PREFIX}q{level}", 2),)
        prog = QChoice(
            Unitary(coin_var, coin),
            GuardBasis.computational(2),
            (Skip(), Seq(Unitary(qvars, u), prog)),
        )
    if flavor == "quantum" or n == 0:
        return prog
    coin_vars = tuple((f"{RESERVED_PREFIX}q{level}", 2) for level in range(1, n + 1))
    zeros = linalg.basis_ket(2**n, 0)
    return Block(coin_vars, zeros @ linalg.dagger(zeros), prog)
