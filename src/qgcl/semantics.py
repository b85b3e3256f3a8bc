"""Program semantics at two levels, each a fold of ``program.walk``.

The semi-classical denotation of a core program (``semi_classical``) is the
paper's operator-valued function over the program's classical states: one
operator per measurement-outcome path, guard branches combined by guarded
composition over the product of their domains.  The channel (``denote``)
builds each construct's Kraus family from its parts: a leaf's operator;
sequencing, measurement and probabilistic choice by composing the
sub-families; a block from its body's family by reshaping; a guard from its
branch functions, without their joint domain.  Both are tables of per-class
rules (``_SEMI``, ``_DENOTE``); a guard asks for no subprogram, as it reads
its branch functions (``_branches``), and a quantum choice asks for its
coin-then-guard ``QChoice.seq``.  A function is one stack built on rows by
position, its states labelled in that order, never hashed or sorted; a
family is one ``(K, d, d)`` array, composed and pruned in one numpy call
and held at ``d²`` operators or fewer.  A ``;`` chain is one node whose
parts compose right to left.

Every evaluator starts from the rules pass of ``program.rules``, raising:
the first violated side condition raises, with its code leading the
message, so the four entry points accept the same programs.  The trace
bound ``sum F† F <= I`` follows from the leaf contracts among those rules
and is not checked again.  A node keeps what only the program fixes, under
the rows of ``program.KEPT``; a fold meeting a node that keeps its
denotation reads it (``_kept``).

``apply_program`` and ``wp_apply`` never build the channel: ``stream``
pushes the state (or, backwards, the observable) through the program, each
operator acting on its own tensor factors in the form ``kernels`` gave it
once (``kernels.plan_sandwich``).  A guard is rotated into its basis, where
``X`` becomes ``C X C†`` with ``C = sum_i |i><i| (x) A_i``
(``kernels.control``), and each branch with more than one classical state
overwrites its diagonal block with its own evaluation.

Streaming is planned once and replayed.  A plan (``_plan``, the walk's rule
being ``_Planner.push``) is a flat list of steps over a small stack of
arrays, each a module-level function and the data it runs with, a kernel
step's data being what ``kernels`` decided from the arrays it met, so that
it makes only numpy calls; it is run as it is recorded.  The root keeps one
plan per direction, for the signature of the input it was built on: the
layout, the matrix's shape and strides, and ``max_dim``.  A call with that
signature replays it, one loop with no frame per nesting level, making the
same numpy calls on arrays of the same shapes and strides as the call that
built it, so with the same bits; a call with another builds a new plan in
its place.  A plan holds no array the size of a state.  Every call still
checks the program and its input.  Bounded loop unrolling and the
system-environment model of channels support the coin-relocation
equivalences."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import classical as cs
from . import kernels, linalg
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
    kraus_products,
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
    keep,
    kept,
    qvar_layout,
    rules,
    walk,
)
from .registers import DensityMatrix, Observable, RegisterLayout, check_cap, embed

RESERVED_PREFIX = "@"
MAX_UNROLL_DEFAULT = 6


def semi_classical(
    p: Program,
    *,
    tol: float = linalg.DEFAULT_TOL,
    max_dim: int = linalg.MAX_DIM_DEFAULT,
) -> OperatorValuedFunction:
    """Semi-classical denotation of a core program: an operator-valued
    function over the program's classical states and quantum layout.

    Defined for the measurement-and-guard core only; quantum choice is
    accepted through its sequential desugaring.  Blocks and probabilistic
    choices are rejected: their meaning exists only at the channel level.
    The trace bound ``sum F† F <= I`` holds as for ``denote``.  The
    function is kept on ``p``, as ``denote`` keeps the channel.
    """
    _check(p, tol, max_dim)
    return _kept(p, "_function", _semi, max_dim)


def _semi(p: Program, max_dim: int) -> OperatorValuedFunction:
    """Fold of a checked program into its function, by the rules of
    ``_SEMI``; a node that keeps its function gives it instead."""
    return walk(p, lambda q: _read(q, "_function") or _SEMI.get(type(q), _no_semi)(q, max_dim))


def _semi_leaf(p: Abort | Skip | Unitary, max_dim: int) -> OperatorValuedFunction:
    """One operator, of the empty state."""
    op = p.operator if isinstance(p, Unitary) else np.eye(1, dtype=complex) * isinstance(p, Skip)
    return OperatorValuedFunction._of(p.layout, op[None], (cs.EPS,))


def _semi_measure(p: Measure, max_dim: int):
    """Each branch after its outcome's operator (both sorted by outcome)."""
    full = p.layout
    states, stacks = [], []
    m_ops = embed(p.measurement.stack, p.own_layout, full, max_dim=max_dim)
    for m, m_op, (_, sub) in zip(p.measurement.outcomes, m_ops, p.branches):
        f = (yield sub).extended_to(full, max_dim=max_dim)
        states += [cs.extend(delta, p.x, m) for delta in f.states]
        stacks.append(f.stack @ m_op)
    return OperatorValuedFunction._of(full, np.concatenate(stacks), tuple(states))


def _semi_guard(p: Guarded, max_dim: int) -> OperatorValuedFunction:
    data = reduce(RegisterLayout.extended, (b.layout for b in p.branches), RegisterLayout())
    branch_fs = [f.extended_to(data, max_dim=max_dim) for f in _branches(p, max_dim)[0]]
    from .ovf import guarded_ovf

    combined = guarded_ovf(p.basis, branch_fs, p.own_layout, max_dim=max_dim)
    return combined.extended_to(p.layout, max_dim=max_dim)


def _chain(p: Seq, max_dim: int, then):
    """A chain's parts on its layout, composed right to left by ``then``."""
    out = None
    for q in p.parts[::-1]:
        first = (yield q).extended_to(p.layout, max_dim=max_dim)
        out = first if out is None else then(first, out)
    return out


def _no_semi(p: Program, max_dim: int):
    raise UnsupportedConstructError(
        f"{type(p).__name__} has no semi-classical denotation; evaluate it as a channel")


def _desugared(p: QChoice, max_dim: int):
    """A quantum choice is read through its coin-then-guard ``seq``."""
    return (yield p.seq)


_SEMI = {Abort: _semi_leaf, Skip: _semi_leaf, Unitary: _semi_leaf, Measure: _semi_measure,
         Guarded: _semi_guard, QChoice: _desugared,
         Seq: lambda p, max_dim: _chain(p, max_dim, lambda first, later: OperatorValuedFunction._of(
             p.layout, kraus_products(first.stack, later.stack),
             tuple(cs.state_set_product(first.states, later.states))))}


def denote(
    p: Program,
    *,
    tol: float = linalg.DEFAULT_TOL,
    max_dim: int = linalg.MAX_DIM_DEFAULT,
) -> SuperOperator:
    """Channel semantics of a program over its quantum-variable layout, as
    a Kraus family of at most ``d²`` operators composed node by node.

    A guarded command whose branches fall outside the core is rejected.
    The channel is trace-nonincreasing by construction, within about
    ``tol`` per leaf (``2 tol`` per guard basis): the leaf contracts bound
    each leaf's norm within ``tol`` and every construct preserves the bound.
    The channel is kept on ``p`` (``_kept``).
    """
    _check(p, tol, max_dim)
    return _kept(p, "_channel", _denote, max_dim)


def _denote(p: Program, max_dim: int) -> SuperOperator:
    """Fold of a checked program into its channel, by the rules of
    ``_DENOTE``: every family is pruned and held at ``d²`` operators or
    fewer (``_family``); a node that keeps its channel gives it instead."""
    return walk(p, lambda q: _read(q, "_channel") or _DENOTE[type(q)](q, max_dim))


def _kept(p: Program, key: str, fold, max_dim: int):
    """``fold(p, max_dim)``, ``p``'s channel (``_denote``) or function
    (``_semi``), kept on ``p`` under ``key`` with its stack read-only; each
    call gets a fresh wrapper (``_read``)."""
    if kept(p, key) is None:
        keep(p, key, fold(p, max_dim)).stack.flags.writeable = False
    return _read(p, key)


def _read(p: Program, key: str):
    """A fresh wrapper of the denotation ``p`` keeps under ``key``, or ``None``."""
    f = kept(p, key)
    return f if f is None else f._of(f.layout, f.stack, getattr(f, "states", None))


def _denote_branches(p: Measure | ProbChoice, max_dim: int):
    """Each branch after its measurement operator, or by its weight's root."""
    full = p.layout
    if isinstance(p, Measure):
        factors = embed(p.measurement.stack, p.own_layout, full, max_dim=max_dim)
    else:
        factors = [np.sqrt(w) for w in p.weights]
    parts = []
    for m, sub in zip(factors, children(p)):
        family = (yield sub).extended_to(full, max_dim=max_dim).stack
        parts.append(family @ m if isinstance(p, Measure) else family * m)
    return _family(full, np.concatenate(parts))


def _denote_leaf(p: Abort | Skip | Unitary, max_dim: int) -> SuperOperator:
    return to_superop(_semi_leaf(p, max_dim))


def _denote_block(p: Block, max_dim: int):
    return _block_family((yield p.body), p.own_layout, p.init)


_DENOTE = {
    Abort: _denote_leaf,
    Skip: _denote_leaf,
    Unitary: _denote_leaf,
    Guarded: lambda p, max_dim: _family(p.layout, _guard_family(p, max_dim)),
    QChoice: _desugared,
    Block: _denote_block,
    Seq: lambda p, max_dim: _chain(
        p, max_dim, lambda first, later: _family(p.layout, first.then(later).stack)),
    Measure: _denote_branches,
    ProbChoice: _denote_branches,
}


def _guard_family(p: Guarded, max_dim: int) -> np.ndarray:
    """With ``P_i`` the guard's basis projectors and branch ``i``'s function
    ``F_i``, weights ``λ_i`` and ``A_i = sum_d λ_i(d) F_i(d)``: the family
    ``sum_i P_i (x) A_i`` and every nonzero ``P_i (x) (F_i(d) - λ_i(d) A_i)``.
    A branch's operators are lifted by ``P_i`` and embedded as one stack.

    It induces ``guarded_ovf``'s channel: as ``sum_d λ_i(d)² = 1``, that
    function's Choi matrix is ``sum_ij vec(P_i (x) A_i) vec(P_j (x) A_j)†``
    plus ``P_i (x) (Choi(F_i) - vec A_i vec A_i†)`` per branch, which the
    deviations give exactly, since ``I - λ_i λ_i†`` is a projector."""
    fns, a_s = _branches(p, max_dim)
    tops, rest = [], []
    for i, (f, a) in enumerate(zip(fns, a_s)):
        col = p.basis.column(i)
        proj, lay = col @ linalg.dagger(col), p.own_layout.extended(f.layout)
        w = lambda_weights(f)[:, None, None]
        ops = np.concatenate([a[None], prune_zero_kraus(f.stack - w * a)])
        lifted = embed(linalg.tensor(proj, ops, max_dim=max_dim), lay, p.layout, max_dim=max_dim)
        tops.append(lifted[0])
        rest.append(lifted[1:])
    return np.concatenate([sum(tops)[None], *rest])


def _branches(p: Guarded, max_dim: int) -> tuple:
    """Each branch's function ``F_i``, kept on the branch node (``_kept``),
    and ``A_i = sum_d λ_i(d) F_i(d)``, kept on the guard."""
    fns = [_kept(b, "_function", _semi, max_dim) for b in p.branches]
    return fns, kept(p, "_branches") or keep(p, "_branches", [
        np.einsum("k,kij->ij", lambda_weights(f), f.stack) for f in fns])


def _control(p: Guarded, max_dim: int) -> tuple:
    """``C = sum_i |i><i| (x) A_i`` in the guard's basis as ``kernels.control``
    forms it, and the branches whose function has more than one classical
    state; worked out when the guard is first streamed, and kept on it."""
    if kept(p, "_control") is None:
        fns, a_s = _branches(p, max_dim)
        data = RegisterLayout(p.layout.variables[len(p.own_layout.names):])
        keep(p, "_control", (kernels.control([(a, f.layout) for f, a in zip(fns, a_s)], data),
                             [i for i, f in enumerate(fns) if len(f.states) > 1]))
    return kept(p, "_control")


def _family(layout: RegisterLayout, ops: np.ndarray) -> SuperOperator:
    """The channel of the ``(K, d, d)`` stack ``ops``: zero operators
    pruned, and a family longer than ``d²`` reduced to the Choi rank with no
    tolerance cut (``linalg.reduce_kraus``), so no verdict can move."""
    ops = prune_zero_kraus(ops)
    if len(ops) > layout.dim**2:
        ops = prune_zero_kraus(linalg.reduce_kraus(ops, layout.dim, 0.0))
    return SuperOperator._of(layout, ops)


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
    enforce(block_rules(locals_layout.variables, init, inner.layout, tol))
    return _block_family(inner, locals_layout, init)


def _block_family(inner: SuperOperator, locals_layout: RegisterLayout, init) -> SuperOperator:
    """``block_channel`` of a block whose rules hold, without checking them."""
    full = inner.layout
    outer = locals_layout.extended(full).remove(locals_layout.names)  # locals' dimensions agree
    vals, vecs = np.linalg.eigh((init + linalg.dagger(init)) / 2)
    nonzero = vals > 1e-12
    cols = vecs[:, nonzero] * np.sqrt(vals[nonzero])
    locals_last = RegisterLayout(outer.variables + locals_layout.variables)
    d_out, d_loc = outer.dim, locals_layout.dim
    body = embed(inner.stack, full, locals_last, max_dim=full.dim)
    ops = np.einsum("naibj,jk->kniab", body.reshape(-1, d_out, d_loc, d_out, d_loc), cols)
    return _family(outer, ops.reshape(-1, d_out, d_out))


def apply_program(
    p: Program,
    rho: DensityMatrix,
    *,
    tol: float = linalg.DEFAULT_TOL,
    max_dim: int = linalg.MAX_DIM_DEFAULT,
) -> DensityMatrix:
    """Evaluate a program on an input state given over at least its variables."""
    return DensityMatrix(_stream(p, rho, False, tol, max_dim), rho.layout)


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
    operator acts on its own factors of ``x``.  ``x`` is checked first, as
    its typed value's constructor checks the input of ``apply_program`` and
    ``wp_apply``; then the program, and ``x``'s layout, before ``x`` is
    touched.  No ``wp(I) <= I`` pass is made: the trace bound follows from
    the leaf contracts, each checked on the leaf's own operator, its norm
    within ``tol`` (as for ``denote``).
    """
    return _stream(p, (Observable if adjoint else DensityMatrix)(x, layout), adjoint, tol, max_dim)


def _stream(p: Program, x: DensityMatrix | Observable, adjoint: bool, tol: float,
            max_dim: int) -> np.ndarray:
    """``stream`` of a typed value, whose matrix its constructor checked,
    into an array that is not that matrix: the root's plan for the input's
    signature and the direction replayed, or, on a miss, a new one built
    (``_plan``) in its place."""
    layout, m = x.layout, x.matrix
    _check(p, tol, max_dim)
    _check_input(p.layout, layout, adjoint)
    if layout.variables != p.layout.variables:
        check_cap(layout.dim, max_dim)
    t = m.reshape(layout.dims * 2)
    key = (layout.variables, m.shape, m.strides, max_dim)
    plans = keep(p, "_plan", [None, None])
    if plans[adjoint] is not None and plans[adjoint][0] == key:
        out = _replay(plans[adjoint][1], [t])
    else:
        steps, out = _plan(p, t, layout.names, adjoint, max_dim)
        plans[adjoint] = key, steps
    out = out.reshape(layout.dim, layout.dim)
    return out.copy() if np.may_share_memory(out, m) else out


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


def _check(p: Program, tol: float, max_dim: int) -> None:
    """The one checked pass: ``program.rules`` raising, bottom-up; a node
    that passed at ``(tol, max_dim)`` is not walked again."""
    walk(p, lambda q: rules(q, tol, max_dim))


# A streamed call's arrays are one list, a stack whose top is the matrix
# being pushed.  How a plan's step ``(f, args, how)`` meets it: ``f(x,
# *args)`` maps the top matrix ``x`` to the one replacing it (``_TOP``) or
# to one pushed above it (``_ABOVE``), or ``f(s, *args)`` moves arrays on
# the stack ``s`` itself (``_STACK``).  Every ``f`` is a module-level
# function, and ``args`` data only.
_TOP, _ABOVE, _STACK = range(3)


def _replay(steps: list, s: list) -> np.ndarray:
    """A plan's steps run on the stack ``s``, one flat loop: no frame per
    nesting level."""
    for f, args, how in steps:
        if how == _TOP:
            s[-1] = f(s[-1], *args)
        elif how == _ABOVE:
            s.append(f(s[-1], *args))
        else:
            f(s, *args)
    return s[0]


def _plan(p: Program, t: np.ndarray, names: tuple[str, ...], adjoint: bool,
          max_dim: int) -> tuple[list, np.ndarray]:
    """The steps that push ``t``, a matrix on ``names`` shaped ``dims +
    dims``, through the program (with ``adjoint``, its dual), and their
    result: the program walked once, each step decided from the arrays it
    meets (``kernels.plan_sandwich``, ``plan_control``) and run as it is
    recorded."""
    planner = _Planner([t], [], adjoint, max_dim)
    walk((p, names), planner.push)
    return planner.steps, planner.stack[0]


# The steps that move arrays on the stack of a call.
def _again(s):
    """The matrix under the sum, again, for the next branch."""
    s.append(s[-2])


def _add(s):
    """A branch's result added to the sum under it."""
    r = s.pop()
    s[-1] += r


def _close(s):
    """The result replaces the matrix it was computed from."""
    out = s.pop()
    s[-1] = out


def _weighted(s, w: float):
    """A branch's result, weighted by ``w``, added to the sum under it."""
    r = s.pop()
    s[-1] += w * r


def _slice(s, at: tuple):
    """Block ``at`` of the matrix under the guard's output, pushed."""
    s.append(s[-2][at])


def _put(s, at: tuple):
    """A branch's result written over block ``at`` of the guard's output."""
    r = s.pop()
    s[-1][at] = r


def _over_cap(s, p: Block, names: tuple[str, ...], adjoint: bool, max_dim: int):
    """A block whose state with its locals would exceed ``max_dim``: applied
    through its dense Kraus family on its own layout (``_kept``)."""
    t = s[-1]
    out = np.zeros_like(t)
    for k in _kept(p, "_channel", _denote, max_dim).stack:
        out += kernels.sandwich(t, names, kernels.side(k, adjoint), p.layout.names)
    s[-1] = out


# The steps that map the top matrix.
def _extend(t, d: int, other: np.ndarray, shape: tuple):
    """A block's state with its locals: ``X (x) other``, ``other`` viewed as
    ``(1, dl, 1, dl)``, each entry one product, as ``np.kron`` forms it,
    without its per-call bookkeeping."""
    return np.multiply(t.reshape(d, 1, d, 1), other).reshape(shape)


def _trace_out(t, d: int, dl: int, init: np.ndarray | None, shape: tuple):
    """A block's locals traced out (forward), or the adjoint's ``init`` contracted."""
    x = t.reshape(d, dl, d, dl)
    out = np.einsum("aibi->ab", x) if init is None else np.einsum("aibj,ji->ab", x, init)
    return out.reshape(shape)


@dataclass
class _Planner:
    """One plan being built: the walk's rule (``push``) records each step
    and runs it on ``stack``, as a replay will."""

    stack: list
    steps: list
    adjoint: bool
    max_dim: int

    def do(self, f, args: tuple = (), how: int = _STACK) -> None:
        """Records the step ``(f, args, how)`` and runs it (``_replay``)."""
        self.steps.append((f, args, how))
        _replay(self.steps[-1:], self.stack)

    def kernel(self, planned: tuple, how: int = _TOP) -> None:
        """Records a kernel's ``(steps, result)``, planned on the top matrix
        and run there: the result replaces it, or (``_ABOVE``) goes above
        it, the first step pushing and the rest mapping what it pushed."""
        steps, out = planned
        if how == _ABOVE:
            self.stack.append(out)
        else:
            self.stack[-1] = out
        for f, args in steps:
            self.steps.append((f, args, how))
            how = _TOP

    def push(self, p: Program, names: tuple[str, ...]):
        """The rule for ``walk``: the top matrix, on ``names`` shaped ``dims
        + dims``, through the channel, or with ``adjoint`` its dual."""
        if isinstance(p, Abort):
            self.do(np.zeros_like, (), _TOP)
        elif isinstance(p, Unitary):
            self.kernel(kernels.plan_sandwich(self.stack[-1], names, p.kernel, p.own_layout.names,
                                              self.adjoint))
        elif isinstance(p, QChoice):
            return self.push(p.seq, names)
        elif not isinstance(p, Skip):
            return _PUSH[type(p)](self, p, names)
        return None

    def _seq(self, p: Seq, names):
        for sub in p.parts[::-1] if self.adjoint else p.parts:
            yield sub, names

    def _measure(self, p: Measure, names):
        site = p.own_layout.names
        self.do(np.zeros_like, (), _ABOVE)  # the sum the branches' results are added to
        for op, (_, sub) in zip(p.measurement.kernels, p.branches):
            self.do(_again)
            if self.adjoint:
                yield sub, names
            self.kernel(kernels.plan_sandwich(self.stack[-1], names, op, site, self.adjoint))
            if not self.adjoint:
                yield sub, names
            self.do(_add)
        self.do(_close)

    def _choice(self, p: ProbChoice, names):
        self.do(np.zeros_like, (), _ABOVE)
        for w, sub in zip(p.weights, p.branches):
            self.do(_again)
            yield sub, names
            self.do(_weighted, (w,))
        self.do(_close)

    def _block(self, p: Block, names):
        """Forward: ``tr_loc[body(X (x) init)]``; adjoint:
        ``tr_loc[wp_body(M (x) I_loc) (I (x) init)]``."""
        shape, local = self.stack[-1].shape, p.own_layout
        d, dl = int(np.prod(shape[: len(names)])), local.dim
        if d * dl > self.max_dim:
            self.do(_over_cap, (p, names, self.adjoint, self.max_dim))
            return
        # A local shadows any variable of the same name outside the block.
        outer = tuple(_fresh_name(n + "'", set(names) | set(local.names)) if n in local else n
                      for n in names)
        other = linalg.identity(dl) if self.adjoint else p.init
        self.do(_extend, (d, other[None, :, None, :], (shape[: len(names)] + local.dims) * 2),
                _TOP)
        yield p.body, outer + local.names
        self.do(_trace_out, (d, dl, p.init if self.adjoint else None, shape), _TOP)

    def _guard(self, p: Guarded, names):
        """In the guard's basis, ``X`` becomes ``C X C†`` (with ``C†`` first
        for the adjoint): block ``(i, j)`` is ``A_i X_ij A_j†``, as the square
        branch weights sum to one, so the guarded composition never needs its
        joint domain.  A branch of one classical state has weight exactly 1,
        so that is its own diagonal block too; any other branch's diagonal
        block is overwritten by its own evaluation of ``X_ii``.  How ``C``
        is multiplied is ``kernels``' decision (``_control``)."""
        gnames = p.own_layout.names
        rotate = not p.basis.is_computational
        if rotate:
            self.kernel(kernels.plan_sandwich(self.stack[-1], names, p.basis.kernel, gnames, True))
        c, measuring = _control(p, self.max_dim)
        shape = self.stack[-1].shape
        self.kernel(kernels.plan_control(c, self.stack[-1], names, p.layout.names, len(gnames),
                                         self.adjoint), _ABOVE if measuring else _TOP)
        if measuring:
            n = len(names)
            gpos = [names.index(g) for g in gnames]
            rest = tuple(v for v in names if v not in gnames)
            for i in measuring:
                at = [slice(None)] * (2 * n)
                for a, r in zip(gpos, np.unravel_index(i, [shape[a] for a in gpos])):
                    at[a] = at[n + a] = r
                at = tuple(at)
                self.do(_slice, (at,))
                yield p.branches[i], rest
                self.do(_put, (at,))
            self.do(_close)  # drops the rotated input before the rotation back allocates
        if rotate:
            self.kernel(kernels.plan_sandwich(self.stack[-1], names, p.basis.kernel, gnames))


_PUSH = {Seq: _Planner._seq, Measure: _Planner._measure, ProbChoice: _Planner._choice,
         Block: _Planner._block, Guarded: _Planner._guard}


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
    ops = prune_zero_kraus(e.stack)
    if len(ops) > d * d:
        ops = linalg.reduce_kraus(ops, d, tol)
    gram = linalg.gram(ops, d)
    if not linalg.loewner_leq(gram, linalg.identity(d), tol):
        raise ContractError("dilation needs a trace-nonincreasing channel")
    n_kept = len(ops)
    defect = linalg.identity(d) - gram
    if linalg.max_abs_diff(defect, np.zeros_like(defect)) > tol:
        ops = np.concatenate([ops, linalg.psd_sqrt(defect, tol)[None]])
    m = len(ops)
    if d * m > max_dim:
        raise CapacityError(f"dilated dimension {d * m} exceeds the cap {max_dim}")
    if m == 1:
        projector = linalg.identity(d) if n_kept == 1 else np.zeros((d, d), dtype=complex)
        return DilationModel(RegisterLayout(), np.ones((1, 1), complex), ops[0], projector, n_kept)
    isometry = ops.transpose(1, 0, 2).reshape(d * m, d)  # row s*m + j: row s of ops[j]
    q, _ = np.linalg.qr(isometry, mode="complete")
    # column s*m is the isometry's column s, columns s*m + 1 .. s*m + m-1 spare ones
    spare = q[:, d:].reshape(d * m, d, m - 1)
    unitary = np.concatenate([isometry[:, :, None], spare], axis=2).reshape(d * m, d * m)
    if not linalg.is_unitary(unitary, 1e-8):
        raise ContractError("dilation unitary completion failed")
    projector = np.kron(linalg.identity(d), np.diag(np.arange(m) < n_kept).astype(complex))
    return DilationModel(RegisterLayout.of((env_name, m)), linalg.basis_ket(m, 0), unitary,
                         projector, n_kept)


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
    A coin with one Kraus operator dilates with no environment, so its
    right-hand side is the guard and the unitary, with no block.
    A discarded branch runs its program before the abort, so both sides
    range over the same quantum variables; a chain runs under a guard on no
    variables (one basis state: the guard is its branch), so that ``Seq``
    keeps it one node.  The right-hand guard is built over the left-hand
    side's branch nodes, so it reads the functions they keep (``_branches``).
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
    env_vars = tuple(dilation.env_layout.variables)
    joint_vars = coin_vars + env_vars
    lifted = linalg.dagger(dilation.unitary) @ np.kron(basis.matrix, linalg.identity(m))
    one = GuardBasis.computational(1)
    aborted = [Seq(Guarded((), one, (b,)) if isinstance(b, Seq) else b, Abort()) for b in branches]
    rhs_branches = tuple(b if j < dilation.kept else a for b, a in zip(branches, aborted)
                         for j in range(m))
    body = Seq(Guarded(joint_vars, GuardBasis(lifted), rhs_branches),
               Unitary(joint_vars, dilation.unitary))
    if not env_vars:  # a one-operator coin: no environment, so no block
        return lhs, body
    return lhs, Block(env_vars, dilation.env_state @ linalg.dagger(dilation.env_state), body)


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
