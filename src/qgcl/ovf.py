"""Operator-valued functions, super-operators and their guarded compositions.

An operator-valued function maps classical-state labels to operators with
``sum F(d)† F(d) <= I``; it is *full* when the sum is the identity.  Guarded
composition combines one such function per guard state into a function on the
joint data-plus-guard space, weighting each branch by the other branches'
normalised trace weights.  A guarded unitary is its one-state case: each
branch function holds one unitary, of weight 1, so ``guarded_unitary`` is
``guarded_ovf``'s single operator.  A function induces a channel by using its
operators as a Kraus family; guard composition of channels goes through
representative functions because the channel-level composition is set-valued.

A function and a channel are one representation, ``KrausStack``: a layout
and one ``(K, d, d)`` array, ``stack``, so extension, composition and
pruning run once per family.  A function's ``states`` label its rows in the
order it was built; evaluation reads rows by position and never hashes a
state.  ``F(d)``, ``weight``, ``lambda_weight``, ``table`` and
``sorted_states`` are per-state reads for callers; a channel's ``kraus`` is
a tuple of views into its stack.  The public constructors check every
operator; what the package builds from checked ones goes through the
trusted ``KrausStack._of``, which checks nothing.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import InitVar, dataclass
from functools import cached_property, reduce

import numpy as np

from . import classical as cs
from . import linalg
from .errors import ArityError, ContractError, LayoutError
from .program import GuardBasis
from .registers import RegisterLayout, check_cap, embed


class KrausStack:
    """A layout and one ``(K, d, d)`` stack of operators on it: what a
    function and a channel share.  ``kind`` names the family in messages."""

    kind: str
    layout: RegisterLayout
    stack: np.ndarray

    def _checked(self, ops) -> np.ndarray:
        """The constructor check: every operator a finite complex ``d x d``
        matrix, returned as one ``(K, d, d)`` stack."""
        d = self.layout.dim
        checked = []
        for op in ops:
            op = linalg.as_matrix(op)
            if op.shape != (d, d):
                raise LayoutError(f"{self.kind} operator shape {op.shape} does not match "
                                  f"layout dim {d}")
            checked.append(op)
        return np.array(checked, dtype=complex).reshape(len(checked), d, d)

    @classmethod
    def _of(cls, layout: RegisterLayout, stack: np.ndarray, states: tuple | None = None):
        """The family of a ``(K, d, d)`` complex ``stack`` built from checked
        operators, with a function's ``states`` labelling its rows; nothing
        is checked again."""
        f = object.__new__(cls)
        f.layout, f.stack = layout, stack
        if states is not None:
            f.states = states
        return f

    def gram_sum(self) -> np.ndarray:
        """``sum_k F_k† F_k``."""
        return linalg.gram(self.stack, self.layout.dim)

    def validate(self, tol: float = linalg.DEFAULT_TOL):
        if not linalg.loewner_leq(self.gram_sum(), linalg.identity(self.layout.dim), tol):
            raise ContractError(f"{self.kind} is not trace-nonincreasing")
        return self

    def extended_to(self, full: RegisterLayout, *, max_dim: int = linalg.MAX_DIM_DEFAULT):
        """Cylindrical extension (and factor reorder) into ``full``; a
        function keeps its states."""
        if full.variables == self.layout.variables:
            return self
        out = copy.copy(self)
        out.layout, out.stack = full, embed(self.stack, self.layout, full, max_dim=max_dim)
        return out


@dataclass(eq=False)
class OperatorValuedFunction(KrausStack):
    """Finite map from classical states to square operators on one layout:
    row ``k`` of ``stack`` is the operator of ``states[k]``."""

    kind = "operator-valued function"
    layout: RegisterLayout
    table: InitVar[dict]

    def __post_init__(self, table):
        self.stack = self._checked(table.values())
        self.states = tuple(table)
        if not self.states:
            raise ArityError("operator-valued function needs a nonempty domain")

    def sorted_states(self) -> list[cs.ClassicalState]:
        return sorted(self.states, key=cs.sort_key)

    @cached_property
    def _rows(self) -> dict:
        return {d: k for k, d in enumerate(self.states)}

    def row(self, state: cs.ClassicalState) -> int:
        """The row of ``state`` in ``stack``, from an index built on the first call."""
        if (k := self._rows.get(state)) is None:
            raise KeyError(f"state {cs.render(state)} not in the function's domain")
        return k

    def __call__(self, state: cs.ClassicalState) -> np.ndarray:
        return self.stack[self.row(state)]

    def trace_weights(self) -> np.ndarray:
        """``tr F(d)† F(d)`` for every state, aligned with ``states``."""
        rows = self.stack.reshape(len(self.stack), 1, -1)
        return (rows.conj() @ rows.transpose(0, 2, 1)).real.ravel()

    def weight(self, state: cs.ClassicalState) -> float:
        """``tr F(d)† F(d)`` for one state."""
        op = self(state)
        return float(np.vdot(op, op).real)

    def is_full(self, tol: float = linalg.DEFAULT_TOL) -> bool:
        return linalg.max_abs_diff(self.gram_sum(), linalg.identity(self.layout.dim)) <= tol

    def dagger(self) -> "OperatorValuedFunction":
        return self._of(self.layout, self.stack.conj().transpose(0, 2, 1), self.states)


# Set after the class, so that the dataclass does not take it for the
# default of the ``table`` parameter.
OperatorValuedFunction.table = property(
    lambda f: dict(zip(f.states, f.stack)), doc="The function as a dict from states to operators.")


THEN_HOLD = 2  # ``SuperOperator.then`` holds about this many times d² products at once


@dataclass(eq=False)
class SuperOperator(KrausStack):
    """A completely positive map given by a Kraus family over a layout.

    Channels produced by program semantics are trace-nonincreasing; weakest
    preconditions reuse this container with the adjoint family, which instead
    satisfies ``sum E E† <= I``, so the bound is the producers' concern
    (program semantics gets it from the leaf contracts), not checked here.
    """

    kind = "Kraus family"
    layout: RegisterLayout
    kraus: InitVar[tuple[np.ndarray, ...]]

    def __post_init__(self, kraus):
        self.stack = self._checked(kraus)

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        return apply_kraus(self.stack, rho, self.layout.dim)

    def choi(self) -> np.ndarray:
        return linalg.choi(self.stack, dim=self.layout.dim)

    def then(self, later: "SuperOperator") -> "SuperOperator":
        """Sequential composition: this channel first, then ``later``, which
        must act on the same variables (in any factor order; it is put in
        this channel's).

        The products ``B_j A_i`` come in ``i``-major order, formed for as
        many rows of ``A`` at once as fit in ``THEN_HOLD d²`` beside the
        family held so far.  When not even one more row fits, the held
        family is first reduced to its Choi rank with no tolerance cut
        (``linalg.reduce_kraus(..., 0.0)``).  Up to ``THEN_HOLD d²``
        products that is one batch and no reduction.
        """
        if later.layout.variables != self.layout.variables:
            if not later.layout.same_variables(self.layout):
                raise LayoutError(
                    f"composed channels act on different variables ({list(self.layout.variables)}"
                    f" vs {list(later.layout.variables)})"
                )
            later = later.extended_to(self.layout)
        a, b, d = self.stack, later.stack, self.layout.dim
        hold, width = int(THEN_HOLD * d * d), max(1, len(b))
        held, i = a[:0], 0
        while i < len(a):
            if len(held) and len(held) + width > hold:
                held = linalg.reduce_kraus(held, d, 0.0)
            rows = max(1, (hold - len(held)) // width)
            part = prune_zero_kraus(kraus_products(a[i:i + rows], b))
            held = np.concatenate([held, part]) if len(held) else part
            i += rows
        return SuperOperator._of(self.layout, held)


# Set after the class, as ``OperatorValuedFunction.table`` is.
SuperOperator.kraus = property(
    lambda e: tuple(e.stack), doc="The Kraus operators, as views into ``stack``.")


def kraus_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``B_j A_i`` for every ``i`` and, within it, every ``j``, as one
    ``(|A| |B|, d, d)`` stack from the stacks ``a`` and ``b``."""
    return (b[None] @ a[:, None]).reshape(-1, *a.shape[1:])


def apply_kraus(kraus, rho, dim: int | None = None) -> np.ndarray:
    rho = linalg.as_matrix(rho)
    d = linalg.require_square(rho)
    if dim is not None and d != dim:
        raise LayoutError(f"state dimension {d} does not match channel dimension {dim}")
    out = np.zeros_like(rho)
    for op in kraus:
        out += op @ rho @ linalg.dagger(op)
    return out


PRUNE_BLOCK_BYTES = 1 << 20  # the moduli of one chunk of operators, 1 MB


def prune_zero_kraus(ops: np.ndarray) -> np.ndarray:
    """Drop the numerically zero operators (no entry above 1e-14) of a
    ``(K, d, d)`` stack; the channel is unchanged.  The moduli are taken a
    chunk of operators at a time, so besides the result only about
    ``PRUNE_BLOCK_BYTES`` is held, not a float copy of the stack."""
    step = max(1, PRUNE_BLOCK_BYTES // (8 * ops.shape[1] * ops.shape[2]))
    keep = np.empty(len(ops), dtype=bool)
    for i in range(0, len(ops), step):
        keep[i:i + step] = np.abs(ops[i:i + step]).max(axis=(1, 2)) > 1e-14
    return ops if keep.all() else ops[keep]


def lambda_weights(f: OperatorValuedFunction) -> np.ndarray:
    """Branch weight of every classical state inside its function, by row.

    The square weights sum to one over the function's domain.  For the
    all-zero function the weights are uniform, which keeps the sum rule and
    makes aborted branches transparent to the other branches of a guard.
    """
    weights = f.trace_weights()
    total = sum(weights.tolist())  # in row order, one term at a time
    if total <= 1e-300:
        return np.full(len(weights), 1.0 / np.sqrt(len(weights)))
    return np.sqrt(weights / total)


def lambda_weight(f: OperatorValuedFunction, state: cs.ClassicalState) -> float:
    """Branch weight of one classical state inside its function."""
    return float(lambda_weights(f)[f.row(state)])


def guarded_unitary(
    basis: GuardBasis,
    unitaries,
    data_layout: RegisterLayout,
    guard_layout: RegisterLayout,
    *,
    tol: float = linalg.DEFAULT_TOL,
    max_dim: int = linalg.MAX_DIM_DEFAULT,
) -> np.ndarray:
    """Combine unitaries along guard states: ``U(|psi>|i>) = (U_i |psi>)|i>``.

    Guard factors sit after the data factors.  The result is unitary on the
    joint space: the one operator of ``guarded_ovf`` over the one-state
    functions ``{ε: U_i}``, whose weights are all exactly 1.
    """
    unitaries = [linalg.as_matrix(u) for u in unitaries]
    if len(unitaries) != basis.arity:
        raise ArityError(f"{basis.arity} guard states but {len(unitaries)} unitaries")
    d = data_layout.dim
    for u in unitaries:
        if u.shape != (d, d):
            raise ContractError(f"expected {d}x{d} operators on the data space, got {u.shape}")
        if not linalg.is_unitary(u, tol):
            raise ContractError("guarded composition of unitaries needs unitary inputs")
    fs = [OperatorValuedFunction._of(data_layout, u[None], (cs.EPS,)) for u in unitaries]
    return guarded_ovf(basis, fs, guard_layout, max_dim=max_dim).stack[0]


def guarded_ovf(
    basis: GuardBasis,
    functions: list[OperatorValuedFunction],
    guard_layout: RegisterLayout,
    *,
    max_dim: int = linalg.MAX_DIM_DEFAULT,
) -> OperatorValuedFunction:
    """Guarded composition of operator-valued functions.

    All functions must already live on one common data layout.  The combined
    domain is the set of superposition labels over the branch domains, one
    row per combination of branch rows in ``itertools.product`` order; each
    component scales a branch operator by the product of the *other*
    branches' weights.  Fullness is preserved when every input is full, and
    the trace bound when every input satisfies it, so the result is not
    re-checked.
    """
    if len(functions) != basis.arity:
        raise ArityError(f"{basis.arity} guard states but {len(functions)} functions")
    if basis.dim != guard_layout.dim:
        raise LayoutError(
            f"guard basis dimension {basis.dim} does not match guard layout {guard_layout.dim}"
        )
    data_layout = functions[0].layout
    for f in functions:
        if f.layout.variables != data_layout.variables:
            raise ContractError(
                "guarded composition needs functions on a single common layout; "
                "extend them cylindrically first"
            )
    joint = RegisterLayout(tuple(data_layout.variables) + tuple(guard_layout.variables))
    check_cap(joint.dim, max_dim)
    projs = [basis.column(i) @ linalg.dagger(basis.column(i)) for i in range(basis.arity)]
    states = tuple(map(cs.oplus, itertools.product(*(f.states for f in functions))))
    return OperatorValuedFunction._of(joint, _mesh(functions, projs, joint.dim, max_dim), states)


def _mesh(functions: list[OperatorValuedFunction], projs: list[np.ndarray], dim: int,
          max_dim: int) -> np.ndarray:
    """``guarded_ovf``'s stack, one row per combination of branch rows.  One
    axis per branch: branch i's weights and operators vary along axis i, and
    its component is scaled by every other branch's weight.  A function of
    one classical state has weight exactly 1, so where every other branch
    has one, the component is added unscaled, with the same bits."""
    mesh = np.ix_(*[lambda_weights(f) for f in functions])
    out = np.zeros(tuple(len(f.states) for f in functions) + (dim, dim), dtype=complex)
    for i, (f, proj) in enumerate(zip(functions, projs)):
        lifted = linalg.tensor(f.stack, proj, max_dim=max_dim)
        lifted = lifted.reshape(mesh[i].shape + lifted.shape[1:])
        if out.size // (dim * dim) == len(f.states):  # every other branch has one state
            out += lifted
        else:
            coeff = reduce(np.multiply, mesh[:i] + mesh[i + 1:], np.ones((1,) * len(mesh)))
            out += coeff[..., None, None] * lifted
    return out.reshape(-1, dim, dim)


def to_superop(f: OperatorValuedFunction) -> SuperOperator:
    """Channel induced by a function: its operators as the Kraus family.

    Zero operators index aborted branches; they contribute nothing to the
    channel and are dropped, so the all-zero function induces the zero
    channel with an empty family.
    """
    return SuperOperator._of(f.layout, prune_zero_kraus(f.stack))


def indexed_ovf(
    layout: RegisterLayout, operators, label: str
) -> OperatorValuedFunction:
    """Wrap a raw operator family as a function over synthetic index labels."""
    ops = list(operators) or [np.zeros((layout.dim, layout.dim), dtype=complex)]
    return OperatorValuedFunction(layout, {cs.bind(label, i): op for i, op in enumerate(ops)})


def guarded_superop_member(
    basis: GuardBasis,
    channels: list[SuperOperator],
    guard_layout: RegisterLayout,
    reps: list[OperatorValuedFunction] | None = None,
    *,
    tol: float = linalg.DEFAULT_TOL,
    max_dim: int = linalg.MAX_DIM_DEFAULT,
) -> SuperOperator:
    """One member of the set-valued guarded composition of channels.

    Each channel contributes through a representative operator-valued
    function; different representatives may yield genuinely different members
    (they can differ by relative phases between branches).  When ``reps`` is
    omitted each channel's stored Kraus family is used.
    """
    if len(channels) != basis.arity:
        raise ArityError(f"{basis.arity} guard states but {len(channels)} channels")
    if not channels:
        raise ArityError("guarded composition needs at least one channel")
    data_layout = channels[0].layout
    for e in channels:
        if e.layout.variables != data_layout.variables:
            raise ContractError("guarded composition needs channels on one common layout")
    if reps is None:
        reps = [indexed_ovf(data_layout, e.stack, f"@k{i}") for i, e in enumerate(channels)]
    else:
        if len(reps) != len(channels):
            raise ArityError(f"{len(channels)} channels but {len(reps)} representatives")
        for i, (rep, e) in enumerate(zip(reps, channels)):
            if rep.layout.variables != data_layout.variables:
                raise ContractError(f"representative {i} lives on a different layout")
            diff = linalg.choi_stack_diff(to_superop(rep).stack, e.stack)
            if diff > tol:
                raise ContractError(
                    f"representative {i} does not induce its channel (Choi deviation {diff:.3e})"
                )
    return to_superop(guarded_ovf(basis, list(reps), guard_layout, max_dim=max_dim))
