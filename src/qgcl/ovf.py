"""Operator-valued functions, super-operators and their guarded compositions.

An operator-valued function maps classical-state labels to operators with
``sum F(d)† F(d) <= I``; it is *full* when the sum is the identity.  Guarded
composition combines one such function per guard state into a function on the
joint data-plus-guard space, weighting each branch by the other branches'
normalised trace weights.  A function induces a channel by using its operators
as a Kraus family; guard composition of channels goes through representative
functions because the channel-level composition is set-valued.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import classical as cs
from . import linalg
from .errors import ArityError, ContractError, LayoutError
from .program import GuardBasis
from .registers import RegisterLayout, embed


@dataclass(eq=False)
class OperatorValuedFunction:
    """Finite map from classical states to square operators on one layout."""

    layout: RegisterLayout
    table: dict[cs.ClassicalState, np.ndarray]

    def __post_init__(self):
        fixed: dict[cs.ClassicalState, np.ndarray] = {}
        for state, op in self.table.items():
            op = linalg.as_matrix(op)
            if op.shape != (self.layout.dim, self.layout.dim):
                raise LayoutError(
                    f"operator shape {op.shape} does not match layout dim {self.layout.dim}"
                )
            fixed[state] = op
        if not fixed:
            raise ArityError("operator-valued function needs a nonempty domain")
        self.table = fixed

    @property
    def states(self) -> tuple[cs.ClassicalState, ...]:
        return tuple(self.table.keys())

    def sorted_states(self) -> list[cs.ClassicalState]:
        return sorted(self.table.keys(), key=cs.sort_key)

    def __call__(self, state: cs.ClassicalState) -> np.ndarray:
        try:
            return self.table[state]
        except KeyError:
            raise KeyError(f"state {cs.render(state)} not in the function's domain") from None

    def gram_sum(self) -> np.ndarray:
        """``sum_d F(d)† F(d)``."""
        out = np.zeros((self.layout.dim, self.layout.dim), dtype=complex)
        for op in self.table.values():
            out += linalg.dagger(op) @ op
        return out

    def validate(self, tol: float = linalg.DEFAULT_TOL) -> "OperatorValuedFunction":
        if not linalg.loewner_leq(self.gram_sum(), linalg.identity(self.layout.dim), tol):
            raise ContractError("operator-valued function exceeds the identity")
        return self

    def is_full(self, tol: float = linalg.DEFAULT_TOL) -> bool:
        return linalg.max_abs_diff(self.gram_sum(), linalg.identity(self.layout.dim)) <= tol

    def weight(self, state: cs.ClassicalState) -> float:
        """``tr F(d)† F(d)`` for one state."""
        op = self(state)
        return float(np.real(np.trace(linalg.dagger(op) @ op)))

    def dagger(self) -> "OperatorValuedFunction":
        return OperatorValuedFunction(
            self.layout, {d: linalg.dagger(op) for d, op in self.table.items()}
        )

    def extended_to(self, full: RegisterLayout, *, max_dim: int = linalg.MAX_DIM_DEFAULT
                    ) -> "OperatorValuedFunction":
        """Cylindrical extension (and factor reorder) into ``full``."""
        if full.variables == self.layout.variables:
            return self
        return OperatorValuedFunction(
            full,
            {d: embed(op, self.layout, full, max_dim=max_dim) for d, op in self.table.items()},
        )


@dataclass(eq=False)
class SuperOperator:
    """A completely positive map given by a Kraus family over a layout.

    Channels produced by program semantics are trace-nonincreasing; weakest
    preconditions reuse this container with the adjoint family, which instead
    satisfies ``sum E E† <= I``, so the bound is checked by the producers
    rather than here.
    """

    layout: RegisterLayout
    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = []
        for op in self.kraus:
            op = linalg.as_matrix(op)
            if op.shape != (self.layout.dim, self.layout.dim):
                raise LayoutError(
                    f"Kraus shape {op.shape} does not match layout dim {self.layout.dim}"
                )
            ops.append(op)
        self.kraus = tuple(ops)

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        return apply_kraus(self.kraus, rho, self.layout.dim)

    def choi(self) -> np.ndarray:
        return linalg.choi(self.kraus, dim=self.layout.dim)

    def gram_sum(self) -> np.ndarray:
        out = np.zeros((self.layout.dim, self.layout.dim), dtype=complex)
        for op in self.kraus:
            out += linalg.dagger(op) @ op
        return out

    def validate(self, tol: float = linalg.DEFAULT_TOL) -> "SuperOperator":
        if not linalg.loewner_leq(self.gram_sum(), linalg.identity(self.layout.dim), tol):
            raise ContractError("Kraus family is not trace-nonincreasing")
        return self

    def extended_to(self, full: RegisterLayout, *, max_dim: int = linalg.MAX_DIM_DEFAULT
                    ) -> "SuperOperator":
        if full.variables == self.layout.variables:
            return self
        return SuperOperator(
            full, tuple(embed(op, self.layout, full, max_dim=max_dim) for op in self.kraus)
        )

    def then(self, later: "SuperOperator") -> "SuperOperator":
        """Sequential composition: this channel first, then ``later``."""
        if later.layout.dim != self.layout.dim:
            raise LayoutError("composed channels must share a layout dimension")
        ops = tuple(b @ a for a in self.kraus for b in later.kraus)
        return SuperOperator(self.layout, prune_zero_kraus(ops))


def apply_kraus(kraus, rho, dim: int | None = None) -> np.ndarray:
    rho = linalg.as_matrix(rho)
    d = linalg.require_square(rho)
    if dim is not None and d != dim:
        raise LayoutError(f"state dimension {d} does not match channel dimension {dim}")
    out = np.zeros_like(rho)
    for op in kraus:
        out += op @ rho @ linalg.dagger(op)
    return out


def prune_zero_kraus(ops, cutoff: float = 1e-14) -> tuple[np.ndarray, ...]:
    """Drop numerically zero Kraus operators; the channel is unchanged."""
    kept = tuple(op for op in ops if float(np.max(np.abs(op))) > cutoff)
    return kept


def lambda_weight(f: OperatorValuedFunction, state: cs.ClassicalState) -> float:
    """Branch weight of one classical state inside its function.

    The square weights sum to one over the function's domain.  For the
    all-zero function the weights are uniform, which keeps the sum rule and
    makes aborted branches transparent to the other branches of a guard.
    """
    numerator = f.weight(state)
    denominator = sum(f.weight(d) for d in f.states)
    if denominator <= 1e-300:
        return 1.0 / np.sqrt(len(f.states))
    return float(np.sqrt(numerator / denominator))


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
    joint space.
    """
    unitaries = [linalg.as_matrix(u) for u in unitaries]
    if len(unitaries) != basis.arity:
        raise ArityError(f"{basis.arity} guard states but {len(unitaries)} unitaries")
    if basis.dim != guard_layout.dim:
        raise LayoutError(
            f"guard basis dimension {basis.dim} does not match guard layout {guard_layout.dim}"
        )
    d = data_layout.dim
    for u in unitaries:
        if u.shape != (d, d):
            raise ContractError(f"expected {d}x{d} operators on the data space, got {u.shape}")
        if not linalg.is_unitary(u, tol):
            raise ContractError("guarded composition of unitaries needs unitary inputs")
    total = d * guard_layout.dim
    out = np.zeros((total, total), dtype=complex)
    for i, u in enumerate(unitaries):
        col = basis.column(i)
        out += linalg.tensor(u, col @ linalg.dagger(col), max_dim=max_dim)
    return out


def guarded_ovf(
    basis: GuardBasis,
    functions: list[OperatorValuedFunction],
    guard_layout: RegisterLayout,
    *,
    max_dim: int = linalg.MAX_DIM_DEFAULT,
) -> OperatorValuedFunction:
    """Guarded composition of operator-valued functions.

    All functions must already live on one common data layout.  The combined
    domain is the set of superposition labels over the branch domains; each
    component scales a branch operator by the product of the *other* branches'
    weights.  Fullness is preserved when every input is full, and the trace
    bound when every input satisfies it, so the result is not re-checked.
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
    weights = [{d: lambda_weight(f, d) for d in f.states} for f in functions]
    branch_states = [f.sorted_states() for f in functions]
    projectors = [basis.column(i) @ linalg.dagger(basis.column(i)) for i in range(basis.arity)]
    table: dict[cs.ClassicalState, np.ndarray] = {}
    for combo in itertools.product(*branch_states):
        label = cs.oplus(combo)
        acc = np.zeros((joint.dim, joint.dim), dtype=complex)
        for i, f in enumerate(functions):
            coeff = 1.0
            for k in range(len(functions)):
                if k != i:
                    coeff *= weights[k][combo[k]]
            if coeff != 0.0:
                acc += coeff * linalg.tensor(f(combo[i]), projectors[i], max_dim=max_dim)
        if label in table:
            raise ContractError(f"duplicate combined state {cs.render(label)}")
        table[label] = acc
    return OperatorValuedFunction(joint, table)


def to_superop(f: OperatorValuedFunction) -> SuperOperator:
    """Channel induced by a function: its operators as the Kraus family.

    Zero operators index aborted branches; they contribute nothing to the
    channel and are dropped, so the all-zero function induces the zero
    channel with an empty family.
    """
    ops = tuple(f(d) for d in f.sorted_states())
    return SuperOperator(f.layout, prune_zero_kraus(ops))


def indexed_ovf(
    layout: RegisterLayout, operators, label: str
) -> OperatorValuedFunction:
    """Wrap a raw operator family as a function over synthetic index labels."""
    ops = [linalg.as_matrix(op) for op in operators]
    if not ops:
        return OperatorValuedFunction(
            layout, {cs.bind(label, 0): np.zeros((layout.dim, layout.dim), dtype=complex)}
        )
    return OperatorValuedFunction(
        layout, {cs.bind(label, i): op for i, op in enumerate(ops)}
    )


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
    data_layout = channels[0].layout
    for e in channels:
        if e.layout.variables != data_layout.variables:
            raise ContractError("guarded composition needs channels on one common layout")
    if reps is None:
        reps = [indexed_ovf(data_layout, e.kraus, f"@k{i}") for i, e in enumerate(channels)]
    else:
        if len(reps) != len(channels):
            raise ArityError(f"{len(channels)} channels but {len(reps)} representatives")
        for i, (rep, e) in enumerate(zip(reps, channels)):
            if rep.layout.variables != data_layout.variables:
                raise ContractError(f"representative {i} lives on a different layout")
            diff = linalg.max_abs_diff(to_superop(rep).choi(), e.choi())
            if diff > tol:
                raise ContractError(
                    f"representative {i} does not induce its channel (Choi deviation {diff:.3e})"
                )
    return to_superop(guarded_ovf(basis, list(reps), guard_layout, max_dim=max_dim))
