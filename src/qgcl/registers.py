"""Ordered quantum registers and cylindrical extension of operators.

A :class:`RegisterLayout` fixes the tensor-factor position of every quantum
variable.  ``embed`` lifts an operator, or a stack of them in one pass, from
a sub-layout into a full layout by tensoring identities onto the missing
factors and permuting to the full order; it is a homomorphism for products
and adjoints.  ``check_cap`` is the one test of a layout's dimension
against the total dimension cap.

``DensityMatrix`` and ``Observable`` are one type, a square matrix on a
layout, that differ in their ``kind`` (which names them in messages and
records) and in what ``validate`` asks of the matrix.  They carry the one
input policy.  A value is immutable, and its constructor checks its matrix
once, finite and shaped to its layout, so the evaluators take it as it is.
Positivity is checked where an input enters (``validate``: the record
loaders, ``wp_apply``).  A value whose matrix is sealed, as the loaders
leave it, is not checked again at a tolerance it passed at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import CapacityError, ContractError, LayoutError

QVar = tuple[str, int]


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered sequence of (quantum variable, dimension >= 2) pairs.

    The empty layout describes the one-dimensional space of programs without
    quantum variables; operators on it are 1x1 matrices.  ``names``,
    ``dims`` (the factor dimensions) and ``dim`` (their product) are set
    once, at construction.
    """

    variables: tuple[QVar, ...] = ()

    def __post_init__(self):
        names = tuple(name for name, _ in self.variables)
        if len(set(names)) != len(names):
            raise LayoutError(f"duplicate variable names in layout {list(names)}")
        for name, d in self.variables:
            if d < 2:
                raise LayoutError(f"variable {name!r} has dimension {d}; minimum is 2")
        dims = tuple(d for _, d in self.variables)
        self.__dict__.update(names=names, dims=dims, dim=math.prod(dims))

    @staticmethod
    def of(*pairs: QVar) -> "RegisterLayout":
        return RegisterLayout(tuple((str(n), int(d)) for n, d in pairs))

    @staticmethod
    def _of(dims: dict[str, int]) -> "RegisterLayout":
        """The layout of ``dims``, dimensions by name that were checked
        already (each at least 2), not checked again."""
        layout = object.__new__(RegisterLayout)
        layout.__dict__.update(variables=tuple(dims.items()), names=tuple(dims),
                               dims=tuple(dims.values()), dim=math.prod(dims.values()))
        return layout

    def __len__(self) -> int:
        return len(self.variables)

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.variables):
            if n == name:
                return i
        raise LayoutError(f"unknown quantum variable {name!r}")

    def dim_of(self, name: str) -> int:
        return self.variables[self.index(name)][1]

    def restrict(self, names) -> "RegisterLayout":
        """Sub-layout of the named variables, in this layout's order."""
        wanted = set(names)
        missing = wanted - set(self.names)
        if missing:
            raise LayoutError(f"unknown quantum variables {sorted(missing)}")
        return RegisterLayout(tuple(v for v in self.variables if v[0] in wanted))

    def remove(self, names) -> "RegisterLayout":
        dropped = set(names)
        return RegisterLayout(tuple(v for v in self.variables if v[0] not in dropped))

    def extended(self, other: "RegisterLayout") -> "RegisterLayout":
        """This layout followed by ``other``'s variables not already present.

        A shared name must carry the same dimension on both sides.
        """
        vars_out = list(self.variables)
        for name, d in other.variables:
            if name in self:
                if self.dim_of(name) != d:
                    raise LayoutError(
                        f"variable {name!r} has dimension {self.dim_of(name)} here, {d} there"
                    )
            else:
                vars_out.append((name, d))
        return RegisterLayout(tuple(vars_out))

    def same_variables(self, other: "RegisterLayout") -> bool:
        return sorted(self.variables) == sorted(other.variables)


def check_cap(dim: int, max_dim: int) -> None:
    """Raise ``CapacityError`` when a layout's dimension ``dim`` exceeds ``max_dim``."""
    if dim > max_dim:
        raise CapacityError(f"layout dimension {dim} exceeds the cap {max_dim}")


def embed(
    op,
    sub: RegisterLayout,
    full: RegisterLayout,
    *,
    max_dim: int = linalg.MAX_DIM_DEFAULT,
) -> np.ndarray:
    """Cylindrical extension of ``op`` from ``sub`` into ``full``: ``op (x) I``
    on the variables ``sub`` lacks, in ``full``'s factor order.

    ``op`` is one operator or a ``(K, s, s)`` stack of them, which comes back
    as a ``(K, d, d)`` stack.  ``sub``'s variables must all occur in ``full``
    with equal dimensions; their order may differ.  Every operator is written
    at once on the diagonal of the missing factors' identity in a zero
    ``(K, s, m, s, m)`` array, which one transpose puts in ``full``'s order
    (none when ``sub`` and the missing factors already are in it).
    """
    stack = linalg.as_matrices(op)
    if stack.shape[1:] != (sub.dim, sub.dim):
        raise LayoutError(
            f"operator shape {stack.shape[1:]} does not match sub-layout dim {sub.dim}"
        )
    for name, d in sub.variables:
        if name not in full:
            raise LayoutError(f"sub-layout variable {name!r} missing from full layout")
        if full.dim_of(name) != d:
            raise LayoutError(
                f"variable {name!r}: dimension {d} in sub-layout, {full.dim_of(name)} in full"
            )
    check_cap(full.dim, max_dim)
    s, m = sub.dim, full.dim // sub.dim
    k = len(stack)
    ext = np.zeros((k, s, m, s, m), dtype=complex)
    np.einsum("kajbj->kajb", ext)[...] = stack[:, :, None, :]
    src = sub.variables + tuple(v for v in full.variables if v[0] not in sub)
    if src != full.variables:
        n, order = len(src), [src.index(v) for v in full.variables]
        dims = tuple(d for _, d in src)
        axes = [0] + [1 + i for i in order] + [1 + n + i for i in order]
        ext = ext.reshape((k,) + dims * 2).transpose(axes)
    out = ext.reshape(k, full.dim, full.dim)
    return out if np.ndim(op) == 3 else out[0]


def _check_positive(m: np.ndarray, tol: float, what: str) -> None:
    """Hermitian within ``tol``, then positive semidefinite within ``tol``,
    in one pass over ``m``: once ``max |m - m†| <= tol``, the anti-Hermitian
    part ``|m - (m + m†)/2| = |m - m†|/2`` is within ``tol`` too, so only the
    Hermitian part's spectrum is left to test."""
    herm = linalg.hermitian_part(m, tol)
    if herm is None:
        raise ContractError(f"{what} is not Hermitian within tolerance")
    if not linalg.hermitian_psd(herm, tol):
        raise ContractError(f"{what} is not positive semidefinite within tolerance")


_PASSED = "_passed_at"  # the tolerances at which a value with a sealed matrix passed ``validate``


@dataclass(frozen=True, eq=False)
class _OnLayout:
    """A square matrix on a register layout, coerced by ``linalg.as_matrix``
    and shaped ``(layout.dim, layout.dim)``; each subclass's ``kind`` names
    it in messages, and its ``_contract`` is what ``validate`` asks of the
    matrix.  The value is immutable, so its matrix is always the array its
    constructor checked, and the evaluators take it as it is."""

    matrix: np.ndarray
    layout: RegisterLayout

    def __post_init__(self):
        matrix = linalg.as_matrix(self.matrix)
        if matrix.shape != (self.layout.dim, self.layout.dim):
            raise LayoutError(
                f"{self.kind} shape {matrix.shape} does not match layout dim {self.layout.dim}"
            )
        object.__setattr__(self, "matrix", matrix)

    def validate(self, tol: float = linalg.DEFAULT_TOL) -> None:
        """Raise ``ContractError`` unless the matrix meets the contract
        within ``tol``.  A value whose matrix no caller can write
        (``linalg.sealed``, as the record loader leaves it) records each
        ``tol`` it passed at and is not checked again at it; any other value
        is checked at every call."""
        if tol in self.__dict__.get(_PASSED, ()) and linalg.sealed(self.matrix):
            return
        self._contract(tol)
        if linalg.sealed(self.matrix):
            self.__dict__.setdefault(_PASSED, set()).add(tol)


class DensityMatrix(_OnLayout):
    """A (partial) density operator together with its register layout."""

    kind = "density"

    def _contract(self, tol: float) -> None:
        _check_positive(self.matrix, tol, "density matrix")
        tr = float(np.trace(self.matrix).real)
        if tr > 1 + tol:
            raise ContractError(f"density matrix has trace {tr} > 1")


class Observable(_OnLayout):
    """A positive Hermitian operator (a quantum predicate) on a layout."""

    kind = "observable"

    def _contract(self, tol: float) -> None:
        _check_positive(self.matrix, tol, "observable")
