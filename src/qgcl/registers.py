"""Ordered quantum registers and cylindrical extension of operators.

A :class:`RegisterLayout` fixes the tensor-factor position of every quantum
variable.  ``embed`` lifts an operator from a sub-layout into a full layout by
tensoring identities onto the missing factors and permuting to the full
order; it is a homomorphism for products and adjoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import CapacityError, ContractError, LayoutError

QVar = tuple[str, int]


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered sequence of (quantum variable, dimension >= 2) pairs.

    The empty layout describes the one-dimensional space of programs without
    quantum variables; operators on it are 1x1 matrices.
    """

    variables: tuple[QVar, ...] = ()

    def __post_init__(self):
        names = [name for name, _ in self.variables]
        if len(set(names)) != len(names):
            raise LayoutError(f"duplicate variable names in layout {names}")
        for name, d in self.variables:
            if d < 2:
                raise LayoutError(f"variable {name!r} has dimension {d}; minimum is 2")

    @staticmethod
    def of(*pairs: QVar) -> "RegisterLayout":
        return RegisterLayout(tuple((str(n), int(d)) for n, d in pairs))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.variables)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.variables)

    @property
    def dim(self) -> int:
        out = 1
        for _, d in self.variables:
            out *= d
        return out

    def __len__(self) -> int:
        return len(self.variables)

    def __contains__(self, name: str) -> bool:
        return any(n == name for n, _ in self.variables)

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


def embed(
    op,
    sub: RegisterLayout,
    full: RegisterLayout,
    *,
    max_dim: int = linalg.MAX_DIM_DEFAULT,
) -> np.ndarray:
    """Cylindrical extension of ``op`` from ``sub`` into ``full``.

    ``sub``'s variables must all occur in ``full`` with equal dimensions;
    their order may differ.  The result acts on ``full.dim`` dimensions.
    """
    op = linalg.as_matrix(op)
    if op.shape != (sub.dim, sub.dim):
        raise LayoutError(f"operator shape {op.shape} does not match sub-layout dim {sub.dim}")
    for name, d in sub.variables:
        if name not in full:
            raise LayoutError(f"sub-layout variable {name!r} missing from full layout")
        if full.dim_of(name) != d:
            raise LayoutError(
                f"variable {name!r}: dimension {d} in sub-layout, {full.dim_of(name)} in full"
            )
    if full.dim > max_dim:
        raise CapacityError(f"layout dimension {full.dim} exceeds the cap {max_dim}")
    missing = [v for v in full.variables if v[0] not in sub]
    missing_dim = int(np.prod([d for _, d in missing])) if missing else 1
    src_vars = list(sub.variables) + missing
    ext = linalg.tensor(op, linalg.identity(missing_dim), max_dim=max_dim)
    src_names = [n for n, _ in src_vars]
    order = [src_names.index(name) for name in full.names]
    return linalg.permute_factors(ext, [d for _, d in src_vars], order)


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


@dataclass(eq=False)
class DensityMatrix:
    """A (partial) density operator together with its register layout."""

    matrix: np.ndarray
    layout: RegisterLayout

    def __post_init__(self):
        self.matrix = linalg.as_matrix(self.matrix)
        if self.matrix.shape != (self.layout.dim, self.layout.dim):
            raise LayoutError(
                f"density shape {self.matrix.shape} does not match layout dim {self.layout.dim}"
            )

    def validate(self, tol: float = linalg.DEFAULT_TOL) -> None:
        _check_positive(self.matrix, tol, "density matrix")
        tr = float(np.trace(self.matrix).real)
        if tr > 1 + tol:
            raise ContractError(f"density matrix has trace {tr} > 1")


@dataclass(eq=False)
class Observable:
    """A positive Hermitian operator (a quantum predicate) on a layout."""

    matrix: np.ndarray
    layout: RegisterLayout

    def __post_init__(self):
        self.matrix = linalg.as_matrix(self.matrix)
        if self.matrix.shape != (self.layout.dim, self.layout.dim):
            raise LayoutError(
                f"observable shape {self.matrix.shape} does not match layout dim {self.layout.dim}"
            )

    def validate(self, tol: float = linalg.DEFAULT_TOL) -> None:
        _check_positive(self.matrix, tol, "observable")
