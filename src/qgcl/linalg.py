"""Dense complex linear algebra: tensor products, partial traces, factor
permutations, order/positivity predicates and Choi matrices.

All operators are plain ``numpy.ndarray`` values with ``complex128`` entries.
Matrices are kept dense; the configurable total-dimension cap keeps every
computation at desk scale.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import CapacityError, ShapeError

MAX_DIM_DEFAULT = 4096
DEFAULT_TOL = 1e-9


def as_matrix(value) -> np.ndarray:
    """Coerce to a finite 2-D complex array."""
    m = np.asarray(value, dtype=complex)
    if m.ndim != 2:
        raise ShapeError(f"expected a matrix, got array of rank {m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ShapeError("matrix has non-finite entries")
    return m


def require_square(m: np.ndarray) -> int:
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    return m.shape[0]


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def basis_ket(dim: int, index: int) -> np.ndarray:
    """Column vector |index> of the given dimension."""
    if not 0 <= index < dim:
        raise ShapeError(f"basis index {index} out of range for dimension {dim}")
    v = np.zeros((dim, 1), dtype=complex)
    v[index, 0] = 1.0
    return v


def tensor(a, b, *, max_dim: int = MAX_DIM_DEFAULT) -> np.ndarray:
    """Kronecker product with ``a`` as the high-order factor."""
    a = as_matrix(a)
    b = as_matrix(b)
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    if max(rows, cols) > max_dim:
        raise CapacityError(
            f"tensor product of shape ({rows}, {cols}) exceeds the dimension cap {max_dim}"
        )
    return np.kron(a, b)


def partial_trace(m, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out every tensor factor whose position is not in ``keep``.

    ``dims`` lists the factor dimensions in order; ``keep`` lists factor
    positions to retain, in layout order.  The result has dimension equal to
    the product of the kept dimensions and the trace of ``m`` is preserved.
    """
    m = as_matrix(m)
    dim = require_square(m)
    dims = list(dims)
    total = int(np.prod(dims)) if dims else 1
    if total != dim:
        raise ShapeError(f"factor dimensions {dims} do not multiply to {dim}")
    keep = sorted(set(keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ShapeError(f"keep positions {keep} out of range for {len(dims)} factors")
    traced = [i for i in range(len(dims)) if i not in keep]
    keep_dim = int(np.prod([dims[i] for i in keep])) if keep else 1
    traced_dim = int(np.prod([dims[i] for i in traced])) if traced else 1
    n = len(dims)
    t = m.reshape(dims + dims)
    order = keep + traced + [n + i for i in keep] + [n + i for i in traced]
    t = t.transpose(order).reshape(keep_dim, traced_dim, keep_dim, traced_dim)
    return np.trace(t, axis1=1, axis2=3)


def permute_factors(m, dims: Sequence[int], order: Sequence[int]) -> np.ndarray:
    """Rearrange tensor factors so new factor ``t`` is old factor ``order[t]``."""
    m = as_matrix(m)
    dim = require_square(m)
    dims = list(dims)
    n = len(dims)
    if sorted(order) != list(range(n)):
        raise ShapeError(f"{order} is not a permutation of {n} factors")
    total = int(np.prod(dims)) if dims else 1
    if total != dim:
        raise ShapeError(f"factor dimensions {dims} do not multiply to {dim}")
    if n == 0:
        return m.copy()
    t = m.reshape(dims + dims)
    axes = list(order) + [n + i for i in order]
    new_dims = [dims[i] for i in order]
    side = int(np.prod(new_dims))
    return t.transpose(axes).reshape(side, side)


def permutation_matrix(dims: Sequence[int], order: Sequence[int]) -> np.ndarray:
    """Explicit basis-permutation matrix P with P |i_old> = |i_new>.

    Satisfies ``P @ m @ P.conj().T == permute_factors(m, dims, order)``.
    """
    dims = list(dims)
    n = len(dims)
    total = int(np.prod(dims)) if dims else 1
    p = np.zeros((total, total), dtype=complex)
    new_dims = [dims[i] for i in order]
    for src in range(total):
        digits = []
        rem = src
        for d in reversed(dims):
            digits.append(rem % d)
            rem //= d
        digits.reverse()
        dst = 0
        for pos in range(n):
            dst = dst * new_dims[pos] + digits[order[pos]]
        p[dst, src] = 1.0
    return p


def is_hermitian(m, tol: float = DEFAULT_TOL) -> bool:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    return bool(np.max(np.abs(m - dagger(m))) <= tol)


def is_unitary(m, tol: float = DEFAULT_TOL) -> bool:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    d = m.shape[0]
    return bool(np.max(np.abs(dagger(m) @ m - identity(d))) <= tol)


def is_positive(m, tol: float = DEFAULT_TOL) -> bool:
    """Positive semidefiniteness within tolerance.

    The anti-Hermitian part must itself be below tolerance; the Hermitian
    part is then eigen-tested.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"positivity is defined for square matrices, got {m.shape}")
    herm = (m + dagger(m)) / 2
    if np.max(np.abs(m - herm)) > tol:
        return False
    if herm.shape[0] == 0:
        return True
    eigs = np.linalg.eigvalsh(herm)
    return bool(eigs.min() >= -tol)


def loewner_leq(a, b, tol: float = DEFAULT_TOL) -> bool:
    """Operator order: ``a <= b`` iff ``b - a`` is positive semidefinite."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ShapeError(f"order comparison needs equal shapes, got {a.shape} vs {b.shape}")
    require_square(a)
    return is_positive(b - a, tol)


def psd_sqrt(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Principal square root of a positive semidefinite matrix."""
    m = as_matrix(m)
    require_square(m)
    herm = (m + dagger(m)) / 2
    eigs, vecs = np.linalg.eigh(herm)
    if eigs.min() < -tol:
        raise ShapeError(f"matrix is not positive semidefinite (min eig {eigs.min():.3e})")
    roots = np.sqrt(np.clip(eigs, 0.0, None))
    return (vecs * roots) @ dagger(vecs)


def choi(kraus: Sequence[np.ndarray], dim: int | None = None) -> np.ndarray:
    """Choi matrix of the channel with the given Kraus family.

    Built from the unnormalised maximally entangled vector, so two Kraus
    families induce the same channel exactly when their Choi matrices are
    equal.  An empty family represents the zero channel and requires ``dim``.
    """
    ops = [as_matrix(k) for k in kraus]
    if not ops:
        if dim is None:
            raise ShapeError("empty Kraus family needs an explicit dimension")
        return np.zeros((dim * dim, dim * dim), dtype=complex)
    d = require_square(ops[0])
    if dim is not None and dim != d:
        raise ShapeError(f"Kraus dimension {d} disagrees with requested {dim}")
    out = np.zeros((d * d, d * d), dtype=complex)
    for op in ops:
        if op.shape != (d, d):
            raise ShapeError("Kraus operators must share one square dimension")
        v = op.reshape(-1, 1)
        out += v @ dagger(v)
    return out


def choi_to_kraus(c, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Canonical Kraus family (at most dim**2 operators) of a Choi matrix."""
    c = as_matrix(c)
    side = require_square(c)
    d = int(round(np.sqrt(side)))
    if d * d != side:
        raise ShapeError(f"Choi matrix side {side} is not a perfect square")
    herm = (c + dagger(c)) / 2
    eigs, vecs = np.linalg.eigh(herm)
    ops = []
    for val, vec in zip(eigs, vecs.T):
        if val > tol:
            ops.append(np.sqrt(val) * vec.reshape(d, d))
    return ops


def max_abs_diff(a, b) -> float:
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ShapeError(f"cannot compare shapes {a.shape} and {b.shape}")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b)))
