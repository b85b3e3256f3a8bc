"""Dense complex linear algebra: tensor products, partial traces, factor
permutations, order/positivity/unitarity predicates and Choi matrices.

All operators are plain ``numpy.ndarray`` values with ``complex128`` entries.
Matrices are kept dense; the configurable total-dimension cap keeps every
computation at desk scale.  How streaming stores and applies an operator
is ``kernels``' decision; ``is_unitary`` reads a ``kernels.Monomial`` in
O(n).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import CapacityError, ShapeError
from .kernels import Monomial, RealMatrix, monomial

MAX_DIM_DEFAULT = 4096
DEFAULT_TOL = 1e-9


def finite(m: np.ndarray) -> bool:
    """Every entry of a complex array is finite.  A contiguous one is read
    as the float array of its parts, half the work of the complex test: a
    complex number is finite exactly when both of its parts are."""
    return bool(np.isfinite(m.ravel("K").view(float) if m.flags.forc else m).all())


def as_matrix(value) -> np.ndarray:
    """Coerce to a finite 2-D complex array."""
    m = np.asarray(value, dtype=complex)
    if m.ndim != 2:
        raise ShapeError(f"expected a matrix, got array of rank {m.ndim}")
    if not finite(m):
        raise ShapeError("matrix has non-finite entries")
    return m


def as_matrices(value) -> np.ndarray:
    """Coerce one matrix, or a sequence or stack of equally shaped ones, to a
    finite ``(K, n, m)`` complex array; one matrix gives ``K = 1``."""
    try:
        m = np.asarray(value, dtype=complex)
    except ValueError:
        raise ShapeError("the matrices of a stack must share one shape") from None
    if m.ndim == 2:
        m = m[None]
    if m.ndim != 3:
        raise ShapeError(f"expected a matrix or a stack of matrices, got array of rank {m.ndim}")
    if not finite(m):
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
    """Kronecker product with ``a`` as the high-order factor.

    Either factor may be a ``(K, n, m)`` stack (``as_matrices``); then the
    products ``A_k (x) B_k`` come back as one stack, a single matrix or a
    stack of one standing for every ``k``.
    """
    x, y = as_matrices(a), as_matrices(b)
    rows = x.shape[1] * y.shape[1]
    cols = x.shape[2] * y.shape[2]
    if max(rows, cols) > max_dim:
        raise CapacityError(
            f"tensor product of shape ({rows}, {cols}) exceeds the dimension cap {max_dim}"
        )
    out = (x[:, :, None, :, None] * y[:, None, :, None, :]).reshape(-1, rows, cols)
    return out if np.ndim(a) == 3 or np.ndim(b) == 3 else out[0]


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


def sealed(m: np.ndarray) -> bool:
    """Whether no caller can write ``m``'s entries: it owns them and is
    read-only, as ``frozen`` leaves it."""
    return m.flags.owndata and not m.flags.writeable


def frozen(value) -> np.ndarray:
    """A read-only complex copy of ``value``, in its memory order; ``value``
    itself when it already is a sealed complex array.  Program nodes keep
    such snapshots, so no caller can change their matrices after
    construction."""
    if isinstance(value, np.ndarray) and value.dtype == complex and sealed(value):
        return value
    m = np.array(value, dtype=complex)
    m.flags.writeable = False
    return m


HERMITIAN_BLOCK_BYTES = 1 << 18  # one square tile of m, checked and averaged with its mirror, 256 KB


def hermitian_part(m: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray | None:
    """``(m + m†) / 2`` when ``m`` (a matrix as ``as_matrix`` returns it) is
    square and ``max |m - m†| <= tol``, Hermitian within ``tol``; else
    ``None``.

    ``m`` is read in square tiles of about ``HERMITIAN_BLOCK_BYTES``, each
    tile of the upper triangle together with its mirror below, so every
    entry is read once and while its partner is in cache.  A tile pair is
    checked, averaged into the conjugate of the part, in C order, and
    mirrored.  The part is returned as that buffer's transpose: the part
    is exactly Hermitian, and the array is in Fortran order, the order
    LAPACK reads (``hermitian_psd``).  A matrix that fits in one tile is
    one step.  The average halves by multiplying by 0.5, not by a complex
    division, so every nonzero entry is bit for bit ``(m + m†) / 2`` and
    only the sign of a zero may differ; every caller reads the part only
    for a verdict."""
    if m.shape[0] != m.shape[1]:
        return None
    n = len(m)
    side = max(1, math.isqrt(HERMITIAN_BLOCK_BYTES // 16))
    conj = np.empty(m.shape, dtype=complex)  # conj(part), the part's transpose
    for i in range(0, n, side):
        for j in range(i, n, side):
            tile, mirror = conj[i:i + side, j:j + side], m[j:j + side, i:i + side].T
            np.conjugate(m[i:i + side, j:j + side], out=tile)
            if np.max(np.abs(tile - mirror)) > tol:
                return None
            tile += mirror
            tile *= 0.5
            if j != i:
                np.conjugate(tile.T, out=conj[j:j + side, i:i + side])
    return conj.T


def is_unitary(m, tol: float = DEFAULT_TOL) -> bool:
    """``U† U`` within ``tol`` of ``I`` (see ``near_identity``), so that
    ``||U||² <= 1 + tol``.  ``m`` may be given as its ``kernels.kernel``.
    For a monomial ``U``, ``U† U`` is diagonal, holding ``|scale|²`` at
    each filled column and 0 at each empty one, so the verdict takes O(n)."""
    if isinstance(m, RealMatrix):
        m = m.matrix
    elif not isinstance(m, Monomial):
        m = as_matrix(m)
        if m.shape[0] != m.shape[1]:
            return False
        if len(m) > 1:
            m = monomial(m) or m
    if not isinstance(m, Monomial):
        return near_identity(dagger(m) @ m, tol)
    filled = m.scale != 0
    defect = np.full(len(m.col), -1.0)
    defect[m.col[filled]] += np.abs(m.scale[filled]) ** 2
    return bool(np.abs(defect).max() <= tol)  # a diagonal's top eigenvalue is an entry


def gram(ops, dim: int) -> np.ndarray:
    """``sum_k A_k† A_k`` over ``ops`` (a ``(K, dim, dim)`` stack or any
    iterable of ``dim``-square operators), added one term at a time in the
    given order; no operators give the zero matrix."""
    out = np.zeros((dim, dim), dtype=complex)
    for op in ops:
        out += dagger(op) @ op
    return out


def near_identity(gram: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Whether a Gram matrix ``sum_k A_k† A_k`` is within ``tol`` of ``I``
    entrywise and at most ``(1 + tol) I``.  The entrywise bound alone does
    not limit the norm: ``I + t J`` (``J`` all ones) passes it for ``t <= tol``
    with top eigenvalue ``1 + n t``.  A Frobenius norm of ``I - gram``
    within ``tol`` bounds both at once; otherwise ``is_positive`` decides."""
    slack = identity(len(gram)) - gram
    if np.vdot(slack, slack).real <= tol * tol:
        return True
    return bool(np.abs(slack).max() <= tol) and is_positive(slack, tol)


def is_positive(m, tol: float = DEFAULT_TOL) -> bool:
    """Positive semidefiniteness within tolerance: the anti-Hermitian part
    ``(m - m†) / 2`` is within ``tol`` (``hermitian_part`` at ``2 tol``) and
    the Hermitian part passes ``hermitian_psd``."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"positivity is defined for square matrices, got {m.shape}")
    if m.size == 0:
        return True
    herm = hermitian_part(m, 2 * tol)
    return herm is not None and hermitian_psd(herm, tol)


def hermitian_psd(herm: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """``min eig(herm) >= -tol`` for an exactly Hermitian ``herm``, such as
    ``hermitian_part`` returns, which may be overwritten.

    It passes at once when Gershgorin's discs prove it, in O(d²): every
    eigenvalue is at least ``min_i (herm_ii - sum_{j != i} |herm_ij|)``.
    Otherwise it passes when ``herm + tol I`` has a Cholesky factor; only
    when the factorisation fails do its eigenvalues decide.  Each step
    answers only what it proves, so the verdict is the eigenvalues' one.
    The row sums are taken over ``herm.T``, whose rows hold the same
    magnitudes in the same order, and which is in C order when ``herm`` is
    in Fortran order; numpy then hands ``herm`` to LAPACK without a
    transposing copy.
    """
    rows = herm.T
    radii = np.abs(rows)
    radii.flat[:: herm.shape[0] + 1] = 0
    if np.min(rows.diagonal().real - radii.sum(axis=1)) >= -tol:
        return True
    rows.flat[:: herm.shape[0] + 1] += tol
    try:
        np.linalg.cholesky(herm)
        return True
    except np.linalg.LinAlgError:
        return bool(np.linalg.eigvalsh(herm).min() >= 0)


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


def _kraus_stack(kraus: Sequence[np.ndarray], dim: int | None = None) -> np.ndarray:
    """The family's operators, vectorised row-major, as the rows of a K x dim**2 array.

    Row k is ``vec A_k``, the vector whose outer products make up the Choi
    matrix.  ``kraus`` is what ``as_matrices`` takes.  An empty family needs
    ``dim``.
    """
    if len(kraus) == 0:
        if dim is None:
            raise ShapeError("empty Kraus family needs an explicit dimension")
        return np.zeros((0, dim * dim), dtype=complex)
    ops = as_matrices(kraus)
    d = require_square(ops[0])
    if dim is not None and dim != d:
        raise ShapeError(f"Kraus dimension {d} disagrees with requested {dim}")
    return ops.reshape(len(ops), d * d)


def choi(kraus: Sequence[np.ndarray], dim: int | None = None) -> np.ndarray:
    """Choi matrix of the channel with the given Kraus family.

    Built from the unnormalised maximally entangled vector, so two Kraus
    families induce the same channel exactly when their Choi matrices are
    equal.  An empty family represents the zero channel and requires ``dim``.
    With the vectorised operators as the columns of ``V`` it is ``V V†``.
    """
    rows = _kraus_stack(kraus, dim)
    return rows.T @ rows.conj()


CHOI_BLOCK_BYTES = 1 << 19  # one row block of a Choi difference, real and imaginary parts


def choi_max_diff(a: Sequence[np.ndarray], b: Sequence[np.ndarray], dim: int) -> float:
    """``max_abs_diff(choi(a), choi(b))`` without forming either Choi matrix.

    With ``V = [vec A_1 ... vec A_k | vec B_1 ... vec B_l] = X + iY`` and ``s``
    the signature (+1 for ``a``, -1 for ``b``), ``D = choi(a) - choi(b) =
    V diag(s) V†``, so ``Re D = [X Y] diag(s, s) [X Y]ᵀ`` and
    ``Im D = [Y -X] diag(s, s) [X Y]ᵀ``: real products.  ``D`` is Hermitian,
    so only its upper triangle is formed, in row blocks of about
    ``CHOI_BLOCK_BYTES``.  A block's real and imaginary parts come from one
    batched product into one array (with two arrays per block, glibc gave
    their memory back and faulted it in again), which is squared in place
    and summed, keeping the running maximum of ``|D_ij|²`` and taking one
    square root at the end.  ``V`` is first scaled by a power of two, which
    is exact, so that no square overflows or underflows.  O(dim**2 (k + l))
    memory besides the block instead of O(dim**4).  ``a`` and ``b`` are
    what ``as_matrices`` takes, and are checked as it checks them; stacks
    checked already go to ``choi_stack_diff``.
    """
    return choi_stack_diff(*(_kraus_stack(f, dim).reshape(-1, dim, dim) for f in (a, b)))


def choi_stack_diff(a: np.ndarray, b: np.ndarray) -> float:
    """``choi_max_diff`` of two ``(K, d, d)`` stacks of one ``d`` that are
    checked already, as ``SuperOperator.stack`` holds them, without checking
    them again."""
    plus, minus = (s.reshape(len(s), s.shape[1] * s.shape[2]) for s in (a, b))
    neg = -minus
    xa, ya, xb, yb = plus.real, plus.imag, minus.real, minus.imag
    # [X Y]ᵀ, then diag(s, s) [X Y]ᵀ and diag(s, s) [Y -X]ᵀ
    parts = np.concatenate([xa, xb, ya, yb, xa, neg.real, ya, neg.imag, ya, neg.imag, -xa, xb])
    exp = math.frexp(np.abs(parts).max(initial=0.0))[1]
    np.ldexp(parts, -exp, out=parts)  # every entry now below 1 in modulus
    width, side = len(parts) // 3, parts.shape[1]
    right, left = parts[:width], parts[width:].reshape(2, width, side)
    step = max(1, CHOI_BLOCK_BYTES // (16 * side))
    worst = 0.0
    for r0 in range(0, side, step):
        block = left[:, :, r0:r0 + step].swapaxes(1, 2) @ right[:, r0:]  # Re D, Im D rows
        np.square(block, out=block)
        block[0] += block[1]
        worst = max(worst, float(block[0].max()))
    return math.ldexp(math.sqrt(worst), 2 * exp)


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


def reduce_kraus(kraus: Sequence[np.ndarray], dim: int,
                 tol: float = DEFAULT_TOL) -> np.ndarray:
    """A family of at most dim**2 operators inducing the same channel, as a
    ``(K, dim, dim)`` array.

    From the SVD ``V = U S W†`` of the stacked vectorised operators: the
    Choi matrix is ``V V† = U S² U†``, so the columns with ``s² > tol`` keep
    the Choi eigenvectors that ``choi_to_kraus(choi(kraus), tol)`` keeps,
    without a dim**2 x dim**2 matrix or its eigendecomposition.
    """
    rows = _kraus_stack(kraus, dim)
    u, s, _ = np.linalg.svd(rows.T, full_matrices=False)
    keep = s * s > tol
    return (u[:, keep] * s[keep]).T.reshape(-1, dim, dim)


def max_abs_diff(a, b) -> float:
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ShapeError(f"cannot compare shapes {a.shape} and {b.shape}")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b)))
