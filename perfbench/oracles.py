"""Independent numpy oracles for every checked output.

Each closed form is derived from the construct's definition, not from the
package under test: channels as explicit Kraus families, the walk step from
``np.roll``/``np.kron``, and branch weights from the guarded-composition
weight rule.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-9
P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def channel(kraus, rho: np.ndarray) -> np.ndarray:
    return sum((k @ rho @ dagger(k) for k in kraus), np.zeros_like(rho))


def dual(kraus, m: np.ndarray) -> np.ndarray:
    return sum((dagger(k) @ m @ k for k in kraus), np.zeros_like(m))


def deviation(got, expect) -> float:
    got = np.asarray(got)
    expect = np.asarray(expect)
    if got.shape != expect.shape:
        return float("inf")
    return float(np.max(np.abs(got - expect))) if got.size else 0.0


class SparseRows:
    """A matrix with a fixed number of nonzeros per row, applied in O(d^2 k).

    The walk step has two nonzeros per row, so ``W rho W^dagger`` at
    dimension 1024 costs milliseconds instead of two dense products.
    """

    def __init__(self, m: np.ndarray):
        rows, cols = np.nonzero(m)
        per_row = np.bincount(rows, minlength=m.shape[0])
        if per_row.min() != per_row.max():
            raise ValueError("rows carry different nonzero counts")
        k = int(per_row[0])
        self.cols = cols.reshape(m.shape[0], k)
        self.vals = m[rows, cols].reshape(m.shape[0], k)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return np.einsum("rk,rkc->rc", self.vals, x[self.cols, :])


def conjugate_sparse(a: SparseRows, x: np.ndarray) -> np.ndarray:
    """``A x A^dagger`` for a sparse-row ``A``."""
    ax = a @ x
    return dagger(a @ dagger(ax))


class Walk:
    """Forward and weakest-precondition oracles of one coined-walk step."""

    def __init__(self, w: np.ndarray):
        self.fwd = SparseRows(w)
        self.bwd = SparseRows(dagger(w))

    def run(self, rho: np.ndarray) -> np.ndarray:
        return conjugate_sparse(self.fwd, rho)

    def wp(self, m: np.ndarray) -> np.ndarray:
        return conjugate_sparse(self.bwd, m)


def branch_weights(ops) -> list[float]:
    """Guarded-composition weights ``lambda(d) = sqrt(w(d) / sum w)``."""
    w = [float(np.real(np.trace(dagger(op) @ op))) for op in ops]
    total = sum(w)
    return [np.sqrt(x / total) for x in w]


def guarded_measurements(a, b) -> dict[tuple[int, int], np.ndarray]:
    """Operators of ``guard c { |0> -> measure x <- A; |1> -> measure y <- B }``
    on layout (q, c): ``lambda_B(j) A_i (x) P0 + lambda_A(i) B_j (x) P1``."""
    la, lb = branch_weights(a), branch_weights(b)
    return {
        (i, j): lb[j] * np.kron(ai, P0) + la[i] * np.kron(bj, P1)
        for i, ai in enumerate(a)
        for j, bj in enumerate(b)
    }


def measurement_chain(measurements) -> dict[tuple[int, ...], np.ndarray]:
    """Path operators ``M^k_{m_k} ... M^1_{m_1}`` of a measurement sequence."""
    paths = {(): np.eye(measurements[0][0].shape[0], dtype=complex)}
    for ops in measurements:
        paths = {
            path + (m,): op @ acc for path, acc in paths.items() for m, op in enumerate(ops)
        }
    return paths


def classical_loop(u: np.ndarray, n: int) -> list[np.ndarray]:
    """Kraus family ``{P (U Q)^k : k < n}`` of n unrolled measured iterations,
    with ``P = |0><0|`` and ``Q = I - P`` on the loop register."""
    d = u.shape[0]
    p = np.zeros((d, d), dtype=complex)
    p[0, 0] = 1.0
    step = u @ (np.eye(d) - p)
    out, acc = [], np.eye(d, dtype=complex)
    for _ in range(n):
        out.append(p @ acc)
        acc = step @ acc
    return out


def localized_loop(u: np.ndarray, n: int) -> list[np.ndarray]:
    """Kraus family ``{2^(-(k+1)/2) U^k : k < n}`` of the localised loop with a
    Hadamard coin."""
    return [2 ** (-(k + 1) / 2) * np.linalg.matrix_power(u, k) for k in range(n)]


def quantum_loop(u: np.ndarray, n: int) -> np.ndarray:
    """Isometry from the loop register into (q, g1..gn) of the quantum loop on
    coins prepared in |0>: iteration k leaves coins g(n-k+1)..gn at |1>."""
    d = u.shape[0]
    out = np.zeros((d * 2**n, d), dtype=complex)
    for k in range(n):
        bits = np.zeros(2**n, dtype=complex)
        bits[(1 << k) - 1] = 1.0
        out += 2 ** (-(k + 1) / 2) * np.kron(np.linalg.matrix_power(u, k), bits.reshape(-1, 1))
    return out
