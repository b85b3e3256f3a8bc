"""Seeded, code-independent inputs: random matrices and the text of sources,
gate files and state/observable records.

Everything here uses numpy and the standard ``json`` module only, never the
package under test, so two versions of the package receive byte-identical
inputs for one seed.
"""

from __future__ import annotations

import json

import numpy as np

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


# -- random matrices ---------------------------------------------------------

def unitary(gen: np.random.Generator, dim: int) -> np.ndarray:
    z = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def density(gen: np.random.Generator, dim: int) -> np.ndarray:
    a = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m).real


def observable(gen: np.random.Generator, dim: int) -> np.ndarray:
    """Positive operator with spectrum in [0, 1]: a random quantum predicate."""
    u = unitary(gen, dim)
    return (u * gen.uniform(0.0, 1.0, size=dim)) @ u.conj().T


def measurement(gen: np.random.Generator, dim: int) -> list[np.ndarray]:
    """Complete, generally non-projective two-outcome measurement
    ``{U_m diag(sqrt p_m) V}``."""
    p = gen.uniform(0.05, 1.0, size=(2, dim))
    p /= p.sum(axis=0)
    v = unitary(gen, dim)
    return [(unitary(gen, dim) * np.sqrt(p[m])) @ v for m in range(2)]


def rotation(dim: int, angle: float) -> np.ndarray:
    """Unitary rotating basis states 0 and 1 by ``angle``; identity elsewhere."""
    r = np.eye(dim, dtype=complex)
    c, s = np.cos(angle), np.sin(angle)
    r[0, 0], r[0, 1], r[1, 0], r[1, 1] = c, -s, s, c
    return r


def shift(n: int, step: int) -> np.ndarray:
    return np.roll(np.eye(n, dtype=complex), step, axis=0)


# -- text of inputs ------------------------------------------------------------

def record(m: np.ndarray, layout=None) -> dict:
    """Matrix record: ``rows``, ``cols``, row-major ``[re, im]`` entries."""
    m = np.asarray(m, dtype=complex)
    out = {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "entries": np.stack([m.real, m.imag], axis=-1).reshape(-1, 2).tolist(),
    }
    if layout is not None:
        out["layout"] = [[name, int(d)] for name, d in layout]
    return out


def record_text(m: np.ndarray, layout=None) -> str:
    return json.dumps(record(m, layout), separators=(",", ":"))


def gates_text(named: dict[str, np.ndarray]) -> str:
    return json.dumps({k: record(v) for k, v in named.items()}, separators=(",", ":"))


def from_record(rec: dict) -> np.ndarray:
    values = np.array(rec["entries"], dtype=float)
    return (values[:, 0] + 1j * values[:, 1]).reshape(rec["rows"], rec["cols"])


def walk_source(n: int, gates: str) -> str:
    """One coined-walk step on the n-cycle, gates from a definition file."""
    return (
        f"qvar v : {n};\nqvar c : 2;\nuse \"{gates}\";\n\n"
        "qchoice H[c] { |0> -> TR[v]; |1> -> TL[v] }\n"
    )


def walk_gates(n: int) -> dict[str, np.ndarray]:
    return {"H": HADAMARD, "TR": shift(n, 1), "TL": shift(n, -1)}


def walk_operator(n: int) -> np.ndarray:
    """``W = S (I (x) H)`` on layout (v, c), built with ``np.roll``/``np.kron``:
    with ``S = R (x) P0 + L (x) P1`` it is ``R (x) P0 H + L (x) P1 H``."""
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    return np.kron(shift(n, 1), p0 @ HADAMARD) + np.kron(shift(n, -1), p1 @ HADAMARD)


def walker_state(gen: np.random.Generator, n: int) -> np.ndarray:
    """Pure walk state on layout (v, c): a random amplitude on four
    neighbouring positions times a random coin state."""
    pos = np.zeros(n, dtype=complex)
    start = int(gen.integers(n))
    for k in range(4):
        pos[(start + k) % n] = complex(gen.normal(), gen.normal())
    coin = gen.normal(size=2) + 1j * gen.normal(size=2)
    psi = np.kron(pos, coin)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def walker_observable(gen: np.random.Generator, n: int) -> np.ndarray:
    """Position-weighted predicate ``diag(a) (x) C`` with ``a`` in [0, 1] and
    ``C`` a random coin predicate."""
    return np.kron(np.diag(gen.uniform(0.0, 1.0, n)), observable(gen, 2))


class Source:
    """Accumulates declarations (inline matrix literals) and the program text."""

    def __init__(self):
        self.decls: list[str] = []
        self._names = 0

    def qvar(self, name: str, dim: int) -> None:
        self.decls.append(f"qvar {name} : {dim};")

    def matrix(self, m: np.ndarray, prefix: str = "U") -> str:
        self._names += 1
        name = f"{prefix}{self._names}"
        self.decls.append(f"matrix {name} = {record_text(m)};")
        return name

    def measurement(self, ops: list[np.ndarray]) -> str:
        self._names += 1
        name = f"M{self._names}"
        arms = "; ".join(f"{k}: {self.matrix(op, 'K')}" for k, op in enumerate(ops))
        self.decls.append(f"measurement {name} = {{ {arms} }};")
        return name

    def text(self, body: str) -> str:
        return "\n".join(self.decls) + "\n\n" + body + "\n"
