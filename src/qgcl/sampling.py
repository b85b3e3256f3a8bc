"""Seeded random generators for property suites and reproduction runs.

Everything is driven by an explicit ``numpy.random.Generator`` so suites are
reproducible from a single seed.
"""

from __future__ import annotations

from itertools import count

import numpy as np

from .classical import bind
from .ovf import OperatorValuedFunction
from .program import (
    Abort,
    GuardBasis,
    Measure,
    Measurement,
    Program,
    QChoice,
    QVar,
    Seq,
    Skip,
    Unitary,
)
from .registers import RegisterLayout


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_unitary(gen: np.random.Generator, dim: int) -> np.ndarray:
    z = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q @ np.diag(phases)


def random_ket(gen: np.random.Generator, dim: int) -> np.ndarray:
    v = gen.normal(size=(dim, 1)) + 1j * gen.normal(size=(dim, 1))
    return v / np.linalg.norm(v)


def random_density(gen: np.random.Generator, dim: int) -> np.ndarray:
    a = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m)


def random_positive(gen: np.random.Generator, dim: int) -> np.ndarray:
    a = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    return a @ a.conj().T


def random_measurement(gen: np.random.Generator, dim: int, outcomes: int = 2) -> Measurement:
    """Complete measurement: rows of a random unitary split across outcomes."""
    if not 1 <= outcomes <= dim:
        raise ValueError(f"cannot split dimension {dim} into {outcomes} outcomes")
    u = random_unitary(gen, dim)
    cuts = sorted(gen.choice(range(1, dim), size=outcomes - 1, replace=False)) if outcomes > 1 else []
    bounds = [0, *cuts, dim]
    ops = []
    for m in range(outcomes):
        proj = np.zeros((dim, dim), dtype=complex)
        for i in range(bounds[m], bounds[m + 1]):
            proj[i, i] = 1.0
        ops.append((m, proj @ u))
    return Measurement(tuple(ops))


def random_full_ovf(
    gen: np.random.Generator, layout: RegisterLayout, size: int, label: str = "k"
) -> OperatorValuedFunction:
    """Full function: blocks of a random isometry, so the gram sum is exactly I."""
    d = layout.dim
    z = gen.normal(size=(size * d, d)) + 1j * gen.normal(size=(size * d, d))
    q, _ = np.linalg.qr(z)
    table = {bind(label, i): q[i * d : (i + 1) * d, :] for i in range(size)}
    return OperatorValuedFunction(layout, table)


def random_ovf(
    gen: np.random.Generator,
    layout: RegisterLayout,
    size: int,
    kind: str = "full",
    label: str = "k",
) -> OperatorValuedFunction:
    """Random operator-valued function: ``full``, ``sub`` (strictly
    trace-decreasing) or ``zero`` (all operators zero)."""
    if kind == "zero":
        zero = np.zeros((layout.dim, layout.dim), dtype=complex)
        return OperatorValuedFunction(layout, {bind(label, i): zero for i in range(size)})
    f = random_full_ovf(gen, layout, size, label)
    if kind == "full":
        return f
    if kind == "sub":
        scale = float(gen.uniform(0.2, 0.9))
        return OperatorValuedFunction(
            f.layout, {d: np.sqrt(scale) * op for d, op in f.table.items()}
        )
    raise ValueError(f"unknown kind {kind!r}")


class ProgramSampler:
    """Random well-formed core programs over a small variable pool.

    ``data`` variables carry the branches' payload; ``fresh`` variables are
    consumed as guard/coin registers so the disjointness side conditions hold
    by construction.  Classical names are globally unique.
    """

    def __init__(self, gen: np.random.Generator, data: tuple[QVar, ...],
                 fresh: tuple[QVar, ...] = ()):
        self.gen = gen
        self.data = tuple(data)
        self.fresh = list(fresh)
        self._names = count()

    def fresh_classical(self) -> str:
        return f"x{next(self._names)}"

    def _data_subset(self) -> tuple[QVar, ...]:
        n = len(self.data)
        take = int(self.gen.integers(1, n + 1))
        idx = sorted(self.gen.choice(n, size=take, replace=False))
        return tuple(self.data[i] for i in idx)

    def unitary(self) -> Program:
        qs = self._data_subset()
        dim = RegisterLayout(qs).dim
        return Unitary(qs, random_unitary(self.gen, dim))

    def measure(self, depth: int) -> Program:
        qs = self._data_subset()
        dim = RegisterLayout(qs).dim
        outcomes = int(self.gen.integers(2, min(dim, 3) + 1))
        mmt = random_measurement(self.gen, dim, outcomes)
        branches = tuple((m, self.program(depth - 1)) for m in mmt.outcomes)
        return Measure(self.fresh_classical(), qs, mmt, branches)

    def guard(self, depth: int, *, quantum_choice: bool = False) -> Program:
        if not self.fresh:
            return self.unitary()
        gv = self.fresh.pop()
        dim = gv[1]
        basis = (
            GuardBasis.computational(dim)
            if self.gen.uniform() < 0.5
            else GuardBasis(random_unitary(self.gen, dim))
        )
        branches = tuple(self.program(depth - 1) for _ in range(dim))
        if quantum_choice:
            return QChoice(Unitary((gv,), random_unitary(self.gen, dim)), basis, branches)
        from .program import Guarded

        return Guarded((gv,), basis, branches)

    def program(self, depth: int) -> Program:
        if depth <= 0:
            roll = self.gen.uniform()
            if roll < 0.15:
                return Skip()
            if roll < 0.25:
                return Abort()
            return self.unitary()
        roll = self.gen.uniform()
        if roll < 0.25:
            return self.measure(depth)
        if roll < 0.40:
            return self.guard(depth, quantum_choice=self.gen.uniform() < 0.5)
        if roll < 0.70:
            return Seq(self.program(depth - 1), self.program(depth - 1))
        return self.unitary()

