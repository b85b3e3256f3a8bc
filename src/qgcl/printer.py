"""Pretty-printer for programs; output reparses to a structurally equal tree.

Every quantum variable used anywhere in the tree (including block locals) is
declared up front.  Matrices and measurements render by name when a supplied
definition matches entrywise, inline otherwise; used names get declarations
so the printed text is self-contained.
"""

from __future__ import annotations

import numpy as np

from . import matrixio
from .errors import UnsupportedConstructError
from .program import (Abort, Block, Guarded, Measure, Measurement, ProbChoice, Program, QChoice,
                      Seq, Skip, Unitary, children, declared)


def _collect_qvars(p: Program, seen: dict[str, int]) -> None:
    for name, d in declared(p):
        seen.setdefault(name, d)
    for child in children(p):
        _collect_qvars(child, seen)


class _Renderer:
    def __init__(self, matrices, measurements):
        self.matrix_env = list((matrices or {}).items())
        self.measurement_env = list((measurements or {}).items())
        self.used_matrices: dict[str, np.ndarray] = {}
        self.used_measurements: dict[str, Measurement] = {}

    def matrix(self, m: np.ndarray) -> str:
        for name, candidate in self.matrix_env:
            if candidate.shape == m.shape and np.array_equal(candidate, m):
                self.used_matrices.setdefault(name, candidate)
                return name
        return _record(m)

    def measurement(self, mmt: Measurement) -> str:
        for name, candidate in self.measurement_env:
            if candidate.outcomes == mmt.outcomes and all(
                np.array_equal(a, b)
                for (_, a), (_, b) in zip(candidate.operators, mmt.operators)
            ):
                self.used_measurements.setdefault(name, candidate)
                return name
        return self.measurement_literal(mmt)

    def measurement_literal(self, mmt: Measurement) -> str:
        return "{ " + "; ".join(f"{m}: {self.matrix(op)}" for m, op in mmt.operators) + " }"

    def program(self, p: Program) -> str:
        if isinstance(p, Abort):
            return "abort"
        if isinstance(p, Skip):
            return "skip"
        if isinstance(p, Unitary):
            return f"{self.matrix(p.matrix)}[{', '.join(n for n, _ in p.qvars)}]"
        if isinstance(p, Measure):
            arms = "; ".join(f"{m}: {self.program(sub)}" for m, sub in p.branches)
            names = ", ".join(n for n, _ in p.qvars)
            return f"measure {p.x} <- {self.measurement(p.measurement)}[{names}] {{ {arms} }}"
        if isinstance(p, Guarded):
            return f"guard {', '.join(n for n, _ in p.qvars)}{self._guard_tail(p)}"
        if isinstance(p, Seq):
            return "; ".join(map(self.program, p.parts))
        if isinstance(p, Block):
            names = ", ".join(n for n, _ in p.qvars)
            return f"begin local {names} := {self._init(p)}; {self.program(p.body)} end"
        if isinstance(p, ProbChoice):
            arms = "; ".join(f"{self.program(b)} @ {w!r}" for b, w in zip(p.branches, p.weights))
            return f"pchoice {{ {arms} }}"
        if isinstance(p, QChoice):
            coin = self.program(p.coin)
            if isinstance(p.coin, Seq):
                coin = f"({coin})"
            return f"qchoice {coin}{self._guard_tail(p)}"
        raise UnsupportedConstructError(f"{type(p).__name__} has no concrete syntax")

    def _guard_tail(self, p: Guarded | QChoice) -> str:
        """``[basis B] { |i> -> P; ... }``, shared by guard and qchoice."""
        basis = "" if p.basis.is_computational else f" basis {self.matrix(p.basis.matrix)}"
        arms = "; ".join(f"|{i}> -> {self.program(b)}" for i, b in enumerate(p.branches))
        return f"{basis} {{ {arms} }}"

    def _init(self, p: Block) -> str:
        init = np.asarray(p.init, dtype=complex)
        hot = np.nonzero(init)
        if len(hot[0]) == 1 and hot[0][0] == hot[1][0] and init[hot[0][0], hot[0][0]] == 1:
            return f"|{int(hot[0][0])}>"
        return self.matrix(init)


def _record(m: np.ndarray) -> str:
    return matrixio.render(matrixio.matrix_to_record(m))


def print_program(p: Program, *, matrices: dict[str, np.ndarray] | None = None,
                  measurements: dict[str, Measurement] | None = None) -> str:
    """Render a program as a self-contained source text."""
    qvars: dict[str, int] = {}
    _collect_qvars(p, qvars)
    renderer = _Renderer(matrices, measurements)
    body = renderer.program(p)
    # Rendered first: a measurement's operators may add matrix declarations.
    measurement_lines = [f"measurement {name} = {renderer.measurement_literal(mmt)};"
                         for name, mmt in renderer.used_measurements.items()]
    lines = [f"qvar {name} : {dim};" for name, dim in qvars.items()]
    lines += [f"matrix {name} = {_record(m)};" for name, m in renderer.used_matrices.items()]
    return "\n".join([*lines, *measurement_lines, "", body]) + "\n"
