"""Pretty-printer for programs; output reparses to a structurally equal tree.

Every quantum variable used anywhere in the tree (including block locals) is
declared up front.  Matrices and measurements render by name when a supplied
definition matches entrywise, inline otherwise; used names get declarations
so the printed text is self-contained.
"""

from __future__ import annotations

import json

import numpy as np

from . import matrixio
from .errors import UnsupportedConstructError
from .program import (
    Abort,
    Block,
    Guarded,
    Measure,
    Measurement,
    Mu,
    Name,
    ProbChoice,
    Program,
    QChoice,
    Seq,
    Skip,
    Unitary,
    children,
    declared,
)


def _collect_qvars(p: Program, seen: dict[str, int]) -> None:
    if isinstance(p, (Name, Mu)):
        raise UnsupportedConstructError("program names and recursion have no concrete syntax")
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
        return json.dumps(matrixio.matrix_to_record(m), sort_keys=True, separators=(",", ":"))

    def measurement(self, mmt: Measurement) -> str:
        for name, candidate in self.measurement_env:
            if candidate.outcomes == mmt.outcomes and all(
                np.array_equal(a, b)
                for (_, a), (_, b) in zip(candidate.operators, mmt.operators)
            ):
                self.used_measurements.setdefault(name, candidate)
                return name
        arms = "; ".join(f"{m}: {self.matrix(op)}" for m, op in mmt.operators)
        return "{ " + arms + " }"

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
            names = ", ".join(n for n, _ in p.qvars)
            basis = "" if p.basis.is_computational() else f" basis {self.matrix(p.basis.matrix)}"
            arms = "; ".join(
                f"|{i}> -> {self.program(b)}" for i, b in enumerate(p.branches)
            )
            return f"guard {names}{basis} {{ {arms} }}"
        if isinstance(p, Seq):
            first = self.program(p.first)
            if isinstance(p.first, Seq):
                first = f"({first})"  # sequencing parses right-associated
            return f"{first}; {self.program(p.second)}"
        if isinstance(p, Block):
            names = ", ".join(n for n, _ in p.qvars)
            return f"begin local {names} := {self._init(p)}; {self.program(p.body)} end"
        if isinstance(p, ProbChoice):
            arms = "; ".join(
                f"{self.program(b)} @ {w!r}" for b, w in zip(p.branches, p.weights)
            )
            return f"pchoice {{ {arms} }}"
        if isinstance(p, QChoice):
            coin = self.program(p.coin)
            if isinstance(p.coin, Seq):
                coin = f"({coin})"
            basis = "" if p.basis.is_computational() else f" basis {self.matrix(p.basis.matrix)}"
            arms = "; ".join(
                f"|{i}> -> {self.program(b)}" for i, b in enumerate(p.branches)
            )
            return f"qchoice {coin}{basis} {{ {arms} }}"
        raise UnsupportedConstructError(f"{type(p).__name__} has no concrete syntax")

    def _init(self, p: Block) -> str:
        init = np.asarray(p.init, dtype=complex)
        dim = init.shape[0]
        hot = np.nonzero(init)
        if len(hot[0]) == 1 and hot[0][0] == hot[1][0] and init[hot[0][0], hot[0][0]] == 1:
            return f"|{int(hot[0][0])}>"
        return self.matrix(init)


def print_program(
    p: Program,
    *,
    matrices: dict[str, np.ndarray] | None = None,
    measurements: dict[str, Measurement] | None = None,
) -> str:
    """Render a program as a self-contained source text."""
    qvars: dict[str, int] = {}
    _collect_qvars(p, qvars)
    renderer = _Renderer(matrices, measurements)
    body = renderer.program(p)
    measurement_lines = []
    for name, mmt in renderer.used_measurements.items():
        arms = "; ".join(f"{m}: {renderer.matrix(op)}" for m, op in mmt.operators)
        measurement_lines.append(f"measurement {name} = {{ {arms} }};")
    lines = [f"qvar {name} : {dim};" for name, dim in qvars.items()]
    for name, m in renderer.used_matrices.items():
        record = json.dumps(matrixio.matrix_to_record(m), sort_keys=True, separators=(",", ":"))
        lines.append(f"matrix {name} = {record};")
    lines.extend(measurement_lines)
    lines.append("")
    lines.append(body)
    return "\n".join(lines) + "\n"
