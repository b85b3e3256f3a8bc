"""Pretty-printer for programs; output reparses to a structurally equal tree.

Every quantum variable used anywhere in the tree (including block locals) is
declared up front.  Matrices and measurements render by name when a supplied
definition matches entrywise, inline otherwise; used names get declarations
so the printed text is self-contained.  One ``walk`` renders the program:
each node's text is a list of strings and its subprograms' lists, joined
once at the end, so no text is copied per level.
"""

from __future__ import annotations

import numpy as np

from . import linalg, matrixio
from .errors import UnsupportedConstructError
from .program import (Abort, Block, Guarded, Measure, Measurement, ProbChoice, Program, QChoice,
                      Seq, Skip, Unitary, declared, text, walk)


class _Renderer:
    def __init__(self, matrices, measurements):
        self.matrix_env = list((matrices or {}).items())
        self.measurement_env = list((measurements or {}).items())
        self.qvars: dict[str, int] = {}
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

    def program(self, p: Program):
        """The rule for ``walk``: the node's text as a list of strings and
        subprogram texts.  A node's variables are declared in pre-order,
        and its matrices named in the order the text reads, except a
        measurement's, after its branches."""
        for name, d in declared(p):
            self.qvars.setdefault(name, d)
        if isinstance(p, Abort):
            return ["abort"]
        if isinstance(p, Skip):
            return ["skip"]
        if isinstance(p, Unitary):
            return [f"{self.matrix(p.matrix)}[{', '.join(n for n, _ in p.qvars)}]"]
        if isinstance(p, Measure):
            arms = []
            for m, sub in p.branches:
                arms += ["; " if arms else "", f"{m}: ", (yield sub)]
            names = ", ".join(n for n, _ in p.qvars)
            return [f"measure {p.x} <- {self.measurement(p.measurement)}[{names}] {{ ", arms, " }"]
        if isinstance(p, Guarded):
            return [f"guard {', '.join(n for n, _ in p.qvars)}", (yield from self._guard_tail(p))]
        if isinstance(p, Seq):
            parts = []
            for sub in p.parts:
                parts += ["; " if parts else "", (yield sub)]
            return parts
        if isinstance(p, Block):
            names = ", ".join(n for n, _ in p.qvars)
            return [f"begin local {names} := {self._init(p)}; ", (yield p.body), " end"]
        if isinstance(p, ProbChoice):
            arms = []
            for b, w in zip(p.branches, p.weights):
                arms += ["; " if arms else "", (yield b), f" @ {w!r}"]
            return ["pchoice { ", arms, " }"]
        if isinstance(p, QChoice):
            coin = yield p.coin
            if isinstance(p.coin, Seq):
                coin = ["(", coin, ")"]
            return ["qchoice ", coin, (yield from self._guard_tail(p))]
        raise UnsupportedConstructError(f"{type(p).__name__} has no concrete syntax")

    def _guard_tail(self, p: Guarded | QChoice):
        """``[basis B] { |i> -> P; ... }``, shared by guard and qchoice."""
        basis = "" if p.basis.is_computational else f" basis {self.matrix(p.basis.matrix)}"
        arms = []
        for i, b in enumerate(p.branches):
            arms += ["; " if arms else "", f"|{i}> -> ", (yield b)]
        return [basis, " { ", arms, " }"]

    def _init(self, p: Block) -> str:
        init = linalg.as_matrix(p.init)  # a ``ShapeError`` unless a finite matrix
        hot = np.nonzero(init)
        if len(hot[0]) == 1 and hot[0][0] == hot[1][0] and init[hot[0][0], hot[0][0]] == 1:
            return f"|{int(hot[0][0])}>"
        return self.matrix(init)


def _record(m: np.ndarray) -> str:
    return matrixio.render(matrixio.matrix_to_record(m))


def print_program(p: Program, *, matrices: dict[str, np.ndarray] | None = None,
                  measurements: dict[str, Measurement] | None = None) -> str:
    """Render a program as a self-contained source text."""
    renderer = _Renderer(matrices, measurements)
    body = text(walk(p, renderer.program))
    # Rendered first: a measurement's operators may add matrix declarations.
    measurement_lines = [f"measurement {name} = {renderer.measurement_literal(mmt)};"
                         for name, mmt in renderer.used_measurements.items()]
    lines = [f"qvar {name} : {dim};" for name, dim in renderer.qvars.items()]
    lines += [f"matrix {name} = {_record(m)};" for name, m in renderer.used_matrices.items()]
    return "\n".join([*lines, *measurement_lines, "", body]) + "\n"
