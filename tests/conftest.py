"""Shared corpus builders for the syntax and acceptance suites, the
explicit permutation matrix the linalg and ovf suites check against, a
node type defined outside the package, and counters of the rules that
``walk`` runs."""

from contextlib import contextmanager
from dataclasses import dataclass
from types import GeneratorType

import numpy as np
import pytest

from qgcl.program import Block, ProbChoice, Program, qvar_layout, well_formed
from qgcl.sampling import ProgramSampler, random_density, rng


def corpus_program(seed: int):
    """Random program exercising every construct with concrete syntax."""
    gen = rng(seed)
    sampler = ProgramSampler(gen, (("q", 2),), (("g0", 2), ("g1", 3)))
    p = sampler.program(int(gen.integers(0, 3)))
    roll = gen.uniform()
    if roll < 0.2:
        locals_ = tuple((n, d) for n, d in qvar_layout(p).variables)[:1]
        if locals_:
            dim = locals_[0][1]
            p = Block(locals_, random_density(gen, dim), p)
    elif roll < 0.4:
        q = sampler.program(1)
        p = ProbChoice((0.25, 0.5), (p, q))
    return p


def corpus(count: int = 50):
    """The first ``count`` well-formed corpus programs, deterministically."""
    out = []
    seed = 0
    while len(out) < count:
        p = corpus_program(seed)
        seed += 1
        if not well_formed(p):
            out.append(p)
    return out


@dataclass(frozen=True, eq=False)
class Repeat(Program):
    """A node type defined outside the package: the program walks reach it
    through its fields, and no evaluator or printer knows it."""

    body: Program
    qvars: tuple = ()


def permutation_matrix(dims, order):
    """Basis permutation ``P`` with ``P |i_old> = |i_new>``, built by index
    arithmetic: ``P m P†`` is ``linalg.permute_factors(m, dims, order)``."""
    total = int(np.prod(dims))
    digits = np.unravel_index(np.arange(total), dims)
    dst = np.ravel_multi_index([digits[i] for i in order], [dims[i] for i in order])
    p = np.zeros((total, total), dtype=complex)
    p[dst, np.arange(total)] = 1.0
    return p


@contextmanager
def rule_calls(table, check=None):
    """Records the node of every call of a rule in ``table`` (a class-to-rule
    dict such as ``semantics._DENOTE``) and, when given, runs
    ``check(node, value)`` on the value each call gives."""
    nodes = []

    def wrapped(rule):
        def run(p, *args):
            nodes.append(p)
            out = rule(p, *args)
            value = (yield from out) if isinstance(out, GeneratorType) else out
            if check is not None:
                check(p, value)
            return value
        return run

    with pytest.MonkeyPatch.context() as patch:
        for cls, rule in list(table.items()):
            patch.setitem(table, cls, wrapped(rule))
        yield nodes
