"""Programs nest to any depth: every pass over a program is one ``walk`` on
an explicit stack, so none of them stops at Python's recursion limit, and a
subprogram shared between parents is folded once per call."""

import time
from unittest.mock import patch

import numpy as np
import pytest

import qgcl.program as program
import qgcl.semantics as semantics
from qgcl import linalg as la
from qgcl.errors import CapacityError
from qgcl.ovf import to_superop
from qgcl.parser import parse_source
from qgcl.printer import print_program
from qgcl.program import (Block, GuardBasis, Guarded, Measure, Measurement, ProbChoice, QChoice,
                          Seq, Skip, Unitary, ast_equal, desugar, well_formed)
from qgcl.registers import DensityMatrix, Observable, RegisterLayout
from qgcl.semantics import apply_program, denote, semi_classical
from qgcl.wp import wp_apply

from conftest import rule_calls

DEPTH = 10_000
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
CX = np.eye(4)[[0, 1, 3, 2]].astype(complex)  # X on the second variable when the first is 1
Q, L = ("q", 2), ("l", 2)
ONE = Measurement(((0, np.eye(2)),))  # one outcome: a nest of them stays one classical state
KET0 = np.diag([1.0, 0.0])


def nest(wrap, depth=DEPTH):
    """``depth`` levels of ``wrap(level, inner)`` around ``skip``."""
    p = Skip()
    for level in reversed(range(depth)):
        p = wrap(level, p)
    return p


NESTINGS = {
    "measure": lambda i, p: Measure(f"x{i}", (Q,), ONE, ((0, Seq(Unitary((Q,), H), p)),)),
    "pchoice": lambda i, p: ProbChoice((0.5, 0.5), (Unitary((Q,), H), p)),
    # every level's local shadows the enclosing one's
    "local": lambda i, p: Block((L,), KET0, Seq(Unitary((L,), H), Unitary((L, Q), CX), p)),
    "guard": lambda i, p: Guarded(((f"g{i}", 2),), GuardBasis.computational(2),
                                  (Unitary((Q,), H), p)),
    "qchoice": lambda i, p: QChoice(Unitary(((f"g{i}", 2),), H), GuardBasis.computational(2),
                                    (Unitary((Q,), H), p)),
}


def applied(kraus, x, adjoint):
    return sum(la.dagger(k) @ x @ k if adjoint else k @ x @ la.dagger(k) for k in kraus)


@pytest.mark.parametrize("kind", sorted(NESTINGS))
def test_every_pass_reaches_any_depth(kind):
    """Built in the library and read back from its printed source, 10,000
    levels pass ``well_formed``, ``repr``, print, parse and compare equal; the
    evaluators agree on the channel, or all raise the cap's
    ``CapacityError`` where the guards' variables multiply past it."""
    p = nest(NESTINGS[kind])
    assert well_formed(p) == [] and repr(p).startswith(type(p).__name__)
    parsed = parse_source(print_program(p))
    assert ast_equal(parsed, p)
    if kind == "qchoice":
        assert ast_equal(desugar(parsed), desugar(p))
    rho = DensityMatrix(np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]]), RegisterLayout.of(Q))
    obs = Observable(np.array([[0.8, 0.1], [0.1, 0.3]]), RegisterLayout.of(Q))
    if kind in ("guard", "qchoice"):
        for evaluate in (semi_classical, denote, lambda p: apply_program(p, rho),
                         lambda p: wp_apply(p, obs)):
            with pytest.raises(CapacityError):
                evaluate(parsed)
        return
    # The streamed state carries every enclosing block's local until it
    # would pass ``max_dim``; a block is then applied through its Kraus
    # family.  A small cap keeps those states small.
    cap = 64
    kraus = denote(parsed, max_dim=cap).kraus
    assert la.max_abs_diff(apply_program(parsed, rho, max_dim=cap).matrix,
                           applied(kraus, rho.matrix, False)) < 1e-12
    assert la.max_abs_diff(wp_apply(parsed, obs, max_dim=cap).matrix,
                           applied(kraus, obs.matrix, True)) < 1e-12
    if kind == "measure":
        f = semi_classical(parsed)
        assert len(f.states) == 1
        assert la.choi_max_diff(to_superop(f).kraus, kraus, 2) < 1e-12


def shared_chain(rounds):
    """``p_{i+1} = U; measure x_i {0: p_i; 1: p_i}`` on a d = 8 register, one
    ``U`` for every level: ``2^rounds`` paths through ``2 rounds + 2``
    distinct nodes."""
    gen = np.random.default_rng(5)
    u = Unitary((("r", 8),), np.linalg.qr(gen.normal(size=(8, 8)) + 1j * gen.normal(size=(8, 8)))[0])
    halves = Measurement(((0, np.diag([1.0] * 4 + [0.0] * 4)), (1, np.diag([0.0] * 4 + [1.0] * 4))))
    p = Skip()
    for i in range(rounds):
        p = Seq(u, Measure(f"x{i}", (("r", 8),), halves, ((0, p), (1, p))))
    return p


def flat_chain(rounds):
    """The same operators as ``shared_chain`` in one flat ``;`` chain: the
    same ``2^rounds`` classical states, every node distinct."""
    q = shared_chain(1)
    u, m = q.parts[0], q.parts[1].measurement
    parts = []
    for i in range(rounds):
        parts += [u, Measure(f"x{i}", (("r", 8),), m, ((0, Skip()), (1, Skip())))]
    return Seq(*parts)


def distinct(p):
    seen, todo = {id(p)}, [p]
    while todo:
        for c in program.children(todo.pop()):
            if id(c) not in seen:
                seen.add(id(c))
                todo.append(c)
    return len(seen)


@pytest.mark.parametrize("rounds", [4, 8, 12])
def test_a_shared_subprogram_is_folded_once_per_call(rounds):
    p = shared_chain(rounds)
    nodes = distinct(p)
    assert nodes == 2 * rounds + 2
    for table, evaluate in ((semantics._SEMI, semi_classical), (semantics._DENOTE, denote)):
        with rule_calls(table) as calls:
            evaluate(p)
        assert len(calls) <= nodes and len(calls) == len(set(map(id, calls)))
    with patch.object(program, "rules", wraps=program.rules) as checks:
        assert well_formed(p) == []
    calls = [call.args[0] for call in checks.call_args_list]
    assert len(calls) == len(set(map(id, calls))) <= nodes
    text = print_program(p)
    assert text.count("measure") == 2**rounds - 1  # the printed tree repeats what is shared


def test_a_shared_chain_costs_what_the_flat_chain_costs():
    """At r = 12 the shared chain's 4,096 classical states take no longer
    than the flat chain's, within 1.2 times, once each is checked."""
    shared, flat = shared_chain(12), flat_chain(12)
    assert len(semi_classical(shared).states) == len(semi_classical(flat).states) == 4096
    for evaluate in (semi_classical, denote):
        times = {}
        for name, p in (("shared", shared), ("flat", flat)):
            best = float("inf")
            for _ in range(7):
                start = time.perf_counter()
                evaluate(p)
                best = min(best, time.perf_counter() - start)
            times[name] = best
        assert times["shared"] <= 1.2 * times["flat"], (evaluate.__name__, times)
