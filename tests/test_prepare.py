"""The checked pass is made once per program: ``program.rules`` records on
each node the ``(tol, max_dim)`` pairs it passed at, and that record is all
a node keeps per pair.  What the program alone fixes is kept on the node once:
its layout and classical variables, a quantum choice's coin-then-guard
``seq`` and a guard's branch functions.  Nodes own read-only copies of their
matrices, and a node ``well_formed`` passed is not checked again at the same
``tol``.
"""

import gc
import io
import weakref
from contextlib import contextmanager, redirect_stdout
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest

import qgcl.program as program
import qgcl.semantics as semantics
from qgcl import cli
from qgcl import linalg as la
from qgcl.errors import CapacityError, ContractError, UnsupportedConstructError
from qgcl.program import (
    Block,
    GuardBasis,
    Guarded,
    Measure,
    Measurement,
    ProbChoice,
    QChoice,
    Seq,
    Skip,
    Unitary,
    qvar_layout,
    well_formed,
)
from qgcl.registers import DensityMatrix, Observable, RegisterLayout
from qgcl.sampling import random_density, random_positive, random_unitary, rng
from qgcl.semantics import apply_program, denote, semi_classical
from qgcl.wp import wp_apply

from conftest import Repeat, rule_calls

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Q, C, E = ("q", 2), ("c", 2), ("e", 2)
SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def shift(n: int, k: int) -> np.ndarray:
    return np.roll(np.eye(n), k, axis=0).astype(complex)


def core_program() -> QChoice:
    """A walk step followed by a measurement whose branches share a guard."""
    walk = QChoice(Unitary((C,), H), GuardBasis.computational(2),
                   (Unitary((("v", 4),), shift(4, 1)), Unitary((("v", 4),), shift(4, -1))))
    guard = Guarded((C,), GuardBasis(H), (Unitary((Q,), X), Skip()))
    return Seq(walk, Measure("x", (Q,), Measurement.computational(2), ((0, guard), (1, guard))))


def channel_program() -> Block:
    """A block over a probabilistic choice, a construct with no semi-classical form."""
    gen = rng(7)
    body = ProbChoice((0.25, 0.75), (Unitary((Q, E), random_unitary(gen, 4)), core_program()))
    return Block((E,), random_density(gen, 2), body)


EVALUATORS = {
    "apply_program": lambda p: apply_program(
        p, DensityMatrix(random_density(rng(1), qvar_layout(p).dim), qvar_layout(p))).matrix,
    "wp_apply": lambda p: wp_apply(
        p, Observable(random_positive(rng(2), qvar_layout(p).dim) / 8, qvar_layout(p))).matrix,
    "denote": lambda p: np.array(denote(p).kraus),
    "semi_classical": lambda p: semi_table(semi_classical(p)),
}


def semi_table(f) -> np.ndarray:
    return np.array([f(d) for d in f.sorted_states()])


@contextmanager
def counted():
    """Counts the nodes the checked pass visits, layouts built and rule runs."""
    with patch.object(semantics, "rules", wraps=program.rules) as checks, \
            patch.object(program, "joined_layout", wraps=program.joined_layout) as layouts, \
            patch.object(program, "violations", wraps=program.violations) as rules:
        yield checks, layouts, rules


class TestMemo:
    @pytest.mark.parametrize("evaluate, make", [
        *((name, make) for name in sorted(EVALUATORS) for make in (core_program, channel_program)
          if (name, make) != ("semi_classical", channel_program))])
    def test_second_call_rebuilds_and_rechecks_nothing(self, evaluate, make):
        run = EVALUATORS[evaluate]
        p = make()
        with counted() as counts:
            first = run(p)
            assert all(count.call_count > 1 for count in counts)
            for count in counts:
                count.reset_mock()
            second = run(p)
        assert [count.call_count for count in counts] == [1, 0, 0]  # the root's record, no descent
        fresh = run(make())
        assert first.tobytes() == second.tobytes() == fresh.tobytes()

    def test_shared_subprogram_is_prepared_once(self):
        leaf = Unitary((Q,), H)
        with counted() as (checks, _, rules):
            semantics._check(Seq(leaf, leaf), la.DEFAULT_TOL, la.MAX_DIM_DEFAULT)
        assert [call.args[0] for call in checks.call_args_list].count(leaf) == 1
        assert [call.args[0] for call in rules.call_args_list].count(leaf) == 1

    @pytest.mark.parametrize("order", [(1e-6, 1e-9), (1e-9, 1e-6)])
    def test_each_tolerance_is_checked_on_its_own(self, order):
        near = Unitary((Q,), H * (1 + 1e-7))  # U† U = (1 + 1e-7)² I
        rho = DensityMatrix(np.diag([1.0, 0.0]), RegisterLayout.of(Q))
        for tol in order:
            if tol > 1e-7:
                apply_program(near, rho, tol=tol)
            else:
                with pytest.raises(ContractError, match="unitary-nonunitary"):
                    apply_program(near, rho, tol=tol)

    def test_each_cap_is_checked_on_its_own(self):
        p = Unitary((("a", 4), ("b", 4)), np.eye(16))
        rho = DensityMatrix(np.eye(16) / 16, RegisterLayout.of(("a", 4), ("b", 4)))
        apply_program(p, rho, max_dim=64)
        with pytest.raises(CapacityError):
            apply_program(p, rho, max_dim=8)

    @pytest.mark.parametrize("p", [
        Seq(Unitary((Q,), H), Unitary((Q,), 2 * H)),
        Seq(Skip(), Guarded((C,), GuardBasis.computational(2),
                            (ProbChoice((1.0,), (Skip(),)), Skip()))),
        Seq(Skip(), Repeat(Skip())),
    ], ids=["rule", "guard-over-pchoice", "unknown-node"])
    def test_rejected_program_raises_the_same_error_again(self, p):
        errors = []
        for _ in range(2):
            with pytest.raises((ContractError, UnsupportedConstructError)) as info:
                denote(p)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]
        key = (la.DEFAULT_TOL, la.MAX_DIM_DEFAULT)
        passed = [program.kept(q, "_passed") or () for q in (p.parts[0], p, p.parts[1])]
        assert key in passed[0]  # the record's key: the rest is not vacuous
        assert key not in passed[1] and key not in passed[2]

    def test_guard_data_is_built_once_whatever_the_tolerance(self):
        measure = Measure("x", (Q,), Measurement.computational(2), ((0, Skip()), (1, Skip())))
        p = Guarded((C,), GuardBasis(H), (measure, Unitary((Q,), X)))
        rho = DensityMatrix(random_density(rng(3), 4), qvar_layout(p))
        with rule_calls(semantics._SEMI) as built:
            for tol in (1e-9, 1e-8):
                apply_program(p, rho, tol=tol)
        assert len(built) == len(set(map(id, built))) == 4  # each branch node once

    def test_dropped_program_is_collected(self):
        p = channel_program()
        EVALUATORS["apply_program"](p)
        ref = weakref.ref(p)
        del p
        gc.collect()
        assert ref() is None


class TestNodesOwnTheirMatrices:
    def test_caller_mutation_does_not_reach_the_program(self):
        u = X.copy()
        p = Unitary((Q,), u)
        rho = DensityMatrix(np.diag([1.0, 0.0]), RegisterLayout.of(Q))
        first = apply_program(p, rho).matrix
        u[:] = H
        assert np.array_equal(p.matrix, X)
        assert apply_program(p, rho).matrix.tobytes() == first.tobytes()

    def test_every_node_matrix_is_read_only(self):
        measurement = Measurement.computational(2)
        basis = GuardBasis(H)
        block = Block((E,), np.diag([1.0, 0.0]), Unitary((Q, E), np.eye(4)))
        for m in (Unitary((Q,), H).matrix, measurement.operators[0][1], basis.matrix, block.init):
            with pytest.raises(ValueError):
                m[0, 0] = 5

    def test_measurement_guard_and_block_copy_their_input(self):
        p0, basis, init = np.diag([1.0, 0.0]), H.copy(), np.diag([1.0, 0.0])
        m = Measurement(((0, p0), (1, np.eye(2) - p0)))
        g, b = GuardBasis(basis), Block((E,), init, Unitary((E,), X))
        p0[0, 0], basis[0, 0], init[0, 0] = 7, 7, 7
        assert m.operators[0][1][0, 0] == g.matrix[0, 0] * np.sqrt(2) == b.init[0, 0] == 1

    def test_read_only_owned_complex_array_is_kept(self):
        u = la.frozen(H)
        assert la.frozen(u) is u and Unitary((Q,), u).matrix is u
        view = u[:, :]
        assert la.frozen(view) is not view


class TestRulesRunOnce:
    def test_cli_run_checks_each_leaf_once(self):
        argv = ["run", str(SAMPLES / "bb84.qgcl"), "--input", str(SAMPLES / "bb84_input.json")]
        with patch.object(la, "near_identity", wraps=la.near_identity) as gram, \
                redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        assert gram.call_count == 3  # two unitaries and one measurement

    def test_block_rules_run_once(self):
        p = channel_program()
        with patch.object(program, "block_rules", wraps=program.block_rules) as rules, \
                patch.object(semantics, "block_rules", rules):
            for _ in range(3):
                denote(p)
        assert rules.call_count == 1

    def test_well_formed_at_another_tolerance_does_not_excuse_a_leaf(self):
        near = Unitary((Q,), H * (1 + 1e-7))
        assert well_formed(near, 1e-6) == []
        with pytest.raises(ContractError, match="unitary-nonunitary"):
            denote(near, tol=1e-9)

    def test_well_formed_reports_the_same_diagnostics_again(self):
        p = Seq(Unitary((Q,), 2 * H), Measure("x", (Q,), Measurement.computational(2), ()))
        first = [(d.code, d.message) for d in well_formed(p)]
        assert first and first == [(d.code, d.message) for d in well_formed(p)]


def test_chain_visits_grow_with_its_length():
    """A chain is one node: checking and evaluating it visits each statement
    a fixed number of times, so ten times the statements is ten times the
    visits, and no walk nests per statement."""
    visits = {}
    for n in (1_000, 10_000):
        p = Seq(*(Unitary((Q,), H) for _ in range(n)))
        rho = DensityMatrix(np.eye(2) / 2, RegisterLayout.of(Q))
        with patch.object(semantics, "rules", wraps=program.rules) as checks, \
                patch.object(program, "children", wraps=program.children) as kids, \
                patch.object(semantics, "children", kids):
            assert well_formed(p) == []
            apply_program(p, rho)
            wp_apply(p, Observable(np.eye(2), RegisterLayout.of(Q)))
            denote(p)
        visits[n] = checks.call_count + kids.call_count
    assert 9.9 * visits[1_000] <= visits[10_000] <= 10 * visits[1_000], visits
