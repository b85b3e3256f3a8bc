from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgcl import linalg as la
from qgcl import program
from qgcl.equivalence import program_equiv_report
from qgcl.errors import ContractError, LayoutError, QgclError, SourceError, Span
from qgcl.program import (
    Abort,
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
    ast_equal,
    block_rules,
    check,
    children,
    desugar_qchoice,
    is_core,
    qvar,
    qvar_layout,
    rebuild,
    var,
    well_formed,
)
from qgcl.printer import print_program
from qgcl.registers import RegisterLayout
from qgcl.semantics import denote
from qgcl.sampling import ProgramSampler, rng

from conftest import Repeat

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Q = ("q", 2)
C = ("c", 2)
M0 = Measurement.computational(2)


def measure_skip(x="x", qv=Q, mmt=M0):
    return Measure(x, (qv,), mmt, tuple((m, Skip()) for m in mmt.outcomes))


def codes(p):
    return sorted({d.code for d in well_formed(p)})


class TestVariableAccounting:
    def test_skip_and_abort_have_no_variables(self):
        assert qvar(Skip()) == frozenset()
        assert qvar(Abort()) == frozenset()
        assert var(Skip()) == frozenset()

    def test_unitary(self):
        p = Unitary((Q,), X)
        assert qvar(p) == {"q"}
        assert var(p) == frozenset()

    def test_measure_collects_outcome_variable(self):
        p = measure_skip()
        assert var(p) == {"x"}
        assert qvar(p) == {"q"}

    def test_block_removes_locals(self):
        inner = Guarded((C,), GuardBasis.computational(2), (Unitary((Q,), la.identity(2)), Unitary((Q,), X)))
        blk = Block((C,), np.diag([1.0, 0.0]), inner)
        assert qvar(blk) == qvar(inner.branches[0]) | qvar(inner.branches[1])
        assert qvar_layout(blk).names == ("q",)

    def test_traversal_order(self):
        p = Seq(Unitary((C,), H), Unitary((Q,), X))
        assert qvar_layout(p).names == ("c", "q")

    def test_dimension_conflict_raises(self):
        p = Seq(Unitary((("q", 2),), X), Unitary((("q", 3),), la.identity(3)))
        with pytest.raises(LayoutError):
            qvar_layout(p)
        assert "dim-conflict" in codes(p)

    def test_block_local_may_shadow_with_another_dimension(self):
        # A block's locals are out of scope outside it, as in evaluation.
        shadow = Block((("q", 3),), np.eye(3) / 3, Unitary((("q", 3),), la.identity(3)))
        assert well_formed(Seq(shadow, Unitary((Q,), X))) == []
        assert "dim-conflict" in codes(Block((("q", 3),), np.eye(3) / 3, Unitary((Q,), X)))

    def test_foreign_node_uses_its_qvars_and_subprograms(self):
        p = Repeat(measure_skip(), (("r", 3),))
        assert qvar_layout(p).names == ("r", "q")
        assert var(p) == {"x"}
        assert qvar(Repeat(Skip())) == frozenset()


class TestWellFormed:
    def test_skip_is_ok(self):
        assert well_formed(Skip()) == []

    def test_classical_variable_reuse_in_seq(self):
        p = Seq(measure_skip("x"), measure_skip("x"))
        assert "var-reuse" in codes(p)

    def test_guard_variable_used_in_branch(self):
        p = Guarded((C,), GuardBasis.computational(2), (Unitary((C,), X), Skip()))
        assert "guard-var-overlap" in codes(p)

    def test_incomplete_measurement(self):
        broken = Measurement(((0, np.diag([1.0, 0.0])), (1, np.diag([0.0, 0.5]))))
        assert "measure-incomplete" in codes(measure_skip(mmt=broken))

    def test_outcome_variable_captured(self):
        p = Measure("x", (Q,), M0, ((0, Skip()), (1, measure_skip("x", ("r", 2)))))
        assert "measure-var-capture" in codes(p)

    def test_branch_outcome_mismatch(self):
        p = Measure("x", (Q,), M0, ((0, Skip()), (2, Skip())))
        assert "measure-branch-outcomes" in codes(p)

    def test_non_unitary_statement(self):
        assert "unitary-nonunitary" in codes(Unitary((Q,), np.diag([1.0, 0.5])))

    def test_unitary_shape_mismatch(self):
        assert "unitary-shape" in codes(Unitary((Q,), la.identity(3)))

    def test_guard_basis_not_orthonormal(self):
        bad = GuardBasis(np.array([[1.0, 1.0], [0.0, 0.0]]))
        p = Guarded((C,), bad, (Skip(), Skip()))
        assert "guard-basis" in codes(p)

    def test_guard_arity_mismatch(self):
        p = Guarded((C,), GuardBasis.computational(2), (Skip(),))
        assert "guard-arity" in codes(p)

    def test_qchoice_coin_must_own_guard_variables(self):
        p = QChoice(Skip(), GuardBasis.computational(2), (Skip(), Skip()))
        assert "guard-arity" in codes(p) or "guard-basis" in codes(p)

    def test_block_locals_must_occur_in_body(self):
        p = Block((C,), np.diag([1.0, 0.0]), Unitary((Q,), X))
        assert "block-locals" in codes(p)

    def test_block_init_must_be_density(self):
        body = Unitary((C,), H)
        p = Block((C,), np.diag([2.0, 0.0]), body)
        assert "block-init" in codes(p)

    def test_prob_choice_weights(self):
        assert "prob-weights" in codes(ProbChoice((0.8, 0.9), (Skip(), Skip())))
        assert "prob-weights" in codes(ProbChoice((-0.1, 0.5), (Skip(), Skip())))
        assert "prob-arity" in codes(ProbChoice((0.5,), (Skip(), Skip())))
        assert well_formed(ProbChoice((0.2, 0.3), (Skip(), Skip()))) == []

    def test_prob_choice_weights_must_be_finite(self):
        for w in (np.nan, np.inf):
            assert "prob-weights" in codes(ProbChoice((w, 0.5), (Skip(), Skip())))

    def test_foreign_node_is_left_to_evaluation(self):
        # No rule names the node itself; its subprograms are still checked.
        assert well_formed(Repeat(Unitary((Q,), X))) == []
        assert codes(Repeat(Unitary((Q,), 2 * X))) == codes(Unitary((Q,), 2 * X)) != []

    def test_measurement_without_operators(self):
        assert codes(Measure("x", (Q,), Measurement(()), ())) == ["measure-incomplete"]

    def test_empty_guard_basis(self):
        assert codes(Guarded((), GuardBasis(np.zeros((0, 0))), ())) == ["guard-basis"]

    def test_qchoice_coin_and_branch_bind_one_outcome_variable(self):
        p = QChoice(measure_skip("x", C), GuardBasis.computational(2),
                    (measure_skip("x"), Skip()))
        assert codes(p) == ["var-reuse"]

    def test_check_raises_with_diagnostics(self):
        with pytest.raises(SourceError) as exc:
            check(Seq(measure_skip("x"), measure_skip("x")))
        assert any(d.code == "var-reuse" for d in exc.value.diagnostics)


class TestDesugar:
    def test_qchoice_desugars_to_coin_then_guard(self):
        qc = QChoice(Unitary((C,), H), GuardBasis.computational(2), (Skip(), Unitary((Q,), X)))
        seq = desugar_qchoice(qc)
        assert isinstance(seq, Seq)
        coin, guard = seq.parts
        assert ast_equal(coin, qc.coin)
        assert isinstance(guard, Guarded)
        assert guard.qvars == (C,)
        assert well_formed(seq) == []

    def test_single_branch_choice(self):
        qc = QChoice(Skip(), GuardBasis(np.array([[1.0]])), (Unitary((Q,), X),))
        seq = desugar_qchoice(qc)
        assert isinstance(seq.parts[1], Guarded) and len(seq.parts[1].branches) == 1

    def test_desugar_preserves_well_formedness(self):
        gen = rng(4)
        for _ in range(20):
            p = ProgramSampler(gen, (Q,), (("g0", 2), ("g1", 3))).program(2)
            assert well_formed(p) == []
            assert well_formed(desugar_qchoice(p)) == [] if isinstance(p, QChoice) else True

    def test_is_core(self):
        assert is_core(Seq(Skip(), measure_skip()))
        assert is_core(QChoice(Unitary((C,), H), GuardBasis.computational(2), (Skip(), Skip())))
        assert not is_core(Block((C,), np.diag([1.0, 0.0]), Unitary((C,), H)))
        assert not is_core(ProbChoice((1.0,), (Skip(),)))


def one_of_each():
    """One instance of every node type, with its expected children in order."""
    b0, b1, coin = Unitary((Q,), H), Unitary((Q,), X), Unitary((C,), H)
    span = Span(3, 4)
    return [
        (Abort(span=span), []),
        (Skip(span=span), []),
        (Unitary((Q,), X, span=span), []),
        (Measure("x", (Q,), M0, ((1, b1), (0, b0)), span=span), [b0, b1]),
        (Guarded((C,), GuardBasis.computational(2), (b0, b1), span=span), [b0, b1]),
        (Seq(b0, b1, span=span), [b0, b1]),
        (Block((C,), np.diag([1.0, 0.0]), coin, span=span), [coin]),
        (ProbChoice((0.25, 0.75), (b0, b1), span=span), [b0, b1]),
        (QChoice(coin, GuardBasis.computational(2), (b0, b1), span=span), [coin, b0, b1]),
    ]


def test_one_of_each_covers_every_node_type():
    # So the children, rebuild and ast_equal tests below miss no node type.
    defined = {c for c in vars(program).values() if isinstance(c, type)
               and issubclass(c, program.Program) and c is not program.Program}
    assert {type(node) for node, _ in one_of_each()} == defined


class TestTraversal:
    @pytest.mark.parametrize("node, expected", one_of_each(), ids=lambda v: type(v).__name__)
    def test_children_in_field_order(self, node, expected):
        got = children(node)
        assert len(got) == len(expected)
        assert all(a is b for a, b in zip(got, expected))

    @pytest.mark.parametrize("node, _", one_of_each(), ids=lambda v: type(v).__name__)
    def test_identity_rebuild_keeps_tree_and_span(self, node, _):
        copy = rebuild(node, lambda c: c)
        assert ast_equal(copy, node)
        assert copy.span == node.span == Span(3, 4)

    @pytest.mark.parametrize("node, _", one_of_each(), ids=lambda v: type(v).__name__)
    def test_rebuild_replaces_only_children(self, node, _):
        copy = rebuild(node, lambda c: Abort())
        assert all(isinstance(c, Abort) for c in children(copy))
        assert len(children(copy)) == len(children(node))
        if isinstance(node, Measure):
            assert copy.measurement is node.measurement and copy.x == node.x
            assert [m for m, _ in copy.branches] == [0, 1]

    def test_foreign_node_is_walked_through_its_fields(self):
        body = Unitary((Q,), X)
        node = Repeat(body, (C,), span=Span(3, 4))
        assert children(node) == [body]
        copy = rebuild(node, lambda c: Abort())
        assert isinstance(copy, Repeat) and isinstance(copy.body, Abort)
        assert copy.qvars == (C,) and copy.span == node.span


def bump(m):
    out = np.array(m, dtype=complex)
    out[0, 0] += 1e-3
    return out


class TestAstEquality:
    @pytest.mark.parametrize(
        "a, b",
        [
            (Unitary((Q,), X), Unitary((Q,), bump(X))),
            (
                Guarded((C,), GuardBasis(H), (Skip(), Skip())),
                Guarded((C,), GuardBasis(bump(H)), (Skip(), Skip())),
            ),
            (
                measure_skip(mmt=M0),
                measure_skip(mmt=Measurement(((0, bump(M0.operator(0))), (1, M0.operator(1))))),
            ),
            (ProbChoice((0.25, 0.75), (Skip(), Skip())), ProbChoice((0.25, 0.5), (Skip(), Skip()))),
            (measure_skip("x"), measure_skip("y")),
        ],
        ids=["unitary", "guard-basis", "measurement", "weight", "x"],
    )
    def test_one_field_entry_changed(self, a, b):
        assert ast_equal(a, a) and ast_equal(b, b)
        assert not ast_equal(a, b) and not ast_equal(b, a)

    def test_matrices_compare_entrywise(self):
        a = Unitary((Q,), X)
        b = Unitary((Q,), X.copy())
        c = Unitary((Q,), H)
        assert ast_equal(a, b)
        assert not ast_equal(a, c)

    def test_span_is_ignored(self):
        assert ast_equal(Skip(span=Span(1, 1)), Skip())


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_sampled_programs_are_well_formed_and_monotone(seed):
    """var/qvar grow monotonically from subterm to enclosing term (no blocks
    in the sampler, so no local removal)."""
    gen = rng(seed)
    sampler = ProgramSampler(gen, (Q, ("r", 2)), (("g0", 2), ("g1", 2)))
    p = sampler.program(2)
    assert well_formed(p) == []

    def walk(node):
        for child in children(node):
            assert var(child) <= var(node)
            assert qvar(child) <= qvar(node)
            walk(child)

    walk(p)


def test_deep_library_programs_need_no_recursion():
    # A fresh library-built program 480 choices deep, at the default
    # recursion limit: its layout, classical variables and core-ness are
    # filled bottom-up, so neither they nor ``program_equiv_report`` (which
    # reads the layout first) nest a frame per level.
    def deep(levels):
        p = Measure("x", (Q,), M0, ((0, Unitary((C,), H)), (1, Skip())))
        for _ in range(levels):
            p = ProbChoice((0.5, 0.5), (p, Skip()))
        return p

    assert qvar_layout(deep(480)).names == ("q", "c")
    assert var(deep(480)) == {"x"}
    assert not is_core(deep(480))
    assert program_equiv_report(deep(480), deep(480))[0] == "equiv"


# name: (a node no matrix check rejects at construction, its diagnostic, the
# error evaluation raises for it).
UNCHECKED_LEAVES = {
    "unitary-nan": (Unitary((Q,), [[np.nan, 0], [0, 1]]), "unitary-nonunitary", ContractError),
    "unitary-inf": (Unitary((Q,), [[1, 0], [0, np.inf]]), "unitary-nonunitary", ContractError),
    "init-nan": (Block((C,), [[np.nan, 0], [0, 1]], Unitary((C,), H)), "block-init", ContractError),
    "init-rank-1": (Block((C,), [1.0, 0.0], Unitary((C,), H)), "block-init", LayoutError),
    "init-rank-3": (Block((C,), np.zeros((2, 2, 2)), Unitary((C,), H)), "block-init", LayoutError),
}


@pytest.mark.parametrize("name", list(UNCHECKED_LEAVES))
def test_non_finite_or_mis_ranked_leaves_are_diagnostics(name):
    """A library-built leaf with a non-finite entry, or a block whose
    initial state is not a matrix, is reported by ``well_formed``, not
    raised; ``check`` raises a ``SourceError`` and an evaluator the rule's
    typed error with its code.  The printer raises a ``QgclError``."""
    p, code, error = UNCHECKED_LEAVES[name]
    assert [d.code for d in well_formed(p)] == [code]
    with pytest.raises(SourceError, match=code):
        check(p)
    with pytest.raises(error, match=f"^{code}: "):
        denote(p)
    with pytest.raises(QgclError):
        print_program(p)


@pytest.mark.parametrize("diagonal, ok", [
    ([0.7, -0.2], False),  # a negative eigenvalue
    ([0.8, 0.3], False),  # trace above one
    ([0.3, 0.0], True),  # a partial state, trace below one
    ([0.0, 1.0], True),  # |1><1|
])
def test_block_init_verdict_on_a_diagonal_state_needs_no_eigensolver(diagonal, ok):
    # The same verdict as on the state rotated off the diagonal, which takes
    # the eigensolver; the diagonal state itself is read off its diagonal.
    body = RegisterLayout.of(C, Q)
    rotated = H @ np.diag(diagonal) @ H
    assert [v.code for v in block_rules((C,), rotated, body)] == ([] if ok else ["block-init"])
    with patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
        found = [v.code for v in block_rules((C,), np.diag(diagonal), body)]
    assert found == ([] if ok else ["block-init"])
    assert eigvalsh.call_count == 0


@given(st.integers(0, 2**32 - 1), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_collecting_pass_keeps_the_joined_layouts(seed, depth):
    """``well_formed`` leaves on every node the layout ``joined_layout``
    builds from its subprograms' layouts."""
    p = ProgramSampler(rng(seed), (("q", 2), ("r", 3)), (("g0", 2), ("g1", 3))).program(depth)
    assert well_formed(p) == []
    todo = [p]
    while todo:
        node = todo.pop()
        subs = children(node)
        assert node.__dict__["layout"] == program.joined_layout(node, [s.layout for s in subs])
        todo += subs


def test_evaluation_after_parsing_joins_no_layout():
    """The raising pass of ``apply_program`` on a parsed program finds every
    node's layout kept by the parser's collecting pass: no
    ``joined_layout`` call."""
    import os

    from qgcl import matrixio
    from qgcl.parser import parse_file
    from qgcl.semantics import apply_program

    samples = os.path.join(os.path.dirname(__file__), "..", "samples")
    p = parse_file(os.path.join(samples, "bb84.qgcl"))
    rho = matrixio.density_from_record(matrixio.load_file(os.path.join(samples, "bb84_input.json")))
    with patch.object(program, "joined_layout", wraps=program.joined_layout) as joins:
        apply_program(p, rho)
    assert joins.call_count == 0
