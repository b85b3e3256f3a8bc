import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgcl import classical as cs
from qgcl import linalg as la
from qgcl.equivalence import (
    program_equiv,
    program_equiv_report,
    refinement_member,
    superop_equal,
)
from qgcl.errors import ContractError, LayoutError
from qgcl.ovf import OperatorValuedFunction, SuperOperator, to_superop
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
)
from qgcl.registers import RegisterLayout
from qgcl.sampling import ProgramSampler, random_unitary, rng
from qgcl.semantics import denote, semi_classical

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
I2 = la.identity(2)
Q = ("q", 2)
C = ("c", 2)
QL = RegisterLayout.of(Q)


class TestSuperopEqual:
    def test_global_phase_invisible(self):
        a = SuperOperator(QL, (I2,))
        b = SuperOperator(QL, (np.exp(1j * np.pi / 3) * I2,))
        assert superop_equal(a, b, 1e-9)

    def test_distinct_unitaries(self):
        assert not superop_equal(SuperOperator(QL, (I2,)), SuperOperator(QL, (Z,)), 1e-9)

    def test_kraus_order_irrelevant(self):
        zero = np.zeros((2, 2), dtype=complex)
        a = SuperOperator(QL, (H, zero))
        b = SuperOperator(QL, (zero, H))
        assert superop_equal(a, b, 1e-12)

    def test_factor_order_aligned(self):
        ab = RegisterLayout.of(("a", 2), ("b", 2))
        ba = RegisterLayout.of(("b", 2), ("a", 2))
        op = la.tensor(X, I2)
        a = SuperOperator(ab, (op,))
        b = SuperOperator(ba, (la.tensor(I2, X),))
        assert superop_equal(a, b, 1e-12)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(LayoutError):
            superop_equal(SuperOperator(QL, (I2,)),
                          SuperOperator(RegisterLayout.of(("r", 3)), (la.identity(3),)))


class TestProgramEquiv:
    def test_skip_is_left_identity(self):
        p = Unitary((Q,), H)
        assert program_equiv(Seq(Skip(), p), p)
        assert program_equiv(Seq(p, Skip()), p)

    def test_qvar_mismatch_reported(self):
        verdict, dev = program_equiv_report(Skip(), Unitary((Q,), I2))
        assert verdict == "qvar-mismatch" and dev is None

    def test_coin_relocation_instance(self):
        from qgcl.semantics import coin_relocation_lhs_rhs

        lhs, rhs = coin_relocation_lhs_rhs(
            Unitary((C,), H), GuardBasis.computational(2),
            (Unitary((Q,), I2), Unitary((Q,), X)),
        )
        assert program_equiv(lhs, rhs)

    def test_probability_column_implements_distribution(self):
        # coin unitary whose first column carries the probability amplitudes
        p_weight = 0.3
        u = np.array(
            [[np.sqrt(p_weight), np.sqrt(1 - p_weight)],
             [np.sqrt(1 - p_weight), -np.sqrt(p_weight)]],
            dtype=complex,
        )
        branches = (Unitary((Q,), H), Unitary((Q,), X))
        ket0 = np.diag([1.0, 0.0]).astype(complex)
        block = Block((C,), ket0, QChoice(Unitary((C,), u), GuardBasis.computational(2), branches))
        assert program_equiv(block, ProbChoice((p_weight, 1 - p_weight), branches))

    def test_equivalence_relation_properties(self):
        gen = rng(41)
        programs = []
        for seed in range(6):
            sampler = ProgramSampler(rng(seed), (Q,), (("g0", 2),))
            programs.append(sampler.program(1))
        for p in programs:
            assert program_equiv(p, p)
        for p in programs:
            for q in programs:
                assert program_equiv(p, q) == program_equiv(q, p)
        # transitivity on the sampled corpus
        for p in programs:
            for q in programs:
                for r in programs:
                    if program_equiv(p, q) and program_equiv(q, r):
                        assert program_equiv(p, r)

    def test_congruence_under_sequencing(self):
        gen = rng(42)
        u = random_unitary(gen, 2)
        p1 = Seq(Unitary((Q,), H), Unitary((Q,), u))
        p2 = Unitary((Q,), u @ H)
        assert program_equiv(p1, p2)
        tail = Measure("x", (Q,), Measurement.computational(2), ((0, Skip()), (1, Skip())))
        assert program_equiv(Seq(p1, tail), Seq(p2, tail))


class TestRefinementMember:
    def test_canonical_witness_always_accepted(self):
        gen = rng(43)
        b1 = Measure("x", (Q,), Measurement.computational(2),
                     ((0, Skip()), (1, Unitary((Q,), random_unitary(gen, 2)))))
        b2 = Unitary((Q,), random_unitary(gen, 2))
        guard = Guarded((C,), GuardBasis.computational(2), (b1, b2))
        data = RegisterLayout.of(Q)
        reps = [
            semi_classical(b1).extended_to(data),
            semi_classical(b2).extended_to(data),
        ]
        channels = [to_superop(r) for r in reps]
        guard_channel = denote(guard).extended_to(
            RegisterLayout.of(Q, C)
        )
        assert refinement_member(guard_channel, GuardBasis.computational(2), channels, reps)

    def test_phase_twisted_representative_is_a_different_member(self):
        reps_plain = [
            OperatorValuedFunction(QL, {cs.EPS: I2}),
            OperatorValuedFunction(QL, {cs.EPS: Z}),
        ]
        reps_twist = [
            OperatorValuedFunction(QL, {cs.EPS: I2}),
            OperatorValuedFunction(QL, {cs.EPS: np.exp(1j * np.pi) * Z}),
        ]
        channels = [to_superop(r) for r in reps_plain]
        guard = Guarded((C,), GuardBasis.computational(2),
                        (Unitary((Q,), I2), Unitary((Q,), Z)))
        guard_channel = denote(guard).extended_to(RegisterLayout.of(Q, C))
        assert refinement_member(guard_channel, GuardBasis.computational(2), channels, reps_plain)
        assert not refinement_member(
            guard_channel, GuardBasis.computational(2), channels, reps_twist
        )

    def test_single_branch_reduces_to_channel_equality(self):
        rep = OperatorValuedFunction(QL, {cs.EPS: H})
        channel = to_superop(rep)
        assert refinement_member(channel, GuardBasis(np.array([[1.0]])), [channel], [rep])

    def test_mismatched_representative_rejected(self):
        rep = OperatorValuedFunction(QL, {cs.EPS: H})
        other = SuperOperator(QL, (X,))
        with pytest.raises(ContractError):
            refinement_member(other, GuardBasis(np.array([[1.0]])), [other], [rep])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_sequencing_congruence_property(seed):
    gen = rng(seed)
    sampler = ProgramSampler(gen, (Q,), ())
    # anchor the program on q so appending an identity keeps the variable set
    p = Seq(Unitary((Q,), random_unitary(gen, 2)), sampler.program(1))
    u = random_unitary(gen, 2)
    p_eq = Seq(p, Unitary((Q,), u @ la.dagger(u)))  # appended identity
    tail = Unitary((Q,), random_unitary(gen, 2))
    assert program_equiv(p, p_eq, 1e-8)
    assert program_equiv(Seq(p, tail), Seq(p_eq, tail), 1e-8)
