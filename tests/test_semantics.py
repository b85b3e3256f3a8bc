import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgcl import classical as cs
from qgcl import linalg as la
from qgcl.errors import CapacityError, ContractError, UnsupportedConstructError
from qgcl.ovf import SuperOperator, to_superop
from qgcl.program import (
    Abort,
    Block,
    GuardBasis,
    Guarded,
    Measure,
    Measurement,
    Mu,
    Name,
    ProbChoice,
    QChoice,
    Seq,
    Skip,
    Unitary,
    desugar_qchoice,
    is_core,
    qvar_layout,
    well_formed,
)
from qgcl.registers import DensityMatrix, Observable, RegisterLayout, embed
from qgcl.sampling import (
    ProgramSampler,
    random_density,
    random_measurement,
    random_unitary,
    rng,
)
from qgcl.semantics import (
    apply_program,
    block_channel,
    coin_relocation_lhs_rhs,
    denote,
    semi_classical,
    system_environment_model,
    unroll_loop,
)
from qgcl.wp import wp_apply

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
I2 = la.identity(2)
Q = ("q", 2)
C = ("c", 2)
M0 = Measurement.computational(2)


def measure_skip(x="x", qv=Q, mmt=M0):
    return Measure(x, (qv,), mmt, tuple((m, Skip()) for m in mmt.outcomes))


def choi_dev(a, b):
    return la.max_abs_diff(a.choi(), b.choi())


class TestSemiClassical:
    def test_skip_and_abort_scalars(self):
        assert semi_classical(Skip())(cs.EPS) == np.array([[1.0]])
        assert semi_classical(Abort())(cs.EPS) == np.array([[0.0]])

    def test_unitary_clause(self):
        sd = semi_classical(Unitary((Q,), H))
        assert sd.layout.names == ("q",)
        assert la.max_abs_diff(sd(cs.EPS), H) == 0

    def test_measure_clause_hand_computed(self):
        p = Measure("x", (Q,), M0, ((0, Unitary((Q,), I2)), (1, Unitary((Q,), X))))
        sd = semi_classical(p)
        assert set(sd.states) == {cs.bind("x", 0), cs.bind("x", 1)}
        assert la.max_abs_diff(sd(cs.bind("x", 0)), np.diag([1.0, 0.0])) == 0
        assert la.max_abs_diff(sd(cs.bind("x", 1)), X @ np.diag([0.0, 1.0])) == 0

    def test_measure_branches_on_new_variables_extend_cylindrically(self):
        branch1 = Unitary((("r", 2),), X)
        p = Measure("x", (Q,), M0, ((0, Skip()), (1, branch1)))
        sd = semi_classical(p)
        assert sd.layout.names == ("q", "r")
        got = sd(cs.bind("x", 1))
        expect = la.tensor(I2, X) @ la.tensor(np.diag([0.0, 1.0]), I2)
        assert la.max_abs_diff(got, expect) == 0

    def test_guard_clause_produces_superposition_labels(self):
        p = Guarded((C,), GuardBasis.computational(2), (measure_skip("x"), measure_skip("y")))
        sd = semi_classical(p)
        assert len(sd.states) == 4
        assert all(isinstance(s, cs.Oplus) for s in sd.states)
        assert sd.layout.names == ("c", "q")

    def test_seq_clause_composes_operators(self):
        p = Seq(Unitary((Q,), H), Unitary((Q,), X))
        sd = semi_classical(p)
        assert la.max_abs_diff(sd(cs.EPS), X @ H) < 1e-12

    def test_seq_state_product_counts(self):
        p = Seq(measure_skip("x"), measure_skip("y"))
        sd = semi_classical(p)
        assert len(sd.states) == 4

    def test_block_rejected_at_this_level(self):
        blk = Block((C,), np.diag([1.0, 0.0]), Unitary((C,), H))
        with pytest.raises(UnsupportedConstructError):
            semi_classical(blk)

    def test_capacity_cap_applies(self):
        p = Seq(Unitary((("a", 64),), la.identity(64)), Unitary((("b", 64),), la.identity(64)))
        with pytest.raises(CapacityError):
            semi_classical(p, max_dim=1024)


class TestDenote:
    def test_abort_and_skip_channels(self):
        assert denote(Abort()).kraus == ()
        ch = denote(Skip())
        assert len(ch.kraus) == 1 and ch.kraus[0][0, 0] == 1.0

    def test_seq_is_channel_composition(self):
        gen = rng(21)
        p1 = ProgramSampler(gen, (Q,), ()).program(1)
        p2 = ProgramSampler(gen, (("r", 2),), ()).program(1)
        seq = Seq(p1, p2)
        full = qvar_layout(seq)
        direct = denote(seq)
        composed = denote(p1).extended_to(full).then(denote(p2).extended_to(full))
        assert choi_dev(direct, composed) < 1e-10

    def test_measure_equals_sum_of_conditioned_channels(self):
        gen = rng(22)
        mmt = random_measurement(gen, 2, 2)
        branches = tuple((m, Unitary((Q,), random_unitary(gen, 2))) for m in mmt.outcomes)
        p = Measure("x", (Q,), mmt, branches)
        direct = denote(p)
        ops = []
        for m, sub in branches:
            ops.extend(e @ mmt.operator(m) for e in denote(sub).kraus)
        assert choi_dev(direct, SuperOperator(direct.layout, tuple(ops))) < 1e-10

    def test_guard_channel_is_canonical_member(self):
        from qgcl.ovf import guarded_ovf

        p = Guarded((C,), GuardBasis.computational(2), (measure_skip("x"), Unitary((Q,), H)))
        direct = denote(p)
        data = RegisterLayout.of(("q", 2))
        fs = [
            semi_classical(measure_skip("x")).extended_to(data),
            semi_classical(Unitary((Q,), H)).extended_to(data),
        ]
        witness = to_superop(guarded_ovf(GuardBasis.computational(2), fs, RegisterLayout.of(C)))
        assert choi_dev(direct, witness.extended_to(direct.layout)) < 1e-12

    def test_block_against_tensor_apply_trace_oracle(self):
        gen = rng(23)
        body = Seq(
            Unitary((C,), random_unitary(gen, 2)),
            Guarded((C,), GuardBasis.computational(2),
                    (Unitary((Q,), random_unitary(gen, 2)), measure_skip("x"))),
        )
        init = random_density(gen, 2)
        blk = Block((C,), init, body)
        assert well_formed(blk) == []
        channel = denote(blk)
        assert channel.layout.names == ("q",)
        inner = denote(body)
        full = inner.layout
        sigma = random_density(gen, 2)
        joint = embed(sigma, RegisterLayout.of(Q), full) @ embed(init, RegisterLayout.of(C), full)
        evolved = inner(joint)
        traced = la.partial_trace(evolved, full.dims, [full.index("q")])
        assert la.max_abs_diff(channel(sigma), traced) < 1e-10

    def test_block_channel_trace_nonincreasing(self):
        gen = rng(24)
        inner = denote(Seq(Unitary((C,), H), Unitary((Q,), X)))
        ch = block_channel(inner, RegisterLayout.of(C), random_density(gen, 2))
        ch.validate(1e-9)

    def test_block_locals_in_reversed_declaration_order(self):
        gen = rng(28)
        a, b = ("a", 2), ("b", 2)
        u = random_unitary(gen, 8)
        body = Unitary((Q, a, b), u)
        # locals declared (b, a), so the init factors read b first: b=1, a=0
        init = np.kron(np.diag([0.0, 1.0]), np.diag([1.0, 0.0])).astype(complex)
        blk = Block((b, a), init, body)
        assert well_formed(blk) == []
        channel = denote(blk)
        sigma = random_density(gen, 2)
        full = RegisterLayout.of(Q, a, b)
        joint = embed(sigma, RegisterLayout.of(Q), full) @ embed(
            np.kron(np.diag([0.0, 1.0]), np.diag([1.0, 0.0])),
            RegisterLayout.of(b, a), full,
        )
        traced = la.partial_trace(u @ joint @ la.dagger(u), full.dims, [0])
        assert la.max_abs_diff(channel(sigma), traced) < 1e-10

    def test_nested_blocks_against_oracle(self):
        gen = rng(29)
        a, b = ("a", 2), ("b", 2)
        u = random_unitary(gen, 8)
        rho_a = random_density(gen, 2)
        rho_b = random_density(gen, 2)
        inner_blk = Block((b,), rho_b, Unitary((Q, a, b), u))
        outer_blk = Block((a,), rho_a, inner_blk)
        assert well_formed(outer_blk) == []
        channel = denote(outer_blk)
        assert channel.layout.names == ("q",)
        sigma = random_density(gen, 2)
        joint = la.tensor(la.tensor(sigma, rho_a), rho_b)
        traced = la.partial_trace(u @ joint @ la.dagger(u), [2, 2, 2], [0])
        assert la.max_abs_diff(channel(sigma), traced) < 1e-10

    def test_prob_choice_is_weighted_mixture(self):
        gen = rng(25)
        b1 = Unitary((Q,), random_unitary(gen, 2))
        b2 = measure_skip("x")
        p = ProbChoice((0.3, 0.45), (b1, b2))
        direct = denote(p)
        mix = la.choi([np.sqrt(0.3) * k for k in denote(b1).kraus]
                      + [np.sqrt(0.45) * k for k in denote(b2).kraus])
        assert la.max_abs_diff(direct.choi(), mix) < 1e-10
        # sub-probability weights leave a trace-decreasing channel
        rho = random_density(gen, 2)
        assert np.trace(direct(rho)).real == pytest.approx(0.75, abs=1e-9)

    def test_qchoice_denotes_like_its_desugaring(self):
        gen = rng(26)
        for _ in range(10):
            sampler = ProgramSampler(gen, (Q,), (("g0", 2), ("g1", 3)))
            qc = sampler.guard(1, quantum_choice=True)
            if not isinstance(qc, QChoice):
                continue
            assert choi_dev(denote(qc), denote(desugar_qchoice(qc))) < 1e-10

    def test_guard_over_block_branch_is_rejected(self):
        blk = Block((("r", 2),), np.diag([1.0, 0.0]), Unitary((("r", 2),), H))
        p = Guarded((C,), GuardBasis.computational(2), (blk, Skip()))
        with pytest.raises(UnsupportedConstructError):
            denote(p)

    def test_recursion_is_rejected(self):
        with pytest.raises(UnsupportedConstructError):
            denote(Mu("X", Skip()))
        with pytest.raises(UnsupportedConstructError):
            denote(Name("X"))

    def test_trace_monotone_and_preserved_without_abort(self):
        gen = rng(27)
        for seed in range(8):
            sampler = ProgramSampler(rng(seed), (Q,), (("g0", 2),))
            p = sampler.program(2)
            layout = qvar_layout(p)
            rho = random_density(gen, layout.dim) if layout.dim > 1 else np.array([[1.0]])
            out = denote(p)(rho)
            assert np.trace(out).real <= np.trace(rho).real + 1e-9


class TestApply:
    def test_skip_returns_input(self):
        lay = RegisterLayout.of(Q)
        rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex), lay)
        out = apply_program(Skip(), rho)
        assert la.max_abs_diff(out.matrix, rho.matrix) == 0

    def test_hadamard_makes_plus_state(self):
        lay = RegisterLayout.of(Q)
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), lay)
        out = apply_program(Unitary((Q,), H), rho)
        assert la.max_abs_diff(out.matrix, np.full((2, 2), 0.5)) < 1e-12

    def test_input_may_carry_extra_variables(self):
        lay = RegisterLayout.of(("r", 2), Q)
        rho = DensityMatrix(la.tensor(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])).astype(complex), lay)
        out = apply_program(Unitary((Q,), X), rho)
        expect = la.tensor(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert la.max_abs_diff(out.matrix, expect) < 1e-12

    def test_missing_variable_is_layout_error(self):
        from qgcl.errors import LayoutError

        lay = RegisterLayout.of(("r", 2))
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), lay)
        with pytest.raises(LayoutError):
            apply_program(Unitary((Q,), X), rho)


class TestUnrollLoop:
    def test_zero_iterations_abort(self):
        for flavor in ("classical", "quantum", "localized"):
            assert isinstance(unroll_loop(H, H, 0, flavor), Abort)

    def test_classical_flavor_shape(self):
        p = unroll_loop(H, H, 2, "classical")
        assert isinstance(p, Measure)
        assert p.x == "@x2"
        inner = p.branch(1)
        assert isinstance(inner, Seq)
        assert isinstance(inner.second, Measure) and inner.second.x == "@x1"
        assert well_formed(p) == []

    def test_quantum_flavor_uses_fresh_coins(self):
        p = unroll_loop(H, H, 3, "quantum")
        assert isinstance(p, QChoice)
        assert qvar_layout(p).names == ("@q3", "q", "@q2", "@q1")
        assert well_formed(p) == []

    def test_localized_wraps_in_block(self):
        p = unroll_loop(H, H, 2, "localized")
        assert isinstance(p, Block)
        assert qvar_layout(p).names == ("q",)
        assert well_formed(p) == []

    def test_reserved_prefix_collision_rejected(self):
        with pytest.raises(ContractError):
            unroll_loop(H, H, 1, "quantum", qvars=(("@q1", 2),))

    def test_depth_cap(self):
        with pytest.raises(CapacityError):
            unroll_loop(H, H, 7, "quantum")

    def test_closed_forms_small(self):
        gen = rng(31)
        u = random_unitary(gen, 2)
        psi = np.array([[0.6], [0.8]], dtype=complex)
        p = unroll_loop(u, H, 2, "quantum")
        sd = semi_classical(p)
        (label,) = sd.states
        target = RegisterLayout.of(Q, ("@q1", 2), ("@q2", 2))
        op = embed(sd(label), sd.layout, target)
        vec = np.kron(np.kron(psi, la.basis_ket(2, 0)), la.basis_ket(2, 0))
        got = op @ vec
        expect = 2**-0.5 * np.kron(np.kron(psi, la.basis_ket(2, 0)), la.basis_ket(2, 0)) \
            + 0.5 * np.kron(np.kron(u @ psi, la.basis_ket(2, 0)), la.basis_ket(2, 1))
        assert la.max_abs_diff(got, expect) < 1e-12


class TestSystemEnvironmentModel:
    def test_unitary_channel_needs_no_environment(self):
        gen = rng(32)
        u = random_unitary(gen, 3)
        e = SuperOperator(RegisterLayout.of(("d", 3)), (u,))
        dil = system_environment_model(e)
        assert dil.env_layout.variables == ()
        assert la.max_abs_diff(dil.unitary, u) == 0
        assert la.max_abs_diff(dil.projector, la.identity(3)) == 0

    def test_measurement_channel_reconstruction_on_matrix_units(self):
        e = SuperOperator(RegisterLayout.of(Q), (M0.operator(0), M0.operator(1)))
        dil = system_environment_model(e)
        assert dil.env_dim == 2
        assert la.is_unitary(dil.unitary, 1e-10)
        for a in range(2):
            for b in range(2):
                unit = np.zeros((2, 2), dtype=complex)
                unit[a, b] = 1.0
                assert la.max_abs_diff(dil.reconstruct(unit, 2), e(unit)) < 1e-10

    def test_zero_channel_gets_zero_projector(self):
        e = SuperOperator(RegisterLayout.of(Q), ())
        dil = system_environment_model(e)
        assert la.max_abs_diff(dil.projector, np.zeros_like(dil.projector)) == 0
        assert la.max_abs_diff(dil.reconstruct(np.diag([0.5, 0.5]), 2), np.zeros((2, 2))) == 0

    def test_trace_decreasing_channel_completed(self):
        gen = rng(33)
        e = SuperOperator(RegisterLayout.of(Q), (np.sqrt(0.5) * random_unitary(gen, 2),))
        dil = system_environment_model(e)
        assert dil.env_dim == 2 and dil.kept == 1
        rho = random_density(gen, 2)
        assert la.max_abs_diff(dil.reconstruct(rho, 2), e(rho)) < 1e-10

    def test_oversized_family_is_reduced_first(self):
        gen = rng(34)
        ops = [np.sqrt(1 / 6) * random_unitary(gen, 2) for _ in range(6)]
        e = SuperOperator(RegisterLayout.of(Q), tuple(ops))
        dil = system_environment_model(e)
        assert dil.env_dim <= 5
        rho = random_density(gen, 2)
        assert la.max_abs_diff(dil.reconstruct(rho, 2), e(rho)) < 1e-9


class TestCoinRelocation:
    def test_single_branch_is_noop(self):
        from qgcl.equivalence import program_equiv

        coin = Unitary((C,), H)
        lhs, rhs = coin_relocation_lhs_rhs(coin, GuardBasis.computational(2),
                                           (Skip(), Unitary((Q,), X)))
        assert program_equiv(lhs, rhs)

    def test_unitary_coin_instance(self):
        from qgcl.equivalence import program_equiv

        lhs, rhs = coin_relocation_lhs_rhs(
            Unitary((C,), H),
            GuardBasis.computational(2),
            (Unitary((Q,), I2), Unitary((Q,), X)),
        )
        assert isinstance(rhs, Seq)
        assert well_formed(lhs) == [] and well_formed(rhs) == []
        assert program_equiv(lhs, rhs, 1e-8)

    def test_measuring_coin_produces_block_form(self):
        from qgcl.equivalence import program_equiv

        coin = Measure("w", (C,), M0, ((0, Unitary((C,), H)), (1, Unitary((C,), I2))))
        lhs, rhs = coin_relocation_lhs_rhs(coin, GuardBasis.computational(2),
                                           (Unitary((Q,), I2), Unitary((Q,), X)))
        assert isinstance(rhs, Block)
        assert well_formed(rhs) == []
        assert program_equiv(lhs, rhs, 1e-8)

    def test_aborting_coin(self):
        from qgcl.equivalence import program_equiv

        coin = Seq(Unitary((C,), H), Abort())
        lhs, rhs = coin_relocation_lhs_rhs(coin, GuardBasis.computational(2),
                                           (Unitary((Q,), I2), Unitary((Q,), X)))
        assert program_equiv(lhs, rhs, 1e-8)

    def test_trace_decreasing_coin_discards_part_of_the_environment(self):
        from qgcl.equivalence import program_equiv

        coin = ProbChoice((0.5,), (Unitary((C,), H),))
        lhs, rhs = coin_relocation_lhs_rhs(coin, GuardBasis.computational(2),
                                           (Unitary((Q,), I2), Unitary((Q,), X)))
        assert isinstance(rhs, Block)
        assert well_formed(rhs) == []
        assert program_equiv(lhs, rhs, 1e-8)

    def test_guarded_coin_over_two_registers(self):
        from qgcl.equivalence import program_equiv

        gen = rng(35)
        c1, c2 = ("c1", 2), ("c2", 2)
        coin = Seq(
            Unitary((c1,), random_unitary(gen, 2)),
            Guarded((c2,), GuardBasis.computational(2),
                    (Unitary((c1,), random_unitary(gen, 2)), Skip())),
        )
        branches = tuple(Unitary((Q,), random_unitary(gen, 2)) for _ in range(4))
        lhs, rhs = coin_relocation_lhs_rhs(coin, GuardBasis.computational(4), branches)
        assert well_formed(lhs) == [] and well_formed(rhs) == []
        assert program_equiv(lhs, rhs, 1e-8)


def layout_programs():
    """Sampled core programs, then a block, a probabilistic choice and the
    three loop unrollings, whose layouts the semantics builds bottom-up."""
    out = [
        ProgramSampler(rng(seed), (Q, ("r", 2)), (("g0", 2), ("g1", 3))).program(3)
        for seed in range(20)
    ]
    guard = Guarded((C,), GuardBasis.computational(2), (Unitary((Q,), X), Unitary((("r", 2),), H)))
    out.append(Block((C,), np.diag([1.0, 0.0]), Seq(Unitary((C,), H), guard)))
    out.append(ProbChoice((0.25, 0.5), (Unitary((("r", 2),), X), measure_skip("x"))))
    u = random_unitary(rng(5), 2)
    out.extend(unroll_loop(u, H, 2, flavor) for flavor in ("classical", "quantum", "localized"))
    return out


@pytest.mark.parametrize("p", layout_programs())
def test_result_layout_is_the_program_layout(p):
    expected = qvar_layout(p).variables
    assert denote(p).layout.variables == expected
    if is_core(p):
        assert semi_classical(p).layout.variables == expected


ABOVE_IDENTITY = Seq(Unitary((Q,), 2 * I2), Skip())
QL = RegisterLayout.of(Q)
CHANNEL_EVALUATORS = {
    "denote": denote,
    "apply_program": lambda p: apply_program(p, DensityMatrix(np.diag([1.0, 0.0]), QL)),
    "wp_apply": lambda p: wp_apply(p, Observable(I2, QL)),
}


@pytest.mark.parametrize("evaluate", [semi_classical, *CHANNEL_EVALUATORS.values()],
                         ids=["semi_classical", *CHANNEL_EVALUATORS])
def test_family_above_identity_is_rejected(evaluate):
    with pytest.raises(ContractError):
        evaluate(ABOVE_IDENTITY)


@pytest.mark.parametrize("evaluate", CHANNEL_EVALUATORS.values(), ids=list(CHANNEL_EVALUATORS))
def test_channel_above_identity_outside_the_core_is_rejected(evaluate):
    # Weights summing above one are caught by the single check on the result.
    with pytest.raises(ContractError):
        evaluate(ProbChoice((0.9, 0.9), (Unitary((Q,), X), Skip())))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_denote_of_desugared_matches_direct(seed):
    gen = rng(seed)
    sampler = ProgramSampler(gen, (Q,), (("g0", 2),))
    p = sampler.program(2)
    from qgcl.program import desugar

    assert choi_dev(denote(p), denote(desugar(p))) < 1e-9
