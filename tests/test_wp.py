import numpy as np
import pytest

from qgcl import linalg as la
from qgcl.errors import ContractError
from qgcl.ovf import SuperOperator, guarded_ovf, lambda_weight, to_superop
from qgcl.program import (
    Abort,
    Block,
    GuardBasis,
    Guarded,
    Measure,
    Measurement,
    ProbChoice,
    Seq,
    Skip,
    Unitary,
    qvar_layout,
)
from qgcl.registers import DensityMatrix, Observable, RegisterLayout
from qgcl.sampling import (
    ProgramSampler,
    random_density,
    random_positive,
    random_unitary,
    rng,
)
from qgcl.semantics import apply_program, denote, semi_classical
from qgcl.wp import wp, wp_apply

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
I2 = la.identity(2)
Q = ("q", 2)
C = ("c", 2)
M0 = Measurement.computational(2)


def observable(matrix, *vars_):
    return Observable(np.asarray(matrix, dtype=complex), RegisterLayout.of(*vars_))


class TestClauses:
    def test_abort_maps_everything_to_zero(self):
        assert wp(Abort()).kraus == ()

    def test_skip_is_identity(self):
        m = observable(np.diag([0.2, 0.7]), Q)
        out = wp_apply(Seq(Skip(), Unitary((Q,), I2)), m)
        assert la.max_abs_diff(out.matrix, m.matrix) < 1e-12

    def test_unitary_clause_conjugates_backwards(self):
        m = observable(random_positive(rng(1), 2), Q)
        out = wp_apply(Unitary((Q,), H), m)
        assert la.max_abs_diff(out.matrix, la.dagger(H) @ m.matrix @ H) < 1e-12

    def test_seq_clause_applies_second_first(self):
        gen = rng(2)
        p1 = Unitary((Q,), random_unitary(gen, 2))
        p2 = Measure("x", (Q,), M0, ((0, Skip()), (1, Unitary((Q,), random_unitary(gen, 2)))))
        m = observable(random_positive(gen, 2), Q)
        lhs = wp_apply(Seq(p1, p2), m)
        rhs = wp_apply(p1, wp_apply(p2, m))
        assert la.max_abs_diff(lhs.matrix, rhs.matrix) < 1e-10

    def test_measure_clause_hand_computed(self):
        prog = Measure("x", (Q,), M0, ((0, Skip()), (1, Skip())))
        m = observable(np.diag([1.0, 0.0]), Q)
        out = wp_apply(prog, m)
        expect = (
            la.dagger(M0.operator(0)) @ m.matrix @ M0.operator(0)
            + la.dagger(M0.operator(1)) @ m.matrix @ M0.operator(1)
        )
        assert la.max_abs_diff(out.matrix, expect) < 1e-12
        assert la.max_abs_diff(out.matrix, np.diag([1.0, 0.0])) < 1e-12

    def test_measure_clause_choi_identity(self):
        gen = rng(3)
        from qgcl.sampling import random_measurement

        mmt = random_measurement(gen, 2, 2)
        branches = tuple((m, Unitary((Q,), random_unitary(gen, 2))) for m in mmt.outcomes)
        prog = Measure("x", (Q,), mmt, branches)
        direct = wp(prog)
        ops = []
        for m, sub in branches:
            ops.extend(la.dagger(mmt.operator(m)) @ k for k in wp(sub).kraus)
        composed = SuperOperator(direct.layout, tuple(ops))
        assert la.max_abs_diff(direct.choi(), composed.choi()) < 1e-10

    def test_guard_clause_via_unitary_oracle(self):
        from qgcl.ovf import guarded_unitary

        prog = Guarded((C,), GuardBasis.computational(2), (Unitary((Q,), I2), Unitary((Q,), X)))
        cnot = guarded_unitary(
            GuardBasis.computational(2), [I2, X], RegisterLayout.of(Q), RegisterLayout.of(C)
        )
        # positive shift of Z (x) I on the (q, c) data-first order
        m_joint = la.tensor((I2 + Z) / 2, I2)
        m_obs = Observable(m_joint, RegisterLayout.of(Q, C))
        out = wp_apply(prog, m_obs)
        expect = la.dagger(cnot) @ m_joint @ cnot
        assert la.max_abs_diff(out.matrix, expect) < 1e-12

    def test_guard_clause_canonical_witness(self):
        # backward functions are the adjoint branch functions composed with
        # the same weights; their induced channel equals the guard's wp
        gen = rng(4)
        b1 = Measure("x", (Q,), M0, ((0, Skip()), (1, Unitary((Q,), random_unitary(gen, 2)))))
        b2 = Unitary((Q,), random_unitary(gen, 2))
        prog = Guarded((C,), GuardBasis.computational(2), (b1, b2))
        direct = wp(prog)
        data = RegisterLayout.of(Q)
        backwards = [
            semi_classical(b1).extended_to(data).dagger(),
            semi_classical(b2).extended_to(data).dagger(),
        ]
        witness = to_superop(
            guarded_ovf(GuardBasis.computational(2), backwards, RegisterLayout.of(C))
        )
        assert la.max_abs_diff(
            direct.choi(), witness.extended_to(direct.layout).choi()
        ) < 1e-10

    def test_adjoint_weights_match_forward_weights(self):
        gen = rng(5)
        from qgcl.sampling import random_ovf

        for kind in ("full", "sub", "zero"):
            f = random_ovf(gen, RegisterLayout.of(Q), 3, kind)
            g = f.dagger()
            for state in f.states:
                assert lambda_weight(f, state) == pytest.approx(
                    lambda_weight(g, state), abs=1e-12
                )


class TestDuality:
    def test_random_triples(self):
        gen = rng(6)
        worst = 0.0
        for _ in range(30):
            sampler = ProgramSampler(gen, (Q,), (("g0", 2), ("g1", 2)))
            prog = sampler.program(2)
            layout = qvar_layout(prog)
            if layout.dim == 1:
                continue
            m = Observable(random_positive(gen, layout.dim), layout)
            rho = DensityMatrix(random_density(gen, layout.dim), layout)
            lhs = np.trace(wp_apply(prog, m).matrix @ rho.matrix)
            rhs = np.trace(m.matrix @ apply_program(prog, rho).matrix)
            worst = max(worst, abs(lhs - rhs))
        assert worst < 1e-9

    def test_duality_through_blocks_and_probabilistic_choice(self):
        gen = rng(7)
        body = Seq(Unitary((C,), H), Guarded((C,), GuardBasis.computational(2),
                                             (Unitary((Q,), I2), Unitary((Q,), X))))
        prog = ProbChoice(
            (0.4, 0.5),
            (Block((C,), random_density(gen, 2), body), Unitary((Q,), random_unitary(gen, 2))),
        )
        layout = qvar_layout(prog)
        m = Observable(random_positive(gen, layout.dim), layout)
        rho = DensityMatrix(random_density(gen, layout.dim), layout)
        lhs = np.trace(wp_apply(prog, m).matrix @ rho.matrix)
        rhs = np.trace(m.matrix @ apply_program(prog, rho).matrix)
        assert abs(lhs - rhs) < 1e-9


class TestOrderAndPositivity:
    def test_wp_preserves_positivity_and_loewner_order(self):
        gen = rng(8)
        prog = Measure("x", (Q,), M0, ((0, Unitary((Q,), H)), (1, Skip())))
        small = random_positive(gen, 2)
        large = small + random_positive(gen, 2)
        w_small = wp_apply(prog, observable(small, Q))
        w_large = wp_apply(prog, observable(large, Q))
        assert la.is_positive(w_small.matrix, 1e-9)
        assert la.loewner_leq(w_small.matrix, w_large.matrix, 1e-9)

    def test_wp_bounded_by_identity_on_identity(self):
        gen = rng(9)
        for seed in range(5):
            sampler = ProgramSampler(rng(seed), (Q,), (("g0", 2),))
            prog = sampler.program(2)
            layout = qvar_layout(prog)
            out = wp_apply(prog, Observable(la.identity(layout.dim), layout))
            assert la.loewner_leq(out.matrix, la.identity(layout.dim), 1e-9)

    def test_rejects_non_positive_observable(self):
        with pytest.raises(ContractError):
            wp_apply(Skip(), observable(np.diag([-1.0, 0.0]), Q).__class__(
                np.diag([-1.0, 0.0]).astype(complex), RegisterLayout.of(Q)))

    def test_rejects_observable_on_wrong_variables(self):
        with pytest.raises(ContractError):
            wp_apply(Unitary((Q,), H), observable(np.diag([1.0, 0.0]), ("r", 2)))


def test_wp_family_is_adjoint_of_forward_family():
    gen = rng(10)
    prog = Measure("x", (Q,), M0, ((0, Unitary((Q,), random_unitary(gen, 2))), (1, Skip())))
    forward = denote(prog)
    backward = wp(prog)
    assert len(forward.kraus) == len(backward.kraus)
    for f, b in zip(forward.kraus, backward.kraus):
        assert la.max_abs_diff(la.dagger(f), b) == 0


def test_a_fresh_observable_is_checked_on_every_call(monkeypatch):
    # Built from an array its caller can still write, so ``wp_apply`` runs
    # the whole positivity check each time; a negative one is refused.
    calls = []
    real = la.hermitian_psd
    monkeypatch.setattr(la, "hermitian_psd", lambda *a: calls.append(1) or real(*a))
    p, layout = Unitary((("q", 2),), la.identity(2)), RegisterLayout.of(("q", 2))
    m = Observable(np.diag([1.0, 0.5]), layout)
    wp_apply(p, m)
    wp_apply(p, m)
    assert len(calls) == 2
    with pytest.raises(ContractError, match="^observable is not positive semidefinite"):
        wp_apply(p, Observable(np.diag([1.0, -0.5]), layout))
