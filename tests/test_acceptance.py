"""Acceptance criteria, one test per criterion, at their stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one verdict line per
criterion.
"""

import time

import numpy as np

from qgcl import classical as cs
from qgcl import linalg as la
from qgcl.equivalence import program_equiv_report
from qgcl.ovf import (
    guarded_ovf,
    guarded_unitary,
    indexed_ovf,
    lambda_weight,
    to_superop,
)
from qgcl.parser import check_source, parse_source
from qgcl.printer import print_program
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
    ast_equal,
    qvar_layout,
)
from qgcl.registers import DensityMatrix, Observable, RegisterLayout, embed
from qgcl.sampling import (
    ProgramSampler,
    random_density,
    random_measurement,
    random_ovf,
    random_positive,
    random_unitary,
    rng,
)
from qgcl.semantics import (
    apply_program,
    coin_relocation_lhs_rhs,
    denote,
    semi_classical,
    unroll_loop,
)
from qgcl.wp import wp, wp_apply

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
I2 = la.identity(2)
Q = ("q", 2)
C = ("c", 2)
M_COMP = Measurement.computational(2)
M_DIAG = Measurement(
    (
        (0, np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)),
        (1, np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)),
    )
)


def verdict(number: int, title: str, ok: bool) -> None:
    print(f"[acceptance] criterion {number} ({title}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({title}) failed"


def measure_then_skip(x, mmt, qv=("q1", 2)):
    return Measure(x, (qv,), mmt, tuple((m, Skip()) for m in mmt.outcomes))


def random_branch(gen, qv=Q):
    name, d = qv
    if gen.uniform() < 0.5:
        return Unitary((qv,), random_unitary(gen, d))
    mmt = random_measurement(gen, d, 2)
    branches = tuple((m, Unitary((qv,), random_unitary(gen, d))) for m in mmt.outcomes)
    return Measure(f"m{int(gen.integers(10**9))}", (qv,), mmt, branches)


def test_criterion_1_guarded_unitary_four_cycle_walk():
    start = time.perf_counter()
    size = 4
    up = np.roll(np.eye(size), 1, axis=0).astype(complex)
    down = np.roll(np.eye(size), -1, axis=0).astype(complex)
    shift = guarded_unitary(
        GuardBasis.computational(2),
        [up, down],
        RegisterLayout.of(("v", size)),
        RegisterLayout.of(("c", 2)),
    )
    worst = 0.0
    for v in range(size):
        for i in range(2):
            lhs = shift @ np.kron(la.basis_ket(size, v), la.basis_ket(2, i))
            s_i = up if i == 0 else down
            rhs = np.kron(s_i @ la.basis_ket(size, v), la.basis_ket(2, i))
            worst = max(worst, la.max_abs_diff(lhs, rhs))
    step = shift @ np.kron(la.identity(size), H)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and la.is_unitary(step, 1e-10) and elapsed < 1.0
    verdict(1, "four-cycle walk shift and step", ok)


def test_criterion_2_guarded_measurement_composition():
    program = Guarded(
        (C,),
        GuardBasis.computational(2),
        (measure_then_skip("x", M_COMP), measure_then_skip("y", M_DIAG)),
    )
    sd = semi_classical(program)
    target = RegisterLayout.of(("q1", 2), ("c", 2))
    worst = 0.0
    for i in range(2):
        for j in range(2):
            got = embed(sd(cs.oplus((cs.bind("x", i), cs.bind("y", j)))), sd.layout, target)
            formula = (
                la.tensor(M_COMP.operator(i), np.diag([1.0, 0.0]))
                + la.tensor(M_DIAG.operator(j), np.diag([0.0, 1.0]))
            ) / np.sqrt(2)
            worst = max(worst, la.max_abs_diff(got, formula))
    completeness = la.max_abs_diff(sd.gram_sum(), la.identity(4))
    verdict(2, "composed measurement operators", worst <= 1e-12 and completeness <= 1e-10)


def test_criterion_3_measurement_mixture():
    p = 0.3
    theta = 0.4
    u = np.array([[np.sqrt(p), np.sqrt(1 - p)], [np.sqrt(1 - p), -np.sqrt(p)]], dtype=complex)
    body = Seq(
        Unitary((Q,), u),
        Guarded(
            (Q,),
            GuardBasis.computational(2),
            (measure_then_skip("x", M_COMP), measure_then_skip("y", M_DIAG)),
        ),
    )
    ket0 = la.basis_ket(2, 0)
    program = Block((Q,), ket0 @ la.dagger(ket0), body)
    psi = np.array([[np.cos(theta)], [np.sin(theta)]], dtype=complex)
    rho_in = psi @ la.dagger(psi)
    out = apply_program(program, DensityMatrix(rho_in, RegisterLayout.of(("q1", 2))))
    # independent two-by-two oracle
    rho0 = sum(op @ rho_in @ op for _, op in M_COMP.operators)
    rho1 = sum(op @ rho_in @ op for _, op in M_DIAG.operators)
    deviation = la.max_abs_diff(out.matrix, p * rho0 + (1 - p) * rho1)
    verdict(3, "measurement mixture via local coin", deviation <= 1e-10)


def test_criterion_4_coin_relocation():
    start = time.perf_counter()
    gen = rng(0)
    ok = True
    for _ in range(25):
        dim = int(gen.integers(2, 4))
        coin = Unitary((("c", dim),), random_unitary(gen, dim))
        basis = (
            GuardBasis.computational(dim)
            if gen.uniform() < 0.5
            else GuardBasis(random_unitary(gen, dim))
        )
        branches = tuple(random_branch(gen) for _ in range(dim))
        lhs, rhs = coin_relocation_lhs_rhs(coin, basis, branches)
        status, _ = program_equiv_report(lhs, rhs, 1e-8)
        ok &= status == "equiv"
    for _ in range(10):
        coin_var = (("c", 2),)
        mmt = random_measurement(gen, 2, 2)
        coin = Measure(
            "w",
            coin_var,
            mmt,
            tuple((m, Unitary(coin_var, random_unitary(gen, 2))) for m in mmt.outcomes),
        )
        branches = tuple(random_branch(gen) for _ in range(2))
        lhs, rhs = coin_relocation_lhs_rhs(coin, GuardBasis.computational(2), branches)
        assert isinstance(rhs, Block) and qvar_layout(rhs.body).dim <= 16
        status, _ = program_equiv_report(lhs, rhs, 1e-8)
        ok &= status == "equiv"
    elapsed = time.perf_counter() - start
    verdict(4, "coin relocation, 25 unitary + 10 general", ok and elapsed < 30.0)


def test_criterion_5_localized_choice_degenerates():
    gen = rng(1)
    ok = True
    for _ in range(25):
        dim = int(gen.integers(2, 4))
        coin_var = (("c", dim),)
        if gen.uniform() < 0.5:
            coin = Unitary(coin_var, random_unitary(gen, dim))
        else:
            mmt = random_measurement(gen, dim, 2)
            coin = Measure(
                "w",
                coin_var,
                mmt,
                tuple((m, Unitary(coin_var, random_unitary(gen, dim))) for m in mmt.outcomes),
            )
        rho = random_density(gen, dim)
        branches = tuple(random_branch(gen) for _ in range(dim))
        lhs = Block(coin_var, rho, QChoice(coin, GuardBasis.computational(dim), branches))
        coin_out = denote(coin)(rho)
        weights = tuple(float(np.real(coin_out[i, i])) for i in range(dim))
        rhs = ProbChoice(weights, branches)
        status, _ = program_equiv_report(lhs, rhs, 1e-8)
        ok &= status == "equiv"
    verdict(5, "localised choice equals probabilistic choice", ok)


def test_criterion_6_loop_unrolling_closed_forms():
    gen = rng(2)
    worst_state = 0.0
    worst_choi = 0.0
    for depth in range(1, 5):
        for _ in range(10):
            u = random_unitary(gen, 2)
            psi = gen.normal(size=(2, 1)) + 1j * gen.normal(size=(2, 1))
            psi /= np.linalg.norm(psi)
            quantum = unroll_loop(u, H, depth, "quantum")
            sd = semi_classical(quantum)
            (label,) = sd.states
            target = RegisterLayout.of(Q, *[(f"@q{k}", 2) for k in range(1, depth + 1)])
            op = embed(sd(label), sd.layout, target)
            vec = psi
            for _ in range(depth):
                vec = np.kron(vec, la.basis_ket(2, 0))
            got = op @ vec
            expect = np.zeros_like(got)
            for i in range(depth):
                comp = np.linalg.matrix_power(u, i) @ psi
                for _ in range(depth - i):
                    comp = np.kron(comp, la.basis_ket(2, 0))
                for _ in range(i):
                    comp = np.kron(comp, la.basis_ket(2, 1))
                expect += 2 ** (-(i + 1) / 2) * comp
            worst_state = max(worst_state, la.max_abs_diff(got, expect))

            localized = unroll_loop(u, H, depth, "localized")
            channel = denote(localized)
            expected_kraus = [
                2 ** (-(i + 1) / 2) * np.linalg.matrix_power(u, i) for i in range(depth)
            ]
            worst_choi = max(
                worst_choi, la.max_abs_diff(channel.choi(), la.choi(expected_kraus))
            )
    verdict(6, "loop unrolling closed forms", worst_state <= 1e-10 and worst_choi <= 1e-10)


def test_criterion_7_weakest_precondition_suite():
    gen = rng(3)
    worst = 0.0
    for _ in range(50):
        sampler = ProgramSampler(gen, (Q,), (("g0", 2), ("g1", 2)))
        program = sampler.program(2)
        layout = qvar_layout(program)
        if layout.dim == 1:
            program = Seq(program, Unitary((Q,), I2))
            layout = qvar_layout(program)
        m = Observable(random_positive(gen, layout.dim), layout)
        rho = DensityMatrix(random_density(gen, layout.dim), layout)
        lhs = np.trace(wp_apply(program, m).matrix @ rho.matrix)
        rhs = np.trace(m.matrix @ apply_program(program, rho).matrix)
        worst = max(worst, abs(lhs - rhs))
    duality_ok = worst < 1e-9

    from qgcl.program import Abort

    clause_ok = wp(Abort()).kraus == ()
    m0 = Observable(random_positive(gen, 2), RegisterLayout.of(Q))
    clause_ok &= la.max_abs_diff(wp_apply(Skip(), Observable(np.array([[0.4]]), RegisterLayout())).matrix,
                                 np.array([[0.4]])) < 1e-12
    u = random_unitary(gen, 2)
    clause_ok &= (
        la.max_abs_diff(wp_apply(Unitary((Q,), u), m0).matrix, la.dagger(u) @ m0.matrix @ u)
        < 1e-12
    )
    p1 = Unitary((Q,), random_unitary(gen, 2))
    p2 = Measure("x", (Q,), M_COMP, ((0, Skip()), (1, Unitary((Q,), random_unitary(gen, 2)))))
    clause_ok &= (
        la.max_abs_diff(
            wp_apply(Seq(p1, p2), m0).matrix, wp_apply(p1, wp_apply(p2, m0)).matrix
        )
        < 1e-10
    )
    from qgcl.ovf import SuperOperator

    direct = wp(p2)
    ops = []
    for m, sub in p2.branches:
        lifted = wp(sub).extended_to(direct.layout)
        ops.extend(la.dagger(M_COMP.operator(m)) @ k for k in lifted.kraus)
    clause_ok &= (
        la.max_abs_diff(direct.choi(), SuperOperator(direct.layout, tuple(ops)).choi()) < 1e-10
    )
    # guard clause: canonical witness from adjoint branch functions, plus the
    # identity between forward and adjoint branch weights
    b1 = Measure("x", (Q,), M_COMP, ((0, Skip()), (1, Unitary((Q,), random_unitary(gen, 2)))))
    b2 = Unitary((Q,), random_unitary(gen, 2))
    guard = Guarded((C,), GuardBasis.computational(2), (b1, b2))
    data = RegisterLayout.of(Q)
    fs = [semi_classical(b1).extended_to(data),
          semi_classical(b2).extended_to(data)]
    witness = to_superop(
        guarded_ovf(GuardBasis.computational(2), [f.dagger() for f in fs],
                    RegisterLayout.of(C))
    )
    wp_guard = wp(guard)
    clause_ok &= (
        la.max_abs_diff(wp_guard.choi(), witness.extended_to(wp_guard.layout).choi()) < 1e-10
    )
    for f in fs:
        for state in f.states:
            clause_ok &= abs(lambda_weight(f, state) - lambda_weight(f.dagger(), state)) < 1e-12
    verdict(7, "weakest-precondition duality and clause identities", duality_ok and bool(clause_ok))


def test_criterion_8_guarded_composition_bound_suite():
    gen = rng(4)
    ok = True
    for _ in range(100):
        dim = int(gen.integers(2, 4))
        arity = int(gen.integers(2, 4))
        layout = RegisterLayout.of(("d", dim))
        guard = RegisterLayout.of(("s", arity))
        kinds = [str(gen.choice(["full", "sub", "zero"])) for _ in range(arity)]
        fs = [
            random_ovf(gen, layout, int(gen.integers(1, 4)), k, label=f"k{i}")
            for i, k in enumerate(kinds)
        ]
        basis = (
            GuardBasis.computational(arity)
            if gen.uniform() < 0.5
            else GuardBasis(random_unitary(gen, arity))
        )
        composed = guarded_ovf(basis, fs, guard)
        ok &= la.loewner_leq(
            composed.gram_sum(), la.identity(composed.layout.dim), 1e-9
        )
        if all(k == "full" for k in kinds):
            ok &= composed.is_full(1e-9)
        for f in fs:
            total = sum(lambda_weight(f, d) ** 2 for d in f.states)
            ok &= abs(total - 1.0) < 1e-9
    verdict(8, "guarded composition bound, fullness, weight sums", ok)


def test_criterion_9_kraus_unitary_freedom():
    gen = rng(5)
    ok = True
    for _ in range(25):
        dim = int(gen.integers(2, 4))
        layout = RegisterLayout.of(("d", dim))
        size = int(gen.integers(1, 4))
        f = random_ovf(gen, layout, size, "full")
        ops = [f(d) for d in f.sorted_states()]
        mix = random_unitary(gen, size)
        mixed = [
            sum(mix[i, j] * ops[j] for j in range(size)) for i in range(size)
        ]
        deviation = la.max_abs_diff(
            to_superop(f).choi(), to_superop(indexed_ovf(layout, mixed, "g")).choi()
        )
        ok &= deviation <= 1e-10
    verdict(9, "unitary mixing leaves the channel fixed", ok)


def test_criterion_10_parser_round_trip_and_negatives():
    from conftest import corpus

    ok = True
    for p in corpus(50):
        ok &= ast_equal(p, parse_source(print_program(p)))

    from test_syntax import TestDiagnostics

    negatives = TestDiagnostics.NEGATIVE
    assert len(negatives) >= 10
    for src, code in negatives:
        diagnostics = check_source(src)
        ok &= bool(diagnostics) and code in {d.code for d in diagnostics}
    verdict(10, "round-trip corpus and negative diagnostics", ok)
