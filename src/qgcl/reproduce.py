"""Reproduction suites for the worked examples and equivalence theorems.

Each suite re-derives its expected values with an independent oracle (direct
matrix arithmetic) and compares against the library, printing one line per
check.  All randomness is seeded.
"""

from __future__ import annotations

import numpy as np

from . import linalg, sampling
from .equivalence import program_equiv_report
from .ovf import guarded_unitary
from .program import (
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
from .registers import DensityMatrix, RegisterLayout, embed
from .semantics import (
    apply_program,
    coin_relocation_lhs_rhs,
    denote,
    semi_classical,
    unroll_loop,
)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

MEAS_COMPUTATIONAL = Measurement.computational(2)
MEAS_DIAGONAL = Measurement(
    (
        (0, np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)),
        (1, np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)),
    )
)


def _line(ok: bool, text: str) -> str:
    return f"  [{'ok' if ok else 'FAIL'}] {text}"


def reproduce_walk(*, seed: int = 0, n: int | None = None, tol: float | None = None):
    """Coined walk on the 4-cycle: shift operator identity and step unitarity."""
    size = 4
    shift_up = np.zeros((size, size), dtype=complex)
    shift_down = np.zeros((size, size), dtype=complex)
    for v in range(size):
        shift_up[(v + 1) % size, v] = 1.0
        shift_down[(v - 1) % size, v] = 1.0
    v_layout = RegisterLayout.of(("v", size))
    c_layout = RegisterLayout.of(("c", 2))
    shift = guarded_unitary(
        GuardBasis.computational(2), [shift_up, shift_down], v_layout, c_layout
    )
    lines = []
    ok = True
    worst = 0.0
    for v in range(size):
        for i in range(2):
            lhs = shift @ np.kron(linalg.basis_ket(size, v), linalg.basis_ket(2, i))
            s_i = shift_up if i == 0 else shift_down
            rhs = np.kron(s_i @ linalg.basis_ket(size, v), linalg.basis_ket(2, i))
            worst = max(worst, linalg.max_abs_diff(lhs, rhs))
    good = worst <= 1e-12
    ok &= good
    lines.append(_line(good, f"shift acts basis-wise, worst deviation {worst:.2e}"))
    step = shift @ np.kron(linalg.identity(size), HADAMARD)
    good = linalg.is_unitary(step, 1e-10)
    ok &= good
    lines.append(_line(good, "walk step S(I (x) H) is unitary at 1e-10"))

    walk_program = QChoice(
        Unitary((("c", 2),), HADAMARD),
        GuardBasis.computational(2),
        (Unitary((("v", size),), shift_up), Unitary((("v", size),), shift_down)),
    )
    rho0 = np.kron(
        linalg.basis_ket(size, 0) @ linalg.dagger(linalg.basis_ket(size, 0)),
        np.full((2, 2), 0.5, dtype=complex),
    )
    input_layout = RegisterLayout.of(("v", size), ("c", 2))
    evolved = apply_program(walk_program, DensityMatrix(rho0, input_layout))
    direct = step @ rho0 @ linalg.dagger(step)
    dev = linalg.max_abs_diff(evolved.matrix, direct)
    good = dev <= 1e-10
    ok &= good
    lines.append(_line(good, f"one interpreted step matches W rho W-dagger, deviation {dev:.2e}"))
    return ok, lines


def _measure_then_skip(x: str, mmt: Measurement, qvar=("q1", 2)):
    return Measure(x, (qvar,), mmt, tuple((m, Skip()) for m in mmt.outcomes))


def reproduce_gmeas(*, seed: int = 0, n: int | None = None, tol: float | None = None):
    """Guarded composition of the two one-qubit measurements."""
    program = Guarded(
        (("c", 2),),
        GuardBasis.computational(2),
        (
            _measure_then_skip("x", MEAS_COMPUTATIONAL),
            _measure_then_skip("y", MEAS_DIAGONAL),
        ),
    )
    sd = semi_classical(program)
    target = RegisterLayout.of(("q1", 2), ("c", 2))
    lines = []
    ok = True
    worst = 0.0
    from .classical import bind, oplus

    for i in range(2):
        for j in range(2):
            label = oplus((bind("x", i), bind("y", j)))
            got = embed(sd(label), sd.layout, target)
            formula = (
                np.kron(MEAS_COMPUTATIONAL.operator(i), np.diag([1.0, 0.0]))
                + np.kron(MEAS_DIAGONAL.operator(j), np.diag([0.0, 1.0]))
            ) / np.sqrt(2)
            worst = max(worst, linalg.max_abs_diff(got, formula))
    good = worst <= 1e-12
    ok &= good
    lines.append(_line(good, f"four composed operators match the formula, worst {worst:.2e}"))
    completeness = linalg.max_abs_diff(sd.gram_sum(), linalg.identity(4))
    good = completeness <= 1e-10
    ok &= good
    lines.append(_line(good, f"composed measurement is complete, deviation {completeness:.2e}"))
    return ok, lines


def bb84_program(p: float) -> Block:
    q = 1.0 - p
    u = np.array([[np.sqrt(p), np.sqrt(q)], [np.sqrt(q), -np.sqrt(p)]], dtype=complex)
    body = Seq(
        Unitary((("q", 2),), u),
        Guarded(
            (("q", 2),),
            GuardBasis.computational(2),
            (
                _measure_then_skip("x", MEAS_COMPUTATIONAL),
                _measure_then_skip("y", MEAS_DIAGONAL),
            ),
        ),
    )
    ket0 = linalg.basis_ket(2, 0)
    return Block((("q", 2),), ket0 @ linalg.dagger(ket0), body)


def reproduce_bb84(*, seed: int = 0, n: int | None = None, tol: float | None = None):
    """Probabilistic mixture of the two measurement bases via a local coin."""
    p = 0.3
    theta = 0.4
    psi = np.array([[np.cos(theta)], [np.sin(theta)]], dtype=complex)
    rho_in = psi @ linalg.dagger(psi)
    out = apply_program(
        bb84_program(p), DensityMatrix(rho_in, RegisterLayout.of(("q1", 2)))
    )
    rho0 = sum(
        op @ rho_in @ op for _, op in MEAS_COMPUTATIONAL.operators
    )
    rho1 = sum(op @ rho_in @ op for _, op in MEAS_DIAGONAL.operators)
    expected = p * rho0 + (1 - p) * rho1
    dev = linalg.max_abs_diff(out.matrix, expected)
    ok = dev <= 1e-10
    return ok, [_line(ok, f"mixture output matches p*rho0 + q*rho1, deviation {dev:.2e}")]


def _random_branch(gen, sampler_dims=("q", 2)):
    name, d = sampler_dims
    qv = ((name, d),)
    if gen.uniform() < 0.5:
        return Unitary(qv, sampling.random_unitary(gen, d))
    mmt = sampling.random_measurement(gen, d, 2)
    branches = tuple(
        (m, Unitary(qv, sampling.random_unitary(gen, d))) for m in mmt.outcomes
    )
    return Measure(f"m{int(gen.integers(10**6))}", qv, mmt, branches)


def reproduce_local(*, seed: int = 0, n: int | None = None, tol: float | None = None):
    """Coin relocation: unitary coins, then dilated general coin programs."""
    tol = 1e-8 if tol is None else tol
    gen = sampling.rng(seed)
    n_unitary = 25 if n is None else n
    n_general = 10 if n is None else max(1, n // 2)
    lines = []
    ok = True
    worst = 0.0
    for _ in range(n_unitary):
        dim = int(gen.integers(2, 4))
        coin = Unitary((("c", dim),), sampling.random_unitary(gen, dim))
        basis = (
            GuardBasis.computational(dim)
            if gen.uniform() < 0.5
            else GuardBasis(sampling.random_unitary(gen, dim))
        )
        branches = tuple(_random_branch(gen) for _ in range(dim))
        lhs, rhs = coin_relocation_lhs_rhs(coin, basis, branches)
        verdict, dev = program_equiv_report(lhs, rhs, tol)
        worst = max(worst, dev if dev is not None else np.inf)
        ok &= verdict == "equiv"
    lines.append(_line(ok, f"{n_unitary} unitary-coin relocations equivalent, worst {worst:.2e}"))
    worst2 = 0.0
    ok2 = True
    for _ in range(n_general):
        coin_var = (("c", 2),)
        mmt = sampling.random_measurement(gen, 2, 2)
        coin = Measure(
            "w",
            coin_var,
            mmt,
            tuple((m, Unitary(coin_var, sampling.random_unitary(gen, 2))) for m in mmt.outcomes),
        )
        branches = tuple(_random_branch(gen) for _ in range(2))
        lhs, rhs = coin_relocation_lhs_rhs(coin, GuardBasis.computational(2), branches)
        verdict, dev = program_equiv_report(lhs, rhs, tol)
        worst2 = max(worst2, dev if dev is not None else np.inf)
        ok2 &= verdict == "equiv"
    lines.append(
        _line(ok2, f"{n_general} measuring-coin relocations equivalent, worst {worst2:.2e}")
    )
    return ok and ok2, lines


def reproduce_proim(*, seed: int = 0, n: int | None = None, tol: float | None = None):
    """Localised quantum choice degenerates to probabilistic choice."""
    tol = 1e-8 if tol is None else tol
    gen = sampling.rng(seed)
    trials = 25 if n is None else n
    worst = 0.0
    ok = True
    for trial in range(trials):
        dim = int(gen.integers(2, 4))
        coin_var = (("c", dim),)
        if gen.uniform() < 0.5:
            coin = Unitary(coin_var, sampling.random_unitary(gen, dim))
        else:
            mmt = sampling.random_measurement(gen, dim, 2)
            coin = Measure(
                "w",
                coin_var,
                mmt,
                tuple(
                    (m, Unitary(coin_var, sampling.random_unitary(gen, dim)))
                    for m in mmt.outcomes
                ),
            )
        rho = sampling.random_density(gen, dim)
        branches = tuple(_random_branch(gen) for _ in range(dim))
        lhs = Block(coin_var, rho, QChoice(coin, GuardBasis.computational(dim), branches))
        coin_out = denote(coin)(rho)
        weights = tuple(float(np.real(coin_out[i, i])) for i in range(dim))
        rhs = ProbChoice(weights, branches)
        verdict, dev = program_equiv_report(lhs, rhs, tol)
        worst = max(worst, dev if dev is not None else np.inf)
        ok &= verdict == "equiv"
    return ok, [
        _line(ok, f"{trials} localised choices match their probabilistic form, worst {worst:.2e}")
    ]


def reproduce_loop(*, seed: int = 0, n: int | None = None, tol: float | None = None):
    """Bounded quantum iterations: amplitude and channel closed forms."""
    depth = 4 if n is None else n
    gen = sampling.rng(seed)
    coeffs = [2 ** (-(i + 1) / 2) for i in range(depth)]
    lines = [
        "  amplitude coefficients: "
        + ", ".join(f"2^(-{i + 1}/2) = {c:.6f}" for i, c in enumerate(coeffs))
    ]
    ok = True
    worst_state = 0.0
    worst_choi = 0.0
    for _ in range(3):
        u = sampling.random_unitary(gen, 2)
        psi = sampling.random_ket(gen, 2)
        quantum = unroll_loop(u, HADAMARD, depth, "quantum")
        sd = semi_classical(quantum)
        (label,) = sd.states
        target = RegisterLayout.of(("q", 2), *[(f"@q{k}", 2) for k in range(1, depth + 1)])
        op = embed(sd(label), sd.layout, target)
        vec = psi
        for _ in range(depth):
            vec = np.kron(vec, linalg.basis_ket(2, 0))
        got = op @ vec
        expect = np.zeros_like(got)
        for i in range(depth):
            comp = np.linalg.matrix_power(u, i) @ psi
            for _ in range(depth - i):
                comp = np.kron(comp, linalg.basis_ket(2, 0))
            for _ in range(i):
                comp = np.kron(comp, linalg.basis_ket(2, 1))
            expect += coeffs[i] * comp
        worst_state = max(worst_state, linalg.max_abs_diff(got, expect))

        localized = unroll_loop(u, HADAMARD, depth, "localized")
        channel = denote(localized).extended_to(RegisterLayout.of(("q", 2)))
        expected_kraus = [coeffs[i] * np.linalg.matrix_power(u, i) for i in range(depth)]
        worst_choi = max(
            worst_choi, linalg.max_abs_diff(channel.choi(), linalg.choi(expected_kraus, dim=2))
        )
    good = worst_state <= 1e-10
    ok &= good
    lines.append(_line(good, f"amplitude closed form at depth {depth}, worst {worst_state:.2e}"))
    good = worst_choi <= 1e-10
    ok &= good
    lines.append(_line(good, f"localised channel closed form, worst Choi deviation {worst_choi:.2e}"))
    return ok, lines


SUITES = {
    "walk": reproduce_walk,
    "gmeas": reproduce_gmeas,
    "bb84": reproduce_bb84,
    "local": reproduce_local,
    "proim": reproduce_proim,
    "loop": reproduce_loop,
}
