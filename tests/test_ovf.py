import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgcl import classical as cs
from qgcl import linalg as la
from qgcl import ovf
from qgcl.errors import ArityError, ContractError, LayoutError
from qgcl.ovf import (
    OperatorValuedFunction,
    SuperOperator,
    guarded_ovf,
    guarded_superop_member,
    guarded_unitary,
    indexed_ovf,
    lambda_weight,
    to_superop,
)
from qgcl.program import GuardBasis, Measurement
from qgcl.registers import RegisterLayout
from qgcl.sampling import random_ovf, random_unitary, rng

from conftest import permutation_matrix

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
I2 = la.identity(2)
Q = RegisterLayout.of(("q", 2))
C = RegisterLayout.of(("c", 2))
COMP2 = GuardBasis.computational(2)

MEAS_COMP = Measurement.computational(2)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)


def meas_ovf(ops, names, layout=Q):
    return OperatorValuedFunction(layout, {cs.bind(n, i): op for (n, i), op in zip(names, ops)})


class TestGuardedUnitary:
    def test_controlled_not_shape(self):
        got = guarded_unitary(COMP2, [I2, X], Q, C)
        expect = la.tensor(I2, np.diag([1.0, 0.0])) + la.tensor(X, np.diag([0.0, 1.0]))
        assert la.max_abs_diff(got, expect) == 0

    def test_multiplexor_is_block_diagonal_after_guard_first_permutation(self):
        gen = rng(3)
        us = [random_unitary(gen, 2) for _ in range(4)]
        data = RegisterLayout.of(("d", 2))
        guard = RegisterLayout.of(("s1", 2), ("s2", 2))
        got = guarded_unitary(GuardBasis.computational(4), us, data, guard)
        swap = permutation_matrix([2, 2, 2], [1, 2, 0])  # data-first -> guard-first
        block = np.zeros((8, 8), dtype=complex)
        for i, u in enumerate(us):
            block[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = u
        assert la.max_abs_diff(swap @ got @ la.dagger(swap), block) < 1e-12

    def test_four_cycle_shift_acts_basiswise(self):
        size = 4
        up = np.roll(np.eye(size), 1, axis=0).astype(complex)
        down = np.roll(np.eye(size), -1, axis=0).astype(complex)
        shift = guarded_unitary(COMP2, [up, down], RegisterLayout.of(("v", size)), C)
        for v in range(size):
            for i in range(2):
                lhs = shift @ np.kron(la.basis_ket(size, v), la.basis_ket(2, i))
                s_i = up if i == 0 else down
                rhs = np.kron(s_i @ la.basis_ket(size, v), la.basis_ket(2, i))
                assert la.max_abs_diff(lhs, rhs) == 0

    def test_output_is_unitary(self):
        gen = rng(5)
        got = guarded_unitary(
            GuardBasis(random_unitary(gen, 2)), [random_unitary(gen, 3) for _ in range(2)],
            RegisterLayout.of(("d", 3)), C,
        )
        assert la.is_unitary(got, 1e-10)

    def test_rejects_non_unitary_input(self):
        with pytest.raises(ContractError):
            guarded_unitary(COMP2, [I2, np.diag([1.0, 0.5])], Q, C)


class TestLambdaWeight:
    def test_full_qubit_measurement_weight(self):
        f = meas_ovf([MEAS_COMP.operator(0), MEAS_COMP.operator(1)], [("x", 0), ("x", 1)])
        assert lambda_weight(f, cs.bind("x", 0)) == pytest.approx(np.sqrt(0.5))

    def test_unitary_singleton_weight_is_one(self):
        f = OperatorValuedFunction(Q, {cs.EPS: H})
        assert lambda_weight(f, cs.EPS) == pytest.approx(1.0)

    def test_zero_function_uses_uniform_convention(self):
        f = OperatorValuedFunction(Q, {cs.EPS: np.zeros((2, 2))})
        assert lambda_weight(f, cs.EPS) == pytest.approx(1.0)
        g = OperatorValuedFunction(
            Q, {cs.bind("k", i): np.zeros((2, 2)) for i in range(4)}
        )
        assert lambda_weight(g, cs.bind("k", 2)) == pytest.approx(0.5)

    def test_weights_square_sum_to_one(self):
        gen = rng(9)
        for kind, size in [("full", 3), ("sub", 2), ("zero", 4)]:
            f = random_ovf(gen, Q, size, kind)
            total = sum(lambda_weight(f, d) ** 2 for d in f.states)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_invariant_under_cylindrical_extension(self):
        gen = rng(10)
        f = random_ovf(gen, Q, 3, "sub")
        big = f.extended_to(RegisterLayout.of(("q", 2), ("r", 3)))
        for d in f.states:
            assert lambda_weight(f, d) == pytest.approx(lambda_weight(big, d), abs=1e-12)

    def test_unknown_state_raises(self):
        f = OperatorValuedFunction(Q, {cs.EPS: H})
        with pytest.raises(KeyError):
            f(cs.bind("x", 0))


def test_weight_is_the_trace_of_the_gram_operator():
    gen = rng(12)
    op = gen.normal(size=(5, 5)) + 1j * gen.normal(size=(5, 5))
    f = OperatorValuedFunction(RegisterLayout.of(("q", 5)), {cs.EPS: op})
    assert f.weight(cs.EPS) == pytest.approx(np.trace(op.conj().T @ op).real, rel=1e-12)


class TestGuardedComposition:
    def test_two_measurements_compose_to_four_weighted_operators(self):
        f0 = meas_ovf([MEAS_COMP.operator(0), MEAS_COMP.operator(1)], [("x", 0), ("x", 1)])
        f1 = meas_ovf([PLUS, MINUS], [("y", 0), ("y", 1)])
        combined = guarded_ovf(COMP2, [f0, f1], C)
        assert len(combined.states) == 4
        for i in range(2):
            for j in range(2):
                label = cs.oplus((cs.bind("x", i), cs.bind("y", j)))
                expect = (
                    la.tensor(f0(cs.bind("x", i)), np.diag([1.0, 0.0]))
                    + la.tensor(f1(cs.bind("y", j)), np.diag([0.0, 1.0]))
                ) / np.sqrt(2)
                assert la.max_abs_diff(combined(label), expect) < 1e-12
        assert combined.is_full(1e-10)

    def test_singleton_domains_degenerate_to_guarded_unitary(self):
        gen = rng(11)
        us = [random_unitary(gen, 2) for _ in range(2)]
        basis = GuardBasis(random_unitary(gen, 2))
        fs = [OperatorValuedFunction(Q, {cs.EPS: u}) for u in us]
        composed = guarded_ovf(basis, fs, C)
        (label,) = composed.states
        direct = guarded_unitary(basis, us, Q, C)
        assert la.max_abs_diff(composed(label), direct) < 1e-12

    def test_skip_against_abort_keeps_the_live_branch(self):
        live = OperatorValuedFunction(Q, {cs.EPS: I2})
        dead = OperatorValuedFunction(Q, {cs.EPS: np.zeros((2, 2))})
        composed = guarded_ovf(COMP2, [live, dead], C)
        (label,) = composed.states
        expect = la.tensor(I2, np.diag([1.0, 0.0]))
        assert la.max_abs_diff(composed(label), expect) == 0

    def test_fullness_preserved(self):
        gen = rng(12)
        for dim, arity in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            layout = RegisterLayout.of(("d", dim))
            guard = RegisterLayout.of(("s", arity))
            fs = [
                random_ovf(gen, layout, int(gen.integers(1, 3)), "full", label=f"k{i}")
                for i in range(arity)
            ]
            basis = GuardBasis(random_unitary(gen, arity))
            composed = guarded_ovf(basis, fs, guard)
            assert composed.is_full(1e-9)

    def test_mixed_inputs_satisfy_the_contraction_bound(self):
        gen = rng(13)
        for _ in range(10):
            arity = int(gen.integers(2, 4))
            kinds = [gen.choice(["full", "sub", "zero"]) for _ in range(arity)]
            fs = [
                random_ovf(gen, Q, int(gen.integers(1, 4)), k, label=f"k{i}")
                for i, k in enumerate(kinds)
            ]
            guard = RegisterLayout.of(("s", arity))
            composed = guarded_ovf(GuardBasis.computational(arity), fs, guard)
            composed.validate(1e-9)


class TestInducedChannel:
    def test_measurement_function_gives_dephasing_channel(self):
        f = meas_ovf([MEAS_COMP.operator(0), MEAS_COMP.operator(1)], [("x", 0), ("x", 1)])
        e = to_superop(f)
        rho = np.array([[0.5, 0.4], [0.4, 0.5]], dtype=complex)
        assert la.max_abs_diff(e(rho), np.diag([0.5, 0.5])) < 1e-12

    def test_zero_function_gives_zero_channel(self):
        f = OperatorValuedFunction(Q, {cs.EPS: np.zeros((2, 2))})
        assert to_superop(f).kraus == ()

    def test_unitary_mixing_leaves_choi_fixed(self):
        gen = rng(14)
        f = random_ovf(gen, Q, 3, "full")
        ops = [f(d) for d in f.sorted_states()]
        mix = random_unitary(gen, 3)
        mixed = [sum(mix[i, j] * ops[j] for j in range(3)) for i in range(3)]
        g = indexed_ovf(Q, mixed, "g")
        assert la.max_abs_diff(to_superop(f).choi(), to_superop(g).choi()) < 1e-10


class TestGuardedChannelMembers:
    def test_single_channel_composition_is_the_channel(self):
        gen = rng(15)
        e = SuperOperator(Q, (np.sqrt(0.5) * I2, np.sqrt(0.5) * X))
        member = guarded_superop_member(
            GuardBasis(np.array([[1.0]])), [e], RegisterLayout()
        )
        assert la.max_abs_diff(member.choi(), e.choi()) < 1e-12

    def test_relative_phase_gives_distinct_members(self):
        e0 = SuperOperator(Q, (I2,))
        e1 = SuperOperator(Q, (Z,))
        plain = guarded_superop_member(COMP2, [e0, e1], C)
        twisted = guarded_superop_member(
            COMP2,
            [e0, e1],
            C,
            reps=[
                OperatorValuedFunction(Q, {cs.EPS: I2}),
                OperatorValuedFunction(Q, {cs.EPS: np.exp(1j * np.pi) * Z}),
            ],
        )
        assert la.max_abs_diff(plain.choi(), twisted.choi()) > 0.5

    def test_member_differs_from_incoherent_application(self):
        # coherent guard of I and Z on a |+> coin entangles data and coin,
        # unlike flipping a classical coin between the two unitaries
        e0 = SuperOperator(Q, (I2,))
        e1 = SuperOperator(Q, (Z,))
        member = guarded_superop_member(COMP2, [e0, e1], C)
        plus = np.full((2, 2), 0.5, dtype=complex)
        rho = la.tensor(plus, plus)
        coherent = member(rho)
        u = la.tensor(I2, np.diag([1.0, 0.0])) + la.tensor(Z, np.diag([0.0, 1.0]))
        assert la.max_abs_diff(coherent, u @ rho @ la.dagger(u)) < 1e-12
        incoherent = 0.5 * rho + 0.5 * (la.tensor(Z, I2) @ rho @ la.tensor(Z, I2))
        assert la.max_abs_diff(coherent, incoherent) > 0.2

    def test_invalid_rep_rejected(self):
        e0 = SuperOperator(Q, (I2,))
        with pytest.raises(ContractError):
            guarded_superop_member(
                GuardBasis(np.array([[1.0]])),
                [e0],
                RegisterLayout(),
                reps=[OperatorValuedFunction(Q, {cs.EPS: X})],
            )

    def test_no_channels_rejected(self):
        with pytest.raises(ArityError):
            guarded_superop_member(GuardBasis(np.zeros((0, 0))), [], RegisterLayout())


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_guarded_composition_respects_the_bound_property(seed):
    gen = rng(seed)
    dim = int(gen.integers(2, 4))
    arity = int(gen.integers(2, 4))
    layout = RegisterLayout.of(("d", dim))
    guard = RegisterLayout.of(("s", arity))
    kinds = [str(gen.choice(["full", "sub", "zero"])) for _ in range(arity)]
    fs = [
        random_ovf(gen, layout, int(gen.integers(1, 3)), k, label=f"k{i}")
        for i, k in enumerate(kinds)
    ]
    composed = guarded_ovf(GuardBasis.computational(arity), fs, guard)
    composed.validate(1e-9)
    if all(k == "full" for k in kinds):
        assert composed.is_full(1e-9)
    for f in fs:
        assert sum(lambda_weight(f, d) ** 2 for d in f.states) == pytest.approx(1.0, abs=1e-9)


def in_order_sum(ops, projs):
    """``sum_i U_i (x) P_i``, added in branch order to a zero matrix."""
    out = np.zeros((len(ops[0]) * len(projs[0]),) * 2, dtype=complex)
    for op, proj in zip(ops, projs):
        out += la.tensor(op, proj)
    return out


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=100, deadline=None)
def test_one_state_guard_is_the_in_order_sum(seed, rotated):
    """Over one-state functions every weight is exactly 1, so the weight mesh
    gives the bits of the in-order sum of ``U_i (x) P_i``, the signs of zeros
    included: for ``guarded_ovf`` with a fifth of the branches zero, and
    for ``guarded_unitary``."""
    gen = rng(seed)
    dim, arity = int(gen.integers(2, 9)), int(gen.integers(2, 4))
    layout, guard = RegisterLayout.of(("d", dim)), RegisterLayout.of(("s", arity))
    basis = GuardBasis(random_unitary(gen, arity)) if rotated else GuardBasis.computational(arity)
    projs = [basis.column(i) @ la.dagger(basis.column(i)) for i in range(arity)]
    kinds = ["zero" if gen.uniform() < 0.2 else str(gen.choice(["full", "sub"]))
             for _ in range(arity)]
    fs = [random_ovf(gen, layout, 1, kind, label=f"k{i}") for i, kind in enumerate(kinds)]
    composed = guarded_ovf(basis, fs, guard)
    assert composed.stack.tobytes() == in_order_sum([f.stack[0] for f in fs], projs).tobytes()
    assert composed.states == (cs.oplus(tuple(f.states[0] for f in fs)),)
    us = [random_unitary(gen, dim) for _ in range(arity)]
    got = guarded_unitary(basis, us, layout, guard)
    assert got.tobytes() == in_order_sum(us, projs).tobytes()


def reference_lambdas(table):
    """The paper's branch weights over a plain dict: ``λ(d)² = w(d) / Σ w``
    with ``w(d) = tr F(d)† F(d)``, uniform for the all-zero function."""
    w = {d: float(np.vdot(op, op).real) for d, op in table.items()}
    total = sum(w.values())
    if total <= 1e-300:
        return {d: 1 / np.sqrt(len(w)) for d in w}
    return {d: np.sqrt(v / total) for d, v in w.items()}


@given(st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.sampled_from(["full", "sub", "zero"]), st.integers(1, 3)),
                min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_guarded_ovf_matches_the_per_combination_formula(seed, branches):
    # F(⊕d) = Σ_i Π_{k≠i} λ_k(d_k) · F_i(d_i) ⊗ P_i, one combination at a
    # time over plain dicts, against the array form.
    gen = rng(seed)
    layout, n = RegisterLayout.of(("d", 2)), len(branches)
    guard = RegisterLayout.of(("s", n)) if n > 1 else RegisterLayout()
    basis = GuardBasis(random_unitary(gen, n)) if n > 1 else GuardBasis(np.array([[1.0]]))
    fs = [random_ovf(gen, layout, size, kind, label=f"k{i}")
          for i, (kind, size) in enumerate(branches)]
    tables = [{d: f(d) for d in f.states} for f in fs]
    lambdas = [reference_lambdas(t) for t in tables]
    projs = [basis.column(i) @ la.dagger(basis.column(i)) for i in range(n)]
    expect = {}
    for combo in itertools.product(*tables):
        expect[cs.oplus(combo)] = sum(
            np.prod([lambdas[k][combo[k]] for k in range(n) if k != i])
            * np.kron(tables[i][combo[i]], projs[i]) for i in range(n))
    got = guarded_ovf(basis, fs, guard)
    assert len(got.states) == len(expect) and set(got.states) == set(expect)
    for state, op in zip(got.states, got.stack):
        assert la.max_abs_diff(op, expect[state]) < 1e-12
    for f in (*fs, got):
        weights = ovf.lambda_weights(f)
        assert weights.shape == (len(f.states),)
        assert np.sum(weights**2) == pytest.approx(1.0, abs=1e-12)
    for f, lam in zip(fs, lambdas):
        assert all(w == pytest.approx(lam[d], abs=1e-12)
                   for d, w in zip(f.states, ovf.lambda_weights(f)))


# -- Sequential composition -------------------------------------------------------


def random_family(gen, dim, count, zeros=0):
    ops = gen.normal(size=(count, dim, dim)) + 1j * gen.normal(size=(count, dim, dim))
    ops[:zeros] = 0  # zero operators, which composition prunes
    return ops / np.sqrt(count * dim)


@given(st.integers(0, 2**32 - 1), st.integers(0, 12), st.integers(0, 12), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_then_in_chunks_matches_all_products(seed, ka, kb, zeros):
    # THEN_HOLD sets how many products ``then`` holds at once; tiny, the
    # held family is reduced before every row of A, huge, never.
    gen = rng(seed)
    layout = RegisterLayout.of(("q", 2), ("r", 2))
    a = SuperOperator(layout, tuple(random_family(gen, 4, ka, min(zeros, ka))))
    b = SuperOperator(layout, tuple(random_family(gen, 4, kb)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ovf, "THEN_HOLD", 10**9)
        whole = a.then(b)
        patch.setattr(ovf, "THEN_HOLD", 0.01)
        chunked = a.then(b)
    assert len(whole.kraus) == (ka - min(zeros, ka)) * kb
    if ka * kb <= ovf.THEN_HOLD * layout.dim**2:  # one batch: every product, as formed
        assert np.array_equal(a.then(b).stack, whole.stack)
    assert len(chunked.kraus) <= 2 * layout.dim**2
    assert la.max_abs_diff(whole.choi(), chunked.choi()) < 1e-12
    assert la.max_abs_diff(a.then(b).choi(), whole.choi()) < 1e-12


def test_then_aligns_factor_orders():
    # dimensions 2 and 3, so a wrong factor order cannot go unnoticed
    gen = rng(16)
    qr, rq = RegisterLayout.of(("q", 2), ("r", 3)), RegisterLayout.of(("r", 3), ("q", 2))
    first = SuperOperator(qr, tuple(random_family(gen, 6, 2)))
    later = SuperOperator(rq, tuple(random_family(gen, 6, 3)))
    rho = gen.normal(size=(6, 6)) + 1j * gen.normal(size=(6, 6))
    mid = la.permute_factors(first(rho), [2, 3], [1, 0])  # into (r, q)
    expect = la.permute_factors(later(mid), [3, 2], [1, 0])  # back into (q, r)
    composed = first.then(later)
    assert composed.layout == qr
    assert la.max_abs_diff(composed(rho), expect) < 1e-12


def test_then_rejects_other_variables_of_equal_dimension():
    first = SuperOperator(RegisterLayout.of(("s", 2), ("t", 2)), (la.identity(4),))
    later = SuperOperator(RegisterLayout.of(("q", 2), ("r", 2)), (la.identity(4),))
    with pytest.raises(LayoutError):
        first.then(later)


def test_families_view_one_stack():
    e = SuperOperator(Q, (H, X))
    lifted = e.extended_to(RegisterLayout.of(("q", 2), ("c", 2)))
    for family in (e, lifted, e.then(e)):
        assert family.stack.shape == (len(family.kraus), family.layout.dim, family.layout.dim)
        assert all(np.shares_memory(k, family.stack) for k in family.kraus)
    assert SuperOperator(Q, ()).stack.shape == (0, 2, 2)


# -- Pruning ----------------------------------------------------------------------


@given(st.integers(0, 2**32 - 1), st.integers(0, 40), st.sampled_from([72, 200, 1000, 1 << 20]))
@settings(max_examples=40, deadline=None)
def test_prune_in_chunks_keeps_the_one_shot_verdicts(seed, count, block):
    # Entries at and around the 1e-14 cut, in chunks of one to all operators.
    gen = rng(seed)
    ops = random_family(gen, 3, count) * 10.0 ** gen.integers(-16, 1, size=(count, 1, 1))
    ops[gen.uniform(size=count) < 0.3] = 0
    ops[gen.uniform(size=count) < 0.2, 1, 2] = 1e-14
    expect = ops[np.abs(ops).max(axis=(1, 2)) > 1e-14]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ovf, "PRUNE_BLOCK_BYTES", block)
        assert np.array_equal(ovf.prune_zero_kraus(ops), expect)


def test_prune_holds_no_copy_of_the_stack():
    import tracemalloc

    ops = np.zeros((1024, 64, 64), dtype=complex)  # 64 MB
    ops[::16, 3, 5] = 1.0  # a small result, so a float copy of the stack would show
    tracemalloc.start()
    try:
        kept = ovf.prune_zero_kraus(ops)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(kept) == 64
    assert peak - kept.nbytes < 8 << 20
