from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgcl import kernels, linalg as la
from qgcl.errors import CapacityError, ContractError, ShapeError
from qgcl.registers import DensityMatrix, Observable, RegisterLayout

from conftest import permutation_matrix

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def rand_matrix(gen, rows, cols):
    return gen.normal(size=(rows, cols)) + 1j * gen.normal(size=(rows, cols))


class TestTensor:
    def test_identity_case(self):
        assert la.max_abs_diff(la.tensor(la.identity(2), la.identity(2)), la.identity(4)) == 0

    def test_projector_times_factor_is_block(self):
        got = la.tensor(P0, X)
        expect = np.zeros((4, 4), dtype=complex)
        expect[:2, :2] = X
        assert la.max_abs_diff(got, expect) == 0

    def test_hadamard_squared_is_identity(self):
        hh = la.tensor(H, H)
        assert la.max_abs_diff(hh @ hh, la.identity(4)) < 1e-12

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            la.tensor(la.identity(100), la.identity(100), max_dim=4096)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_associativity(self, seed):
        gen = np.random.default_rng(seed)
        a = rand_matrix(gen, 2, 2)
        b = rand_matrix(gen, 3, 2)
        c = rand_matrix(gen, 2, 3)
        left = la.tensor(la.tensor(a, b), c)
        right = la.tensor(a, la.tensor(b, c))
        assert la.max_abs_diff(left, right) < 1e-12

    @given(st.integers(0, 2**32 - 1), st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_stacks_match_kron_per_operator(self, seed, k):
        # a stack against a matrix, a matrix against a stack and two stacks
        gen = np.random.default_rng(seed)
        a = np.array([rand_matrix(gen, 2, 3) for _ in range(k)]).reshape(k, 2, 3)
        b = np.array([rand_matrix(gen, 3, 2) for _ in range(k)]).reshape(k, 3, 2)
        m, n = rand_matrix(gen, 2, 2), rand_matrix(gen, 3, 3)
        for got, expect in [
            (la.tensor(a, n), [np.kron(x, n) for x in a]),
            (la.tensor(m, b), [np.kron(m, y) for y in b]),
            (la.tensor(a, b), [np.kron(x, y) for x, y in zip(a, b)]),
        ]:
            assert got.shape[0] == k
            assert all(np.array_equal(g, e) for g, e in zip(got, expect))

    def test_stack_capacity_cap(self):
        with pytest.raises(CapacityError):
            la.tensor(np.zeros((3, 8, 8)), la.identity(8), max_dim=32)


class TestAsMatrices:
    def test_one_matrix_is_a_stack_of_one(self):
        got = la.as_matrices([[1, 2], [3, 4]])
        assert got.shape == (1, 2, 2) and got.dtype == complex

    def test_sequences_and_stacks(self):
        assert la.as_matrices([X, H, P0]).shape == (3, 2, 2)
        assert la.as_matrices(np.zeros((0, 4, 4))).shape == (0, 4, 4)

    def test_errors(self):
        with pytest.raises(ShapeError):
            la.as_matrices([la.identity(2), la.identity(3)])
        with pytest.raises(ShapeError):
            la.as_matrices([1.0, 2.0])
        with pytest.raises(ShapeError):
            la.as_matrices(np.zeros((1, 1, 2, 2)))
        with pytest.raises(ShapeError):
            la.as_matrices([X, np.full((2, 2), np.inf)])


class TestPartialTrace:
    def test_product_projector(self):
        rho = la.tensor(P0, P0)
        assert la.max_abs_diff(la.partial_trace(rho, [2, 2], [0]), P0) == 0

    def test_bell_state_reduces_to_maximally_mixed(self):
        bell = np.zeros((4, 1), dtype=complex)
        bell[0, 0] = bell[3, 0] = 1 / np.sqrt(2)
        rho = bell @ la.dagger(bell)
        assert la.max_abs_diff(la.partial_trace(rho, [2, 2], [0]), la.identity(2) / 2) < 1e-12
        assert la.max_abs_diff(la.partial_trace(rho, [2, 2], [1]), la.identity(2) / 2) < 1e-12

    def test_keep_everything_is_identity_operation(self):
        gen = np.random.default_rng(3)
        m = rand_matrix(gen, 6, 6)
        assert la.max_abs_diff(la.partial_trace(m, [2, 3], [0, 1]), m) == 0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_product_state_rule_and_trace_preserved(self, seed):
        gen = np.random.default_rng(seed)
        a = rand_matrix(gen, 2, 2)
        b = rand_matrix(gen, 3, 3)
        joint = la.tensor(a, b)
        reduced = la.partial_trace(joint, [2, 3], [0])
        assert la.max_abs_diff(reduced, np.trace(b) * a) < 1e-10
        assert abs(np.trace(reduced) - np.trace(joint)) < 1e-10


class TestPermutations:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matrix_oracle_agrees_with_reshape_path(self, seed):
        gen = np.random.default_rng(seed)
        dims = [2, 3, 2]
        total = 12
        m = rand_matrix(gen, total, total)
        order = list(gen.permutation(3))
        fast = la.permute_factors(m, dims, order)
        p = permutation_matrix(dims, order)
        assert la.max_abs_diff(fast, p @ m @ la.dagger(p)) < 1e-12


class TestPredicates:
    def test_hadamard_is_unitary(self):
        assert la.is_unitary(H, 1e-9)

    def test_projector_is_not_unitary(self):
        assert not la.is_unitary(P0, 1e-9)

    def test_loewner_zero_below_identity(self):
        assert la.loewner_leq(np.zeros((2, 2)), la.identity(2), 1e-9)

    def test_loewner_identity_not_below_half(self):
        assert not la.loewner_leq(la.identity(2), la.identity(2) / 2, 1e-9)

    def test_positive_rejects_large_antihermitian_part(self):
        m = np.array([[1.0, 1.0], [-1.0, 1.0]], dtype=complex)
        assert not la.is_positive(m, 1e-9)

    def test_non_square_raises(self):
        with pytest.raises(ShapeError):
            la.is_positive(np.zeros((2, 3)))

    def test_empty_matrix_is_unitary(self):
        assert la.is_unitary(np.zeros((0, 0)))

    @pytest.mark.parametrize("n", [2, 4, 16])
    def test_entrywise_bound_does_not_limit_the_norm(self, n):
        # I + t J is within t of I in every entry, but its top eigenvalue is 1 + n t.
        tol, ones = 1e-9, np.ones((n, n))
        assert la.near_identity(la.identity(n) + 0.9 * tol / n * ones, tol)
        assert not la.near_identity(la.identity(n) + 0.9 * tol * ones, tol)
        assert la.near_identity(la.identity(n) - 0.9 * tol * ones, tol)  # a contraction
        root = la.identity(n) + (np.sqrt(1 + 0.9 * tol * n) - 1) / n * ones  # root² = I + 0.9 tol J
        assert la.max_abs_diff(root.conj().T @ root, la.identity(n)) <= tol
        assert not la.is_unitary(root, tol)


def scaled_monomial(gen, n, kind, tol):
    """An n x n monomial matrix: its nonzeros sit on a permutation and have
    modulus ``1 + c tol``, ``c`` kept well away from the verdict's edge."""
    perm = gen.permutation(n)
    scale = np.ones(n, dtype=complex)
    if kind != "permutation":
        scale = np.exp(2j * np.pi * gen.uniform(size=n))
    if kind == "projector":
        perm, scale = np.arange(n), (gen.uniform(size=n) < 0.5).astype(complex)
    elif kind == "scaled":
        scale *= 1 + tol * gen.choice([-3.0, -2.0, -0.25, 0.0, 0.25, 2.0, 3.0], size=n)
    m = np.zeros((n, n), dtype=complex)
    m[np.arange(n), perm] = scale
    return m


@given(st.integers(0, 2**32 - 1), st.integers(1, 9),
       st.sampled_from(["permutation", "phase permutation", "projector", "scaled"]),
       st.sampled_from([1e-12, 1e-9, 1e-6]))
@settings(max_examples=200, deadline=None)
def test_monomial_unitarity_matches_the_dense_product(seed, n, kind, tol):
    # is_unitary decides a monomial matrix from its classified form.
    m = scaled_monomial(np.random.default_rng(seed), n, kind, tol)
    assert kernels.monomial(m) is not None
    assert la.is_unitary(m, tol) == (la.max_abs_diff(m.conj().T @ m, la.identity(n)) <= tol)


@pytest.mark.parametrize("count", [0, 1, 5])
def test_gram_is_the_per_operator_sum(count):
    # One sum, term by term in the given order, whatever holds the operators.
    gen = np.random.default_rng(count)
    stack = rand_matrix(gen, 3 * count, 3).reshape(count, 3, 3)
    expect = np.zeros((3, 3), dtype=complex)
    for op in stack:
        expect += op.conj().T @ op
    for ops in (stack, list(stack), (op for op in stack)):
        assert np.array_equal(la.gram(ops, 3), expect)


def with_lowest_eigenvalue(gen, dim, lowest):
    """Hermitian matrix with spectrum in [lowest, 1], ``lowest`` attained."""
    u, _ = np.linalg.qr(rand_matrix(gen, dim, dim))
    eigs = gen.uniform(0.0, 1.0, dim)
    eigs[0] = lowest
    return (u * eigs) @ u.conj().T


def eigvalsh_positive(m, tol):
    """Reference verdict: small anti-Hermitian part, min eigenvalue >= -tol."""
    herm = (m + m.conj().T) / 2
    return bool(np.max(np.abs(m - herm)) <= tol and np.linalg.eigvalsh(herm).min() >= -tol)


class TestPositivityAgainstEigenvalues:
    TOL = 1e-9

    @pytest.mark.parametrize("dim", [1, 2, 7, 64, 512])
    @pytest.mark.parametrize("scale", [0.0, 1 - 1e-3, 1 + 1e-3])
    def test_min_eigenvalue_at_the_tolerance_edge(self, dim, scale):
        m = with_lowest_eigenvalue(np.random.default_rng(dim), dim, -self.TOL * scale)
        assert la.is_positive(m, self.TOL) == eigvalsh_positive(m, self.TOL) == (scale < 1)

    @pytest.mark.parametrize("skew", [0.1, 10.0])
    def test_non_hermitian_input(self, skew):
        gen = np.random.default_rng(3)
        a = rand_matrix(gen, 4, 4)
        m = with_lowest_eigenvalue(gen, 4, 0.0) + skew * self.TOL * (a - a.conj().T) / 2
        assert la.is_positive(m, self.TOL) == eigvalsh_positive(m, self.TOL) == (skew < 1)

    def test_empty_matrix_is_positive(self):
        assert la.is_positive(np.zeros((0, 0)), self.TOL)

    def test_input_is_not_modified(self):
        m = with_lowest_eigenvalue(np.random.default_rng(4), 3, 0.0)
        before = m.copy()
        la.is_positive(m, self.TOL)
        assert np.array_equal(m, before)

    # The Gershgorin certificate answers True only when its bound
    # min_i (m_ii - sum_{j != i} |m_ij|) is at least -tol; every other matrix
    # goes on to the Cholesky factorisation.

    def verdict_and_factored(self, m):
        with patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky) as cholesky:
            verdict = la.is_positive(m, self.TOL)
        return verdict, cholesky.called

    @pytest.mark.parametrize("dim", [2, 64, 512])
    def test_rounding_noise_is_certified(self, dim):
        # The identity, and I - wp(I) of a trace-preserving program.
        gen = np.random.default_rng(dim)
        noise = 1e-17 * rand_matrix(gen, dim, dim)
        noise += noise.conj().T
        for m in (la.identity(dim) + noise, noise):
            assert eigvalsh_positive(m, self.TOL)
            assert self.verdict_and_factored(m) == (True, False)

    @pytest.mark.parametrize("dim", [2, 8, 64])
    @pytest.mark.parametrize("scale", [1 - 1e-3, 1 + 1e-3])
    def test_gershgorin_bound_at_the_tolerance_edge(self, dim, scale):
        # 2x2 blocks [[x, z], [z*, x]] with |z| = 1 have lowest eigenvalue
        # x - 1, their Gershgorin bound; rows and columns are then shuffled.
        gen = np.random.default_rng(dim)
        xs = gen.uniform(1.5, 2.0, dim // 2)
        xs[0] = 1 - self.TOL * scale
        m = np.zeros((dim, dim), dtype=complex)
        for k, x in enumerate(xs):
            z = np.exp(2j * np.pi * gen.uniform())
            m[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[x, z], [np.conj(z), x]]
        m = m[np.ix_(*[gen.permutation(dim)] * 2)]
        assert eigvalsh_positive(m, self.TOL) == (scale < 1)
        assert self.verdict_and_factored(m) == (scale < 1, scale > 1)

    @pytest.mark.parametrize("dim", [3, 7, 64])
    def test_all_ones_is_positive_through_cholesky(self, dim):
        m = np.ones((dim, dim))
        assert eigvalsh_positive(m, self.TOL)
        assert self.verdict_and_factored(m) == (True, True)

    @pytest.mark.parametrize("lowest, expected", [(-1e-6, (False, True)),
                                                  (-1e-9 * (1 - 1e-3), (True, False))])
    def test_negative_diagonal(self, lowest, expected):
        m = np.diag([1.0, 0.5, lowest])
        assert eigvalsh_positive(m, self.TOL) == expected[0]
        assert self.verdict_and_factored(m) == expected

    # The row of the lowest diagonal entry is tried first: when its disc
    # reaches below -tol, |m| is never formed and Cholesky decides.
    @pytest.mark.parametrize("m, expected", [
        ([[-1e-9 * (1 - 1e-3)]], (True, False, True)),
        ([[-1e-9 * (1 + 1e-3)]], (False, True, False)),
        (np.diag([1.0, 0.5, -2e-9, 0.3]), (False, True, False)),
        # tied lowest diagonals: the first one's disc holds, then fails
        ([[0.2, 0, 0], [0, 1, 0.4], [0, 0.4, 0.2]], (True, True, True)),
        ([[0.2, 0, 0.5], [0, 1, 0], [0.5, 0, 0.2]], (False, True, False)),
        # the lowest diagonal's disc holds while another row's fails
        ([[0.1, 0, 0], [0, 1, 0.4], [0, 0.4, 0.2]], (True, True, True)),
        ([[0.1, 0, 0], [0, 1, 0.5], [0, 0.5, 0.2]], (False, True, True)),
    ])
    def test_weakest_row_is_tried_first(self, m, expected):
        """Each row: the verdict, whether Cholesky ran and whether the
        magnitudes of the whole matrix were formed."""
        m = np.array(m, dtype=complex)
        herm = la.hermitian_part(m, self.TOL)
        with (patch.object(np, "abs", wraps=np.abs) as magnitudes,
              patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky) as cholesky):
            verdict, factored = la.hermitian_psd(herm, self.TOL), cholesky.called
        formed = any(np.ndim(call.args[0]) == 2 for call in magnitudes.call_args_list)
        assert verdict == eigvalsh_positive(m, self.TOL)
        assert (verdict, factored, formed) == expected

    # ``DensityMatrix``/``Observable.validate`` test ``max |m - m†| <= tol``
    # and then only the Hermitian part's spectrum: the anti-Hermitian part
    # ``|m - m†| / 2`` is then within ``tol / 2``, inside ``is_positive``'s bound.

    @pytest.mark.parametrize("dim", [2, 64])
    @pytest.mark.parametrize("edge", [1 - 1e-3, 1 + 1e-3, 2 - 1e-3, 2 + 1e-3])
    # The bytes of 1 or 3 rows make square tiles of side 1 or 2 at dim 2 and
    # side 8 or 13 at dim 64, 13 leaving a short last tile.
    @pytest.mark.parametrize("block_rows", [None, 1, 3])
    def test_anti_hermitian_part_at_the_tolerance_edge(self, dim, edge, block_rows):
        gen = np.random.default_rng(dim)
        skew = rand_matrix(gen, dim, dim)
        skew -= skew.conj().T
        skew *= edge * self.TOL / np.abs(skew).max()  # max |m - m†| = edge tol
        m = with_lowest_eigenvalue(gen, dim, 0.0) / dim + skew / 2
        assert (np.abs(m - m.conj().T).max() <= self.TOL) == (edge < 1)
        assert la.is_positive(m, self.TOL) == eigvalsh_positive(m, self.TOL) == (edge < 2)
        layout = RegisterLayout.of(("q", dim))
        with pytest.MonkeyPatch.context() as patch:
            if block_rows is not None:
                patch.setattr(la, "HERMITIAN_BLOCK_BYTES", 16 * dim * block_rows)
            part = la.hermitian_part(m, self.TOL)
            if edge < 1:
                assert np.array_equal(part, (m + m.conj().T) / 2)
            else:
                assert part is None
            for kind, what in ((DensityMatrix, "density matrix"), (Observable, "observable")):
                if edge < 1:
                    kind(m, layout).validate(self.TOL)
                else:
                    with pytest.raises(ContractError, match=f"^{what} is not Hermitian"):
                        kind(m, layout).validate(self.TOL)

    @pytest.mark.parametrize("at", [(63, 63), (61, 62), (62, 61)])  # all in the later blocks
    @pytest.mark.parametrize("edge", [1 - 1e-3, 1 + 1e-3])
    def test_hermitian_part_asymmetric_only_in_the_last_rows(self, at, edge):
        # Tiles of side 13 at dim 64: every entry is Hermitian but one in
        # the short last tile row, so the verdict rests on that tile.
        m = with_lowest_eigenvalue(np.random.default_rng(7), 64, 0.0) / 64
        m = (m + m.conj().T) / 2
        m[at] += 1j * edge * self.TOL / (2 if at[0] == at[1] else 1)  # |m - m†| = edge tol there
        assert (np.abs(m - m.conj().T).max() <= self.TOL) == (edge < 1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(la, "HERMITIAN_BLOCK_BYTES", 16 * 64 * 3)
            part = la.hermitian_part(m, self.TOL)
            if edge < 1:
                assert np.array_equal(part, (m + m.conj().T) / 2)
            else:
                assert part is None
                with pytest.raises(ContractError, match="^density matrix is not Hermitian"):
                    DensityMatrix(m, RegisterLayout.of(("q", 64))).validate(self.TOL)

    @pytest.mark.parametrize("kind, what", [(DensityMatrix, "density matrix"),
                                            (Observable, "observable")])
    def test_validate_rejects_a_negative_hermitian_part(self, kind, what):
        m = with_lowest_eigenvalue(np.random.default_rng(6), 8, -16 * self.TOL) / 8  # -2 tol
        with pytest.raises(ContractError, match=f"^{what} is not positive semidefinite"):
            kind(m, RegisterLayout.of(("q", 8))).validate(self.TOL)


class TestHermitianTiles:
    """``hermitian_part`` reads ``m`` in square tiles, each with its mirror,
    and ``hermitian_psd`` factors the part in Fortran order; the verdicts
    and values are those of the whole-matrix formulas at every tile size."""

    TOL = 1e-9
    TILES = [16, 16 * 9, 16 * 64 * 64, la.HERMITIAN_BLOCK_BYTES]  # sides 1, 3, 64, default

    @given(st.integers(1, 200), st.sampled_from(TILES),
           st.sampled_from(["none", "last", "diagonal", "pair"]),
           st.sampled_from([1 - 1e-3, 1 + 1e-3]), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_part_is_the_average_and_none_past_tol(self, dim, tile, where, edge, seed):
        gen = np.random.default_rng(seed)
        a = rand_matrix(gen, dim, dim)
        m = (a + a.conj().T) / 2  # exactly Hermitian
        i, j = {"none": (0, 0), "last": (dim - 1, dim // 2), "diagonal": (dim // 3, dim // 3),
                "pair": (0, dim - 1)}[where]
        if where != "none":
            m[i, j] += 1j * edge * self.TOL / (2 if i == j else 1)  # |m - m†| = edge tol there
        over = bool(np.abs(m - m.conj().T).max() > self.TOL)
        with patch.object(la, "HERMITIAN_BLOCK_BYTES", tile):
            part = la.hermitian_part(m, self.TOL)
        if over:
            assert part is None
        else:
            assert np.array_equal(part, (m + m.conj().T) / 2) and part.flags.f_contiguous
        assert over == (where != "none" and edge > 1)

    @given(st.integers(1, 40), st.sampled_from(TILES), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_nonzero_entries_are_the_average_bit_for_bit(self, dim, tile, seed):
        """The part halves by multiplying by 0.5; across the whole float
        range, subnormals and zeros included, only a zero's sign may differ
        from ``(m + m†) / 2``."""
        gen = np.random.default_rng(seed)
        parts = gen.choice([-1.0, 1.0], size=(2, dim, dim)) * np.ldexp(
            gen.uniform(0.5, 1, size=(2, dim, dim)), gen.integers(-1074, 1023, size=(2, dim, dim)))
        parts[gen.uniform(size=parts.shape) < 0.1] = 0.0
        m = parts[0] + 1j * parts[1]
        with patch.object(la, "HERMITIAN_BLOCK_BYTES", tile):
            part = la.hermitian_part(m, np.inf)
        got = np.ascontiguousarray(part).view(np.float64)
        expect = ((m + m.conj().T) / 2).view(np.float64)
        nonzero = expect != 0
        assert np.array_equal(got[nonzero].view(np.uint64), expect[nonzero].view(np.uint64))
        assert not got[~nonzero].any()

    @given(st.integers(2, 120), st.sampled_from(TILES), st.sampled_from([1 - 1e-3, 1 + 1e-3]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_psd_matches_eigenvalues_factoring_fortran_order(self, dim, tile, scale, seed):
        m = with_lowest_eigenvalue(np.random.default_rng(seed), dim, -self.TOL * scale)
        real, factored = np.linalg.cholesky, []

        def cholesky(a):
            factored.append(a.flags.f_contiguous)
            return real(a)

        with patch.object(la, "HERMITIAN_BLOCK_BYTES", tile), \
                patch.object(np.linalg, "cholesky", cholesky):
            part = la.hermitian_part(m, self.TOL)
            verdict = la.hermitian_psd(part, self.TOL)
        assert verdict == eigvalsh_positive(m, self.TOL) == (scale < 1)
        assert all(factored) and (factored or scale < 1)  # Gershgorin cannot pass a -tol part


class TestChoi:
    def test_identity_kraus_gives_entangled_projector(self):
        c = la.choi([la.identity(2)])
        omega = np.zeros((4, 1), dtype=complex)
        omega[0, 0] = omega[3, 0] = 1.0
        assert la.max_abs_diff(c, omega @ la.dagger(omega)) == 0
        assert abs(np.trace(c) - 2) < 1e-12

    def test_dephasing_hand_expansion(self):
        # sum over E in {|0><0|, |1><1|} of (E (x) I)|Omega><Omega|(E (x) I)+
        c = la.choi([P0, P1])
        assert la.max_abs_diff(c, np.diag([1.0, 0.0, 0.0, 1.0])) == 0

    def test_global_phase_invisible(self):
        gen = np.random.default_rng(5)
        z = rand_matrix(gen, 2, 2)
        u, _ = np.linalg.qr(z)
        assert la.max_abs_diff(la.choi([u]), la.choi([np.exp(1j * 0.9) * u])) < 1e-12

    def test_empty_family_is_zero_channel(self):
        c = la.choi([], dim=3)
        assert c.shape == (9, 9)
        assert la.max_abs_diff(c, np.zeros((9, 9))) == 0

    def test_round_trip_through_kraus(self):
        gen = np.random.default_rng(11)
        ops = [0.6 * rand_matrix(gen, 2, 2) for _ in range(3)]
        scale = np.sqrt(3 * max(np.linalg.norm(op, 2) ** 2 for op in ops))
        ops = [op / scale for op in ops]
        c = la.choi(ops)
        back = la.choi_to_kraus(c)
        assert len(back) <= 4
        assert la.max_abs_diff(la.choi(back), c) < 1e-10

    def test_single_product_matches_rank_one_sum(self):
        gen = np.random.default_rng(12)
        ops = [rand_matrix(gen, 3, 3) for _ in range(4)]
        expect = sum(op.reshape(-1, 1) @ op.reshape(1, -1).conj() for op in ops)
        assert la.max_abs_diff(la.choi(ops), expect) < 1e-12

    def test_family_shape_errors(self):
        with pytest.raises(ShapeError):
            la.choi([])
        with pytest.raises(ShapeError):
            la.choi([la.identity(2), la.identity(3)])
        with pytest.raises(ShapeError):
            la.choi([la.identity(2)], dim=3)
        with pytest.raises(ShapeError):
            la.choi_max_diff([la.identity(2)], [np.full((2, 2), np.nan)], 2)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_equal_choi_means_equal_channel_on_states(self, seed):
        # unitarily mixed Kraus families share a Choi matrix and agree on
        # twenty random density operators
        gen = np.random.default_rng(seed)
        z = rand_matrix(gen, 2, 2)
        u, _ = np.linalg.qr(z)
        family = [P0 @ u, P1 @ u]
        mix = np.linalg.qr(rand_matrix(gen, 2, 2))[0]
        mixed = [
            mix[0, 0] * family[0] + mix[0, 1] * family[1],
            mix[1, 0] * family[0] + mix[1, 1] * family[1],
        ]
        assert la.max_abs_diff(la.choi(family), la.choi(mixed)) < 1e-9
        for _ in range(20):
            a = rand_matrix(gen, 2, 2)
            rho = a @ la.dagger(a)
            rho /= np.trace(rho)
            out1 = sum(e @ rho @ la.dagger(e) for e in family)
            out2 = sum(e @ rho @ la.dagger(e) for e in mixed)
            assert la.max_abs_diff(out1, out2) < 1e-9


OP_KINDS = st.lists(st.sampled_from(["random", "zero"]), max_size=6)


class TestChoiMaxDiff:
    @given(st.integers(1, 32), OP_KINDS, OP_KINDS, st.booleans(),
           st.sampled_from([16, 256, 4096, la.CHOI_BLOCK_BYTES]), st.sampled_from([-300, 0, 300]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_dense_choi_difference(self, dim, kinds_a, kinds_b, mixed, block, exp, seed):
        # families of 0-6 operators on each side, all-zero operators among
        # them; ``mixed`` makes the second family a unitary mixing of the
        # first (the same channel), and small blocks exercise the row loop,
        # as does the default block from dim 16 up.  Both families are
        # scaled by 2**exp, so at +-300 the Choi entries' squares leave the
        # range of a float; the bound scales with them, exactly.
        gen = np.random.default_rng(seed)
        scale = 2.0 ** exp

        def family(kinds):
            return [np.zeros((dim, dim), dtype=complex) if kind == "zero"
                    else scale * rand_matrix(gen, dim, dim) for kind in kinds]

        a = family(kinds_a)
        if mixed and a:
            mix = np.linalg.qr(rand_matrix(gen, len(a), len(a)))[0]
            b = [sum(mix[i, j] * a[j] for j in range(len(a))) for i in range(len(a))]
        else:
            b = family(kinds_b)
        dense = la.max_abs_diff(la.choi(a, dim), la.choi(b, dim))
        with patch.object(la, "CHOI_BLOCK_BYTES", block):
            got = la.choi_max_diff(a, b, dim)
            stacks = [np.array(f, dtype=complex).reshape(-1, dim, dim) for f in (a, b)]
            assert la.choi_stack_diff(*stacks) == got  # checked stacks, the same scan
        assert abs(got - dense) <= 1e-12 * max(scale * scale, dense)

    @pytest.mark.parametrize("bad", [
        [np.full((2, 2), np.nan)], [np.full((2, 2), np.inf)], [H, la.identity(3)],
        [[1.0, 2.0], [3.0]], np.zeros((2, 2, 2, 2))], ids=["nan", "inf", "mixed shapes",
                                                         "ragged", "rank 4"])
    def test_public_scan_checks_its_input(self, bad):
        """Only ``choi_stack_diff`` trusts its stacks; ``choi_max_diff`` checks."""
        for a, b in ((bad, [H]), ([H], bad)):
            with pytest.raises(ShapeError):
                la.choi_max_diff(a, b, 2)

    def test_empty_families(self):
        assert la.choi_max_diff([], [], 3) == 0.0
        assert la.choi_max_diff([], [H], 2) == pytest.approx(0.5)
        with pytest.raises(ShapeError):
            la.choi_max_diff([], [H], 3)


class TestReduceKraus:
    @given(st.integers(1, 4), st.integers(0, 24), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_same_channel_as_choi_to_kraus(self, dim, count, seed):
        gen = np.random.default_rng(seed)
        # rank at most ``count`` and at most dim**2
        ops = [rand_matrix(gen, dim, dim) for _ in range(count)]
        reduced = la.reduce_kraus(ops, dim)
        canonical = la.choi_to_kraus(la.choi(ops, dim))
        assert len(reduced) == len(canonical) <= dim * dim
        scale = max(1.0, float(np.abs(la.choi(ops, dim)).max()))
        assert la.choi_max_diff(reduced, ops, dim) < 1e-12 * scale
