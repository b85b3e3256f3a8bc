from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgcl import linalg as la
from qgcl.errors import CapacityError, ContractError, LayoutError, ShapeError
from qgcl.registers import DensityMatrix, Observable, RegisterLayout, embed

X = np.array([[0, 1], [1, 0]], dtype=complex)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def test_layout_rejects_duplicates_and_small_dims():
    with pytest.raises(LayoutError):
        RegisterLayout.of(("q", 2), ("q", 3))
    with pytest.raises(LayoutError):
        RegisterLayout.of(("q", 1))


def test_layout_accessors():
    lay = RegisterLayout.of(("a", 2), ("b", 3))
    assert lay.dim == 6
    assert lay.names == ("a", "b")
    assert lay.index("b") == 1
    assert lay.restrict(["b"]).variables == (("b", 3),)
    assert lay.remove(["a"]).variables == (("b", 3),)
    assert RegisterLayout().dim == 1


def test_extended_checks_dimension_agreement():
    lay = RegisterLayout.of(("a", 2))
    with pytest.raises(LayoutError):
        lay.extended(RegisterLayout.of(("a", 3)))


def test_embed_identity_case():
    lay = RegisterLayout.of(("q", 2))
    assert la.max_abs_diff(embed(X, lay, lay), X) == 0


def test_embed_adds_identity_factor_in_front():
    sub = RegisterLayout.of(("q2", 2))
    full = RegisterLayout.of(("q1", 2), ("q2", 2))
    assert la.max_abs_diff(embed(X, sub, full), la.tensor(la.identity(2), X)) == 0


def test_embed_reorders_against_brute_force_basis_oracle():
    # CNOT written on (q2, q1), embedded into [q1, q2, q3]
    sub = RegisterLayout.of(("q2", 2), ("q1", 2))
    full = RegisterLayout.of(("q1", 2), ("q2", 2), ("q3", 2))
    got = embed(CNOT, sub, full)
    oracle = np.zeros((8, 8), dtype=complex)
    for b in range(8):
        q1, q2, q3 = (b >> 2) & 1, (b >> 1) & 1, b & 1
        oracle[(((q1 ^ q2) << 2) | (q2 << 1) | q3), b] = 1.0
    assert la.max_abs_diff(got, oracle) == 0


def test_embed_is_homomorphism():
    gen = np.random.default_rng(2)
    sub = RegisterLayout.of(("b", 3), ("a", 2))
    full = RegisterLayout.of(("a", 2), ("c", 2), ("b", 3))
    x = gen.normal(size=(6, 6)) + 1j * gen.normal(size=(6, 6))
    y = gen.normal(size=(6, 6)) + 1j * gen.normal(size=(6, 6))
    assert la.max_abs_diff(embed(x @ y, sub, full), embed(x, sub, full) @ embed(y, sub, full)) < 1e-10
    assert la.max_abs_diff(embed(la.dagger(x), sub, full), la.dagger(embed(x, sub, full))) < 1e-12


def test_embed_rejects_dimension_mismatch():
    with pytest.raises(LayoutError):
        embed(X, RegisterLayout.of(("q", 2)), RegisterLayout.of(("q", 3)))
    with pytest.raises(LayoutError):
        embed(X, RegisterLayout.of(("q", 2)), RegisterLayout.of(("r", 2)))


def test_density_validation():
    lay = RegisterLayout.of(("q", 2))
    DensityMatrix(np.diag([0.5, 0.5]).astype(complex), lay).validate()
    DensityMatrix(np.diag([0.3, 0.3]).astype(complex), lay).validate()  # partial
    with pytest.raises(ContractError):
        DensityMatrix(np.diag([1.5, 0.0]).astype(complex), lay).validate()
    with pytest.raises(ContractError):
        DensityMatrix(np.array([[0.5, 0.9], [0.9, 0.5]]).astype(complex), lay).validate()


def test_observable_validation():
    lay = RegisterLayout.of(("a", 2), ("b", 2))
    Observable(la.tensor(np.diag([1.0, 0.0]), la.identity(2)), lay).validate()
    with pytest.raises(ContractError):
        Observable(np.diag([-1.0, 0.0]).astype(complex), RegisterLayout.of(("q", 2))).validate()


@pytest.mark.parametrize("kind", [DensityMatrix, Observable])
def test_typed_values_are_immutable(kind):
    x = kind(np.eye(2) / 2, RegisterLayout.of(("q", 2)))
    with pytest.raises(FrozenInstanceError):
        x.matrix = np.zeros((2, 2))
    with pytest.raises(FrozenInstanceError):
        x.layout = RegisterLayout.of(("r", 2))


@pytest.mark.parametrize("kind", [DensityMatrix, Observable])
def test_only_a_sealed_matrix_is_validated_once_per_tolerance(kind, monkeypatch):
    calls = []
    real = la.hermitian_psd
    monkeypatch.setattr(la, "hermitian_psd", lambda *a: calls.append(a[1]) or real(*a))
    lay = RegisterLayout.of(("q", 2))
    open_ = kind(np.eye(2) / 2, lay)  # its caller can still write the matrix
    open_.validate()
    open_.validate()
    sealed = kind(la.frozen(np.eye(2) / 2), lay)
    sealed.validate()
    sealed.validate()
    sealed.validate(1e-6)
    assert calls == [la.DEFAULT_TOL, la.DEFAULT_TOL, la.DEFAULT_TOL, 1e-6]
    bad = la.frozen(np.diag([-1.0, 0.5]))
    for _ in range(2):  # a failed check records nothing
        with pytest.raises(ContractError):
            kind(bad, lay).validate()


# -- Stacked embedding ----------------------------------------------------------
# ``embed`` extends a whole (K, s, s) stack in one pass; the reference is the
# per-operator definition: tensor with the missing identity, then permute.


def reference_embed(op, sub, full):
    missing = [v for v in full.variables if v[0] not in sub]
    src = list(sub.variables) + missing
    ext = la.tensor(op, la.identity(int(np.prod([d for _, d in missing]))))
    order = [src.index(v) for v in full.variables]
    return la.permute_factors(ext, [d for _, d in src], order)


@st.composite
def stacked_embeddings(draw):
    """A full layout of up to four variables, a sub-layout of some of them in
    any (so also permuted or interleaved) order, and K random operators on it."""
    dims = draw(st.lists(st.integers(2, 3), max_size=4))
    full = RegisterLayout(tuple((f"v{i}", d) for i, d in enumerate(dims)))
    order = draw(st.permutations(range(len(dims))))
    sub = RegisterLayout(tuple(full.variables[i] for i in order[: draw(st.integers(0, len(dims)))]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(0, 3))
    ops = gen.normal(size=(k, sub.dim, sub.dim)) + 1j * gen.normal(size=(k, sub.dim, sub.dim))
    return ops, sub, full


@given(stacked_embeddings())
@settings(max_examples=80, deadline=None)
def test_stacked_embed_matches_tensor_and_permute(case):
    ops, sub, full = case
    got = embed(ops, sub, full)
    assert got.shape == (len(ops), full.dim, full.dim)
    for op, lifted in zip(ops, got):
        assert la.max_abs_diff(lifted, reference_embed(op, sub, full)) == 0
        assert la.max_abs_diff(embed(op, sub, full), lifted) == 0


def test_stacked_embed_edge_cases():
    empty = RegisterLayout()
    assert embed(np.ones((1, 1, 1)), empty, empty).tolist() == [[[1]]]
    full = RegisterLayout.of(("a", 2), ("b", 3))
    assert embed(np.zeros((0, 3, 3)), RegisterLayout.of(("b", 3)), full).shape == (0, 6, 6)
    one = embed(np.full((1, 1, 1), 2.0), empty, full)
    assert la.max_abs_diff(one[0], 2 * la.identity(6)) == 0


def test_stacked_embed_errors():
    q, r = RegisterLayout.of(("q", 2)), RegisterLayout.of(("q", 2), ("r", 3))
    stack = np.stack([X, X])
    with pytest.raises(CapacityError):
        embed(stack, q, r, max_dim=5)
    with pytest.raises(LayoutError):  # operators of the wrong size
        embed(np.zeros((2, 3, 3)), q, r)
    with pytest.raises(LayoutError):  # a variable the full layout lacks
        embed(stack, RegisterLayout.of(("s", 2)), r)
    with pytest.raises(LayoutError):  # a variable of another dimension
        embed(stack, q, RegisterLayout.of(("q", 3)))
    with pytest.raises(ShapeError):
        embed(np.zeros((1, 1, 2, 2)), q, r)
    with pytest.raises(ShapeError):
        embed(np.stack([X, np.full((2, 2), np.nan)]), q, r)
