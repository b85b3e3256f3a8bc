"""The streaming kernels against an independent reference.

``kernels.contract``, ``kernels.sandwich`` and ``semantics._Planner._guard`` apply
each operator on the tensor factors where its variables lie.  The reference here
never uses them: the operator is ``registers.embed``-ed into the full layout
and applied to the flattened matrix, and a guard's channel comes from
``denote``, which composes embedded Kraus families.  Each fast form is also
held to the form it stands in for, bit for bit, signed zeros included
(``same_bits``): a real operator's product on the float view to the complex
product, a gather over a flat index to the broadcast gather, and a guard's
rotations to the dense products.  Which real products keep the complex
product's bits was measured with numpy 2.4 on OpenBLAS 0.3.31's SkylakeX
kernels; the tests of those limits use states on which the real product
gives other bits there.  Another OpenBLAS core may move those bits.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qgcl.semantics as semantics
from qgcl import kernels, linalg as la
from qgcl.program import (Abort, GuardBasis, Guarded, Measure, Measurement, QChoice, Seq, Skip,
                          Unitary, kept, walk)
from qgcl.registers import DensityMatrix, Observable, RegisterLayout, embed
from qgcl.sampling import random_density, random_unitary, rng
from qgcl.semantics import apply_program, denote, stream
from qgcl.wp import wp_apply

TOL = 1e-12
NAMES = ("a", "b", "c")
KINDS = ("dense", "permutation", "phase permutation", "diagonal", "projector")


def operator(gen, k, kind):
    """A ``k x k`` operator of ``kind``; at ``k = 1`` (on no variables, as a
    variable has dimension 2 or more) every kind is a 1 x 1 scaling."""
    if kind == "dense":
        return (gen.normal(size=(k, k)) + 1j * gen.normal(size=(k, k))) / k
    perm = np.arange(k) if kind in ("diagonal", "projector") else gen.permutation(k)
    if kind == "permutation":
        scale = np.ones(k)
    elif kind == "phase permutation":
        scale = np.exp(2j * np.pi * gen.uniform(size=k))
    elif kind == "diagonal":
        scale = gen.normal(size=k) + 1j * gen.normal(size=k)
    else:  # basis projector with at least one empty row
        scale = (gen.uniform(size=k) < 0.5).astype(float)
        scale[gen.integers(k)] = 0
    op = np.zeros((k, k), dtype=complex)
    op[np.arange(k), perm] = scale
    return op


def kernel_of(op, kind):
    """``kernels.kernel(op)``, checked to be a monomial exactly for the
    monomial kinds and for every 1 x 1 operator."""
    k = kernels.kernel(op)
    assert isinstance(k, kernels.Monomial) == (kind != "dense" or len(op) == 1)
    return k


@st.composite
def layouts(draw):
    dims = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    return RegisterLayout(tuple(zip(NAMES, dims)))


@st.composite
def sites(draw, layout):
    """Distinct variables of ``layout`` in any order: adjacent, reversed,
    apart, on the last axis or none at all."""
    names = layout.names
    return tuple(draw(st.permutations(names))[: draw(st.integers(0, len(names)))])


def sub(layout, site):
    return RegisterLayout(tuple((v, layout.dim_of(v)) for v in site))


def matrix(gen, d):
    return (gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))) / d


def shift(n, k):
    """The cyclic shift by ``k`` on ``n`` sites, as the walk's shift."""
    return np.roll(np.eye(n, dtype=complex), k, axis=0)


@given(st.data(), st.sampled_from(KINDS), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_contract_matches_embedded_operator(data, kind, seed):
    gen = rng(seed)
    layout = data.draw(layouts())
    site = data.draw(sites(layout))
    names, n, d = layout.names, len(layout.names), layout.dim
    op = operator(gen, sub(layout, site).dim, kind)
    full = embed(op, sub(layout, site), layout)
    x = matrix(gen, d)
    t = x.reshape(layout.dims * 2)
    k = kernel_of(op, kind)
    rows = kernels.contract(k, t, [names.index(v) for v in site])
    cols = kernels.contract(k, t, [n + names.index(v) for v in site])
    assert rows.shape == cols.shape == t.shape
    assert la.max_abs_diff(rows.reshape(d, d), full @ x) < TOL
    assert la.max_abs_diff(cols.reshape(d, d), x @ full.T) < TOL


def same_bits(a, b):
    """Whether ``a`` and ``b`` hold the same bits: unlike ``np.array_equal``,
    ``-0.0`` and ``0.0`` differ."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@given(st.data(), st.sampled_from(KINDS), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_sandwich_matches_embedded_operators(data, kind, adjoint, seed):
    """``(L (x) I) X (L (x) I)†`` against the embedded ``L``; a monomial's
    one gather gives the bits of its two products, on a contiguous and on a
    strided state."""
    gen = rng(seed)
    layout = data.draw(layouts())
    site = data.draw(sites(layout))
    names, n, d = layout.names, len(layout.names), layout.dim
    op = operator(gen, sub(layout, site).dim, kind)
    full = embed(op, sub(layout, site), layout)
    if adjoint:
        full = la.dagger(full)
    k = kernels.side(kernel_of(op, kind), adjoint)
    x = matrix(gen, d)
    t = x.reshape(layout.dims * 2)
    got = kernels.sandwich(t, names, k, site)
    assert la.max_abs_diff(got.reshape(d, d), full @ x @ la.dagger(full)) < TOL
    rows = [names.index(v) for v in site]
    if isinstance(k, kernels.Monomial) and rows:  # one gather, same bits
        apart = kernels.contract(k.conj(), kernels.contract(k, t, rows), [n + a for a in rows])
        assert same_bits(got, apart)
        wide = np.zeros((d, 2, d, 3), dtype=complex)
        wide[:, 1, :, 2] = x  # a strided view, whose axes cannot all merge
        view = wide[:, 1, :, 2].reshape(layout.dims * 2)
        assert same_bits(kernels.sandwich(view, names, k, site), apart)


@pytest.mark.parametrize("kind", KINDS[1:])
def test_monomial_sandwich_on_a_strided_block(kind):
    """The shape of a guard block: one variable each side, a strided view."""
    gen = rng(7)
    t = matrix(gen, 10).reshape(5, 2, 5, 2)
    block = t[:, 1, :, 0]
    op = operator(gen, 5, kind)
    got = kernels.sandwich(block, ("v",), kernels.kernel(op), ("v",))
    assert la.max_abs_diff(got, op @ block @ la.dagger(op)) < TOL


def zeroed(gen, shape):
    """A complex array holding exact zeros and signed zeros in both parts."""
    x = gen.normal(size=shape) + 1j * gen.normal(size=shape)
    x[gen.random(shape) < 0.3] = 0
    x.real[gen.random(shape) < 0.2] = -0.0
    x.imag[gen.random(shape) < 0.2] = -0.0
    return x


def as_given(x, strided):
    """``x`` itself, or the same values as a strided view of a wider array."""
    if not strided:
        return x
    wide = np.zeros(x.shape + (2,), dtype=complex)
    wide[..., 1] = x
    return wide[..., 1]


@given(st.data(), st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_real_products_match_complex_ones(data, adjoint, strided, seed):
    """A dense operator with real entries is applied on the float view of
    the state (``kernels.RealMatrix``) with exactly the complex product's bits:
    on states holding exact and signed zeros, on any variables in any order,
    on a strided state, forward and adjoint.  Both sides of the sandwich
    agree with the embedded operator."""
    gen = rng(seed)
    layout = data.draw(layouts())
    site = data.draw(sites(layout))
    if not site:  # a 1 x 1 operator is a scaling, never a real matrix
        site = layout.names[:1]
    names, n, d = layout.names, len(layout.names), layout.dim
    op = gen.normal(size=(sub(layout, site).dim,) * 2) + 0j
    k = kernels.kernel(op)
    assert isinstance(k, kernels.RealMatrix) and k.matrix is op
    x = zeroed(gen, (d, d))
    t = as_given(x.reshape(layout.dims * 2), strided)
    real, cplx = kernels.side(k, adjoint), kernels.side(op, adjoint)
    for axes in ([names.index(v) for v in site], [n + names.index(v) for v in site]):
        expect = kernels.contract(cplx, t, axes)
        assert same_bits(kernels.contract(real, t, axes), expect)
    full = embed(op, sub(layout, site), layout)
    if adjoint:
        full = la.dagger(full)
    got = kernels.sandwich(t, names, real, site)
    assert la.max_abs_diff(got.reshape(d, d), full @ x @ la.dagger(full)) < TOL


def test_a_real_coin_takes_the_float_view_where_its_bits_hold():
    """The walk's Hadamard coin on a ``(v, c)`` state: its left side, with
    ``post`` a multiple of 4, is a real product on the float view; its
    right side, with ``post`` 1, stays a complex product.  A spy whose real
    part is twice its matrix tells which of the two each side used."""
    n = 8
    t = zeroed(rng(2), (2 * n, 2 * n)).reshape(n, 2, n, 2)
    coin = np.array([[1, 1], [1, -1]]) / np.sqrt(2) + 0j
    spy = kernels.RealMatrix(coin, 2 * coin.real)
    assert same_bits(kernels.contract(spy, t, [1]), 2 * kernels.contract(coin, t, [1]))
    assert same_bits(kernels.contract(spy, t, [3]), kernels.contract(coin, t, [3]))


@pytest.mark.parametrize("side, post", [(2, 2), (2, 3), (2, 6), (3, 7), (128, 8), (129, 8)])
def test_real_operators_keep_the_complex_bits_at_their_limits(side, post):
    """A real operator whose ``post`` is not a multiple of 4, or whose side
    passes ``kernels.REAL_KERNEL_MAX``, keeps the complex product, forward and
    adjoint.  On these states the real product gives other bits: other zero
    signs off a multiple of 4, other last bits from side 129.  Side 128 is
    the largest real product taken."""
    gen = rng(side + post)
    op = gen.normal(size=(side, side)) + 0j
    k = kernels.kernel(op)
    if side == kernels.REAL_KERNEL_MAX:
        assert isinstance(k, kernels.RealMatrix)
    t = zeroed(gen, (8, side, post))
    for adjoint in (False, True):
        expect = kernels.contract(kernels.side(op, adjoint), t, [1])
        assert same_bits(kernels.contract(kernels.side(k, adjoint), t, [1]), expect)


GUARD_BASES = {
    "swap": np.array([[0, 1], [1, 0]]),
    "phase": np.diag([1, 1j]),
    "scaled swap": np.array([[0, 1j], [-1, 0]]),
    "hadamard": np.array([[1, 1], [1, -1]]) / np.sqrt(2),
    "complex": random_unitary(rng(5), 2),
}


@pytest.mark.parametrize("name", list(GUARD_BASES))
def test_guard_bases_rotate_by_the_dense_products(name):
    """A guard's rotations into and out of its basis ``B`` give the bits of
    the dense products by ``la.dagger(B)`` and ``B``, signed zeros included,
    forward and adjoint, on either factor order: a monomial basis is not
    rotated by a gather, which gives some zeros the other sign, and a real
    one keeps the complex product's bits.  The guard's shifts carry the
    rotated state's zeros through to the rotation back."""
    basis = GuardBasis(GUARD_BASES[name].astype(complex))
    shifts = tuple(Unitary((("v", 4),), shift(4, k)) for k in (1, -1))
    p = Guarded((("g", 2),), basis, shifts)
    inner = Guarded((("g", 2),), GuardBasis.computational(2), shifts)
    for order in (("g", "v"), ("v", "g")):
        layout = RegisterLayout(tuple((v, p.layout.dim_of(v)) for v in order))
        names = layout.names
        t = zeroed(rng(7), (layout.dim,) * 2).reshape(layout.dims * 2)
        for adjoint in (False, True):
            rotated = kernels.sandwich(t, names, la.dagger(basis.matrix), ("g",))
            back = streamed(inner, rotated, names, adjoint)
            expect = kernels.sandwich(back, names, basis.matrix, ("g",))
            assert same_bits(streamed(p, t, names, adjoint), expect)


def flat_plans(*monomials):
    """Whether each gather plan kept on ``monomials`` reads a flat index."""
    return [not isinstance(index, tuple) for k in monomials
            for _, index, _ in k.__dict__.get(kernels._PLANS, {}).values()]


@given(st.data(), st.sampled_from(KINDS[1:]), st.booleans(), st.booleans(),
       st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_flat_take_matches_the_broadcast_gather(data, kind, adjoint, strided, seed):
    """A monomial sandwich read by one ``np.take`` over a flat index gives
    exactly the broadcast gather's bits: on any variables in any order,
    with and without scales (an empty row's included), forward and adjoint,
    on states holding exact and signed zeros.  A strided state keeps the
    broadcast gather whatever its size."""
    gen = rng(seed)
    layout = data.draw(layouts())
    site = data.draw(sites(layout)) or layout.names[:1]
    op = operator(gen, sub(layout, site).dim, kind)
    t = as_given(zeroed(gen, (layout.dim,) * 2).reshape(layout.dims * 2), strided)
    got = []
    for patch in (("TAKE_MIN_ENTRIES", 1), ("TAKE_INDEX_BYTES", 0)):  # flat, then broadcast
        k = kernels.side(kernel_of(op, kind), adjoint)
        with mock.patch.object(kernels, *patch):
            got.append(kernels.sandwich(t, layout.names, k, site))
        assert flat_plans(k) == [patch[0] == "TAKE_MIN_ENTRIES" and not strided]
    assert same_bits(got[0], got[1])


def walk_guard(n):
    """The walk's shift, guarded by its coin."""
    return Guarded((("c", 2),), GuardBasis.computational(2),
                   (Unitary((("v", n),), shift(n, 1)), Unitary((("v", n),), shift(n, -1))))


def guard_monomials(p):
    """A gather guard's ``C`` and, once the adjoint has used it, its transpose."""
    c = kept(p, "_control")[0]
    return [c] + ([c.T] if "T" in c.__dict__ else [])


def test_flat_index_budget_is_exact():
    """A contiguous state of ``TAKE_MIN_ENTRIES`` entries or more is
    gathered over a flat index as long as the index fits the budget; one
    entry past it, the gather broadcasts and keeps no flat index.  A smaller
    state broadcasts.  Either way the values are the same.  The budget is
    the monomial's: an index for a second layout that would pass it is not
    kept."""
    itemsize = np.dtype(np.intp).itemsize
    assert kernels.TAKE_MIN_ENTRIES == 64 * 64
    for n, budget, flat in ((32, 64 * 64 * itemsize, True), (32, (64 * 64 - 1) * itemsize, False),
                            (16, kernels.TAKE_INDEX_BYTES, False)):
        p = walk_guard(n)
        x = zeroed(rng(n), (2 * n, 2 * n))
        with mock.patch.object(kernels, "TAKE_INDEX_BYTES", budget):
            got = [stream(p, x, p.layout, adjoint=adjoint) for adjoint in (False, True)]
        assert flat_plans(*guard_monomials(p)) == [flat, flat]
        if n == 32:
            if flat:
                expect = got
            else:
                assert all(same_bits(a, b) for a, b in zip(got, expect))
    p = walk_guard(32)
    with mock.patch.object(kernels, "TAKE_INDEX_BYTES", 64 * 64 * itemsize):
        for order in (("v", "c"), ("c", "v")):
            layout = RegisterLayout(tuple((v, p.layout.dim_of(v)) for v in order))
            stream(p, zeroed(rng(1), (64, 64)), layout)
    assert flat_plans(*guard_monomials(p)) == [True, False]


def test_walk_step_keeps_its_peaks_and_its_index_budget():
    """A warm walk step peaks at two states (``run``) and three (``wp``) at
    dimension 2048, past the index budget, as before any flat index.  Each
    monomial keeps flat indices within the budget: at dimension 256 one per
    direction, at 512 and 2048 none."""
    import tracemalloc

    for n, flat in ((128, True), (256, False), (1024, False)):
        step = QChoice(Unitary((("c", 2),), np.array([[1, 1], [1, -1]]) / np.sqrt(2)),
                       GuardBasis.computational(2), walk_guard(n).branches)
        layout = RegisterLayout.of(("v", n), ("c", 2))
        gen = rng(n)
        psi = gen.normal(size=2 * n) + 1j * gen.normal(size=2 * n)
        rho = DensityMatrix(np.outer(psi, psi.conj()) / np.vdot(psi, psi).real, layout)
        obs = Observable(np.diag(gen.uniform(size=2 * n)).astype(complex), layout)
        peaks = []
        for run in (lambda: apply_program(step, rho), lambda: wp_apply(step, obs)):
            run()  # the kept data, and numpy's own first-call allocations
            if n == 1024:
                tracemalloc.start()
                try:
                    run()
                    peaks.append(tracemalloc.get_traced_memory()[1] / rho.matrix.nbytes)
                finally:
                    tracemalloc.stop()
        monomials = guard_monomials(step.seq.parts[1])
        assert flat_plans(*monomials) == [flat, flat]
        for c in monomials:
            indices = [index.nbytes for _, index, _ in c.__dict__[kernels._PLANS].values()
                       if not isinstance(index, tuple)]
            assert sum(indices) <= kernels.TAKE_INDEX_BYTES
        if peaks:
            assert peaks[0] < 2.05 and peaks[1] < 3.05


DATA = RegisterLayout.of(("a", 2), ("b", 3))


def branch(gen, choice):
    """A guard branch on the data variables: a leaf of one kind, a
    computational measurement (projectors with empty rows), skip or abort."""
    if choice == "skip":
        return Skip()
    if choice == "abort":
        return Abort()
    site = tuple(DATA.names[i] for i in gen.permutation(2)[: gen.integers(1, 3)])
    qvars = sub(DATA, site).variables
    k = sub(DATA, site).dim
    if choice == "measure":
        mmt = Measurement.computational(k)
        return Measure("x", qvars, mmt, tuple((m, Skip()) for m in mmt.outcomes))
    if choice == "dense":
        return Unitary(qvars, random_unitary(gen, k))
    op = operator(gen, k, choice)
    return Unitary(qvars, op / np.abs(op).sum(axis=1, keepdims=True))


@given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 2), (2, 3), (3, 2)]), st.booleans(),
       st.lists(st.sampled_from(["skip", "abort", "measure", "dense", "permutation",
                                 "phase permutation"]), min_size=6, max_size=6))
@settings(max_examples=60, deadline=None)
def test_guard_on_two_registers_matches_denote(seed, gdims, rotated, choices):
    """Guard registers in any order and place among the data variables, so
    the blocks are views at two coordinates on each side."""
    gen = rng(seed)
    guard = (("g", gdims[0]), ("h", gdims[1]))
    dg = gdims[0] * gdims[1]
    basis = GuardBasis(random_unitary(gen, dg)) if rotated else GuardBasis.computational(dg)
    p = Guarded(guard, basis, tuple(branch(gen, c) for c in choices[:dg]))
    variables = p.layout.variables
    layout = RegisterLayout(tuple(variables[i] for i in gen.permutation(len(variables))))
    kraus = denote(p).extended_to(layout).kraus
    x = matrix(gen, layout.dim)
    for adjoint in (False, True):
        expect = sum((la.dagger(k) @ x @ k if adjoint else k @ x @ la.dagger(k) for k in kraus),
                     np.zeros_like(x))  # every branch aborting leaves no operator
        got = stream(p, x, layout, adjoint=adjoint)
        assert la.max_abs_diff(got, expect) < TOL


def test_monomial_unit_flag():
    perm = kernels.monomial(np.eye(3)[[2, 0, 1]].astype(complex))
    assert perm.unit and perm.T.unit
    assert perm.conj() is perm  # a permutation is its own conjugate
    phased = kernels.monomial(np.diag([1, 1j, 1]).astype(complex))
    assert not phased.unit and not phased.T.unit and not phased.conj().unit
    assert not kernels.monomial(np.diag([1, 0, 1]).astype(complex)).unit  # an empty row scales by 0
    assert kernels.monomial(np.eye(4, dtype=complex)).unit
    assert not kernels.monomial(-np.eye(2, dtype=complex)).unit


@st.composite
def monomial_guards(draw):
    """A computational guard on one or two registers, with 2-4 branches,
    each a phase permutation (or each a permutation) on its own variables
    of the data registers ``a``, ``b`` and ``c``, in any order."""
    guard = draw(st.sampled_from([(("g", 2),), (("g", 3),), (("g", 4),), (("g", 2), ("h", 2))]))
    data = RegisterLayout(tuple(zip(NAMES, draw(st.lists(st.integers(2, 3), min_size=3,
                                                          max_size=3)))))
    gen = rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["permutation", "phase permutation"]))
    arity = RegisterLayout(guard).dim
    branches = []
    for _ in range(arity):
        site = tuple(draw(st.permutations(NAMES))[: draw(st.integers(1, 3))])
        branches.append(Unitary(sub(data, site).variables,
                                operator(gen, sub(data, site).dim, kind)))
    return Guarded(guard, GuardBasis.computational(arity), tuple(branches)), gen


def streamed(p, t, names, adjoint):
    """``t`` pushed through ``p`` as one streaming pass does (``semantics._plan``)."""
    return semantics._plan(p, t, names, adjoint, la.MAX_DIM_DEFAULT)[1]


def blocks(p, x, layout, adjoint, diagonal=streamed):
    """``p``'s guard streamed block by block in its basis, the reference for
    ``_Planner._guard``: diagonal block ``i`` is branch ``i``'s own
    evaluation (by ``diagonal``) and off-diagonal block ``(i, j)`` is ``A_i
    X_ij A_j†`` (with ``A†`` for the adjoint).  Each block is a view of the
    state at the guard variables' coordinates of ``i`` and ``j``, and its
    result is written into the same view of the output."""
    t, names, site = x.reshape(layout.dims * 2), layout.names, p.own_layout.names
    rotated = not p.basis.is_computational
    if rotated:
        t = kernels.sandwich(t, names, la.dagger(p.basis.matrix), site)
    n = len(names)
    gpos = [names.index(g) for g in site]
    coords = [np.unravel_index(i, [t.shape[a] for a in gpos]) for i in range(p.basis.dim)]
    data = tuple(name for name in names if name not in site)
    sides = [kernels.side(kernels.kernel(a), adjoint)
             for a in semantics._branches(p, la.MAX_DIM_DEFAULT)[1]]
    out = np.empty_like(t)
    for i, row in enumerate(coords):
        for j, col in enumerate(coords):
            at = [slice(None)] * (2 * n)
            for a, r, c in zip(gpos, row, col):
                at[a], at[n + a] = r, c
            at = tuple(at)
            if i == j:
                out[at] = diagonal(p.branches[i], t[at], data, adjoint)
            else:
                rows = [data.index(v) for v in p.branches[i].layout.names]
                cols = [len(data) + data.index(v) for v in p.branches[j].layout.names]
                out[at] = kernels.contract(sides[j].conj(), kernels.contract(sides[i], t[at], rows),
                                           cols)
    if rotated:
        out = kernels.sandwich(out, names, p.basis.matrix, site)
    return out.reshape(x.shape)


@given(monomial_guards(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_monomial_guard_matches_the_block_loop_bit_for_bit(guard, extra):
    """A guard of phase permutations is one monomial, streamed in one gather;
    ``run`` (with an extra variable) and ``wp``, in a shuffled factor order,
    give exactly the block loop's bits."""
    p, gen = guard
    assert path(p) == "gather"
    variables = p.layout.variables + ((("e", 2),) if extra else ())
    layout = RegisterLayout(tuple(variables[i] for i in gen.permutation(len(variables))))
    x = random_density(gen, layout.dim)
    got = apply_program(p, DensityMatrix(x, layout)).matrix
    assert np.array_equal(got, blocks(p, x, layout, False))
    kraus = denote(p).extended_to(layout).kraus
    assert la.max_abs_diff(got, sum(k @ x @ la.dagger(k) for k in kraus)) < TOL
    program = layout.remove(["e"])
    m = random_density(gen, program.dim)
    got = wp_apply(p, Observable(m, program)).matrix
    assert np.array_equal(got, blocks(p, m, program, True))


def guard_over(basis, *choices):
    gen = rng(3)
    return Guarded((("g", 2),), basis, tuple(branch(gen, c) for c in choices))


def channel_of(p, layout, x, adjoint):
    """``p``'s channel from ``denote`` (or its dual) applied to ``x`` on ``layout``."""
    kraus = denote(p).extended_to(layout).kraus
    return sum((la.dagger(k) @ x @ k if adjoint else k @ x @ la.dagger(k) for k in kraus),
               np.zeros_like(x))  # every branch aborting leaves no operator


def path(p):
    """How ``_Planner._guard`` multiplies by ``p``'s ``C``, as ``_control`` decided."""
    c = semantics._control(p, la.MAX_DIM_DEFAULT)[0]
    return ("gather" if isinstance(c, kernels.Monomial) else "batched" if isinstance(c, np.ndarray)
            else "slices")


def dense_on_data(gen):
    """A dense unitary branch on both data variables, in a random order."""
    return Unitary(sub(DATA, tuple(DATA.names[i] for i in gen.permutation(2))).variables,
                   random_unitary(gen, DATA.dim))


def dense_measurement(gen, k, outcomes=2):
    """A complete measurement on dimension ``k`` whose operators are dense:
    the blocks of a random isometry."""
    v = random_unitary(gen, outcomes * k)[:, :k]
    return Measurement(tuple((m, v[m * k:(m + 1) * k]) for m in range(outcomes)))


def measuring(qvars, mmt):
    return Measure("x", qvars, mmt, tuple((m, Skip()) for m in mmt.outcomes))


# name: (how the guard multiplies by C, the guard).
OTHER_GUARDS = {
    "rotated basis": ("gather", guard_over(GuardBasis(random_unitary(rng(5), 2)),
                                           "permutation", "phase permutation")),
    "measuring branch": ("gather", guard_over(GuardBasis.computational(2), "permutation",
                                              "measure")),
    "aborting branch": ("gather", guard_over(GuardBasis.computational(2), "permutation",
                                             "abort")),
    "skip branch": ("gather", guard_over(GuardBasis.computational(2), "skip", "permutation")),
    "dense branch": ("slices", guard_over(GuardBasis.computational(2), "permutation", "dense")),
    "permutation beside phases": ("gather", guard_over(GuardBasis.computational(2),
                                                       "permutation", "phase permutation")),
    "chain branch": ("gather", Guarded((("g", 2),), GuardBasis.computational(2), (
        Unitary((("a", 2),), shift(2, 1)),
        Seq(Unitary((("a", 2),), shift(2, 1)), Unitary((("b", 3),), shift(3, 1)))))),
    "skip and abort only": ("gather", Guarded((("g", 2),), GuardBasis(random_unitary(rng(6), 2)),
                                              (Skip(), Abort()))),
    "dense beside skip": ("slices", Guarded((("g", 2),), GuardBasis.computational(2),
                                            (Skip(), dense_on_data(rng(7))))),
    "dense beside abort, rotated": ("slices", Guarded(
        (("g", 3),), GuardBasis(random_unitary(rng(8), 3)),
        (dense_on_data(rng(9)), Abort(), dense_on_data(rng(10))))),
    "dense beside a permutation": ("slices", Guarded((("g", 2),), GuardBasis.computational(2), (
        dense_on_data(rng(11)), Unitary(DATA.variables, shift(DATA.dim, 1))))),
    "two dense, rotated": ("batched", Guarded((("g", 2),), GuardBasis(random_unitary(rng(12), 2)),
                                              (dense_on_data(rng(13)), dense_on_data(rng(14))))),
    "dense measurement beside dense": ("batched", Guarded(
        (("g", 2),), GuardBasis.computational(2),
        (measuring(DATA.variables, dense_measurement(rng(15), DATA.dim)), dense_on_data(rng(16))))),
    "guarded measurement": ("gather", Guarded(
        (("g", 2),), GuardBasis(random_unitary(rng(17), 2)),
        (measuring(DATA.variables, Measurement.computational(DATA.dim)),
         measuring((("b", 3),), Measurement.computational(3))))),
}


@pytest.mark.parametrize("name", list(OTHER_GUARDS))
def test_other_guards_take_their_path(name):
    """``C`` is one gather when every ``A_i`` is monomial, one batched
    product per side when each is dense on all the data variables, and
    slice by slice otherwise; each within rounding of the block loop."""
    want, p = OTHER_GUARDS[name]
    assert path(p) == want
    gen = rng(11)
    layout = p.layout
    for adjoint in (False, True):
        x = random_density(gen, layout.dim)
        got = stream(p, x, layout, adjoint=adjoint)
        assert la.max_abs_diff(got, blocks(p, x, layout, adjoint)) < TOL
        assert la.max_abs_diff(got, channel_of(p, layout, x, adjoint)) < TOL


MONOMIAL_KINDS = ("permutation", "phase permutation", "projective", "skip", "abort")
DENSE_KINDS = ("dense", "chain", "povm")


def mixed_branch(gen, data, kind, whole):
    """A branch of ``kind`` on every variable of ``data`` (``whole``) or on a
    nonempty proper subset of them, in a random order, or on none
    (``skip``, ``abort``).  A ``projective`` branch measures in the
    computational basis and a ``povm`` one by dense operators."""
    if kind == "skip":
        return Skip()
    if kind == "abort":
        return Abort()
    order = gen.permutation(len(data.names))
    if not whole:
        order = order[:gen.integers(1, len(order))]
    qvars = sub(data, tuple(data.names[i] for i in order)).variables
    k = RegisterLayout(qvars).dim
    if kind == "projective":
        return measuring(qvars, Measurement.computational(k))
    if kind == "povm":
        return measuring(qvars, dense_measurement(gen, k))
    if kind == "chain":  # the parts together cover the branch's variables
        part = qvars[:gen.integers(1, len(qvars) + 1)]
        return Seq(Unitary(qvars, random_unitary(gen, k)),
                   Unitary(part, random_unitary(gen, RegisterLayout(part).dim)))
    op = random_unitary(gen, k) if kind == "dense" else operator(gen, k, kind)
    return Unitary(qvars, op)


@st.composite
def mixed_guards(draw):
    """A guard on one or two registers, in the computational or a rotated
    basis, whose branches are leaves, chains or measurements (projective or
    dense) on all the data variables or on some of them, ``skip`` or
    ``abort``, with the way of multiplying by ``C`` their kinds give it."""
    guard = draw(st.sampled_from([(("g", 2),), (("g", 3),), (("g", 2), ("h", 2))]))
    data = RegisterLayout(tuple(zip(NAMES, draw(st.lists(st.integers(2, 3), min_size=1,
                                                          max_size=2)))))
    gen = rng(draw(st.integers(0, 2**32 - 1)))
    arity = RegisterLayout(guard).dim
    rotated = draw(st.booleans())
    basis = GuardBasis(random_unitary(gen, arity)) if rotated else GuardBasis.computational(arity)
    kinds = draw(st.lists(st.sampled_from(MONOMIAL_KINDS + DENSE_KINDS), min_size=arity,
                          max_size=arity))
    branches = tuple(mixed_branch(gen, data, k, len(data.names) == 1 or draw(st.booleans()))
                     for k in kinds)
    joint = {v for b in branches for v in b.layout.names}  # the guard's data variables
    want = ("gather" if set(kinds) <= set(MONOMIAL_KINDS)
            else "batched" if all(k in DENSE_KINDS and set(b.layout.names) == joint
                                  for k, b in zip(kinds, branches))
            else "slices")
    return Guarded(guard, basis, branches), want, gen


@given(mixed_guards(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_guard_matches_the_block_loop(guard, extra):
    """A guard multiplies by ``C`` as its branches' kinds give, and its
    measuring branches overwrite their diagonal blocks.  ``run`` (with an
    extra variable) and ``wp``, in a shuffled factor order, agree with the
    block loop and with ``denote``."""
    p, want, gen = guard
    assert path(p) == want
    variables = p.layout.variables + ((("e", 2),) if extra else ())
    layout = RegisterLayout(tuple(variables[i] for i in gen.permutation(len(variables))))
    x = random_density(gen, layout.dim)
    got = apply_program(p, DensityMatrix(x, layout)).matrix
    assert la.max_abs_diff(got, blocks(p, x, layout, False)) < TOL
    assert la.max_abs_diff(got, channel_of(p, layout, x, False)) < TOL
    program = layout.remove(["e"])
    m = random_density(gen, program.dim)
    got = wp_apply(p, Observable(m, program)).matrix
    assert la.max_abs_diff(got, blocks(p, m, program, True)) < TOL
    assert la.max_abs_diff(got, channel_of(p, program, m, True)) < TOL


@pytest.mark.parametrize("branch", [Skip(), Abort()])
@pytest.mark.parametrize("phase", [1, 1j])
def test_guard_on_no_variables_is_its_branch(branch, phase):
    """A guard on no variables, over one branch on none, has a 1 x 1
    monomial ``C``: on no variables it scales the state (``contract``),
    forward and adjoint, as ``denote``'s channel does."""
    p = Guarded((), GuardBasis(np.array([[phase]])), (branch,))
    assert path(p) == "gather"
    for layout, adjoint in ((RegisterLayout.of(("q", 2)), False), (RegisterLayout(), True)):
        x = random_density(rng(1), layout.dim)
        got = stream(p, x, layout, adjoint=adjoint)
        assert la.max_abs_diff(got, channel_of(p, layout, x, adjoint)) < TOL


@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize("other", ["skip", "dense", "projective", "povm"])
def test_controlled_guard_holds_at_most_one_state_more(rotated, other):
    """On a dense data register, beside another dense branch, ``skip`` or a
    measuring branch, the controlled products (and a measuring branch's
    own diagonal block) peak at most one state above the block loop, with
    the guard's kept data built first."""
    import tracemalloc

    gen = rng(8)
    basis = GuardBasis(random_unitary(gen, 2)) if rotated else GuardBasis.computational(2)
    v = (("v", 128),)
    dense = Unitary(v, random_unitary(gen, 128))
    p = Guarded((("g", 2),), basis, (mixed_branch(gen, RegisterLayout(v), other, True), dense))
    assert path(p) == ("batched" if other in DENSE_KINDS else "slices")
    layout = p.layout
    x = matrix(gen, layout.dim)
    t = x.reshape(layout.dims * 2)
    runs = (lambda: streamed(p, t, layout.names, False),
            lambda: blocks(p, x, layout, False))
    peaks = []
    for run in runs:
        run()  # the kept data, and numpy's own first-call allocations
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1] + x.nbytes


@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize("branch", ["measuring", "partial"])
def test_sliced_guards_peak_within_a_tenth_of_a_state(branch, rotated, request):
    """At state dimension 256, a two-outcome projective branch beside a
    dense unitary on ``v``, or a dense branch on ``v`` alone beside a dense
    unitary on ``(v: 64, w: 2)``: each ``A_i`` fills its slice of the left
    side's output, a branch on some of the data variables by copying in its
    product, and the right side overwrites that output slice by slice, so
    the pass that plans peaks within 0.1 state of the block loop, and so
    does a replay of its plan.  Nor does the pass that plans peak above a
    block loop that plans nothing, its diagonal blocks each branch's Kraus
    sum by ``kernels.sandwich``.

    The partial branch in the computational basis peaks at 2.07 states
    against the block loop's 1.75: on the right side its slice, read as
    ``(pre, k, post)``, has post axes that no view merges, so ``contract``
    copies the slice before its product."""
    import tracemalloc

    if branch == "partial" and not rotated:
        request.applymarker(pytest.mark.xfail(strict=True, reason="the slice is copied"))
    gen = rng(9)
    basis = GuardBasis(random_unitary(gen, 2)) if rotated else GuardBasis.computational(2)
    if branch == "measuring":
        v = (("v", 128),)
        half = np.diag(np.arange(128) < 64).astype(complex)
        mmt = Measurement(((0, half), (1, np.eye(128) - half)))
        branches = (measuring(v, mmt), Unitary(v, random_unitary(gen, 128)))
    else:
        vw = (("v", 64), ("w", 2))
        branches = (Unitary(vw[:1], random_unitary(gen, 64)), Unitary(vw, random_unitary(gen, 128)))
    p = Guarded((("g", 2),), basis, branches)
    assert path(p) == "slices"
    layout = p.layout
    x = matrix(gen, layout.dim)
    t = x.reshape(layout.dims * 2)
    families = {id(q): [kernels.kernel(k) for k in semantics._denote(q, la.MAX_DIM_DEFAULT).stack]
                for q in p.branches}

    def kraus(q, t, names, adjoint):
        out = np.zeros_like(t)
        for k in families[id(q)]:
            out += kernels.sandwich(t, names, kernels.side(k, adjoint), q.layout.names)
        return out
    runs = (lambda: streamed(p, t, layout.names, False), lambda: stream(p, x, layout),
            lambda: blocks(p, x, layout, False), lambda: blocks(p, x, layout, False, kraus))
    peaks, got = [], []
    for run in runs:
        got.append(run())  # the kept data and plan, and numpy's own first-call allocations
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    planning, replay, reference, unplanned = peaks
    assert planning <= reference + 0.1 * x.nbytes
    assert replay <= reference + 0.1 * x.nbytes
    assert planning <= unplanned
    assert got[1].tobytes() == got[0].reshape(x.shape).tobytes()
    assert la.max_abs_diff(got[0].reshape(x.shape), got[2]) < TOL
    assert la.max_abs_diff(got[0].reshape(x.shape), got[3]) < TOL


@pytest.mark.parametrize("order", [("v", "c"), ("c", "v"), ("v", "e", "c"), ("c", "e", "v")])
def test_controlled_shift_as_one_unitary_or_a_guard(order):
    """The walk's shift written as one unitary on ``(v, c)`` and as a guard
    of two shifts give the same bits, in any factor order, each read as
    one gather."""
    n = 6
    walk = Guarded((("c", 2),), GuardBasis.computational(2),
                   (Unitary((("v", n),), shift(n, 1)), Unitary((("v", n),), shift(n, -1))))
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    whole = Unitary((("v", n), ("c", 2)), np.kron(shift(n, 1), p0) + np.kron(shift(n, -1), p1))
    assert isinstance(whole.kernel, kernels.Monomial) and whole.kernel.unit
    dims = {"v": n, "c": 2, "e": 3}
    layout = RegisterLayout(tuple((v, dims[v]) for v in order))
    x = random_density(rng(2), layout.dim)
    for adjoint in (False, True):
        if adjoint and "e" in order:
            continue
        got = stream(whole, x, layout, adjoint=adjoint)
        assert np.array_equal(got, stream(walk, x, layout, adjoint=adjoint))
        assert np.array_equal(got, blocks(walk, x, layout, adjoint))
        full = embed(whole.operator, whole.layout, layout)
        expect = la.dagger(full) @ x @ full if adjoint else full @ x @ la.dagger(full)
        assert la.max_abs_diff(got, expect) < TOL


@pytest.mark.parametrize("relocated", [False, True])
def test_shift_guards_stay_one_gather_at_scale(relocated):
    """The walk's shift with its coin relocated into the guard's basis
    (``guard c basis H { |0> -> TR[v]; |1> -> TL[v] }``), and a shift beside
    ``skip``, are one monomial at state dimension 1024: a gather between the
    basis rotations, never a dense product, within rounding of the block
    loop.  The monomial is all the guard keeps for it: no dense stack."""
    n = 512
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    tr, tl = Unitary((("v", n),), shift(n, 1)), Unitary((("v", n),), shift(n, -1))
    p = (Guarded((("c", 2),), GuardBasis(h), (tr, tl)) if relocated
         else Guarded((("c", 2),), GuardBasis.computational(2), (Skip(), tr)))
    assert path(p) == "gather"
    c, measured = kept(p, "_control")
    assert isinstance(c, kernels.Monomial) and not measured
    layout = p.layout
    x = matrix(rng(4), layout.dim)
    t = x.reshape(layout.dims * 2)
    for adjoint in (False, True):
        got = streamed(p, t, layout.names, adjoint)
        assert la.max_abs_diff(got.reshape(x.shape), blocks(p, x, layout, adjoint)) < TOL
