"""The streaming kernels against an independent reference.

``semantics._contract``, ``_sandwich`` and ``_Stream._guard`` apply each
operator on the tensor factors where its variables lie.  The reference here
never uses them: the operator is ``registers.embed``-ed into the full layout
and applied to the flattened matrix, and a guard's channel comes from
``denote``, which composes embedded Kraus families.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qgcl.semantics as semantics
from qgcl import linalg as la
from qgcl.program import Abort, GuardBasis, Guarded, Measure, Measurement, Seq, Skip, Unitary
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
    """``la.kernel(op)``, checked to be a monomial exactly for the monomial kinds."""
    k = la.kernel(op)
    assert isinstance(k, la.Monomial) == (kind != "dense" and len(op) > 1)
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
    rows = semantics._contract(k, t, [names.index(v) for v in site])
    cols = semantics._contract(k, t, [n + names.index(v) for v in site])
    assert rows.shape == cols.shape == t.shape
    assert la.max_abs_diff(rows.reshape(d, d), full @ x) < TOL
    assert la.max_abs_diff(cols.reshape(d, d), x @ full.T) < TOL


@given(st.data(), st.sampled_from(KINDS), st.sampled_from(KINDS), st.booleans(),
       st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_sandwich_matches_embedded_operators(data, left_kind, right_kind, adjoint, seed):
    gen = rng(seed)
    layout = data.draw(layouts())
    left_site, right_site = data.draw(sites(layout)), data.draw(sites(layout))
    names, d = layout.names, layout.dim
    left = operator(gen, sub(layout, left_site).dim, left_kind)
    right = operator(gen, sub(layout, right_site).dim, right_kind)
    lf = embed(left, sub(layout, left_site), layout)
    rf = embed(right, sub(layout, right_site), layout)
    if adjoint:
        lf, rf = la.dagger(lf), la.dagger(rf)
    kl = semantics._side(kernel_of(left, left_kind), adjoint)
    kr = semantics._side(kernel_of(right, right_kind), adjoint)
    x = matrix(gen, d)
    t = x.reshape(layout.dims * 2)
    got = semantics._sandwich(t, names, kl, left_site, kr, right_site)
    assert la.max_abs_diff(got.reshape(d, d), lf @ x @ la.dagger(rf)) < TOL
    n = len(names)
    rows, cols = [names.index(v) for v in left_site], [n + names.index(v) for v in right_site]
    if isinstance(kl, la.Monomial) and isinstance(kr, la.Monomial):  # one gather, same bits
        apart = semantics._contract(kr.conj(), semantics._contract(kl, t, rows), cols)
        assert np.array_equal(got, apart)
        wide = np.zeros((d, 2, d, 3), dtype=complex)
        wide[:, 1, :, 2] = x  # a strided view, whose axes cannot all merge
        view = wide[:, 1, :, 2].reshape(layout.dims * 2)
        assert np.array_equal(semantics._sandwich(view, names, kl, left_site, kr, right_site),
                              apart)
    got = semantics._sandwich(t, names, kl, left_site)
    assert la.max_abs_diff(got.reshape(d, d), lf @ x @ la.dagger(lf)) < TOL


@pytest.mark.parametrize("left_kind", KINDS[1:])
@pytest.mark.parametrize("right_kind", KINDS[1:])
def test_two_monomial_sandwich_on_a_strided_block(left_kind, right_kind):
    """The shape of a guard block: one variable each side, a strided view."""
    gen = rng(7)
    t = matrix(gen, 10).reshape(5, 2, 5, 2)
    block = t[:, 1, :, 0]
    left, right = operator(gen, 5, left_kind), operator(gen, 5, right_kind)
    got = semantics._sandwich(block, ("v",), la.kernel(left), ("v",), la.kernel(right), ("v",))
    assert la.max_abs_diff(got, left @ block @ la.dagger(right)) < TOL


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
    perm = la.monomial(np.eye(3)[[2, 0, 1]].astype(complex))
    assert perm.unit and perm.T.unit
    assert perm.conj() is perm  # a permutation is its own conjugate
    phased = la.monomial(np.diag([1, 1j, 1]).astype(complex))
    assert not phased.unit and not phased.T.unit and not phased.conj().unit
    assert not la.monomial(np.diag([1, 0, 1]).astype(complex)).unit  # an empty row scales by 0
    assert la.monomial(np.eye(4, dtype=complex)).unit
    assert not la.monomial(-np.eye(2, dtype=complex)).unit


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


def blocks(p, x, layout, adjoint):
    """``p``'s guard streamed block by block, as any guard that is not one monomial is."""
    t = x.reshape(layout.dims * 2)
    out = semantics._Stream(la.MAX_DIM_DEFAULT)._blocks(p, t, layout.names, adjoint)
    return out.reshape(x.shape)


@given(monomial_guards(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_monomial_guard_matches_the_block_loop_bit_for_bit(guard, extra):
    """A guard of phase permutations is one monomial, streamed in one gather;
    ``run`` (with an extra variable) and ``wp``, in a shuffled factor order,
    give exactly the block loop's bits."""
    p, gen = guard
    assert semantics._guard_monomial(p, la.MAX_DIM_DEFAULT) is not None
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


NOT_ONE_MONOMIAL = {
    "rotated basis": guard_over(GuardBasis(random_unitary(rng(5), 2)), "permutation",
                                "phase permutation"),
    "measuring branch": guard_over(GuardBasis.computational(2), "permutation", "measure"),
    "aborting branch": guard_over(GuardBasis.computational(2), "permutation", "abort"),
    "skip branch": guard_over(GuardBasis.computational(2), "skip", "permutation"),
    "dense branch": guard_over(GuardBasis.computational(2), "permutation", "dense"),
    "permutation beside phases": guard_over(GuardBasis.computational(2), "permutation",
                                            "phase permutation"),
    "chain branch": Guarded((("g", 2),), GuardBasis.computational(2), (
        Unitary((("a", 2),), shift(2, 1)),
        Seq(Unitary((("a", 2),), shift(2, 1)), Unitary((("b", 3),), shift(3, 1))))),
}


@pytest.mark.parametrize("name", list(NOT_ONE_MONOMIAL))
def test_other_guards_keep_the_block_loop(name):
    """Every guard that is not one monomial is streamed block by block,
    with the block loop's results."""
    p = NOT_ONE_MONOMIAL[name]
    assert semantics._guard_monomial(p, la.MAX_DIM_DEFAULT) is None
    gen = rng(11)
    layout = p.layout
    kraus = denote(p).kraus
    for adjoint in (False, True):
        x = random_density(gen, layout.dim)
        got = stream(p, x, layout, adjoint=adjoint)
        assert np.array_equal(got, blocks(p, x, layout, adjoint))
        expect = sum((la.dagger(k) @ x @ k if adjoint else k @ x @ la.dagger(k) for k in kraus),
                     np.zeros_like(x))
        assert la.max_abs_diff(got, expect) < TOL


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
    assert isinstance(whole.kernel, la.Monomial) and whole.kernel.unit
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
