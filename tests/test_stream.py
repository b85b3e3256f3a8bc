"""Streaming ``apply_program``/``wp_apply`` against the dense reference path.

The reference is the channel ``denote(p)`` lifted to the input's layout and
applied as a Kraus family (forward) or as its adjoint family (wp).  All
evaluators share one checked pass, so they also reject the same programs
with the same error: the first side condition violated, from the rule table
that ``well_formed`` reports.
"""

import re
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import qgcl.program as program
import qgcl.semantics as semantics
from qgcl import kernels, linalg as la
from qgcl.errors import CapacityError, LayoutError, ShapeError, UnsupportedConstructError
from qgcl.program import (
    Abort,
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
    children,
    is_core,
    qvar_layout,
    rebuild,
    well_formed,
)
from qgcl.registers import DensityMatrix, Observable, RegisterLayout
from qgcl.sampling import (
    ProgramSampler,
    random_density,
    random_measurement,
    random_positive,
    random_unitary,
    rng,
)
from qgcl.semantics import apply_program, denote, semi_classical, unroll_loop
from qgcl.wp import wp_apply

from conftest import Repeat, rule_calls

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
I2 = la.identity(2)
SWAP = np.eye(4)[[0, 2, 1, 3]]
Q, R, C = ("q", 2), ("r", 2), ("c", 2)
TOL = 1e-10


def dense(p, x, layout, adjoint=False, max_dim=la.MAX_DIM_DEFAULT):
    ops = denote(p, max_dim=max_dim).extended_to(layout, max_dim=max_dim).kraus
    out = np.zeros_like(x)
    for k in ops:
        out += la.dagger(k) @ x @ k if adjoint else k @ x @ la.dagger(k)
    return out


def shuffled(gen, layout, extra=()):
    """The program's layout plus ``extra`` variables, in a random factor order."""
    variables = list(layout.variables) + list(extra)
    return RegisterLayout(tuple(variables[i] for i in gen.permutation(len(variables))))


def streamed(p, x, layout, adjoint=False, max_dim=la.MAX_DIM_DEFAULT):
    """``apply_program`` or ``wp_apply``, failing if it falls back to ``denote``."""

    def forbidden(*args, **kwargs):
        raise AssertionError("the dense path was taken")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(semantics, "denote", forbidden)
        if adjoint:
            return wp_apply(p, Observable(x, layout), max_dim=max_dim).matrix
        return apply_program(p, DensityMatrix(x, layout), max_dim=max_dim).matrix


def assert_matches_dense(p, gen, extra=(), max_dim=la.MAX_DIM_DEFAULT):
    layout = qvar_layout(p)
    state_layout = shuffled(gen, layout, extra)
    rho = random_density(gen, state_layout.dim)
    expect = dense(p, rho, state_layout, max_dim=max_dim)
    assert la.max_abs_diff(streamed(p, rho, state_layout, max_dim=max_dim), expect) < TOL
    obs_layout = shuffled(gen, layout)
    m = random_positive(gen, obs_layout.dim)
    expect = dense(p, m, obs_layout, adjoint=True, max_dim=max_dim)
    assert la.max_abs_diff(streamed(p, m, obs_layout, True, max_dim), expect) < TOL


@given(st.integers(0, 2**32 - 1), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_sampled_programs_match_dense(seed, depth):
    gen = rng(seed)
    p = ProgramSampler(gen, (Q, R), (("g0", 2), ("g1", 3))).program(depth)
    assert_matches_dense(p, gen, extra=(("e", 3),) if gen.uniform() < 0.5 else ())


def test_guards_in_non_computational_bases():
    gen = rng(1)
    m = random_measurement(gen, 2)
    branches = (
        Unitary((Q,), random_unitary(gen, 2)),
        Measure("x", (R,), m, tuple((k, Unitary((Q, R), random_unitary(gen, 4))) for k in m.outcomes)),
        Abort(),
    )
    p = Guarded((("g", 3),), GuardBasis(random_unitary(gen, 3)), branches)
    assert_matches_dense(p, gen, extra=(C,))
    coin = Seq(Unitary((C,), random_unitary(gen, 2)), Measure("y", (C,), Measurement.computational(2),
                                                              ((0, Skip()), (1, Skip()))))
    assert_matches_dense(QChoice(coin, GuardBasis(random_unitary(gen, 2)), branches[:2]), gen)


def pinched(x, layout, names):
    """``x`` with every block off the diagonal of the ``names`` coordinates
    zeroed: a density stays a density."""
    t, n = x.reshape(layout.dims * 2), len(layout)
    for a in map(layout.index, names):
        shape = [1] * (2 * n)
        shape[a] = shape[n + a] = layout.dims[a]
        t = t * np.eye(layout.dims[a]).reshape(shape)
    return t.reshape(x.shape)


def test_nested_guards():
    gen = rng(2)
    inner = Guarded((("g1", 2),), GuardBasis(random_unitary(gen, 2)),
                    (Unitary((Q,), random_unitary(gen, 2)), Seq(Unitary((R,), H), Abort())))
    outer = Guarded((("g0", 2),), GuardBasis.computational(2), (inner, Unitary((Q, R), random_unitary(gen, 4))))
    assert_matches_dense(outer, gen)
    # Inputs whose off-diagonal guard blocks are zero: a state block-diagonal
    # in both guards' variables, and the identity observable.
    state_layout = shuffled(gen, outer.layout, (C,))
    rho = pinched(random_density(gen, state_layout.dim), state_layout, ("g0", "g1"))
    expect = dense(outer, rho, state_layout)
    assert la.max_abs_diff(streamed(outer, rho, state_layout), expect) < 1e-12
    eye = la.identity(outer.layout.dim)
    expect = dense(outer, eye, outer.layout, adjoint=True)
    assert la.max_abs_diff(streamed(outer, eye, outer.layout, True), expect) < 1e-12


def test_blocks_and_probabilistic_choice():
    gen = rng(3)
    guard = Guarded((C,), GuardBasis.computational(2), (Unitary((Q,), X), Unitary((R,), H)))
    block = Block((C,), random_density(gen, 2), Seq(Unitary((Q, C), random_unitary(gen, 4)), guard))
    assert_matches_dense(block, gen, extra=(("e", 2),))
    mixed = ProbChoice((0.25, 0.5), (block, Measure("x", (R,), Measurement.computational(2),
                                                      ((0, Skip()), (1, Unitary((Q,), H))))))
    assert_matches_dense(mixed, gen)


@pytest.mark.parametrize("flavor", ["classical", "quantum", "localized"])
def test_loop_unrollings(flavor):
    gen = rng(4)
    assert_matches_dense(unroll_loop(random_unitary(gen, 3), H, 3, flavor), gen, extra=(R,))


def test_block_local_shadowing_an_input_variable():
    # The input carries its own ``c``; the block's local ``c`` is another variable.
    gen = rng(5)
    body = Seq(Unitary((C,), H), Guarded((C,), GuardBasis.computational(2),
                                         (Skip(), Unitary((Q,), X))))
    p = Block((C,), random_density(gen, 2), body)
    assert qvar_layout(p).names == ("q",)
    assert_matches_dense(p, gen, extra=(C,))


def block_beyond_the_cap(gen):
    """A block on ``q`` with a local ``c``: on a state over ``(q, e)``, with
    ``e`` of dimension 4, the state with the local exceeds ``max_dim = 8``;
    each part stays within it."""
    return Block((C,), random_density(gen, 2), Seq(Unitary((Q, C), random_unitary(gen, 4)),
                                                   Measure("x", (C,), Measurement.computational(2),
                                                           ((0, Skip()), (1, Unitary((Q,), X))))))


def test_block_beyond_the_cap_uses_its_kraus_family():
    gen = rng(6)
    p = block_beyond_the_cap(gen)
    layout = RegisterLayout.of(Q, ("e", 4))
    rho = random_density(gen, 8)
    expect = dense(p, rho, layout, max_dim=8)
    assert la.max_abs_diff(streamed(p, rho, layout, max_dim=8), expect) < TOL


def test_block_beyond_the_cap_builds_its_family_once(monkeypatch):
    """The block keeps its Kraus family from the first call over the cap: a
    second run and a wp build none, and the runs give the same bytes."""
    gen = rng(6)
    p = block_beyond_the_cap(gen)
    builds = []
    fold = semantics._denote

    def counted(q, max_dim):
        builds.append(q)
        return fold(q, max_dim)

    monkeypatch.setattr(semantics, "_denote", counted)
    rho = DensityMatrix(random_density(gen, 8), RegisterLayout.of(Q, ("e", 4)))
    first, again = (apply_program(p, rho, max_dim=8).matrix for _ in range(2))
    wp_apply(p, Observable(random_positive(gen, 2), p.layout), max_dim=8)
    assert builds == [p]
    assert again.tobytes() == first.tobytes()


def test_output_is_a_fresh_array():
    rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex), RegisterLayout.of(Q))
    out = apply_program(Skip(), rho)
    out.matrix[0, 0] = 1.0
    assert rho.matrix[0, 0] == 0.25


def spread(a):
    """``op -> op @ S`` with ``S = sqrt(I + a(n) J)``, ``J`` the n x n
    all-ones matrix: a unitary's Gram, a complete measurement's or a guard
    basis's becomes ``I + a(n) J``, off by ``a(n)`` in each entry but by
    ``n a(n)`` in norm."""
    def f(op):
        n = len(op)
        return op @ (np.eye(n) + (np.sqrt(1 + a(n) * n) - 1) / n * np.ones((n, n)))
    return f


# Within tol of a unitary entry by entry, yet its norm squared is 1 + 3.6 tol.
ENTRYWISE_EDGE = spread(lambda n: 0.9 * la.DEFAULT_TOL)
QL = RegisterLayout.of(Q)
MEASURE_X = Measure("x", (Q,), Measurement.computational(2), ((0, Skip()), (1, Skip())))
REJECTED = {
    "unknown-node": (Repeat(Unitary((Q,), H)), {}),
    "guard-over-block": (Guarded((C,), GuardBasis.computational(2),
                                 (Block((R,), np.diag([1.0, 0.0]), Unitary((Q, R), np.kron(X, I2))),
                                  Skip())), {}),
    "guard-over-pchoice": (Guarded((C,), GuardBasis.computational(2),
                                   (ProbChoice((0.5,), (Unitary((Q,), X),)), Skip())), {}),
    "qchoice-over-pchoice": (QChoice(Unitary((C,), H), GuardBasis.computational(2),
                                     (ProbChoice((0.5,), (Unitary((Q,), X),)), Skip())), {}),
    "above-identity": (Seq(Unitary((Q,), 2 * I2), Skip()), {}),
    "pchoice-above-one": (ProbChoice((0.9, 0.9), (Unitary((Q,), X), Skip())), {}),
    "pchoice-arity": (ProbChoice((0.5,), (Unitary((Q,), X), Skip())), {}),
    "guard-arity": (Guarded((C,), GuardBasis.computational(2), (Skip(), Skip(), Skip())), {}),
    "above-max-dim": (Seq(Unitary((Q,), X), Unitary((R,), H)), {"max_dim": 2}),
    "outcome-reuse": (Seq(MEASURE_X, MEASURE_X), {}),
    "outcome-capture": (Measure("x", (R,), Measurement.computational(2), ((0, MEASURE_X), (1, Skip()))),
                        {}),
    "outcome-repeated": (Measure("x", (Q,), Measurement.computational(2), ((0, Abort()), (0, Skip()))),
                         {}),
    "pchoice-negative": (ProbChoice((0.7, -0.2), (Unitary((Q,), X), Skip())), {}),
    "pchoice-nan": (ProbChoice((np.nan, 0.5), (Unitary((Q,), X), Skip())), {}),
    "pchoice-inf": (ProbChoice((np.inf, 0.5), (Unitary((Q,), X), Skip())), {}),
    "guard-basis-not-orthonormal": (Guarded((C,), GuardBasis(0.8 * I2), (Unitary((Q,), X), Skip())),
                                    {}),
    "pchoice-empty": (ProbChoice((), ()), {}),
    "unitary-no-variables": (Unitary((), [[1]]), {}),
    "unitary-repeated-variable": (Unitary((Q, Q), la.identity(4)), {}),
    "non-unitary": (Unitary((Q,), np.diag([1.0, 0.5])), {}),
    "measurement-incomplete": (Measure("x", (Q,), Measurement(((0, np.diag([1.0, 0.0])),
                                                                (1, np.diag([0.0, 0.5])))),
                                       ((0, Skip()), (1, Skip()))), {}),
    "measurement-empty": (Measure("x", (Q,), Measurement(()), ()), {}),
    "branch-outcome-missing": (Measure("x", (Q,), Measurement.computational(2), ((0, Skip()),)),
                               {}),
    "block-init-not-hermitian": (Block((C,), np.array([[0.5, 0.5], [0.0, 0.5]]), Unitary((Q, C), SWAP)),
                                 {}),
    "guard-basis-empty": (Guarded((), GuardBasis(np.zeros((0, 0))), ()), {}),
    "unitary-nan": (Unitary((Q,), [[np.nan, 0], [0, 1]]), {}),
    "unitary-inf": (Seq(Unitary((Q,), X), Unitary((R,), [[1, 0], [0, np.inf]])), {}),
    "block-init-nan": (Block((C,), [[np.nan, 0], [0, 1]], Unitary((Q, C), SWAP)), {}),
    "block-init-rank-1": (Block((C,), [1.0, 0.0], Unitary((Q, C), SWAP)), {}),
    # Leaves just outside their contract at the default tolerance.
    "permutation-scale-above-tol": (Unitary((Q,), (1 + 2 * la.DEFAULT_TOL) * X), {}),
    "monomial-with-empty-row": (Unitary((Q,), np.diag([1.0, 0.0])), {}),
    "dense-near-unitary": (Unitary((Q,), (1 + 2 * la.DEFAULT_TOL) * H), {}),
    # Leaves within tol of their contract entry by entry, not in norm.
    "unitary-norm-above-one": (Unitary((Q, R), ENTRYWISE_EDGE(la.identity(4))), {}),
    "measurement-norm-above-one": (
        Measure("x", (Q, R), Measurement(tuple((m, ENTRYWISE_EDGE(op)) for m, op in
                                               Measurement.computational(4).operators)),
                tuple((m, Skip()) for m in range(4))), {}),
    "guard-basis-norm-above-one": (Guarded((Q, R), GuardBasis(ENTRYWISE_EDGE(la.identity(4))),
                                           (Skip(),) * 4), {}),
    "block-init-positive-part-above-one": (
        Block((("c", 4),), np.diag([1 + 2.5 * la.DEFAULT_TOL] + [-0.9 * la.DEFAULT_TOL] * 3),
              Unitary((("c", 4),), la.identity(4))), {}),
}
# Rejected for what only evaluation knows; every other row is flagged by
# well_formed with the code the evaluators raise.
EVALUATION_ONLY = {"unknown-node", "guard-over-block", "guard-over-pchoice", "qchoice-over-pchoice",
                   "above-max-dim"}


def raised(call):
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("name", list(REJECTED))
@pytest.mark.parametrize("state_layout", [QL, RegisterLayout.of(("z", 2))], ids=["ok", "mismatched"])
def test_rejections_match_denote(name, state_layout):
    # Evaluation errors come before any complaint about the input's layout.
    p, kwargs = REJECTED[name]
    expected = raised(lambda: denote(p, **kwargs))
    assert expected is not None
    state = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), state_layout)
    obs = Observable(np.diag([1.0, 0.5]).astype(complex), state_layout)
    assert raised(lambda: apply_program(p, state, **kwargs)) == expected
    assert raised(lambda: wp_apply(p, obs, **kwargs)) == expected


@pytest.mark.parametrize("name", sorted(set(REJECTED) - EVALUATION_ONLY))
def test_rejections_are_well_formed_diagnostics(name):
    # The error is the first violation of the one rule table, as reported.
    p, kwargs = REJECTED[name]
    _, message = raised(lambda: denote(p, **kwargs))
    assert message in {f"{d.code}: {d.message}" for d in well_formed(p)}


def test_input_errors_after_a_successful_evaluation():
    p = Seq(Unitary((Q,), X), Unitary((R,), H))
    with pytest.raises(LayoutError, match="lacks program variable 'r'"):
        apply_program(p, DensityMatrix(np.diag([1.0, 0.0]).astype(complex), QL))
    big = RegisterLayout.of(Q, R, ("e", 2))
    with pytest.raises(CapacityError):
        apply_program(p, DensityMatrix(np.eye(8) / 8, big), max_dim=4)


@pytest.mark.parametrize("shape", [(3, 3), (2, 3)])
@pytest.mark.parametrize("adjoint", [False, True])
def test_mis_shaped_input_is_a_layout_error(shape, adjoint):
    # Checked before the reshape, which would raise numpy's ValueError.
    message = f"{'observable' if adjoint else 'density'} shape {shape} does not match layout dim 2"
    with pytest.raises(LayoutError, match=re.escape(message)):
        semantics.stream(Unitary((Q,), H), np.ones(shape), QL, adjoint=adjoint)


@pytest.mark.parametrize("adjoint", [False, True])
def test_non_finite_input_is_a_shape_error(adjoint):
    x = np.eye(2) / 2
    x[1, 0] = np.nan
    with pytest.raises(ShapeError, match="^matrix has non-finite entries$"):
        semantics.stream(Unitary((Q,), H), x, QL, adjoint=adjoint)


def test_an_overflowing_result_is_a_shape_error():
    # The input state is trusted as its constructor checked it; the result
    # is built by the same constructor, so its entries are checked again.
    big = la.frozen(np.full((2, 2), 1e308))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ShapeError, match="^matrix has non-finite entries$"):
            apply_program(Unitary((Q,), H), DensityMatrix(big, QL))
        with pytest.raises(ShapeError, match="^matrix has non-finite entries$"):
            wp_apply(Unitary((Q,), H), Observable(big, QL))


def nodes(p):
    out = [p]
    for c in children(p):
        out.extend(nodes(c))
    return out


def replaced(p, target, new):
    return new if p is target else rebuild(p, lambda c: replaced(c, target, new))


def mutated(gen, p):
    """``p`` with one fault of a random kind, put in at a random node where
    that kind applies."""
    kinds: dict[str, list] = {}

    def add(kind, node, fault):
        kinds.setdefault(kind, []).append((node, fault))

    for node in nodes(p):
        layout = qvar_layout(node)
        local = layout.variables[:1] or (("fresh", 2),)
        scale = gen.choice([0.5, 1.5, 1 + 2 * la.DEFAULT_TOL])
        if isinstance(node, Unitary):
            add("scaled unitary", node, replace(node, matrix=scale * node.matrix))
        if isinstance(node, Measure):
            add("scaled measurement", node, stretched(node, scaled(scale), deep=False))
            add("outcome", node, replace(node, branches=node.branches + node.branches[:1]))
            add("outcome", node, replace(node, branches=node.branches[1:]))
        if isinstance(node, (Guarded, QChoice)):
            add("scaled basis", node, replace(node, basis=GuardBasis(scale * node.basis.matrix)))
        add("block init", node, Block(local, np.diag([1.5, -0.5] + [0.0] * (local[0][1] - 2)), node))
        add("block init", node, Block(local, np.eye(5) / 5, node))
        add("weight", node, ProbChoice((gen.choice([-0.2, np.nan, np.inf]), 0.5), (node, Skip())))
        # A guard on no variables: one branch, the layout unchanged.
        add("guard over pchoice", node, Guarded((), GuardBasis(np.eye(1)),
                                                (ProbChoice((1.0,), (node,)),)))
    options = kinds[sorted(kinds)[int(gen.integers(len(kinds)))]]
    node, fault = options[int(gen.integers(len(options)))]
    return replaced(p, node, fault)


@given(st.integers(0, 2**32 - 1), st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_evaluators_agree_on_mutated_programs(seed, depth):
    # Each evaluator accepts the program, or all raise the same error.
    gen = rng(seed)
    p = mutated(gen, ProgramSampler(gen, (Q, R), (("g0", 2), ("g1", 3))).program(depth))
    layout = qvar_layout(p)
    rho = DensityMatrix(random_density(gen, layout.dim), layout)
    obs = Observable(random_positive(gen, layout.dim), layout)
    expected = raised(lambda: denote(p))
    assert raised(lambda: apply_program(p, rho)) == expected
    assert raised(lambda: wp_apply(p, obs)) == expected
    if expected is None:
        assert la.max_abs_diff(apply_program(p, rho).matrix, dense(p, rho.matrix, layout)) < TOL


@given(st.integers(0, 2**32 - 1), st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_evaluators_reject_what_well_formed_flags(seed, depth):
    # At the default cap every evaluator rejects a program exactly when
    # well_formed flags it, with one of its codes; a guard over a well-formed
    # pchoice (a branch outside the core) is the one fault that only
    # evaluation knows.
    gen = rng(seed)
    p = ProgramSampler(gen, (Q, R), (("g0", 2), ("g1", 3))).program(depth)
    if gen.uniform() < 0.8:
        p = mutated(gen, p)
    layout = qvar_layout(p)
    rho = DensityMatrix(random_density(gen, layout.dim), layout)
    obs = Observable(random_positive(gen, layout.dim), layout)
    evaluators = [lambda: denote(p), lambda: apply_program(p, rho), lambda: wp_apply(p, obs)]
    if is_core(p):
        evaluators.append(lambda: semi_classical(p))
    codes = {d.code for d in well_formed(p)}
    outside_core = any(isinstance(n, (Guarded, QChoice)) and not all(map(is_core, n.branches))
                       for n in nodes(p))
    for evaluate in evaluators:
        error = raised(evaluate)
        if codes:
            assert error is not None and error[1].split(":")[0] in codes
        elif outside_core:
            assert error[0] is UnsupportedConstructError
        else:
            assert error is None


def stretched(p, f, deep=True):
    """``p`` with ``f`` applied to its unitaries, measurement operators and
    guard bases: only the root's own with ``deep`` false."""
    if deep:
        p = rebuild(p, lambda c: stretched(c, f))
    if isinstance(p, Unitary):
        return replace(p, matrix=f(la.as_matrix(p.matrix)))
    if isinstance(p, Measure):
        ops = tuple((m, f(op)) for m, op in p.measurement.operators)
        return replace(p, measurement=Measurement(ops))
    if isinstance(p, (Guarded, QChoice)):
        return replace(p, basis=GuardBasis(f(p.basis.matrix)))
    return p


def scaled(s):
    return lambda op: s * op


CONTRACTS = (Unitary, Measure, Guarded, QChoice, Block, ProbChoice)
# Each leaf pushed towards its contract's edge (kept) or past it (may be
# rejected): scaled, which moves every entry and the norm alike, or spread,
# which moves the norm n times as far as any entry.
EDGES = {
    "exact": (scaled(1.0), False),
    "scaled-within": (scaled(1 + 0.45 * la.DEFAULT_TOL), False),
    "scaled-beyond": (scaled(1 + 2 * la.DEFAULT_TOL), True),
    "spread-within": (spread(lambda n: 0.9 * la.DEFAULT_TOL / n), False),
    "spread-entrywise-within": (ENTRYWISE_EDGE, True),
}


@given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.sampled_from(sorted(EDGES)))
@settings(max_examples=120, deadline=None)
def test_leaf_contracts_bound_the_channel(seed, depth, edge):
    # Evaluation does not check sum K† K <= I; each leaf's contract holds
    # within tol, so the whole program keeps it within (leaves) x tol, a
    # guard basis counting twice since it acts on both sides of its
    # branches.
    tol = la.DEFAULT_TOL
    push, may_reject = EDGES[edge]
    gen = rng(seed)
    p = ProgramSampler(gen, (Q, R), (("g0", 2), ("g1", 3))).program(depth)
    local = qvar_layout(p).variables[:1]
    if gen.uniform() < 0.3:
        p = ProbChoice((0.5, 0.5 + tol / 2), (p, Unitary((Q,), H)))
    elif gen.uniform() < 0.5 and local:
        p = Block(local, random_density(gen, local[0][1]) * (1 + tol / 2), p)
    p = stretched(p, push)
    error = raised(lambda: denote(p))
    if error is not None:
        assert may_reject and error[1].split(":")[0] in {d.code for d in well_formed(p)}
        return
    gram = denote(p).gram_sum()
    leaves = sum(1 + isinstance(n, (Guarded, QChoice)) for n in nodes(p) if isinstance(n, CONTRACTS))
    assert la.loewner_leq(gram, la.identity(len(gram)), leaves * tol)


def test_a_guard_basis_counts_twice():
    # B† B = (1 + 0.9 tol) I is within its contract; B acts before and after
    # the branches, so the channel exceeds the bound by 1.8 tol.
    tol = la.DEFAULT_TOL
    p = Guarded((C,), GuardBasis((1 + 0.45 * tol) * H), (Unitary((Q,), X), Skip()))
    excess = np.linalg.eigvalsh(denote(p).gram_sum()).max() - 1
    assert tol < excess <= 2 * tol


def test_denote_work_is_linear_in_depth(monkeypatch):
    # A chain of unitaries ending in a probabilistic choice: no node may be
    # revisited once per ancestor.  Counted: the nodes the checked pass
    # visits, the semi-classical and channel rules run, and ``children``.
    visits = Counter()
    for module, name in ((semantics, "rules"), (program, "children")):
        def counted(*args, _original=getattr(module, name), _name=name, **kwargs):
            visits[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    def count(depth):
        p = ProbChoice((0.5, 0.5), (Unitary((Q,), X), Skip()))
        for _ in range(depth):
            p = Seq(Unitary((Q,), H), p)
        visits.clear()
        with rule_calls(semantics._SEMI) as semi, rule_calls(semantics._DENOTE) as channel:
            denote(p)
        return sum(visits.values()) + len(semi) + len(channel)

    v16, v32, v64 = count(16), count(32), count(64)
    assert v64 - v32 <= 2 * (v32 - v16)
    assert v64 <= 10 * 64


# -- Leaf kernels ---------------------------------------------------------------
# A monomial operator (at most one nonzero per row and column) is applied as a
# gather; every other operator by matmul.


def monomial(gen, n, kind):
    """An n x n monomial operator of the given kind."""
    perm = gen.permutation(n)
    phases = np.exp(2j * np.pi * gen.uniform(size=n))
    if kind == "permutation":
        scale = np.ones(n)
    elif kind == "diagonal":
        perm, scale = np.arange(n), gen.normal(size=n) + 1j * gen.normal(size=n)
    elif kind == "phase permutation":
        scale = phases
    elif kind == "projector":  # basis projector: empty rows, scale 0 there
        perm, scale = np.arange(n), (gen.uniform(size=n) < 0.5).astype(float)
    else:  # general monomial, some rows empty
        scale = (gen.normal(size=n) + 1j * gen.normal(size=n)) * (gen.uniform(size=n) < 0.7)
    op = np.zeros((n, n), dtype=complex)
    op[np.arange(n), perm] = scale
    return op


KINDS = ["permutation", "diagonal", "phase permutation", "projector", "monomial"]


def not_monomial(gen, n):
    """Exactly n nonzeros, yet row 0 holds two of them and row 1 none (the
    transpose does the same with two columns)."""
    op = monomial(gen, n, "phase permutation")
    op[0] += op[1]
    op[1] = 0
    return op


@given(st.integers(0, 2**32 - 1), st.sampled_from(KINDS))
@settings(max_examples=150, deadline=None)
def test_monomial_sandwich_matches_matmul(seed, kind):
    gen = rng(seed)
    dims = tuple(int(d) for d in gen.integers(1, 4, size=3))
    names = ("a", "b", "c")
    t = gen.normal(size=dims * 2) + 1j * gen.normal(size=dims * 2)
    site = tuple(names[i] for i in gen.permutation(3)[:int(gen.integers(1, 3))])
    op = monomial(gen, int(np.prod([dims[names.index(v)] for v in site])), kind)
    k = kernels.kernel(op)
    assert isinstance(k, kernels.Monomial)  # a 1 x 1 operator too, as a scaling
    for adjoint in (False, True):
        got = kernels.sandwich(t, names, kernels.side(k, adjoint), site)
        expect = kernels.sandwich(t, names, kernels.side(op, adjoint), site)
        assert la.max_abs_diff(got, expect) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 8])
def test_dense_operators_keep_the_matmul(n):
    """A complex dense operator is its own kernel; a real one is marked real
    once, keeping the operator and its real part as a contiguous float array."""
    gen = rng(n)
    tricky = not_monomial(gen, n)
    assert np.count_nonzero(tricky) == n
    for op in (tricky, tricky.T.copy(), random_unitary(gen, n)):
        assert kernels.kernel(op) is op
    for op in (H if n == 2 else tricky.real + 0j, np.ones((n, n))):
        k = kernels.kernel(op)
        assert isinstance(k, kernels.RealMatrix) and k.matrix is op
        assert k.real.dtype == float and k.real.flags.c_contiguous
        assert np.array_equal(k.real, op.real)


def monomial_leaves(gen, p):
    """``p`` with every unitary a phase permutation, permutation or
    diagonal, and every measurement made of monomial operators."""
    if isinstance(p, Unitary):
        n = qvar_layout(p).dim
        kind = ["permutation", "diagonal", "phase permutation"][int(gen.integers(3))]
        u = monomial(gen, n, kind)
        return Unitary(p.qvars, u / np.abs(u).sum(axis=1, keepdims=True))  # unit entries
    if isinstance(p, Measure):
        n, outcomes = p.measurement.dim, p.measurement.outcomes
        perm = np.eye(n)[gen.permutation(n)] if gen.uniform() < 0.5 else np.eye(n)
        if gen.uniform() < 0.5:  # basis projectors, each row kept by one outcome
            owner = gen.integers(len(outcomes), size=n)
            weights = [(owner == k).astype(float) for k in range(len(outcomes))]
        else:
            raw = gen.uniform(size=(len(outcomes), n))
            weights = list(raw / raw.sum(axis=0))
        ops = tuple((m, np.diag(np.sqrt(w)) @ perm) for m, w in zip(outcomes, weights))
        branches = tuple((m, monomial_leaves(gen, b)) for m, b in p.branches)
        return Measure(p.x, p.qvars, Measurement(ops), branches)
    return rebuild(p, lambda c: monomial_leaves(gen, c))


def leaf_kernels(p):
    """The kernels streaming applies at the leaves of ``p``, read from the
    nodes that keep them."""
    if isinstance(p, Unitary):
        yield p.kernel
    elif isinstance(p, Measure):
        yield from p.measurement.kernels
    for sub in children(p):
        yield from leaf_kernels(sub)


@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.sampled_from(["plain", "guard", "block"]))
@settings(max_examples=60, deadline=None)
def test_monomial_leaves_match_dense(seed, depth, wrap):
    gen = rng(seed)
    p = monomial_leaves(gen, ProgramSampler(gen, (Q, R), (("g0", 2), ("g1", 3))).program(depth))
    if wrap == "guard":
        other = monomial_leaves(gen, ProgramSampler(gen, (Q, R)).program(depth - 1))
        p = Guarded((C,), GuardBasis(random_unitary(gen, 2)) if gen.uniform() < 0.5
                    else GuardBasis.computational(2), (p, other))
    elif wrap == "block" and Q in qvar_layout(p).variables:
        p = Block((Q,), random_density(gen, 2), p)
    leaves = list(leaf_kernels(p))
    assume(leaves)  # only skips and aborts: no leaf to check
    assert all(isinstance(k, kernels.Monomial) for k in leaves)
    assert_matches_dense(p, gen, extra=(("e", 3),) if gen.uniform() < 0.5 else ())


def test_shared_measurement_is_classified_once():
    mmt = Measurement.computational(4)
    v = ("v", 4)
    programs = [Measure(x, (v,), mmt, tuple((m, Skip()) for m in mmt.outcomes)) for x in "xy"]
    layout = RegisterLayout.of(v)
    rho = random_density(rng(0), 4)
    with mock.patch.object(kernels, "kernel", wraps=kernels.kernel) as kernel:
        for p in programs:
            apply_program(p, DensityMatrix(rho, layout))
            wp_apply(p, Observable(rho, layout))
    assert kernel.call_count == len(mmt.outcomes)
    assert all(isinstance(k, kernels.Monomial) for k in mmt.kernels)


# -- Plans: one per root, signature and direction, replayed ---------------------------


def laid_out(m):
    """``m`` in C order, in Fortran order and as a strided view of a larger array."""
    big = np.zeros((2 * len(m), 3 * len(m)), dtype=complex)
    big[::2, ::3] = m
    return {"C": m, "F": np.asfortranarray(m), "strided": big[::2, ::3]}


@given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.booleans())
@settings(max_examples=40, deadline=None)
def test_replayed_plans_keep_the_bits(seed, depth, adjoint):
    """A second call replays the first call's plan and gives its bytes; a
    call after the input's order or strides change plans anew and gives
    the bytes of a fresh copy of the program on that input."""

    def sampled():
        gen = rng(seed)
        return ProgramSampler(gen, (Q, R), (("g0", 2), ("g1", 3))).program(depth), gen

    p, gen = sampled()
    layout = shuffled(gen, qvar_layout(p), (("e", 3),) if not adjoint and gen.uniform() < 0.5 else ())
    x = (random_positive if adjoint else random_density)(gen, layout.dim)
    outs = {}
    for form, m in laid_out(x).items():
        first = streamed(p, m, layout, adjoint)
        assert streamed(p, m, layout, adjoint).tobytes() == first.tobytes(), form
        assert streamed(sampled()[0], m, layout, adjoint).tobytes() == first.tobytes(), form
        outs[form] = first
    assert all(la.max_abs_diff(out, outs["C"]) < TOL for out in outs.values())


def planned(monkeypatch):
    """Counts of ``semantics._plan``'s builds, by direction."""
    builds = Counter()
    plan = semantics._plan

    def counted(p, t, names, adjoint, max_dim):
        builds[adjoint] += 1
        return plan(p, t, names, adjoint, max_dim)

    monkeypatch.setattr(semantics, "_plan", counted)
    return builds


def test_one_plan_per_signature_and_direction(monkeypatch):
    """A root keeps one plan a direction: each direction is planned once for
    a signature, and a change of factor order, strides or ``max_dim`` is a
    miss that replaces the plan, so returning to the old signature plans
    again."""
    builds = planned(monkeypatch)
    gen = rng(2)
    p = QChoice(Unitary((C,), H), GuardBasis.computational(2),
                (Unitary((Q,), X), Measure("x", (Q,), Measurement.computational(2),
                                           ((0, Skip()), (1, Unitary((Q,), H))))))
    layout = RegisterLayout.of(Q, C)
    rho, m = random_density(gen, 4), random_positive(gen, 4)
    for _ in range(3):
        apply_program(p, DensityMatrix(rho, layout))
        wp_apply(p, Observable(m, layout))
    assert builds == {False: 1, True: 1}
    misses = [(rho, layout, la.MAX_DIM_DEFAULT), (np.asfortranarray(rho), layout, la.MAX_DIM_DEFAULT),
              (rho, layout, la.MAX_DIM_DEFAULT), (rho, RegisterLayout.of(C, Q), la.MAX_DIM_DEFAULT),
              (rho, layout, 64), (rho, layout, 64)]
    expected = [1, 2, 3, 4, 5, 5]
    for (x, lay, cap), count in zip(misses, expected):
        apply_program(p, DensityMatrix(x, lay), max_dim=cap)
        assert builds[False] == count
    assert builds[True] == 1
    assert len(p.__dict__[semantics._PLAN]) == 2


def held(obj) -> dict:
    """The memory reachable from ``obj`` (through closures, containers and
    the package's objects, a node's plans left out): each array's base
    array, by ``id``."""
    seen, out, todo = set(), {}, [obj]
    while todo:
        o = todo.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            while o.base is not None:
                o = o.base
            out[id(o)] = o
        elif isinstance(o, (list, tuple, set, frozenset)):
            todo += o
        elif isinstance(o, dict):
            todo += o.values()
        elif callable(o) and getattr(o, "__closure__", None):
            todo += [cell.cell_contents for cell in o.__closure__]
        elif type(o).__module__.startswith("qgcl") and hasattr(o, "__dict__"):
            todo += [v for k, v in vars(o).items() if k != semantics._PLAN]
    return out


@pytest.mark.parametrize("adjoint", [False, True])
def test_a_plan_holds_no_array_the_size_of_a_state(adjoint):
    """Dense operators on every variable of the state (whose conjugates
    would be as large as it), a guard and a block: the plans hold no array
    as large as the state, and replay the first call's bytes."""
    gen = rng(4)
    p = Seq(Unitary((Q, R), random_unitary(gen, 4)),
            Guarded((C,), GuardBasis(random_unitary(gen, 2)),
                    (Unitary((Q,), random_unitary(gen, 2)), Unitary((Q, R), random_unitary(gen, 4)))),
            Block((("l", 2),), random_density(gen, 2), Unitary((Q, ("l", 2)), random_unitary(gen, 4))),
            Unitary((Q, R, C), random_unitary(gen, 8)))
    layout = p.layout
    x = (random_positive if adjoint else random_density)(gen, layout.dim)
    first = streamed(p, x, layout, adjoint)
    assert streamed(p, x, layout, adjoint).tobytes() == first.tobytes()
    reached, kept = held(p.__dict__[semantics._PLAN][adjoint][1]), held(p)
    assert reached  # the operators the steps read
    assert all(a.nbytes < x.nbytes for i, a in reached.items() if i not in kept)


@pytest.mark.parametrize("adjoint", [False, True])
def test_a_replayed_walk_step_peaks_no_higher_than_its_first_call(adjoint):
    """The coined walk's step at state dimension 512: the replay's
    ``tracemalloc`` peak is at most the first call's, which planned."""
    import tracemalloc

    n = 256
    right = np.roll(np.eye(n), 1, axis=0)
    step = QChoice(Unitary((C,), H), GuardBasis.computational(2),
                   (Unitary((("v", n),), right), Unitary((("v", n),), right.T)))
    layout = RegisterLayout.of(("v", n), C)
    x = (random_positive if adjoint else random_density)(rng(7), layout.dim)
    peaks, outs = [], []
    tracemalloc.start()
    try:
        for _ in range(2):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]  # the first call's output
            outs.append(streamed(step, x, layout, adjoint))
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert outs[0].tobytes() == outs[1].tobytes()
    assert peaks[1] <= peaks[0]
