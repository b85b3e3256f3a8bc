"""Channel and program equivalence via Choi-matrix comparison."""

from __future__ import annotations

from . import linalg
from .errors import LayoutError
from .ovf import OperatorValuedFunction, SuperOperator, guarded_superop_member
from .ovf import guarded_ovf, to_superop  # noqa: F401  lookup sites patched by perfbench/tracing.py
from .program import GuardBasis, Program, qvar_layout
from .semantics import denote

PROGRAM_TOL_DEFAULT = 1e-8


def choi_deviation(a: SuperOperator, b: SuperOperator) -> float:
    """Largest entrywise difference ``max |C_A - C_B|`` of the two channels'
    Choi matrices, after aligning factor orders.

    ``C_E = sum_k vec(E_k) vec(E_k)†`` is built on the unnormalised maximally
    entangled vector, so the deviation is zero exactly when the channels are
    equal; callers compare it with a tolerance (``PROGRAM_TOL_DEFAULT`` = 1e-8
    for programs, the ``--tol`` of ``qgcl equiv``).  It is the exact maximum,
    scanned from the stacked Kraus operators (:func:`linalg.choi_stack_diff`):
    real products over row blocks of the difference's upper triangle, with
    O(d² K) memory besides one block and no d² x d² matrix.  Channels on
    different variables raise ``LayoutError``, even when their dimensions agree.
    """
    if a.layout.dim != b.layout.dim:
        raise LayoutError(
            f"channels act on different dimensions ({a.layout.dim} vs {b.layout.dim})"
        )
    if not a.layout.same_variables(b.layout):
        raise LayoutError(
            f"channels act on different variables ({list(a.layout.variables)} vs "
            f"{list(b.layout.variables)})"
        )
    b = b.extended_to(a.layout)
    return linalg.choi_stack_diff(a.stack, b.stack)


def superop_equal(a: SuperOperator, b: SuperOperator, tol: float = linalg.DEFAULT_TOL) -> bool:
    """Channel equality: two Kraus families induce the same map exactly when
    their Choi matrices agree."""
    return choi_deviation(a, b) <= tol


def program_equiv(
    p: Program,
    q: Program,
    tol: float = PROGRAM_TOL_DEFAULT,
    *,
    max_dim: int = linalg.MAX_DIM_DEFAULT,
) -> bool:
    """Programs are equivalent when they share quantum variables and denote
    the same channel."""
    return program_equiv_report(p, q, tol, max_dim=max_dim)[0] == "equiv"


def program_equiv_report(
    p: Program,
    q: Program,
    tol: float = PROGRAM_TOL_DEFAULT,
    *,
    max_dim: int = linalg.MAX_DIM_DEFAULT,
) -> tuple[str, float | None]:
    """Verdict plus Choi deviation: 'equiv', 'distinct' or 'qvar-mismatch'.
    ``tol`` bounds the deviation and is the tolerance the leaves are checked at."""
    lp = qvar_layout(p)
    lq = qvar_layout(q)
    if not lp.same_variables(lq):
        return "qvar-mismatch", None
    dev = choi_deviation(denote(p, tol=tol, max_dim=max_dim),
                         denote(q, tol=tol, max_dim=max_dim))
    return ("equiv" if dev <= tol else "distinct"), dev


def refinement_member(
    guard_channel: SuperOperator,
    basis: GuardBasis,
    branch_channels: list[SuperOperator],
    reps: list[OperatorValuedFunction],
    tol: float = linalg.DEFAULT_TOL,
) -> bool:
    """Certify membership of a channel in a set-valued guarded composition.

    ``reps`` picks one operator-valued function per branch channel; the
    composition of those representatives is one member of the set.  Returns
    whether it coincides with ``guard_channel``.  Representatives must induce
    their channels, otherwise the certificate is meaningless and
    :func:`guarded_superop_member` raises an error.
    """
    data_layout = branch_channels[0].layout
    guard_names = [n for n in guard_channel.layout.names if n not in data_layout]
    guard_layout = guard_channel.layout.restrict(guard_names)
    if data_layout.dim * guard_layout.dim != guard_channel.layout.dim:
        raise LayoutError("guard channel layout does not decompose into data and guard parts")
    member = guarded_superop_member(basis, branch_channels, guard_layout, reps, tol=tol)
    return superop_equal(guard_channel, member.extended_to(guard_channel.layout), tol)
