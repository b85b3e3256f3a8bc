"""Weakest-precondition semantics.

The weakest precondition of an observable M under a program with Kraus
family {E_k} is ``sum_k E_k† M E_k``: the adjoint family applied in reverse.
It is dual to forward evaluation, ``tr(wp(M) rho) = tr(M [[P]](rho))`` for
every state, and extends to all operators by linearity.
"""

from __future__ import annotations

from . import linalg
from .ovf import SuperOperator
from .program import Program
from .registers import Observable
from .semantics import _stream, denote


def wp(
    p: Program,
    *,
    tol: float = linalg.DEFAULT_TOL,
    max_dim: int = linalg.MAX_DIM_DEFAULT,
) -> SuperOperator:
    """Predicate transformer of a program as a Kraus family.

    The family consists of the adjoints of the forward channel's operators;
    it satisfies ``sum E E† <= I`` rather than the forward trace bound.
    """
    forward = denote(p, tol=tol, max_dim=max_dim)
    return SuperOperator._of(forward.layout, forward.stack.conj().transpose(0, 2, 1))


def wp_apply(
    p: Program,
    m: Observable,
    *,
    tol: float = linalg.DEFAULT_TOL,
    max_dim: int = linalg.MAX_DIM_DEFAULT,
) -> Observable:
    """Weakest precondition of an observable given over exactly the program's
    variables, in any factor order, streamed backwards through the program."""
    m.validate(tol)
    return Observable(_stream(p, m, True, tol, max_dim), m.layout)
