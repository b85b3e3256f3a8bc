"""Program semantics at two levels.

The semi-classical denotation of a core program is an operator-valued
function indexed by the program's classical states: one operator per
measurement-outcome path, with guard branches combined by guarded
composition.  The channel semantics uses those operators as a Kraus family;
blocks and probabilistic choices are handled directly at the channel level,
where local variables become initialise-run-trace and probabilistic choice a
weighted mixture.  Bounded loop unrolling and the system-environment model of
channels support the coin-relocation equivalences.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import classical as cs
from . import linalg
from .errors import (
    ArityError,
    CapacityError,
    ContractError,
    LayoutError,
    UnsupportedConstructError,
)
from .ovf import (
    OperatorValuedFunction,
    SuperOperator,
    prune_zero_kraus,
    to_superop,
)
from .program import (
    Abort,
    Block,
    GuardBasis,
    Guarded,
    Measure,
    Measurement,
    Mu,
    Name,
    ProbChoice,
    Program,
    QChoice,
    QVar,
    Seq,
    Skip,
    Unitary,
    desugar_qchoice,
    is_core,
    qvar_layout,
)
from .registers import DensityMatrix, RegisterLayout, embed

RESERVED_PREFIX = "@"
MAX_UNROLL_DEFAULT = 6


def _scalar_function(value: complex) -> OperatorValuedFunction:
    return OperatorValuedFunction(
        RegisterLayout(), {cs.EPS: np.array([[value]], dtype=complex)}
    )


def _joint(parts, start: RegisterLayout = RegisterLayout()) -> RegisterLayout:
    """``start`` extended by the layout of each function or channel in turn:
    the layout of a node, computed from its subprograms' results."""
    return reduce(RegisterLayout.extended, (part.layout for part in parts), start)


def _check_cap(layout: RegisterLayout, max_dim: int) -> RegisterLayout:
    if layout.dim > max_dim:
        raise CapacityError(f"layout dimension {layout.dim} exceeds the cap {max_dim}")
    return layout


def semi_classical(
    p: Program,
    *,
    tol: float = linalg.DEFAULT_TOL,
    max_dim: int = linalg.MAX_DIM_DEFAULT,
) -> OperatorValuedFunction:
    """Semi-classical denotation of a core program: an operator-valued
    function over the program's classical states and quantum layout.

    Defined for the measurement-and-guard core only; quantum choice is
    accepted through its sequential desugaring.  Blocks, probabilistic
    choices and recursion are rejected: their meaning exists only at the
    channel level.  The trace bound ``sum F† F <= I`` is checked once, on the
    result: well-formed leaves satisfy it and every composition preserves it.
    """
    return _semi(p, max_dim).validate(tol)


def _semi(p: Program, max_dim: int) -> OperatorValuedFunction:
    if isinstance(p, Abort):
        return _scalar_function(0.0)
    if isinstance(p, Skip):
        return _scalar_function(1.0)
    if isinstance(p, Unitary):
        layout = RegisterLayout(p.qvars)
        op = linalg.as_matrix(p.matrix)
        if op.shape != (layout.dim, layout.dim):
            raise LayoutError(
                f"unitary shape {op.shape} does not match its variables (dim {layout.dim})"
            )
        return OperatorValuedFunction(layout, {cs.EPS: op})
    if isinstance(p, Measure):
        qlay = RegisterLayout(p.qvars)
        subs = [_semi(sub, max_dim) for _, sub in p.branches]
        full = _check_cap(_joint(subs, qlay), max_dim)
        table: dict[cs.ClassicalState, np.ndarray] = {}
        for (m, _), sub_f in zip(p.branches, subs):
            sub_f = sub_f.extended_to(full, max_dim=max_dim)
            m_op = embed(p.measurement.operator(m), qlay, full, max_dim=max_dim)
            for delta in sub_f.sorted_states():
                label = cs.extend(delta, p.x, m)
                if label in table:
                    raise ContractError(f"collided classical state {cs.render(label)}")
                table[label] = sub_f(delta) @ m_op
        return OperatorValuedFunction(full, table)
    if isinstance(p, Guarded):
        guard_layout = RegisterLayout(p.qvars)
        branch_fs = [_semi(b, max_dim) for b in p.branches]
        data_layout = _joint(branch_fs)
        full = _check_cap(guard_layout.extended(data_layout), max_dim)
        branch_fs = [f.extended_to(data_layout, max_dim=max_dim) for f in branch_fs]
        from .ovf import guarded_ovf

        combined = guarded_ovf(p.basis, branch_fs, guard_layout, max_dim=max_dim)
        return combined.extended_to(full, max_dim=max_dim)
    if isinstance(p, Seq):
        f1 = _semi(p.first, max_dim)
        f2 = _semi(p.second, max_dim)
        full = _check_cap(f1.layout.extended(f2.layout), max_dim)
        f1 = f1.extended_to(full, max_dim=max_dim)
        f2 = f2.extended_to(full, max_dim=max_dim)
        table = {}
        for d1 in f1.sorted_states():
            for d2 in f2.sorted_states():
                label = cs.concat(d1, d2)
                if label in table:
                    raise ContractError(f"collided classical state {cs.render(label)}")
                table[label] = f2(d2) @ f1(d1)
        return OperatorValuedFunction(full, table)
    if isinstance(p, QChoice):
        return _semi(desugar_qchoice(p), max_dim)
    raise UnsupportedConstructError(
        f"{type(p).__name__} has no semi-classical denotation; evaluate it as a channel"
    )


def denote(
    p: Program,
    *,
    tol: float = linalg.DEFAULT_TOL,
    max_dim: int = linalg.MAX_DIM_DEFAULT,
) -> SuperOperator:
    """Channel semantics of a program over its quantum-variable layout.

    Core programs go through the semi-classical denotation.  Sequencing,
    measurement, blocks and probabilistic choice compose at the channel
    level; a guarded command whose branches fall outside the core is
    rejected, as is recursion.  The channel is checked to be
    trace-nonincreasing once, on the result.
    """
    return _denote(p, tol, max_dim).validate(tol)


def _denote(p: Program, tol: float, max_dim: int) -> SuperOperator:
    if is_core(p):
        return to_superop(_semi(p, max_dim))
    if isinstance(p, QChoice):
        return _denote(desugar_qchoice(p), tol, max_dim)
    if isinstance(p, Seq):
        e1 = _denote(p.first, tol, max_dim)
        e2 = _denote(p.second, tol, max_dim)
        full = e1.layout.extended(e2.layout)
        return e1.extended_to(full, max_dim=max_dim).then(e2.extended_to(full, max_dim=max_dim))
    if isinstance(p, Measure):
        qlay = RegisterLayout(p.qvars)
        subs = [_denote(sub, tol, max_dim) for _, sub in p.branches]
        full = _joint(subs, qlay)
        ops: list[np.ndarray] = []
        for (m, _), e_sub in zip(p.branches, subs):
            e_sub = e_sub.extended_to(full, max_dim=max_dim)
            m_op = embed(p.measurement.operator(m), qlay, full, max_dim=max_dim)
            ops.extend(e @ m_op for e in e_sub.kraus)
        return SuperOperator(full, prune_zero_kraus(tuple(ops)))
    if isinstance(p, Block):
        inner = _denote(p.body, tol, max_dim)
        return block_channel(inner, RegisterLayout(p.qvars), p.init, tol=tol)
    if isinstance(p, ProbChoice):
        if len(p.weights) != len(p.branches):
            raise ArityError("probabilistic choice weight/branch count mismatch")
        subs = [_denote(b, tol, max_dim) for b in p.branches]
        full = _joint(subs)
        ops = []
        for w, e_b in zip(p.weights, subs):
            e_b = e_b.extended_to(full, max_dim=max_dim)
            root = np.sqrt(float(w))
            ops.extend(root * e for e in e_b.kraus)
        return SuperOperator(full, prune_zero_kraus(tuple(ops)))
    if isinstance(p, Guarded):
        raise UnsupportedConstructError(
            "guarded command over block/probabilistic branches has no defined semantics"
        )
    if isinstance(p, (Name, Mu)):
        raise UnsupportedConstructError(
            "recursion has no channel semantics; use a bounded unrolling"
        )
    raise UnsupportedConstructError(f"cannot evaluate {type(p).__name__}")


def block_channel(
    inner: SuperOperator,
    locals_layout: RegisterLayout,
    init,
    *,
    tol: float = linalg.DEFAULT_TOL,
) -> SuperOperator:
    """Channel of a block: initialise locals, run the body, trace them out.

    Realised as an explicit Kraus family: purify the initial state, inject
    each pure component, apply a body operator, project the locals onto a
    basis vector.  The induced channel equals initialise-apply-partial-trace.
    """
    init = linalg.as_matrix(init)
    full = inner.layout
    for name, d in locals_layout.variables:
        if name not in full:
            raise LayoutError(f"local variable {name!r} does not occur in the body")
        if full.dim_of(name) != d:
            raise LayoutError(f"local variable {name!r} dimension mismatch")
    if init.shape != (locals_layout.dim, locals_layout.dim):
        raise LayoutError(
            f"block initial state shape {init.shape} does not match locals dim {locals_layout.dim}"
        )
    outer = full.remove(locals_layout.names)
    rearranged = RegisterLayout(tuple(outer.variables) + tuple(locals_layout.variables))
    order = [full.index(name) for name in rearranged.names]
    perm = linalg.permutation_matrix(full.dims, order)
    d_out = outer.dim
    d_loc = locals_layout.dim
    vals, vecs = np.linalg.eigh((init + linalg.dagger(init)) / 2)
    if vals.min() < -tol:
        raise ContractError("block initial state is not positive semidefinite")
    i_out = linalg.identity(d_out)
    injections = []
    for val, vec in zip(vals, vecs.T):
        if val > 1e-12:
            phi = vec.reshape(d_loc, 1)
            injections.append((np.sqrt(val), linalg.dagger(perm) @ np.kron(i_out, phi)))
    extractions = [
        np.kron(i_out, linalg.dagger(linalg.basis_ket(d_loc, b))) @ perm for b in range(d_loc)
    ]
    ops = []
    for root, inj in injections:
        for e in inner.kraus:
            lifted = e @ inj
            for ext in extractions:
                ops.append(root * (ext @ lifted))
    return SuperOperator(outer, prune_zero_kraus(tuple(ops)))


def apply_program(
    p: Program,
    rho: DensityMatrix,
    *,
    tol: float = linalg.DEFAULT_TOL,
    max_dim: int = linalg.MAX_DIM_DEFAULT,
) -> DensityMatrix:
    """Evaluate a program on an input state given over at least its variables."""
    e = denote(p, tol=tol, max_dim=max_dim)
    for name, d in e.layout.variables:
        if name not in rho.layout:
            raise LayoutError(f"input state lacks program variable {name!r}")
        if rho.layout.dim_of(name) != d:
            raise LayoutError(f"input state dimension mismatch on {name!r}")
    lifted = e.extended_to(rho.layout, max_dim=max_dim)
    return DensityMatrix(lifted(rho.matrix), rho.layout)


@dataclass(eq=False)
class DilationModel:
    """System-environment form of a channel: unitary, environment state and
    projector with ``tr_env(K U (rho (x) |phi0><phi0|) U† K) = channel(rho)``."""

    env_layout: RegisterLayout
    env_state: np.ndarray
    unitary: np.ndarray
    projector: np.ndarray
    kept: int

    @property
    def env_dim(self) -> int:
        return self.env_layout.dim

    def reconstruct(self, rho: np.ndarray, system_dim: int) -> np.ndarray:
        """Apply the model to a system state; used to validate the dilation."""
        joint = np.kron(linalg.as_matrix(rho), self.env_state @ linalg.dagger(self.env_state))
        out = self.projector @ self.unitary @ joint @ linalg.dagger(self.unitary) @ self.projector
        dims = [system_dim, self.env_dim]
        return linalg.partial_trace(out, dims, [0])


def _fresh_name(base: str, taken) -> str:
    name = base
    counter = 1
    while name in taken:
        name = f"{base}{counter}"
        counter += 1
    return name


def system_environment_model(
    e: SuperOperator,
    *,
    tol: float = linalg.DEFAULT_TOL,
    max_dim: int = linalg.MAX_DIM_DEFAULT,
    env_name: str = RESERVED_PREFIX + "r",
) -> DilationModel:
    """Dilate a trace-nonincreasing channel to unitary-plus-projection form.

    The environment dimension equals the Kraus count after removing zero
    operators (reduced through the Choi matrix when above dim**2), plus one
    completion operator when the channel is strictly trace-decreasing.  A
    trace-preserving channel gets the identity projector; the zero channel
    the zero projector.  Unitary channels need no environment at all: the
    returned environment layout is empty (dimension one).
    """
    d = e.layout.dim
    ops = list(prune_zero_kraus(e.kraus))
    if len(ops) > d * d:
        ops = linalg.choi_to_kraus(e.choi(), tol)
        if len(ops) > d * d:
            raise CapacityError("channel has more Kraus operators than dim**2 after reduction")
    gram = sum((linalg.dagger(op) @ op for op in ops), np.zeros((d, d), dtype=complex))
    if not linalg.loewner_leq(gram, linalg.identity(d), tol):
        raise ContractError("dilation needs a trace-nonincreasing channel")
    kept = len(ops)
    defect = linalg.identity(d) - gram
    if linalg.max_abs_diff(defect, np.zeros_like(defect)) > tol:
        ops = ops + [linalg.psd_sqrt(defect, tol)]
    m = len(ops)
    if d * m > max_dim:
        raise CapacityError(f"dilated dimension {d * m} exceeds the cap {max_dim}")
    if m == 1:
        projector = linalg.identity(d) if kept == 1 else np.zeros((d, d), dtype=complex)
        return DilationModel(
            env_layout=RegisterLayout(),
            env_state=np.array([[1.0]], dtype=complex),
            unitary=ops[0],
            projector=projector,
            kept=kept,
        )
    isometry = np.zeros((d * m, d), dtype=complex)
    for j, op in enumerate(ops):
        isometry[j::m, :] = op
    q, _ = np.linalg.qr(isometry, mode="complete")
    unitary = np.zeros((d * m, d * m), dtype=complex)
    for s in range(d):
        unitary[:, s * m] = isometry[:, s]
    spare = iter(range(d, d * m))
    for s in range(d):
        for j in range(1, m):
            unitary[:, s * m + j] = q[:, next(spare)]
    if not linalg.is_unitary(unitary, 1e-8):
        raise ContractError("dilation unitary completion failed")
    env_proj = np.diag([1.0 if j < kept else 0.0 for j in range(m)]).astype(complex)
    projector = np.kron(linalg.identity(d), env_proj)
    env_layout = RegisterLayout.of((env_name, m))
    return DilationModel(
        env_layout=env_layout,
        env_state=linalg.basis_ket(m, 0),
        unitary=unitary,
        projector=projector,
        kept=kept,
    )


def coin_relocation_lhs_rhs(
    coin: Program,
    basis: GuardBasis,
    branches,
    *,
    tol: float = linalg.DEFAULT_TOL,
    max_dim: int = linalg.MAX_DIM_DEFAULT,
) -> tuple[Program, Program]:
    """Equivalent program pair that moves a choice's coin behind the guard.

    For a unitary coin the right-hand side guards in the back-rotated basis
    and applies the coin afterwards.  For a general coin program the channel
    is dilated: fresh local environment variables are initialised, the guard
    runs over coin-plus-environment states, branches hit by the discarded
    part of the environment abort, and the dilation unitary closes the block.
    A discarded branch keeps its program in front of the abort so both sides
    range over the same quantum variables.
    """
    branches = tuple(branches)
    coin_layout = qvar_layout(coin)
    if basis.arity != len(branches):
        raise ArityError(f"{basis.arity} guard states but {len(branches)} branches")
    if basis.dim != coin_layout.dim:
        raise LayoutError(
            f"basis dimension {basis.dim} does not match coin variables (dim {coin_layout.dim})"
        )
    lhs = QChoice(coin, basis, branches)
    coin_vars = tuple(coin_layout.variables)
    if isinstance(coin, Unitary):
        rotated = GuardBasis(linalg.dagger(coin.matrix) @ basis.matrix)
        rhs: Program = Seq(Guarded(coin_vars, rotated, branches), Unitary(coin_vars, coin.matrix))
        return lhs, rhs
    channel = denote(coin, tol=tol, max_dim=max_dim)
    taken = set(qvar_layout(lhs).names)
    dilation = system_environment_model(
        channel, tol=tol, max_dim=max_dim, env_name=_fresh_name(RESERVED_PREFIX + "r", taken)
    )
    m = dilation.env_dim

    def discarded(branch: Program) -> Program:
        return Seq(branch, Abort())

    if m == 1:
        kept_branches = (
            branches if dilation.kept == 1 else tuple(discarded(b) for b in branches)
        )
        rotated = GuardBasis(linalg.dagger(dilation.unitary) @ basis.matrix)
        rhs = Seq(
            Guarded(coin_vars, rotated, kept_branches),
            Unitary(coin_vars, dilation.unitary),
        )
        return lhs, rhs
    env_vars = tuple(dilation.env_layout.variables)
    joint_vars = coin_vars + env_vars
    lifted_basis = GuardBasis(
        linalg.dagger(dilation.unitary) @ np.kron(basis.matrix, linalg.identity(m))
    )
    rhs_branches = tuple(
        branches[i] if j < dilation.kept else discarded(branches[i])
        for i in range(len(branches))
        for j in range(m)
    )
    body = Seq(
        Guarded(joint_vars, lifted_basis, rhs_branches),
        Unitary(joint_vars, dilation.unitary),
    )
    init = dilation.env_state @ linalg.dagger(dilation.env_state)
    rhs = Block(env_vars, init, body)
    return lhs, rhs


def _binary_guard_measurement(dim: int) -> Measurement:
    head = linalg.basis_ket(dim, 0)
    p0 = head @ linalg.dagger(head)
    return Measurement(((0, p0), (1, linalg.identity(dim) - p0)))


def unroll_loop(
    u,
    coin,
    n: int,
    flavor: str,
    *,
    qvars: tuple[QVar, ...] | None = None,
    max_n: int = MAX_UNROLL_DEFAULT,
) -> Program:
    """Bounded iterations of the guarded loop over a body unitary.

    ``classical`` measures a fresh outcome variable per level (a binary
    head-versus-rest guard measurement on the loop register); ``quantum``
    tosses a fresh qubit coin per level and guards on it; ``localized``
    wraps the quantum form in a block that initialises all coins to zero.
    Fresh names carry a reserved prefix, so the loop register may not use it.
    """
    u = linalg.as_matrix(u)
    d = linalg.require_square(u)
    coin = linalg.as_matrix(coin)
    if coin.shape != (2, 2):
        raise ContractError(f"coin must be a 2x2 unitary, got shape {coin.shape}")
    if not linalg.is_unitary(u) or not linalg.is_unitary(coin):
        raise ContractError("loop body and coin must be unitary")
    if qvars is None:
        qvars = (("q", d),)
    layout = RegisterLayout(qvars)
    if layout.dim != d:
        raise LayoutError(f"loop variables have dimension {layout.dim}, body unitary {d}")
    for name, _ in qvars:
        if name.startswith(RESERVED_PREFIX):
            raise ContractError(f"variable {name!r} collides with the reserved prefix")
    if n < 0:
        raise ArityError("iteration count must be nonnegative")
    if n > max_n:
        raise CapacityError(f"iteration count {n} exceeds the bound {max_n}")
    if flavor not in ("classical", "quantum", "localized"):
        raise ContractError(f"unknown loop flavor {flavor!r}")

    if flavor == "classical":
        guard = _binary_guard_measurement(d)
        prog: Program = Abort()
        for level in range(1, n + 1):
            prog = Measure(
                f"{RESERVED_PREFIX}x{level}",
                qvars,
                guard,
                ((0, Skip()), (1, Seq(Unitary(qvars, u), prog))),
            )
        return prog

    prog = Abort()
    for level in range(1, n + 1):
        coin_var = ((f"{RESERVED_PREFIX}q{level}", 2),)
        prog = QChoice(
            Unitary(coin_var, coin),
            GuardBasis.computational(2),
            (Skip(), Seq(Unitary(qvars, u), prog)),
        )
    if flavor == "quantum" or n == 0:
        return prog
    coin_vars = tuple((f"{RESERVED_PREFIX}q{level}", 2) for level in range(1, n + 1))
    zeros = linalg.basis_ket(2**n, 0)
    return Block(coin_vars, zeros @ linalg.dagger(zeros), prog)
