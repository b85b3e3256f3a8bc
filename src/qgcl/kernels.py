"""How streaming stores and applies an operator, decided once per
operator: its form (``kernel``), a :class:`Monomial` applied as a gather, a
:class:`RealMatrix` multiplied on the float view of the state, or the
complex matrix; a guard basis's rotation (``rotation``); a guard's ``C =
sum_i |i><i| (x) A_i`` as one gather, one batched stack or per-branch
slices (``control``).  ``sandwich`` applies an operator on both sides of a
state, ``contract`` on one, and ``plan_control`` a guard's ``C``.

Each is planned (``plan_sandwich``, ``plan_contract``, ``plan_control``):
every choice is made from the arrays' shapes, strides and overlaps into
steps of data only, each ``(f, args)`` with ``f`` a function of this
module that makes only the numpy calls, run once on those arrays and
returned with their result.  ``semantics`` records the steps in a
program's plan and replays them on arrays laid out the same; the call
forms run the steps they plan once.

Every limit here was measured with numpy 2.4.6 on its OpenBLAS 0.3.31,
Haswell kernels, one thread: where a real product keeps the complex
product's bits (``REAL_KERNEL_MAX``; ``post`` a multiple of 4 in
``contract``) and where a gather over a flat index pays
(``TAKE_MIN_ENTRIES``, ``TAKE_INDEX_BYTES``).  Another BLAS build may need
other limits; ``tests/test_kernels.py`` fails where the bits move."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod

import numpy as np


@dataclass(eq=False)
class Monomial:
    """An operator with at most one nonzero entry per row and per column:
    row ``i`` holds ``scale[i]`` in column ``col[i]``, and an empty row has
    scale 0.  Permutations, diagonals, phase permutations and basis
    projectors are monomial.  ``conj`` and ``T`` mirror the ndarray ones,
    so the adjoint is the inverse permutation with the conjugated scale, in
    O(n), never a dense copy; the transpose and the conjugate are worked out
    once."""

    col: np.ndarray
    scale: np.ndarray

    @cached_property
    def unit(self) -> bool:
        """Every scale entry is 1 (a permutation): applying it is a bare gather."""
        return bool((self.scale == 1).all())

    def conj(self) -> Monomial:
        return self if self.unit else self._conj

    @cached_property
    def _conj(self) -> Monomial:
        return Monomial(self.col, self.scale.conj())

    @cached_property
    def T(self) -> Monomial:
        rows = np.flatnonzero(self.scale)
        col, scale = np.zeros_like(self.col), np.zeros_like(self.scale)
        col[self.col[rows]] = rows
        scale[self.col[rows]] = self.scale[rows]
        return Monomial(col, scale)


def monomial(op: np.ndarray) -> Monomial | None:
    """A nonempty square operator as a :class:`Monomial`, or ``None`` when a
    row or a column holds two nonzeros.  One with more than n nonzeros is
    told apart by a single count."""
    n = len(op)
    count = np.count_nonzero(op)
    if count > n or n == 0:
        return None
    hit = op != 0
    if count != np.count_nonzero(hit.any(axis=0)) or count != np.count_nonzero(hit.any(axis=1)):
        return None
    col = hit.argmax(axis=1)  # 0 in an empty row, whose entry there is 0
    return Monomial(col, op[np.arange(n), col])


@dataclass(eq=False)
class RealMatrix:
    """A dense operator whose entries are all real: ``matrix``, the complex
    operator, and ``real``, its real part as a float array.  ``real @
    x.view(float)`` is ``matrix @ x`` for a complex ``x`` whose last axis is
    contiguous, on the float view, in half the multiplications.  ``conj``
    and ``T`` mirror the ndarray ones on both, each worked out once, so the
    complex matrix is the one an ndarray operator would give."""

    matrix: np.ndarray
    real: np.ndarray

    def conj(self) -> RealMatrix:
        return self._conj

    @cached_property
    def _conj(self) -> RealMatrix:
        return RealMatrix(self.matrix.conj(), self.real)

    @cached_property
    def T(self) -> RealMatrix:
        return RealMatrix(self.matrix.T, self.real.T)


REAL_KERNEL_MAX = 128  # the largest side of a ``RealMatrix``


def kernel(op: np.ndarray):
    """A square operator as streaming applies it, decided once: a
    :class:`Monomial` where it is one (so is every 1 x 1 one, a scaling), a
    :class:`RealMatrix` where its entries are all real and its side is at
    most ``REAL_KERNEL_MAX``, else ``op`` itself.  Up to that side a real
    and a complex product sum each entry in one block, in the same order;
    from side 129 the complex product splits the sum elsewhere, and the
    last bits differ."""
    if (m := monomial(op)) is not None:
        return m
    if len(op) > REAL_KERNEL_MAX or np.count_nonzero(op.imag):
        return op
    return RealMatrix(op, op.real.copy())


def rotation(basis: np.ndarray):
    """A guard basis as the rotations into and out of it apply it: a
    :class:`RealMatrix` where ``kernel`` finds one, else ``basis``, a dense
    product even where monomial, as a gather gives some zeros the other sign."""
    k = kernel(basis)
    return k if isinstance(k, RealMatrix) else basis


def side(op, adjoint: bool):
    """``op`` or its adjoint; transposing first reuses a monomial's cached ``T``."""
    return op.T.conj() if adjoint else op


def sandwich(t: np.ndarray, names, op, site) -> np.ndarray:
    """``(L (x) I) X (L (x) I)†`` with ``L = op`` on the variables ``site``;
    ``t`` and the result are shaped ``dims + dims`` over ``names``: the
    result of ``plan_sandwich``'s steps."""
    return plan_sandwich(t, names, op, site)[1]


def plan_sandwich(t: np.ndarray, names, op, site, adjoint: bool = False) -> tuple:
    """``sandwich`` by ``L = side(op, adjoint)`` decided from ``t``'s shape
    and strides: the steps that make only the numpy calls for an array laid
    out as ``t``, each ``(f, args)`` run in order as ``t = f(t, *args)``,
    and their result on ``t``.

    A monomial ``L``, on any variables, reads ``t`` once, as one gather
    (``_gather_plan``: one ``np.take`` over a kept flat index, or a
    broadcast gather), and scales it on each side unless it is a
    permutation, left first, as ``contract`` would.  Any other ``L`` is two
    ``contract`` steps, ``L`` on the rows, then its conjugate on the
    columns.  Of a dense ``op`` the steps keep only ``op`` or its transpose,
    a view, and form a conjugate on each call, as an operator on every
    variable of the state would have one as large as the state."""
    rows = [names.index(v) for v in site]
    cols = [len(names) + a for a in rows]
    if isinstance(op, np.ndarray):  # ``L`` is ``op``, or ``op.T`` conjugated
        first, u = plan_contract(op.T if adjoint else op, t, rows, conj=adjoint)
        second, out = plan_contract(op.T if adjoint else op, u, cols, conj=not adjoint)
        return (first, second), out
    op = side(op, adjoint)
    if not (isinstance(op, Monomial) and rows):  # on no variables, ``contract`` scales ``t``
        first, u = plan_contract(op, t, rows)
        second, out = plan_contract(op, u, cols, conj=True)
        return (first, second), out
    key = (tuple(rows), t.shape, t.strides)
    plans = op.__dict__.setdefault(_PLANS, {})
    if key not in plans:
        kept = sum(index.nbytes for _, index, _ in plans.values()
                   if not isinstance(index, tuple))
        plans[key] = _gather_plan(op, rows, cols, t, TAKE_INDEX_BYTES - kept)
    shape, index, scales = plans[key]
    args = (shape, index, not isinstance(index, tuple), scales, t.shape)
    return ((_gather, args),), _gather(t, *args)


def _gather(t: np.ndarray, shape: tuple, index, flat: bool, scales: list,
            full: tuple) -> np.ndarray:
    """``plan_sandwich``'s gather: ``t`` read at ``index`` (flat, or
    broadcast over ``t`` viewed at ``shape``), then scaled in place, so no
    outer product of the scales is formed."""
    out = np.take(t, index) if flat else t.reshape(shape)[index]
    for scale in scales:
        out *= scale
    return out.reshape(full)


_PLANS = "_plans"  # the key of a monomial's gather plans in its ``__dict__``
TAKE_MIN_ENTRIES = 1 << 12  # the smallest state a gather plan reads with a flat index
TAKE_INDEX_BYTES = 1 << 20  # the most a monomial's gather plans keep in flat indices


def _gather_plan(op: Monomial, rows: list[int], cols: list[int], t: np.ndarray,
                 budget: int) -> tuple:
    """How ``sandwich`` reads ``t`` for the monomial ``op`` on the axes
    ``rows`` and its conjugate on ``cols``, each in the variables' order:
    the shape ``t`` is viewed at, the index, and the scales to multiply by,
    each shaped to broadcast over that view.

    Adjacent axes of one kind (the rows, the columns, the rest) merge into
    one axis where their strides let a view do it, so a state on exactly a
    monomial's variables, in any order, is read as one two-index gather,
    ``t2[col[:, None], col[None, :]]``.  The monomial is first put in the
    axes' order, then split at each side's merged axes.

    The index is a tuple of one array per axis of the view, each shaped to
    broadcast from its own axis on: a broadcast gather.  A contiguous ``t``
    of at least ``TAKE_MIN_ENTRIES`` entries whose flat ``intp`` index fits
    in ``budget`` bytes (what is left of ``TAKE_INDEX_BYTES`` after the
    monomial's other plans) is read instead by ``np.take`` over that index,
    shaped as the view, three to four times as fast at dimension 128.
    Below that size the broadcast gather is as fast and has no index to
    build (a program parsed once per command never reuses its plans).
    Above the budget the index alone would hold half a state for the life
    of the program, and ``np.take`` would copy an index of any narrower
    type on every call."""
    kind = [0] * t.ndim
    for a in rows:
        kind[a] = 1
    for a in cols:
        kind[a] = 2
    runs: list[list[int]] = []
    shape: list[int] = []
    for a, k in enumerate(t.shape):
        if a and kind[a] == kind[a - 1] and t.strides[a - 1] == t.strides[a] * k:
            runs[-1].append(a)
            shape[-1] *= k
        else:
            runs.append([a])
            shape.append(k)
    n = len(runs)
    index: list = [None] * n  # each shaped to broadcast from its own axis on
    for m, run in enumerate(runs):
        if not kind[run[0]]:
            index[m] = np.arange(shape[m]).reshape((-1,) + (1,) * (n - m - 1))
    src, scale, order = op.col, op.scale, sorted(rows)
    if rows != order:  # ``flat`` sends an index in axis order to ``op``'s own, ``back`` returns it
        flat = np.arange(len(src)).reshape([t.shape[a] for a in rows])
        flat = flat.transpose([rows.index(a) for a in order]).ravel()
        back = np.empty_like(flat)
        back[flat] = np.arange(len(flat))
        src, scale = back[src[flat]], scale[flat]
    scales = []
    for k in (1, 2):
        at = [m for m in range(n) if kind[runs[m][0]] == k]
        srcs = np.unravel_index(src, [shape[m] for m in at]) if len(at) > 1 else (src,)
        spread = [shape[m] if m in at else 1 for m in range(at[0], n)]
        for m, part in zip(at, srcs):
            index[m] = part.reshape(spread)
        if not op.unit:
            scales.append((scale if k == 1 else scale.conj()).reshape(spread))
    size = prod(shape)
    if (t.flags.c_contiguous and TAKE_MIN_ENTRIES <= size
            and size * np.dtype(np.intp).itemsize <= budget):
        flat, step = index[-1], shape[-1]
        for m in range(n - 2, -1, -1):
            flat = flat + index[m] * step
            step *= shape[m]
        return shape, flat.astype(np.intp, copy=False), scales
    return shape, tuple(index), scales


def control(branches: list, data):
    """A guard's ``C = sum_i |i><i| (x) A_i`` as streaming multiplies by it,
    from each branch's ``(A_i, layout)`` and the guard's data layout (the
    branches' joint variables, in the guard's order).  ``C`` is

    - one :class:`Monomial` on the guard's variables then the data's when
      every ``A_i`` is monomial (``_guard_monomial``);
    - one ``(k, s, s)`` stack when every ``A_i`` is dense on all the data
      variables, each put in the data layout's order;
    - else a list with, per branch, ``A_i`` and the axes it acts on: such
      a dense ``A_i`` with ``None``, a scalar (a branch on no variables:
      ``skip``, ``abort``) with none, or ``A_i``'s kernel with the axes of
      its variables among the data's.

    No ``A_i`` is made dense or extended to variables it does not act on."""
    from . import registers  # which imports ``linalg``, which imports this module
    kernels = [kernel(a) for a, _ in branches]
    if all(isinstance(k, Monomial) for k in kernels):
        return _guard_monomial([lay for _, lay in branches], kernels, data)
    c = []
    for (a, lay), k in zip(branches, kernels):
        if len(a) == 1:
            c.append((a[0, 0], ()))
        elif not isinstance(k, Monomial) and len(lay.names) == len(data.names):
            c.append((registers.embed(a, lay, data, max_dim=data.dim), None))
        else:
            c.append((k, [data.names.index(v) for v in lay.names]))
    if all(at is None for _, at in c):
        c = np.stack([a for a, _ in c])
    return c


def _guard_monomial(layouts: list, kernels: list, data) -> Monomial:
    """``C`` when every ``A_i`` is monomial: a permutation, phase permutation
    or diagonal on any of the data variables, or a branch on none, ``skip``
    (``I``) or ``abort`` (``0``).  Each ``A_i``, on ``layouts[i]``, is
    extended to the data layout by index arithmetic: a joint index's
    coordinates on the branch's variables are sent where ``A_i`` sends
    them, the others kept."""
    n = data.dim
    grid = np.indices(data.dims).reshape(len(data.dims), n)  # each joint index's coordinates
    cols, scales = [], []
    for i, (lay, k) in enumerate(zip(layouts, kernels)):
        at, sub = [data.names.index(v) for v in lay.names], lay.dims
        if at:
            rows = np.ravel_multi_index(grid[at], sub)
            src = grid.copy()
            src[at] = np.unravel_index(k.col[rows], sub)
            col = np.ravel_multi_index(src, data.dims)
        else:  # ``skip`` or ``abort``: its scalar times ``I``
            rows, col = np.zeros(n, dtype=int), np.arange(n)
        cols.append(i * n + col)
        scales.append(k.scale[rows])
    return Monomial(np.concatenate(cols), np.concatenate(scales))


def plan_control(c, t: np.ndarray, names, site, own: int, adjoint: bool) -> tuple:
    """``C X C†`` (``C† X C`` for the adjoint) for a guard's ``C``
    (``control``) on the variables ``site`` of ``t``, decided from ``t``'s
    shape and strides: its steps, as ``plan_sandwich``'s, and their result
    on ``t``.  The first ``own`` of ``site`` are the guard's variables,
    indexing ``i``, the rest its data variables.  A monomial ``C`` is one
    gather (``plan_sandwich``).  Otherwise the rows take ``C`` and then the
    columns its conjugate (so the adjoint's right side is a transpose, not
    a copy), each side's axes brought to the front and ``t`` read as ``(k,
    s, rest)``: a stack is one batched product; else each ``A_i`` writes
    its slice of the output, a dense one by a product, a scalar by scaling,
    and any other on its own axes (``contract``, straight into the slice).
    The right side of a list overwrites the left side's result, slice by
    slice.  A dense ``A_i``'s conjugate is formed on each call."""
    if isinstance(c, Monomial):
        return plan_sandwich(t, names, c, site, adjoint)
    rows = [names.index(v) for v in site]
    data = tuple(t.shape[a] for a in rows[own:])
    steps = []
    for right in (False, True):
        axes = [len(names) * right + a for a in rows]
        order = tuple(axes + [a for a in range(t.ndim) if a not in axes])
        step, t = _control_side(c, t, order, (len(c), prod(data), -1), data, adjoint, right)
        steps.append(step)
    return tuple(steps), t


def _control_side(c, t: np.ndarray, order: tuple, shape3: tuple, data: tuple, adjoint: bool,
                  right: bool) -> tuple:
    """One side of ``plan_control``, its step and its result on ``t``: ``C``
    on the rows, or its conjugate on the columns, with ``order`` bringing
    them to the front.  Each branch's product is decided from its slices of
    ``t`` and of the output, and run on them."""
    moved_shape = tuple(t.shape[a] for a in order)
    back = tuple(sorted(range(t.ndim), key=order.__getitem__))
    if isinstance(c, np.ndarray):
        args = (c.transpose(0, 2, 1) if adjoint else c, adjoint != right, order, shape3,
                moved_shape, back)
        return (_stacked, args), _stacked(t, *args)
    t3 = t.transpose(order).reshape(shape3)
    out = t3 if right else np.empty_like(t3)
    products = tuple(_branch_product(a, at, x, y, data, adjoint, right)
                     for x, y, (a, at) in zip(t3, out, c))
    return ((_sliced, (products, right, order, shape3, moved_shape, back)),
            out.reshape(moved_shape).transpose(back))


def _stacked(t: np.ndarray, a: np.ndarray, conj: bool, order: tuple, shape3: tuple,
             moved_shape: tuple, back: tuple) -> np.ndarray:
    """A stack's side of ``C``: one batched product, by its conjugate with ``conj``."""
    t3 = t.transpose(order).reshape(shape3)
    return ((a.conj() if conj else a) @ t3).reshape(moved_shape).transpose(back)


def _sliced(t: np.ndarray, products: tuple, right: bool, order: tuple, shape3: tuple,
            moved_shape: tuple, back: tuple) -> np.ndarray:
    """A list's side of ``C``: each branch's product, ``(f, args)``, from
    its slice ``x`` of ``t`` into its slice ``y`` of the output, as ``f(x,
    y, *args)``; on the right side the output is ``t`` itself."""
    t3 = t.transpose(order).reshape(shape3)
    out = t3 if right else np.empty_like(t3)
    for (f, args), x, y in zip(products, t3, out):
        f(x, y, *args)
    return out.reshape(moved_shape).transpose(back)


def _branch_product(a, at, x: np.ndarray, y: np.ndarray, data: tuple, adjoint: bool,
                    right: bool) -> tuple:
    """Branch ``i``'s product on one side of ``C``, ``A_i`` (its adjoint,
    and on the columns conjugated) from ``x`` into ``y``, as ``(f, args)``,
    run once."""
    a = a.T if adjoint else a
    conj = adjoint != right
    if at:
        shape = data + (-1,)
        return _contracted, (shape, plan_contract(a, x.reshape(shape), at, y.reshape(shape),
                                                  conj)[0][1])
    if at is None:  # on the right, ``y`` is ``x``
        f, args = (_buffered if right else _multiplied), (a, conj)
    else:
        f, args = _scaled, (a.conj() if conj else a,)
    f(x, y, *args)
    return f, args


def _multiplied(x: np.ndarray, y: np.ndarray, a: np.ndarray, conj: bool) -> None:
    """A dense branch on the left side: one product straight into ``y``."""
    np.matmul(a.conj() if conj else a, x, out=y)


def _buffered(x: np.ndarray, y: np.ndarray, a: np.ndarray, conj: bool) -> None:
    """A dense branch on the right side, where ``y`` is ``x``: the product
    goes to a buffer laid out as ``x``, as ``np.empty_like(t3)`` lays out
    the left side's ``y``, so matmul takes the same BLAS call (``a @ x`` can
    give other bits), and is copied back."""
    y[...] = np.matmul(a.conj() if conj else a, x, out=np.empty_like(x))


def _contracted(x: np.ndarray, y: np.ndarray, shape: tuple, args: tuple) -> None:
    """A branch on some of the data variables: ``contract`` on its axes of
    ``x`` and ``y`` read at ``shape``."""
    _contract(x.reshape(shape), *args, out=y.reshape(shape))


def _scaled(x: np.ndarray, y: np.ndarray, a) -> None:
    """A branch on no variables (``skip``, ``abort``): its scalar."""
    np.multiply(x, a, out=y)


def contract(op, t: np.ndarray, axes: list[int], out: np.ndarray | None = None) -> np.ndarray:
    """Apply ``op`` to the tensor factors of ``t`` at ``axes``, in order,
    into ``out`` when it is given (shaped as ``t``, and may be ``t``): the
    result of ``plan_contract``'s step."""
    return plan_contract(op, t, axes, out)[1]


def plan_contract(op, t: np.ndarray, axes: list[int], out: np.ndarray | None = None,
                  conj: bool = False) -> tuple:
    """``contract`` by ``op``, or with ``conj`` its conjugate, decided from
    the shapes and strides of ``t`` and ``out``: a step, ``(_contract,
    args)``, run as ``_contract(t, *args, out=out)`` for arrays laid out as
    these, and its result on them, computed on the views the step was
    decided from."""
    args, t3, into = _contract_plan(op, t, axes, out, conj)
    product, pargs, _, _, moved_shape, back, direct = args
    return (_contract, args), _placed(product(t3, into, *pargs), moved_shape, back, direct, out)


def _contract_plan(op, t: np.ndarray, axes: list[int], out: np.ndarray | None,
                   conj: bool) -> tuple:
    """What ``_contract`` runs with for ``plan_contract``, and the views of
    ``t`` and ``out`` it read them from, ``t3`` and ``into`` (``None``
    unless the product goes straight into ``out``).  A dense ``op``'s
    conjugate is formed on each call, as ``op.conj()``; a monomial's or a
    real operator's is worked out once, on it.

    The axes are brought together, in order, where the first of them is (a
    view: no transpose at all when they already are together), and ``t`` is
    read as ``(pre, k, post)``.  A :class:`Monomial` gathers the middle
    axis (by ``np.take`` into ``out``, for a contiguous ``t3``), then scales
    it unless it is a permutation; a dense ``op`` is one broadcast matmul,
    ``op @ t3``, or ``t3[:, :, 0] @ op.T`` when ``post`` is 1.  A
    :class:`RealMatrix` is ``op.real @ t3`` on the float view of ``t3``
    when ``post`` is a multiple of 4: the complex product's bits, signed
    zeros included, in half the multiplications.  On a remainder of
    ``post`` OpenBLAS's complex kernels give some exact zeros the other
    sign.  No axes (a 1 x 1 ``op``) is ``k = 1``.  The product is written
    straight into ``out`` where ``out``, read as ``t3``, is a view laid out
    as ``t3`` apart from it, so every product sees the operands it would
    see alone; else it is copied in."""
    if conj and not isinstance(op, np.ndarray):
        op, conj = op.conj(), False
    rest = [a for a in range(t.ndim) if a not in axes]
    lead = sum(a < axes[0] for a in rest) if axes else 0
    order = tuple(rest[:lead] + axes + rest[lead:])
    moved = t.transpose(order)
    t3 = moved.reshape(prod(moved.shape[:lead]), -1, prod(moved.shape[lead + len(axes):]))
    into = None if out is None else out.transpose(order).reshape(t3.shape)
    if into is not None and (
            into.strides != t3.strides or not np.may_share_memory(into, out)
            or np.may_share_memory(into, t3)  # np.take would copy a ``t3``
            or isinstance(op, Monomial) and not t3.flags.c_contiguous):
        into = None
    if isinstance(op, Monomial):
        product, pargs = _gathered, (op.col, None if op.unit else op.scale[:, None])
    elif isinstance(op, RealMatrix) and t3.shape[2] % 4 == 0 and t3.strides[2] == t3.itemsize:
        product, pargs = _real, (op.real,)
    else:
        product = _columns if t3.shape[2] == 1 else _dense
        pargs = op.matrix if isinstance(op, RealMatrix) else op, conj
    return (product, pargs, order, t3.shape, moved.shape,
            tuple(sorted(range(t.ndim), key=order.__getitem__)), into is not None), t3, into


def _contract(t: np.ndarray, product, pargs: tuple, order: tuple, shape3: tuple,
              moved_shape: tuple, back: tuple, direct: bool,
              out: np.ndarray | None = None) -> np.ndarray:
    """``plan_contract``'s step: ``t`` read as ``t3``, ``product(t3, into,
    *pargs)`` on it, written straight into ``out`` where ``direct``, else
    copied in."""
    into = out.transpose(order).reshape(shape3) if direct else None
    return _placed(product(t.transpose(order).reshape(shape3), into, *pargs), moved_shape, back,
                   direct, out)


def _placed(got: np.ndarray, moved_shape: tuple, back: tuple, direct: bool,
            out: np.ndarray | None) -> np.ndarray:
    """A product read as ``t3`` brought back to ``t``'s axes, and copied
    into ``out`` where it is given and the product did not go there."""
    got = got.reshape(moved_shape).transpose(back)
    if out is None:
        return got
    if not direct:
        out[...] = got
    return out


def _gathered(t3: np.ndarray, into: np.ndarray | None, col: np.ndarray, scale) -> np.ndarray:
    """A monomial: the middle axis gathered ("clip" buffers no ``into``), then scaled."""
    got = t3[:, col] if into is None else np.take(t3, col, axis=1, out=into, mode="clip")
    if scale is not None:
        got *= scale
    return got


def _real(t3: np.ndarray, into: np.ndarray | None, r: np.ndarray) -> np.ndarray:
    """A :class:`RealMatrix`: its real part on the float view of ``t3``."""
    if into is None:
        return (r @ t3.view(float)).view(complex)
    return np.matmul(r, t3.view(float), out=into.view(float)).view(complex)


def _dense(t3: np.ndarray, into: np.ndarray | None, m: np.ndarray, conj: bool) -> np.ndarray:
    """A dense operator: one broadcast matmul."""
    m = m.conj() if conj else m
    if into is None:
        return m @ t3
    return np.matmul(m, t3, out=into)


def _columns(t3: np.ndarray, into: np.ndarray | None, m: np.ndarray, conj: bool) -> np.ndarray:
    """A dense operator on ``t3`` with ``post`` 1: ``t3[:, :, 0] @ m.T``."""
    m = m.conj() if conj else m
    if into is None:
        return t3[:, :, 0] @ m.T
    return np.matmul(t3[:, :, 0], m.T, out=into[:, :, 0])
