"""JSON wire format for matrices, density operators and observables.

A matrix record has fields ``rows``, ``cols`` and ``entries``; entries are
``[re, im]`` pairs in row-major order.  Density and observable records add a
``layout`` field listing ``[name, dim]`` pairs.  Scientific notation is
accepted anywhere JSON numbers are.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from functools import partial
from itertools import chain
from typing import Any

import numpy as np

from . import linalg
from .errors import ShapeError
from .registers import DensityMatrix, Observable, RegisterLayout


def matrix_to_record(m: np.ndarray) -> dict[str, Any]:
    m = np.ascontiguousarray(linalg.as_matrix(m))
    entries = m.view(float).reshape(-1, 2).tolist()
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "entries": entries}


def _count(value: Any, what: str) -> int:
    # bool is an int subclass, but JSON true is not a count
    if type(value) is not int:
        raise ShapeError(f"{what} must be a JSON integer, got {value!r:.40}")
    return value


def matrix_from_record(record: Any) -> np.ndarray:
    return linalg.as_matrix(_decode(record))


def _decode(record: Any) -> np.ndarray:
    """The record's matrix as a fresh ``(rows, cols)`` complex array of its
    own, its entries not yet checked for finiteness.

    The ``[re, im]`` pairs are read in one flat pass: numpy gives the parts
    the dtype it gives the nested pairs, since it promotes number by number
    (so an int beyond uint64 is an object, as there), but it reads a JSON
    true/false among numbers as 1/0, so the parts' types are scanned too."""
    if not isinstance(record, dict):
        raise ShapeError("matrix record must be a JSON object")
    try:
        rows = _count(record["rows"], "rows")
        cols = _count(record["cols"], "cols")
        entries = record["entries"]
    except KeyError as exc:
        raise ShapeError(f"malformed matrix record: {exc}") from exc
    if rows <= 0 or cols <= 0:
        raise ShapeError(f"matrix dimensions must be positive, got {rows}x{cols}")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise ShapeError(
            f"matrix record needs {rows * cols} entries, got {len(entries) if isinstance(entries, list) else 'non-list'}"
        )
    pairs = set(map(type, entries)) <= {list, tuple} and set(map(len, entries)) == {2}
    parts = list(chain.from_iterable(entries)) if pairs else [None]
    try:
        values = np.array(parts)
    except ValueError:  # a part that is itself a ragged list
        values = None
    if (values is None or values.dtype.kind not in "iuf" or values.ndim != 1
            or bool in set(map(type, parts))):
        raise ShapeError("matrix entries must be [re, im] pairs of numbers")
    m = np.empty((rows, cols), dtype=complex)
    m.view(float).reshape(-1)[:] = values
    return m


def layout_to_record(layout: RegisterLayout) -> list[list]:
    return [[name, int(d)] for name, d in layout.variables]


def layout_from_record(record: Any) -> RegisterLayout:
    if not isinstance(record, list):
        raise ShapeError("layout record must be a JSON list of [name, dim] pairs")
    pairs = []
    for item in record:
        if not isinstance(item, list) or len(item) != 2:
            raise ShapeError("layout entries must be [name, dim] pairs")
        pairs.append((str(item[0]), _count(item[1], "layout dimension")))
    return RegisterLayout(tuple(pairs))


def to_record(x: DensityMatrix | Observable) -> dict[str, Any]:
    """A density or observable as its matrix record plus ``layout``."""
    record = matrix_to_record(x.matrix)
    record["layout"] = layout_to_record(x.layout)
    return record


def from_record(kind: type[DensityMatrix] | type[Observable], record: Any,
                tol: float = linalg.DEFAULT_TOL) -> DensityMatrix | Observable:
    """The ``kind`` read from its record and validated within ``tol``."""
    if not isinstance(record, dict) or "layout" not in record:
        raise ShapeError(f"{kind.kind} record needs a 'layout' field")
    layout = layout_from_record(record["layout"])
    matrix = _decode(record)
    matrix.flags.writeable = False  # sealed: ``validate`` passes it once per ``tol``
    x = kind(matrix, layout)
    x.validate(tol)
    return x


density_to_record = observable_to_record = to_record
density_from_record = partial(from_record, DensityMatrix)
observable_from_record = partial(from_record, Observable)


@contextmanager
def _gc_paused():
    """CPython's cyclic collector off for the block, and on again after it
    if it was on (it is process-wide).  A record's ``[re, im]`` pairs are one
    list each, 16,384 at dimension 128: trees, which reference counting
    frees, but every few hundred would start a collector pass.  The block
    spans both the building and the release of the lists; a pass postponed
    while they live runs as soon as the collector is back on."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def render(record: Any) -> str:
    """Deterministic JSON text of a record, as in files and printed source."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"), check_circular=False)


def dumps(record: Any) -> str:
    """A record's file text: ``render`` plus a newline."""
    return render(record) + "\n"


def load_file(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_definitions(path: str) -> dict[str, np.ndarray]:
    """Named matrix definitions: a JSON object mapping names to records."""
    with _gc_paused():
        return _definitions(load_file(path))


def _definitions(data: Any) -> dict[str, np.ndarray]:
    if not isinstance(data, dict):
        raise ShapeError("definition file must map names to matrix records")
    return {str(name): matrix_from_record(rec) for name, rec in data.items()}
