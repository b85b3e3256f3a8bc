"""JSON wire format for matrices, density operators and observables.

A matrix record has fields ``rows``, ``cols`` and ``entries``; entries are
``[re, im]`` pairs in row-major order.  Density and observable records add a
``layout`` field listing ``[name, dim]`` pairs.  Scientific notation is
accepted anywhere JSON numbers are.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from . import linalg
from .errors import ShapeError
from .registers import DensityMatrix, Observable, RegisterLayout


def matrix_to_record(m: np.ndarray) -> dict[str, Any]:
    m = linalg.as_matrix(m)
    entries = [[float(v.real), float(v.imag)] for v in m.reshape(-1)]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "entries": entries}


def matrix_from_record(record: Any) -> np.ndarray:
    if not isinstance(record, dict):
        raise ShapeError("matrix record must be a JSON object")
    try:
        rows = int(record["rows"])
        cols = int(record["cols"])
        entries = record["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ShapeError(f"malformed matrix record: {exc}") from exc
    if rows <= 0 or cols <= 0:
        raise ShapeError(f"matrix dimensions must be positive, got {rows}x{cols}")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise ShapeError(
            f"matrix record needs {rows * cols} entries, got {len(entries) if isinstance(entries, list) else 'non-list'}"
        )
    values = []
    for e in entries:
        if not isinstance(e, list) or len(e) != 2:
            raise ShapeError("matrix entries must be [re, im] pairs")
        values.append(complex(float(e[0]), float(e[1])))
    m = np.array(values, dtype=complex).reshape(rows, cols)
    return linalg.as_matrix(m)


def layout_to_record(layout: RegisterLayout) -> list[list]:
    return [[name, int(d)] for name, d in layout.variables]


def layout_from_record(record: Any) -> RegisterLayout:
    if not isinstance(record, list):
        raise ShapeError("layout record must be a JSON list of [name, dim] pairs")
    pairs = []
    for item in record:
        if not isinstance(item, list) or len(item) != 2:
            raise ShapeError("layout entries must be [name, dim] pairs")
        pairs.append((str(item[0]), int(item[1])))
    return RegisterLayout(tuple(pairs))


def density_to_record(dm: DensityMatrix) -> dict[str, Any]:
    record = matrix_to_record(dm.matrix)
    record["layout"] = layout_to_record(dm.layout)
    return record


def density_from_record(record: Any, tol: float = linalg.DEFAULT_TOL) -> DensityMatrix:
    if not isinstance(record, dict) or "layout" not in record:
        raise ShapeError("density record needs a 'layout' field")
    layout = layout_from_record(record["layout"])
    dm = DensityMatrix(matrix_from_record(record), layout)
    dm.validate(tol)
    return dm


def observable_to_record(obs: Observable) -> dict[str, Any]:
    record = matrix_to_record(obs.matrix)
    record["layout"] = layout_to_record(obs.layout)
    return record


def observable_from_record(record: Any, tol: float = linalg.DEFAULT_TOL) -> Observable:
    if not isinstance(record, dict) or "layout" not in record:
        raise ShapeError("observable record needs a 'layout' field")
    layout = layout_from_record(record["layout"])
    obs = Observable(matrix_from_record(record), layout)
    obs.validate(tol)
    return obs


def dumps(record: Any) -> str:
    """Deterministic JSON rendering used for all file output."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def load_file(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_definitions(path: str) -> dict[str, np.ndarray]:
    """Named matrix definitions: a JSON object mapping names to records."""
    data = load_file(path)
    if not isinstance(data, dict):
        raise ShapeError("definition file must map names to matrix records")
    return {str(name): matrix_from_record(rec) for name, rec in data.items()}
