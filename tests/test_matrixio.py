import json
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgcl import matrixio
from qgcl.errors import ShapeError
from qgcl.matrixio import layout_from_record, matrix_from_record, matrix_to_record
from qgcl.registers import DensityMatrix, Observable, RegisterLayout


def test_records_match_the_per_entry_conversion():
    gen = np.random.default_rng(0)
    m = gen.normal(size=(3, 4)) + 1j * gen.normal(size=(3, 4))
    m[0, 0], m[1, 1] = -0.0, complex(1e-300, -0.0)
    record = matrix_to_record(m)
    assert record["entries"] == [[float(v.real), float(v.imag)] for v in m.reshape(-1)]
    back = matrix_from_record(record)
    reference = np.array([complex(float(re), float(im)) for re, im in record["entries"]]).reshape(3, 4)
    assert back.tobytes() == reference.tobytes()
    ints = matrix_from_record({"rows": 1, "cols": 2, "entries": [[1, 0], [0, -2]]})
    assert ints.tobytes() == np.array([[complex(1, 0), complex(0, -2)]]).tobytes()


@pytest.mark.parametrize(
    "change",
    [
        {"entries": [[None, 0], [1, 0]]},
        {"entries": [["1", 0], [1, 0]]},
        {"entries": [[1, 0, 0], [1, 0]]},
        {"entries": [[1, 0], [1]]},
        {"entries": [[[1], [0]], [[1], [0]]]},
        {"rows": 1.0},
        {"rows": True},
        {"cols": "2"},
        {"cols": None},
        {"entries": [[True, 0.5], [0, 0]]},
        {"entries": [[1, 0], [0, False]]},
    ],
)
def test_malformed_matrix_records_raise_shape_error(change):
    with pytest.raises(ShapeError):
        matrix_from_record({"rows": 1, "cols": 2, "entries": [[1, 0], [0, 0]], **change})


@pytest.mark.parametrize("dim", [None, 2.7, 2.0, True, "2"])
def test_layout_dimension_must_be_an_integer(dim):
    with pytest.raises(ShapeError):
        layout_from_record([["q", dim]])


@pytest.mark.parametrize("kind", ["density", "observable"])
def test_layout_records_name_their_kind(kind):
    read, write = (getattr(matrixio, f"{kind}_{way}_record") for way in ("from", "to"))
    record = matrix_to_record(np.eye(2) / 2)
    with pytest.raises(ShapeError, match=f"^{kind} record needs a 'layout' field$"):
        read(record)
    with pytest.raises(ShapeError, match=f"^{kind} record needs a 'layout' field$"):
        read([record])
    record["layout"] = [["q", 2]]
    x = read(record)
    assert type(x) is {"density": DensityMatrix, "observable": Observable}[kind]
    assert x.layout == RegisterLayout.of(("q", 2)) and write(x) == record


def nested_from_record(record):
    """The decoder that built the array with ``np.array`` on the nested
    ``[re, im]`` lists, then scanned the parts for bools: the reference
    for what ``matrix_from_record`` accepts and returns."""
    if not isinstance(record, dict):
        raise ShapeError("matrix record must be a JSON object")
    try:
        rows, cols, entries = record["rows"], record["cols"], record["entries"]
    except KeyError as exc:
        raise ShapeError(f"malformed matrix record: {exc}") from exc
    for value, what in ((rows, "rows"), (cols, "cols")):
        if type(value) is not int:
            raise ShapeError(f"{what} must be a JSON integer, got {value!r:.40}")
    if rows <= 0 or cols <= 0:
        raise ShapeError(f"matrix dimensions must be positive, got {rows}x{cols}")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise ShapeError(
            f"matrix record needs {rows * cols} entries, got {len(entries) if isinstance(entries, list) else 'non-list'}"
        )
    try:
        values = np.array(entries)
    except ValueError:
        values = None
    if (values is None or values.dtype.kind not in "iuf" or values.shape != (rows * cols, 2)
            or bool in set(map(type, chain.from_iterable(entries)))):
        raise ShapeError("matrix entries must be [re, im] pairs of numbers")
    m = values.astype(float, copy=False).view(complex).reshape(rows, cols)
    if not np.isfinite(m).all():
        raise ShapeError("matrix has non-finite entries")
    return m


def outcome(decode, record):
    try:
        m = decode(record)
    except ShapeError as exc:
        return "rejected", str(exc)
    return "accepted", m.shape, m.tobytes()


PARTS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.integers(-5, 5),
    st.integers(2**63 - 2, 2**65), st.integers(-2**65, -2**63 + 1), st.booleans(), st.none(),
    st.text(max_size=2),
)
ENTRIES = st.one_of(
    st.lists(st.floats(-1e3, 1e3) | st.integers(-9, 9), min_size=2, max_size=2),  # well formed
    st.lists(PARTS, min_size=2, max_size=2),
    st.lists(st.floats() | st.integers(2**63 - 2, 2**65), min_size=2, max_size=2),
    st.sampled_from([[float("nan"), 0], [0.5, float("inf")], [-float("inf"), 2**63]]),
    st.lists(PARTS, max_size=3),  # ragged
    st.lists(st.lists(st.integers(0, 3), max_size=2), min_size=2, max_size=2),  # nested
    PARTS,
)


PAIRS = st.lists(st.floats(-1e3, 1e3) | st.integers(-9, 9), min_size=2, max_size=2)


@given(st.integers(1, 3), st.integers(1, 3), st.sampled_from([0, 0, 0, -1, 1]), st.booleans(),
       st.data())
@settings(max_examples=300, deadline=None)
def test_decoder_agrees_with_the_nested_array_decoder(rows, cols, extra, mixed, data):
    # well-formed pairs, or entries of every kind; then perhaps one odd entry
    count = rows * cols + extra
    entries = data.draw(st.lists(ENTRIES if mixed else PAIRS, min_size=count, max_size=count))
    if entries and data.draw(st.booleans()):
        entries[data.draw(st.integers(0, len(entries) - 1))] = data.draw(ENTRIES)
    # through JSON and back, NaN and Infinity tokens and big ints included
    record = json.loads(json.dumps({"rows": rows, "cols": cols, "entries": entries}))
    expect = outcome(nested_from_record, record)
    assert outcome(matrix_from_record, record) == expect
    if expect[0] == "accepted":
        m = matrix_from_record(record)
        nested = np.stack([m.real, m.imag], axis=-1).reshape(-1, 2).tolist()
        assert matrix_to_record(m)["entries"] == nested
        assert matrixio.dumps(matrix_to_record(m)) == json.dumps(
            {"cols": cols, "entries": nested, "rows": rows}, sort_keys=True,
            separators=(",", ":")) + "\n"
