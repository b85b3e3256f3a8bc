import numpy as np
import pytest

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
