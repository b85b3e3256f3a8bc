import gc
import json
import os
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from qgcl import kernels, linalg as la, matrixio, semantics
from qgcl.cli import main
from qgcl.errors import ShapeError
from qgcl.parser import parse_file
from qgcl.program import Guarded
from qgcl.registers import DensityMatrix, RegisterLayout
from qgcl.sampling import random_density, random_unitary, rng

SAMPLES = os.path.join(os.path.dirname(__file__), "..", "samples")


def run_cli(*argv):
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def sample(name):
    return os.path.join(SAMPLES, name)


def write(path, text):
    path.write_text(text)
    return str(path)


PRELUDE = 'qvar q : 2;\nmatrix H = {"rows":2,"cols":2,"entries":[[0.7071067811865476,0],[0.7071067811865476,0],[0.7071067811865476,0],[-0.7071067811865476,0]]};\n'


class TestCheck:
    def test_ok(self, capsys):
        assert run_cli("check", sample("walk_step.qgcl")) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_diagnostics_exit_one(self, tmp_path, capsys):
        path = write(tmp_path / "bad.qgcl", PRELUDE + "H[q]; H[w]")
        assert run_cli("check", path) == 1
        out, err = capsys.readouterr()
        assert "undeclared-variable" in out and err == ""

    def test_missing_file_exit_66(self):
        assert run_cli("check", "no-such-file.qgcl") == 66

    def test_usage_error_exit_64(self):
        assert run_cli("frobnicate") == 64
        assert run_cli() == 64


class TestRun:
    def test_skip_returns_input(self, tmp_path, capsys):
        prog = write(tmp_path / "skip.qgcl", "qvar q1 : 2;\nskip")
        assert run_cli("run", prog, "--input", sample("bb84_input.json")) == 0
        record = json.loads(capsys.readouterr().out)
        with open(sample("bb84_input.json")) as fh:
            original = json.load(fh)
        assert record == original

    def test_walk_step_against_direct_oracle(self, tmp_path):
        out = str(tmp_path / "out.json")
        assert run_cli(
            "run", sample("walk_step.qgcl"), "--input", sample("walk_input.json"),
            "--out", out,
        ) == 0
        with open(out) as fh:
            record = json.load(fh)
        assert record["layout"] == [["v", 4], ["c", 2]]
        got = np.array([complex(re, im) for re, im in record["entries"]]).reshape(8, 8)
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        tr = np.roll(np.eye(4), 1, axis=0)
        tl = np.roll(np.eye(4), -1, axis=0)
        shift = np.kron(tr, np.diag([1.0, 0.0])) + np.kron(tl, np.diag([0.0, 1.0]))
        step = shift @ np.kron(np.eye(4), h)
        rho = np.kron(np.diag([1.0, 0, 0, 0]), np.full((2, 2), 0.5))
        expect = step @ rho @ step.conj().T
        assert la.max_abs_diff(got, expect) < 1e-10

    def test_output_deterministic(self, tmp_path):
        out1 = str(tmp_path / "a.json")
        out2 = str(tmp_path / "b.json")
        for out in (out1, out2):
            assert run_cli("run", sample("bb84.qgcl"), "--input",
                           sample("bb84_input.json"), "--out", out) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_malformed_state_exit_66(self, tmp_path):
        bad = write(tmp_path / "bad.json", '{"rows": 2}')
        assert run_cli("run", sample("bb84.qgcl"), "--input", bad) == 66


class TestWp:
    def test_duality_against_run(self, tmp_path, capsys):
        assert run_cli("wp", sample("bb84.qgcl"), "--observable",
                       sample("observable_p0.json")) == 0
        wp_record = json.loads(capsys.readouterr().out)
        wp_matrix = np.array(
            [complex(re, im) for re, im in wp_record["entries"]]
        ).reshape(2, 2)
        assert run_cli("run", sample("bb84.qgcl"), "--input",
                       sample("bb84_input.json")) == 0
        out_record = json.loads(capsys.readouterr().out)
        out_matrix = np.array(
            [complex(re, im) for re, im in out_record["entries"]]
        ).reshape(2, 2)
        with open(sample("bb84_input.json")) as fh:
            rho_record = json.load(fh)
        rho = np.array([complex(re, im) for re, im in rho_record["entries"]]).reshape(2, 2)
        with open(sample("observable_p0.json")) as fh:
            obs_record = json.load(fh)
        obs = np.array([complex(re, im) for re, im in obs_record["entries"]]).reshape(2, 2)
        assert abs(np.trace(wp_matrix @ rho) - np.trace(obs @ out_matrix)) < 1e-9


def test_coin_relocation_samples_agree_on_states(tmp_path):
    """``run`` and ``wp`` of the coin-relocation pair agree within 1e-12.
    Both guards stream as one monomial in their basis: the choice's mixes
    a permutation (X) with phases (Z), the relocated one's is rotated."""
    names = ("coin_qchoice.qgcl", "coin_relocated.qgcl")
    choice, relocated = (parse_file(sample(name)) for name in names)
    for guard in (choice.seq.parts[-1], relocated.parts[0]):  # the choice's coin, then guard
        assert isinstance(guard, Guarded)
        assert isinstance(semantics._control(guard, la.MAX_DIM_DEFAULT)[0], kernels.Monomial)
    for command, flag, data in (("run", "--input", "coin_input.json"),
                                ("wp", "--observable", "coin_observable.json")):
        records = []
        for name in names:
            out = tmp_path / f"{name}.{command}.json"
            assert run_cli(command, sample(name), flag, sample(data), "--out", str(out)) == 0
            records.append(json.loads(out.read_text()))
        a, b = records
        assert a["layout"] == b["layout"]
        assert max(abs(complex(*x) - complex(*y)) for x, y in zip(a["entries"], b["entries"])) <= 1e-12


def test_guarded_measurement_sample_is_dual_to_its_wp(tmp_path):
    """``samples/gmeas.qgcl``, the guarded measurement: ``C`` is one gather
    and both branches measure, so both diagonal blocks are overwritten.
    ``tr(run(rho) M) = tr(rho wp(M))`` within 1e-12, and both match
    ``denote``."""
    def matrix(path):
        with open(path) as fh:
            record = json.load(fh)
        assert record["layout"] == [["q", 2], ["c", 2]]
        return np.array([complex(*x) for x in record["entries"]]).reshape(4, 4)

    p = parse_file(sample("gmeas.qgcl"))
    c, measured = semantics._control(p.parts[-1], la.MAX_DIM_DEFAULT)
    assert isinstance(c, kernels.Monomial) and measured == [0, 1]
    rho, m = matrix(sample("coin_input.json")), matrix(sample("coin_observable.json"))
    outs = []
    for command, flag, data in (("run", "--input", "coin_input.json"),
                                ("wp", "--observable", "coin_observable.json")):
        out = tmp_path / f"{command}.json"
        assert run_cli(command, sample("gmeas.qgcl"), flag, sample(data), "--out", str(out)) == 0
        outs.append(matrix(out))
    run, wp = outs
    assert abs(np.trace(run @ m) - np.trace(rho @ wp)) <= 1e-12
    kraus = semantics.denote(p).extended_to(RegisterLayout.of(("q", 2), ("c", 2))).kraus
    assert la.max_abs_diff(run, sum(k @ rho @ la.dagger(k) for k in kraus)) <= 1e-12
    assert la.max_abs_diff(wp, sum(la.dagger(k) @ m @ k for k in kraus)) <= 1e-12


class TestEquiv:
    def test_equivalent_pair(self, tmp_path, capsys):
        a = write(tmp_path / "a.qgcl", PRELUDE + "skip; H[q]")
        b = write(tmp_path / "b.qgcl", PRELUDE + "H[q]")
        assert run_cli("equiv", a, b) == 0
        assert capsys.readouterr().out.startswith("EQUIV")

    def test_distinct_pair(self, tmp_path, capsys):
        a = write(tmp_path / "a.qgcl", PRELUDE + "H[q]")
        b = write(
            tmp_path / "b.qgcl",
            'qvar q : 2;\nmatrix X = {"rows":2,"cols":2,"entries":[[0,0],[1,0],[1,0],[0,0]]};\nX[q]',
        )
        assert run_cli("equiv", a, b) == 1
        out = capsys.readouterr().out
        assert out.startswith("DISTINCT") and "max-choi-deviation" in out

    def test_coin_relocation_samples(self, capsys):
        # the paper's coin relocation; the EQUIV pair's deviation is rounding
        # noise, so only its verdict is pinned
        lhs = sample("coin_qchoice.qgcl")
        assert run_cli("equiv", lhs, sample("coin_relocated.qgcl")) == 0
        assert capsys.readouterr().out.startswith("EQUIV max-choi-deviation=")
        assert run_cli("equiv", lhs, sample("coin_relocated_swapped.qgcl")) == 1
        assert capsys.readouterr().out == "DISTINCT max-choi-deviation=5.000e-01\n"

    def test_qvar_mismatch_exit_two(self, tmp_path, capsys):
        a = write(tmp_path / "a.qgcl", PRELUDE + "H[q]")
        b = write(tmp_path / "b.qgcl", "qvar r : 2;\nskip")
        assert run_cli("equiv", a, b) == 2
        assert "QVAR-MISMATCH" in capsys.readouterr().out


class TestBranches:
    def test_lists_states_with_weights(self, tmp_path, capsys):
        prog = write(
            tmp_path / "m.qgcl",
            'qvar q : 2;\nmeasurement M = { 0: {"rows":2,"cols":2,"entries":[[1,0],[0,0],[0,0],[0,0]]};'
            ' 1: {"rows":2,"cols":2,"entries":[[0,0],[0,0],[0,0],[1,0]]} };\n'
            "measure x <- M[q] { 0: skip; 1: skip }",
        )
        assert run_cli("branches", prog) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["[x<-0]  weight=1.0", "[x<-1]  weight=1.0"]

    def test_block_is_a_numerical_failure(self, capsys):
        assert run_cli("branches", sample("bb84.qgcl")) == 70


# Out-of-range arguments are usage errors, rejected before any work runs.
BAD_ARGUMENTS = [
    ("reproduce", "local", "--n", "-1"),
    ("reproduce", "loop", "--n", "-2"),
    ("reproduce", "loop", "--n", "7"),
    ("reproduce", "loop", "--n", "20"),
    ("check", sample("bb84.qgcl"), "--tol", "nan"),
    ("check", sample("bb84.qgcl"), "--tol", "-1"),
    ("check", sample("bb84.qgcl"), "--tol", "inf"),
    ("run", sample("bb84.qgcl"), "--input", sample("bb84_input.json"), "--max-dim", "0"),
]


@pytest.mark.parametrize(
    "argv", BAD_ARGUMENTS, ids=lambda argv: " ".join(a for a in argv if not os.path.isfile(a))
)
def test_bad_argument_is_a_usage_error(argv, capsys):
    assert run_cli(*argv) == 64
    assert "error:" in capsys.readouterr().err


# Input files are validated at the command's --tol: a state or observable
# 1e-7 outside the cone passes at 1e-6 and is rejected at the default 1e-9.
NEAR_PSD = [
    ("run", "--input", [1 + 1e-7, -1e-7], (), 66),
    ("run", "--input", [1 + 1e-7, -1e-7], ("--tol", "1e-6"), 0),
    ("run", "--input", [1 + 1e-7, -1e-7], ("--tol", "1e-8"), 66),
    ("wp", "--observable", [1.0, -1e-7], (), 66),
    ("wp", "--observable", [1.0, -1e-7], ("--tol", "1e-6"), 0),
    ("wp", "--observable", [1.0, -1e-7], ("--tol", "1e-8"), 66),
]


@pytest.mark.parametrize("command, flag, diagonal, tol, code", NEAR_PSD)
def test_input_files_are_validated_at_the_given_tolerance(
    tmp_path, capsys, command, flag, diagonal, tol, code
):
    prog = write(tmp_path / "p.qgcl", PRELUDE + "H[q]; H[q]")
    record = {"rows": 2, "cols": 2, "layout": [["q", 2]],
              "entries": [[diagonal[0], 0], [0, 0], [0, 0], [diagonal[1], 0]]}
    data = write(tmp_path / "s.json", json.dumps(record))
    assert run_cli(command, prog, flag, data, *tol) == code
    captured = capsys.readouterr()
    if code:
        assert "not positive semidefinite" in captured.err
    else:
        got = np.array(json.loads(captured.out)["entries"])
        assert np.abs(got - np.array(record["entries"])).max() < 1e-12


# A unitary 1e-7 off: every command checks it at its own --tol, equiv included.
NEAR_UNITARY = '{"rows":2,"cols":2,"entries":[[1.0000001,0],[0,0],[0,0],[1,0]]}[q]'


@pytest.mark.parametrize("command", ["check", "run", "branches", "equiv"])
def test_leaves_are_checked_at_the_given_tolerance(tmp_path, capsys, command):
    prog = write(tmp_path / "a.qgcl", "qvar q : 2;\n" + NEAR_UNITARY)
    state = write(tmp_path / "s.json", json.dumps(
        {"rows": 2, "cols": 2, "layout": [["q", 2]], "entries": [[1, 0], [0, 0], [0, 0], [0, 0]]}))
    args = {"check": [prog], "run": [prog, "--input", state], "branches": [prog],
            "equiv": [prog, prog]}[command]
    assert run_cli(command, *args, "--tol", "1e-6") == 0
    out = capsys.readouterr().out
    if command == "equiv":
        assert out.startswith("EQUIV")
    assert run_cli(command, *args) == 1
    captured = capsys.readouterr()
    assert "unitary-nonunitary" in captured.out + captured.err


# A malformed record is reported on one line with exit 66, never a traceback.
BAD_RECORDS = [
    ("run", "--input", {"entries": [[None, 0], [0, 0], [0, 0], [0.5, 0]]}),
    ("wp", "--observable", {"entries": [[None, 0], [0, 0], [0, 0], [0.5, 0]]}),
    ("run", "--input", {"layout": [["q", None]]}),
    ("run", "--input", {"layout": [["q", 2.7]]}),
    ("run", "--input", {"rows": 2.7}),
    ("run", "--input", {"entries": [[True, 0.5], [0, 0], [0, 0], [0.5, 0]]}),
]


@pytest.mark.parametrize("command, flag, change", BAD_RECORDS)
def test_malformed_record_exit_66(tmp_path, capsys, command, flag, change):
    prog = write(tmp_path / "p.qgcl", PRELUDE + "H[q]")
    record = {"rows": 2, "cols": 2, "layout": [["q", 2]],
              "entries": [[0.5, 0], [0, 0], [0, 0], [0.5, 0]], **change}
    data = write(tmp_path / "s.json", json.dumps(record))
    assert run_cli(command, prog, flag, data) == 66
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command, flag, data", [("run", "--input", "bb84_input.json"),
                                                ("wp", "--observable", "observable_p0.json")])
@pytest.mark.parametrize("where", ["missing/out.json", "."])
def test_unwritable_out_exit_73(tmp_path, capsys, command, flag, data, where):
    """An ``--out`` in a missing directory, or naming a directory, is one
    error line and exit 73, not a traceback under the exit code of a verdict."""
    out = str(tmp_path / where)
    assert run_cli(command, sample("bb84.qgcl"), flag, sample(data), "--out", out) == 73
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: cannot write {out}: ")


@pytest.fixture
def collector():
    """The cyclic collector on for the test, as it was found afterwards."""
    was = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was else gc.disable)()


@contextmanager
def collections():
    """The generations of the cyclic collections run in the block."""
    seen = []

    def count(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    gc.collect()  # the generation counts start from zero
    gc.callbacks.append(count)
    try:
        yield seen
    finally:
        gc.callbacks.remove(count)


def big_files(tmp_path):
    """A 128 x 128 state, a definitions file with a 128 x 128 unitary, and
    a source that uses it."""
    gen = rng(5)
    layout = RegisterLayout((("q", 128),))
    state = write(tmp_path / "state.json",
                  matrixio.dumps(matrixio.to_record(DensityMatrix(random_density(gen, 128), layout))))
    write(tmp_path / "defs.json", matrixio.dumps({"U": matrixio.matrix_to_record(random_unitary(gen, 128))}))
    prog = write(tmp_path / "u.qgcl", 'qvar q : 128;\nuse "defs.json";\n\nU[q]\n')
    return state, prog


def test_record_files_run_no_cyclic_collection(tmp_path, collector):
    """Reading and writing a 128 x 128 record builds some 16,000 ``[re, im]``
    lists, which would set off dozens of collector passes; the collector is
    paused while they live, so a ``run`` makes none and a ``use`` none."""
    state, prog = big_files(tmp_path)
    skip = write(tmp_path / "skip.qgcl", "qvar q : 128;\nskip\n")
    out = str(tmp_path / "out.json")
    run_cli("check", sample("walk_step.qgcl"))  # warm the CLI's own caches
    with collections() as seen:
        assert run_cli("run", skip, "--input", state, "--out", out) == 0
    assert seen == []
    assert Path(out).read_bytes() == Path(state).read_bytes()
    with collections() as seen:
        assert run_cli("check", prog) == 0
    assert seen == []
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
def test_record_files_leave_the_collector_as_found(tmp_path, capsys, collector, enabled):
    """Each record read and write, failing ones too, leaves the collector on
    or off as the caller had it."""
    state, prog = big_files(tmp_path)
    bad_json = write(tmp_path / "bad.json", '{"rows": 2, "cols": ')
    bad_shape = write(tmp_path / "shape.json", '{"rows": 2, "cols": 2, "layout": [["q", 2]], "entries": []}')
    bad_defs = write(tmp_path / "bad_defs.json", '{"U": {"rows": 2}}')
    bad_use = write(tmp_path / "bad_use.qgcl", 'qvar q : 2;\nuse "bad_defs.json";\n\nskip\n')
    (gc.enable if enabled else gc.disable)()
    cases = [
        (("run", prog, "--input", state, "--out", str(tmp_path / "out.json")), 0),
        (("wp", sample("bb84.qgcl"), "--observable", sample("observable_p0.json")), 0),
        (("check", prog), 0),
        (("run", prog, "--input", bad_json), 66),  # json.JSONDecodeError
        (("run", prog, "--input", bad_shape), 66),  # ShapeError
        (("check", bad_use), 1),  # ShapeError in the definitions
        (("run", prog, "--input", state, "--out", str(tmp_path / "no" / "out.json")), 73),
    ]
    for argv, code in cases:
        assert run_cli(*argv) == code
        assert gc.isenabled() is enabled
    with pytest.raises(ShapeError):
        matrixio.load_definitions(bad_defs)
    assert gc.isenabled() is enabled


DEEP_COMMANDS = {
    "check": [],
    "run": ["--input", sample("bb84_input.json")],
    "wp": ["--observable", sample("observable_p0.json")],
    "branches": [],
    "equiv": None,
}


@pytest.mark.parametrize("command", sorted(DEEP_COMMANDS))
def test_a_deep_program_passes(tmp_path, capsys, command):
    """Measurements nested 10,000 deep pass every command in process: every
    walk over a program runs on an explicit stack, so none stops at
    Python's recursion limit.  The one-outcome measurement keeps the
    program in the core, one classical state deep."""
    levels = 10_000
    prog = write(tmp_path / "deep.qgcl",
                 'qvar q1 : 2;\nmatrix I = {"rows":2,"cols":2,"entries":[[1,0],[0,0],[0,0],[1,0]]};\n'
                 + "".join(f"measure x{i} <- {{ 0: I }}[q1] {{ 0: " for i in range(levels))
                 + "I[q1]" + " }" * levels)
    extra = DEEP_COMMANDS[command]
    assert run_cli(command, prog, *([prog] if extra is None else extra)) == 0
    assert capsys.readouterr().err == ""


OVERSIZE = {
    "block": "qvar q : {dim}; qvar r : 2;\nbegin local q := |0>; U[r, q] end",
    "guard": "qvar q : {dim};\nguard q {{ |0> -> skip }}",
}


@pytest.mark.parametrize("dim", [5000, 10**6])
@pytest.mark.parametrize("kind", sorted(OVERSIZE))
def test_an_oversize_implied_matrix_is_a_resource_limit(tmp_path, capsys, kind, dim):
    """A block's ``|i>`` state and a guard's computational basis are checked
    against the cap before the parser builds them: exit 70, with no more
    memory taken than the source's own size calls for."""
    prog = write(tmp_path / "big.qgcl", OVERSIZE[kind].format(dim=dim))
    run_cli("check", sample("walk_step.qgcl"))  # warm the CLI's own caches
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = run_cli("check", prog)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 70 and peak < 2**20
    assert capsys.readouterr().err == f"error: layout dimension {dim} exceeds the cap 4096\n"


def test_the_parser_caps_at_the_given_max_dim(tmp_path, capsys):
    prog = write(tmp_path / "four.qgcl",
                 "qvar q : 4;\nguard q { |0> -> skip; |1> -> skip; |2> -> skip; |3> -> skip }")
    assert run_cli("check", prog, "--max-dim", "4") == 0
    assert run_cli("check", prog, "--max-dim", "3") == 70
    assert capsys.readouterr().err == "error: layout dimension 4 exceeds the cap 3\n"


def test_guard_arms_are_counted_before_the_basis_is_built(tmp_path, capsys):
    """Below the cap, a guard whose arms miss its basis is reported before
    its 3000 x 3000 identity basis would be built."""
    prog = write(tmp_path / "arms.qgcl", OVERSIZE["guard"].format(dim=3000))
    tracemalloc.start()
    try:
        code = run_cli("check", prog)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and peak < 2**20
    assert capsys.readouterr().out == "2:1: guard-arms: guard arms must enumerate |0>..|2999| exactly, got [0]\n"


@pytest.mark.parametrize("command", sorted(DEEP_COMMANDS))
def test_a_long_chain_passes(tmp_path, capsys, command):
    """A 10,000-statement ';' chain passes every command in process: a chain
    is one node, so no walk nests per statement."""
    prog = write(tmp_path / "long.qgcl",
                 'qvar q1 : 2;\nmatrix I = {"rows":2,"cols":2,"entries":[[1,0],[0,0],[0,0],[1,0]]};\n'
                 + "; ".join(["I[q1]"] * 10_000))
    extra = DEEP_COMMANDS[command]
    assert run_cli(command, prog, *([prog] if extra is None else extra)) == 0
    assert capsys.readouterr().err == ""


class TestReproduce:
    @pytest.mark.parametrize("suite", ["walk", "gmeas", "bb84", "loop"])
    def test_suites_pass(self, suite, capsys):
        assert run_cli("reproduce", suite) == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("PASS")

    @pytest.mark.parametrize("n", ["0", "6"])
    def test_loop_depth_bounds_pass(self, n, capsys):
        assert run_cli("reproduce", "loop", "--n", n) == 0
        assert capsys.readouterr().out.strip().endswith("PASS")

    def test_loop_prints_coefficients(self, capsys):
        assert run_cli("reproduce", "loop", "--n", "3") == 0
        out = capsys.readouterr().out
        assert "0.707107" in out and "0.500000" in out and "0.353553" in out

    def test_seeded_suites_accept_flags(self, capsys):
        assert run_cli("reproduce", "proim", "--n", "5", "--seed", "3") == 0
