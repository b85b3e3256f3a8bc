import json
import os
from pathlib import Path

import numpy as np
import pytest

from qgcl import linalg as la
from qgcl.cli import main

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
        assert "undeclared-variable" in capsys.readouterr().out

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


DEEP_COMMANDS = {
    "check": [],
    "run": ["--input", sample("bb84_input.json")],
    "wp": ["--observable", sample("observable_p0.json")],
    "branches": [],
    "equiv": None,
}


@pytest.mark.parametrize("command", sorted(DEEP_COMMANDS))
def test_too_deep_a_program_is_a_resource_limit(tmp_path, capsys, command):
    """A ';' chain deeper than Python's recursion limit exits 70 with one
    error line, not a traceback under the exit code of a verdict."""
    prog = write(tmp_path / "deep.qgcl",
                 'qvar q1 : 2;\nmatrix I = {"rows":2,"cols":2,"entries":[[1,0],[0,0],[0,0],[1,0]]};\n'
                 + "; ".join(["I[q1]"] * 600))
    extra = DEEP_COMMANDS[command]
    assert run_cli(command, prog, *([prog] if extra is None else extra)) == 70
    err = capsys.readouterr().err
    assert err.startswith("error: program nests too deeply") and err.count("\n") == 1


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
