"""The CLI edge, where matrices enter and leave: output on ``samples/``
pinned byte for byte, and one positivity check per input."""

import json
import os

import pytest

from qgcl import linalg
from qgcl.cli import main

SAMPLES = os.path.join(os.path.dirname(__file__), "..", "samples")
# Recorded with the row-block positivity check and the nested-array record
# decoder that the tiled check and the one-pass decoder replaced: the output
# must stay byte for byte the same.
GOLDEN = os.path.join(os.path.dirname(__file__), "data", "cli_golden.json")

# name -> argv, sample files by name; "OUT" stands for an output file.
CLI_CASES = {
    "check-bb84": ["check", "bb84.qgcl"],
    "check-walk_step": ["check", "walk_step.qgcl"],
    "run-bb84": ["run", "bb84.qgcl", "--input", "bb84_input.json"],
    "run-walk_step": ["run", "walk_step.qgcl", "--input", "walk_input.json"],
    "run-walk_step-out": ["run", "walk_step.qgcl", "--input", "walk_input.json", "--out", "OUT"],
    "wp-bb84": ["wp", "bb84.qgcl", "--observable", "observable_p0.json"],
    "wp-bb84-out": ["wp", "bb84.qgcl", "--observable", "observable_p0.json", "--out", "OUT"],
    "wp-walk_step": ["wp", "walk_step.qgcl", "--observable", "walk_input.json"],
    "wp-walk_step-tol": ["wp", "walk_step.qgcl", "--observable", "walk_input.json",
                         "--tol", "1e-6"],
    "branches-bb84": ["branches", "bb84.qgcl"],
    "branches-walk_step": ["branches", "walk_step.qgcl"],
}


def cli_outcome(argv: list[str], out_path: str, capsys) -> dict:
    """Exit code, stdout, stderr and the ``--out`` file's text of one command."""
    args = [out_path if a == "OUT" else os.path.join(SAMPLES, a) if a.endswith((".qgcl", ".json"))
            else a for a in argv]
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    out = None
    if "OUT" in argv:
        with open(out_path, encoding="utf-8") as fh:
            out = fh.read()
    return {"code": code, "stdout": captured.out, "stderr": captured.err, "out": out}


def golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_output_on_the_samples_is_pinned(name, tmp_path, capsys):
    assert cli_outcome(CLI_CASES[name], str(tmp_path / "out.json"), capsys) == golden()[name]


@pytest.mark.parametrize("command, flag, data", [
    ("run", "--input", "walk_input.json"),
    ("wp", "--observable", "walk_input.json"),
])
def test_each_command_checks_its_input_once(monkeypatch, tmp_path, capsys, command, flag, data):
    calls = []
    real = linalg.hermitian_psd
    monkeypatch.setattr(linalg, "hermitian_psd", lambda *a, **k: calls.append(1) or real(*a, **k))
    argv = [command, "walk_step.qgcl", flag, data]
    assert cli_outcome(argv, str(tmp_path / "out.json"), capsys)["code"] == 0
    assert len(calls) == 1
