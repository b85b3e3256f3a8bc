"""The record ``scripts/bench_pairs.py`` appends to ``BENCH_<workload>.json``,
built from made-up pairs of runs."""

import importlib.util
import json
import os
from argparse import Namespace
from unittest import mock

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts",
                      "bench_pairs.py")
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
           {"name": "op_p50_ms", "better": "lower", "bound": 0.25}]
HOST = {"python": "3.11.7", "numpy": "2.4.6", "openblas_threads": "1", "nproc": "2"}


def runs(ops_per_s, op_p50_ms, failed=0):
    return [{"metrics": {"ops_per_s": a, "op_p50_ms": b}, "attempted": 100, "failed": failed,
             "host": HOST} for a, b in zip(ops_per_s, op_p50_ms)]


def test_summary_flags_a_gain_and_a_worse_metric():
    # The change wins every pair on throughput and loses every pair on latency.
    sides = {"base": runs([100 + i for i in range(10)], [1.0] * 10),
             "change": runs([120 + i for i in range(10)], [2.0] * 10)}
    figures = bench_pairs.summarise(sides, METRICS, 10)
    ops, lat = figures["metrics"]["ops_per_s"], figures["metrics"]["op_p50_ms"]
    assert figures["failed"] == {"base": [0, 1000], "change": [0, 1000]}
    assert not figures["more_failed"]
    assert ops["flag"] == "gain" and (ops["won"], ops["lost"]) == (10, 0)
    assert ops["sign_test_p"] == 2.0**-10
    assert ops["base"] == {"q1": 102.25, "median": 104.5, "q3": 106.75}
    assert ops["relative_change"] == pytest.approx(20 / 104.5)
    assert lat["flag"] == "WORSE" and lat["won"] == 0 and lat["relative_change"] == 1.0


def test_more_failed_ops_forbid_a_gain():
    sides = {"base": runs([100] * 10, [1.0] * 10), "change": runs([200] * 10, [1.0] * 10, 1)}
    figures = bench_pairs.summarise(sides, METRICS, 10)
    assert figures["more_failed"] and figures["metrics"]["ops_per_s"]["flag"] == ""
    assert figures["metrics"]["op_p50_ms"]["won"] == 0  # ties count for neither side


def test_each_invocation_appends_one_record(tmp_path):
    sides = {"base": runs([100, 101], [1.0, 1.1]), "change": runs([110, 111], [0.9, 1.0])}
    figures = bench_pairs.summarise(sides, METRICS, 2)
    figures["host"] = HOST
    args = Namespace(seed=1, pairs=2, seconds=10.0)
    commits = {"base": {"rev": "HEAD~1", "commit": "a" * 40},
               "change": {"commit": "b" * 40, "dirty": True}}
    path = str(tmp_path / "BENCH_equiv.json")
    for _ in range(2):
        bench_pairs.append_record(
            path, bench_pairs.record("equiv", args, commits, figures, {"base": 10, "change": 9},
                                     {"base": 6, "change": 5}, "SkylakeX"))
    with open(path, encoding="utf-8") as fh:
        records = json.load(fh)
    assert len(records) == 2 and records[0] == records[1]
    rec = records[0]
    assert rec["workload"] == "equiv" and rec["host"] == {**HOST, "openblas_core": "SkylakeX"}
    assert rec["base"]["commit"] == "a" * 40 and rec["change"]["dirty"] is True
    assert (rec["pairs"], rec["seconds"], rec["seed"]) == (2, 10.0, 1)
    assert rec["source_lines"] == {"base": 10, "change": 9}
    assert rec["code_lines"] == {"base": 6, "change": 5}
    assert set(rec["metrics"]) == {"ops_per_s", "op_p50_ms"}
    assert set(rec["metrics"]["ops_per_s"]) >= {"base", "change", "relative_change", "won",
                                                "sign_test_p", "flag"}
    assert "layers_self_s" not in rec


def test_host_facts_are_read_from_a_run():
    out = ("workload equiv  seed 1  seconds 8  trace 0\n"
           "python 3.11.7  numpy 2.4.6  OPENBLAS_NUM_THREADS=1  nproc 2  commit abc\n")
    assert bench_pairs.host(out) == HOST
    assert bench_pairs.host("no environment line") == {}


def test_the_openblas_core_is_read_once_or_none():
    """The core is the name numpy's OpenBLAS reports, or ``None`` where the
    library does not export ``scipy_openblas_get_corename64_``; a record
    keeps ``None`` as it is."""
    core = bench_pairs.openblas_core()
    assert core is None or (isinstance(core, str) and core)
    with mock.patch.object(bench_pairs.ctypes, "CDLL", lambda path: object()):
        assert bench_pairs.openblas_core() is None
    figures = bench_pairs.summarise({"base": runs([100], [1.0]), "change": runs([100], [1.0])},
                                    METRICS, 1)
    rec = bench_pairs.record("walk", Namespace(seed=1, pairs=1, seconds=1.0), {}, figures,
                             {"base": 1, "change": 1}, {"base": 1, "change": 1}, None)
    assert rec["host"] == {"openblas_core": None} and rec["source_lines"] == {"base": 1, "change": 1}


MODULE = '''"""A module docstring
over two lines."""

# a comment
import os  # a comment after code


def f(x):
    """A function's docstring."""

    y = """a string that is
    part of an assignment"""
    return (x,
            y)
'''


def test_code_lines_leave_out_blanks_comments_and_docstrings(tmp_path):
    """``code_lines`` counts the lines that hold a token of code, however
    many lines a statement spans; ``source_lines`` counts every line."""
    package = tmp_path / "src" / "qgcl"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(MODULE, encoding="utf-8")
    (package / "other.py").write_text("x = 1\n\n", encoding="utf-8")
    assert bench_pairs.source_lines(str(tmp_path)) == MODULE.count("\n") + 2
    assert bench_pairs.code_lines(str(tmp_path)) == 6 + 1
