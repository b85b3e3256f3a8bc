"""The record ``scripts/bench_pairs.py`` appends to ``BENCH_<workload>.json``,
built from made-up pairs of runs."""

import importlib.util
import json
import os
from argparse import Namespace

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
            path, bench_pairs.record("equiv", args, commits, figures, {"base": 10, "change": 9}))
    with open(path, encoding="utf-8") as fh:
        records = json.load(fh)
    assert len(records) == 2 and records[0] == records[1]
    rec = records[0]
    assert rec["workload"] == "equiv" and rec["host"] == HOST
    assert rec["base"]["commit"] == "a" * 40 and rec["change"]["dirty"] is True
    assert (rec["pairs"], rec["seconds"], rec["seed"]) == (2, 10.0, 1)
    assert set(rec["metrics"]) == {"ops_per_s", "op_p50_ms"}
    assert set(rec["metrics"]["ops_per_s"]) >= {"base", "change", "relative_change", "won",
                                                "sign_test_p", "flag"}
    assert "layers_self_s" not in rec


def test_host_facts_are_read_from_a_run():
    out = ("workload equiv  seed 1  seconds 8  trace 0\n"
           "python 3.11.7  numpy 2.4.6  OPENBLAS_NUM_THREADS=1  nproc 2  commit abc\n")
    assert bench_pairs.host(out) == HOST
    assert bench_pairs.host("no environment line") == {}
