#!/usr/bin/env python3
"""Compare this checkout with a git revision on benchmark workloads.

    python scripts/bench_pairs.py --base HEAD~1 --workload walk --pairs 10 --seconds 10
    python scripts/bench_pairs.py --base HEAD~1 --workload all

``--workload`` takes one or more workload names, or ``all`` for every
workload of ``BENCHMARK.json``; the pairs are run workload by workload.

Both sides run from fresh temporary directories, built the same way, so
neither has a ``.git``, caches or build leftovers the other lacks: the
revision is extracted with ``git archive``, and this checkout's working
tree is copied as it stands, its tracked and untracked files that git does
not ignore (``git ls-files -co --exclude-standard``).  No worktree is made
and ``.git`` is not written.  Each pair runs ``perfbench/run.py`` once on
each side, alternating which side runs first.  For every end-to-end metric of
``BENCHMARK.json`` it prints each side's median and quartiles, the change's
median relative to the base's, the pairs the change won (ties count for
neither side), the one-sided sign-test probability of winning that many of
the untied pairs by chance, and the metric's bound.  A metric is flagged
``WORSE`` when the change's median is worse by more than its bound, and
``gain`` when the change's median is better, it won at least nine tenths
of all the pairs, so tied pairs count against it, and the sign-test
probability is at most ``GAIN_P``: the paired differences decide, not the
spread of one side's runs, which on a noisy workload can hide a gain that
wins every pair (Kalibera and Jones, "Rigorous benchmarking in reasonable
time").  Each side's
failed ops are totalled; when the change fails a larger share of its ops
than the base, no metric is flagged ``gain`` and the summary says
``FAILED``.  Last it prints each side's ``src/qgcl`` line total, as
``wc -l src/qgcl/*.py`` counts it, and its code lines, the lines that hold
code: no blank line, comment or docstring counts.
The output ends with one summary line per workload naming the metrics
flagged ``WORSE`` and ``gain``, and ``FAILED`` where it applies, so one
command tells whether any metric got worse anywhere.

With ``--layers`` it then makes one ``--trace 1`` run per side and prints
each side's self time per pass in the front-end, evaluation and
equivalence layers (``LAYERS``), so a change in the end-to-end figures can
be placed in a layer.

Each invocation also appends one record per workload to the JSON list in
``BENCH_<workload>.json`` at the repository root: both commits and whether
the working tree was dirty, the host facts the runs report (Python and
numpy versions, ``nproc``, OpenBLAS threads) and the OpenBLAS core this
process reads (``openblas_core``), the pair count and run
seconds, each side's failed ops, and for every end-to-end metric each
side's median and quartiles, the relative change, the pairs won, the
sign-test probability and the flag, and both sides' line totals and code
lines; with ``--layers``, the traced self times too.
"""

import argparse
import ctypes
import glob
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYERS = ("parser.parse_source", "program.well_formed", "semantics.semi_classical",
          "ovf.guarded_ovf", "semantics.denote", "semantics.apply_program", "wp.wp_apply",
          "equivalence.choi_deviation", "cli.main")
GAIN_P = 0.05  # the largest one-sided sign-test probability that flags a gain


def extract(rev: str, dest: str) -> None:
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", "--format=tar", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit(f"git archive {rev} failed")


def snapshot(dest: str) -> None:
    """Copy the working tree's tracked and untracked, non-ignored files into ``dest``."""
    listed = subprocess.run(["git", "-C", ROOT, "ls-files", "-z", "-co", "--exclude-standard"],
                            capture_output=True, check=True).stdout
    for rel in filter(None, listed.decode().split("\0")):
        path = os.path.join(ROOT, rel)
        if os.path.lexists(path):  # a tracked file deleted from the tree is not copied
            os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
            shutil.copy2(path, os.path.join(dest, rel), follow_symlinks=False)


def run(checkout: str, workload: str, args, trace: int = 0) -> dict:
    """One benchmark run's metrics and op counts, from the JSON on its last line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(checkout, "perfbench", "run.py"), "--workload",
         workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"  {checkout}: not correct, {result['failed']} of {result['attempted']} ops failed")
    return {"metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"],
            "host": host(proc.stdout)}


# The environment line of ``perfbench/run.py``:
# ``python 3.11.7  numpy 2.4.6  OPENBLAS_NUM_THREADS=1  nproc 2  commit ...``.
HOST = re.compile(r"^python (?P<python>\S+)\s+numpy (?P<numpy>\S+)\s+"
                  r"OPENBLAS_NUM_THREADS=(?P<openblas_threads>\S+)\s+nproc (?P<nproc>\d+)", re.M)


def host(output: str) -> dict:
    """The host facts a run printed, or ``{}`` when it printed none."""
    found = HOST.search(output)
    return found.groupdict() if found else {}


def openblas_core() -> str | None:
    """The kernel set numpy's bundled OpenBLAS picked for this CPU, read
    through ``ctypes`` (``scipy_openblas_get_corename64_``), or ``None``
    where numpy's extension does not export that symbol."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:
        return None
    corename = getattr(ctypes.CDLL(_multiarray_umath.__file__), "scipy_openblas_get_corename64_",
                       None)
    if corename is None:
        return None
    corename.restype = ctypes.c_char_p
    return corename().decode()


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def source_lines(checkout: str) -> int:
    """Lines of the package's Python modules, newlines counted as ``wc -l`` does."""
    total = 0
    for path in glob.glob(os.path.join(checkout, "src", "qgcl", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


NOT_CODE = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(checkout: str) -> int:
    """Lines of the package's Python modules that hold code: a line that
    holds only blanks, comments or part of a docstring (a string that is a
    statement of its own) does not count."""
    total = 0
    for path in glob.glob(os.path.join(checkout, "src", "qgcl", "*.py")):
        with open(path, "rb") as fh:
            tokens = list(tokenize.tokenize(fh.readline))
        lines = set()
        for i, tok in enumerate(tokens):
            if tok.type in NOT_CODE or tok.type == tokenize.STRING and docstring(tokens, i):
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
        total += len(lines)
    return total


def docstring(tokens: list, i: int) -> bool:
    """``tokens[i]``, a string, is a statement of its own: it starts a
    logical line and ends it."""
    before = i - 1
    while tokens[before].type in (tokenize.NL, tokenize.COMMENT):
        before -= 1
    return (tokens[before].type in (tokenize.ENCODING, tokenize.NEWLINE, tokenize.INDENT,
                                    tokenize.DEDENT)
            and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def sign_test(won: int, lost: int) -> float:
    """The chance of winning ``won`` or more of ``won + lost`` untied pairs
    when each is a fair coin: the binomial tail of the one-sided sign test."""
    n = won + lost
    return sum(math.comb(n, k) for k in range(won, n + 1)) / 2**n


def summarise(sides: dict, metrics: list, pairs: int) -> dict:
    """The figures of one workload's pairs: each side's failed and attempted
    ops, whether the change fails a larger share, and per end-to-end metric
    each side's quartiles, the change's relative change, the pairs won and
    lost, the sign-test probability and the flag."""
    totals = {s: [sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)]
              for s, runs in sides.items()}
    share = {s: failed / max(1, attempted) for s, (failed, attempted) in totals.items()}
    more_failed = share["change"] > share["base"]
    out = {"failed": totals, "more_failed": more_failed, "metrics": {}}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        base = [r["metrics"][name] for r in sides["base"]]
        change = [r["metrics"][name] for r in sides["change"]]
        bq, cq = quartiles(base), quartiles(change)
        won = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        lost = sum((c > b) if lower else (c < b) for b, c in zip(base, change))
        gain = bq[1] - cq[1] if lower else cq[1] - bq[1]
        p = sign_test(won, lost)
        flag = ("WORSE" if -gain > m["bound"] * bq[1]
                else "gain" if (gain > 0 and 10 * won >= 9 * pairs and p <= GAIN_P
                                and not more_failed) else "")
        out["metrics"][name] = {
            "base": dict(zip(("q1", "median", "q3"), bq)),
            "change": dict(zip(("q1", "median", "q3"), cq)),
            "relative_change": cq[1] / bq[1] - 1 if bq[1] else None,
            "won": won, "lost": lost, "pairs": pairs, "sign_test_p": p,
            "bound": m["bound"], "flag": flag}
    return out


def compare(workload: str, args, checkouts: dict, metrics: list) -> tuple[str, dict]:
    """Run the pairs on one workload, print its table and return its summary
    line and its record (``record``)."""
    sides = {"base": [], "change": []}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            sides[side].append(run(checkouts[side], workload, args))
        figures = "  ".join(f"{s} {sides[s][-1]['metrics']['ops_per_s']:.4g}"
                            for s in ("base", "change"))
        print(f"{workload} pair {i + 1}/{args.pairs} ({order[0]} first): ops_per_s {figures}",
              flush=True)
    print(f"\n{workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs, "
          f"base {args.base}: median [q1, q3]")
    figures = summarise(sides, metrics, args.pairs)
    more_failed = figures["more_failed"]
    print("failed ops: " + ", ".join(f"{s} {f} of {a}" for s, (f, a) in figures["failed"].items())
          + ("  FAILED: the change fails a larger share, so no gain counts" if more_failed else ""))
    print(f"{'metric':12s} {'base':>28s} {'change':>28s} {'ratio':>7s} {'won':>6s} {'p':>7s} "
          f"{'bound':>6s}")
    flagged = {"WORSE": [], "gain": []}
    for name, f in figures["metrics"].items():
        if f["flag"]:
            flagged[f["flag"]].append(name)
        bq, cq = f["base"], f["change"]
        cells = [f"{q['median']:.4g} [{q['q1']:.4g}, {q['q3']:.4g}]" for q in (bq, cq)]
        print(f"{name:12s} {cells[0]:>28s} {cells[1]:>28s} {cq['median'] / bq['median']:7.3f} "
              f"{f['won']:>3d}/{args.pairs:<2d} {f['sign_test_p']:7.4f} {f['bound']:6.2f} "
              f"{f['flag']}")
    if args.layers:
        traced = {side: run(path, workload, args, trace=1)["metrics"]
                  for side, path in checkouts.items()}
        print(f"\none traced run a side, self time per pass (s):\n"
              f"{'layer':28s} {'base':>10s} {'change':>10s} {'ratio':>7s}")
        figures["layers_self_s"] = {}
        for layer in LAYERS:
            base, change = (traced[s][f"{layer}.self_s"] for s in ("base", "change"))
            ratio = change / base if base else float("nan")  # a layer the workload never enters
            print(f"{layer:28s} {base:10.4g} {change:10.4g} {ratio:7.3f}")
            figures["layers_self_s"][layer] = {"base": base, "change": change}
    print(flush=True)
    figures["host"] = next((r["host"] for r in sides["change"] if r["host"]), {})
    return (f"{workload}: WORSE {', '.join(flagged['WORSE']) or 'none'}; "
            f"gain {', '.join(flagged['gain']) or 'none'}"
            + ("; FAILED" if more_failed else "")), figures


def record(workload: str, args, commits: dict, figures: dict, lines: dict, code: dict,
           core: str | None) -> dict:
    """One invocation's record of one workload, as ``BENCH_<workload>.json``
    keeps it: the runs' host facts joined by the OpenBLAS ``core``, and each
    side's line total and code lines."""
    return {"workload": workload, **commits, "seed": args.seed, "pairs": args.pairs,
            "seconds": args.seconds, **figures,
            "host": {**figures.get("host", {}), "openblas_core": core}, "source_lines": lines,
            "code_lines": code}


def append_record(path: str, entry: dict) -> None:
    """Append ``entry`` to the JSON list in ``path``, which is made when missing."""
    records = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            records = json.load(fh)
    records.append(entry)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, nargs="+",
                        help="workload names, or all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--layers", action="store_true",
                        help="also compare one traced run per side, layer by layer")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    known = [w["name"] for w in bench["workloads"]]
    workloads = known if args.workload == ["all"] else args.workload
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}; choose from {', '.join(known)} or all")
    commits = {"base": {"rev": args.base, "commit": git("rev-parse", f"{args.base}^{{commit}}")},
               "change": {"commit": git("rev-parse", "HEAD"),
                          "dirty": bool(git("status", "--porcelain"))}}
    with tempfile.TemporaryDirectory(prefix="bench-") as base, \
            tempfile.TemporaryDirectory(prefix="bench-") as change:
        extract(args.base, base)
        snapshot(change)
        checkouts = {"base": base, "change": change}
        compared = {w: compare(w, args, checkouts, bench["end_to_end"]) for w in workloads}
        lines = {side: source_lines(path) for side, path in checkouts.items()}
        code = {side: code_lines(path) for side, path in checkouts.items()}
    core = openblas_core()
    for name, count in (("lines", lines), ("code lines", code)):
        print(f"src/qgcl {name}: base {count['base']}, change {count['change']} "
              f"({count['change'] - count['base']:+d})")
    print("summary:")
    for workload, (line, figures) in compared.items():
        print(f"  {line}")
        append_record(os.path.join(ROOT, f"BENCH_{workload}.json"),
                      record(workload, args, commits, figures, lines, code, core))


if __name__ == "__main__":
    main()
