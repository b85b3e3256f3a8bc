"""Batch command-line front end.

Exit codes: 0 success (or EQUIV), 1 diagnostics reported or programs DISTINCT,
2 equivalence attempted over different variable sets, 64 usage error, 66
unreadable or malformed input file, 70 numerical failure or resource limit,
73 output file cannot be written.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache

from . import linalg, matrixio
from .classical import render, sort_key
from .errors import QgclError, SourceError
from .equivalence import PROGRAM_TOL_DEFAULT, program_equiv_report
from .parser import parse_file
from .reproduce import SUITES
from .semantics import MAX_UNROLL_DEFAULT, apply_program, semi_classical
from .wp import wp_apply

EX_OK = 0
EX_REPORTED = 1
EX_QVAR_MISMATCH = 2
EX_USAGE = 64
EX_NOINPUT = 66
EX_NUMERICAL = 70
EX_CANTCREAT = 73


class _Cli(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _checked(convert, ok, rule: str):
    """argparse type: ``convert`` the text, then require ``ok`` of the value.
    Text that does not convert is reported as an invalid ``convert`` value."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text}")
        return value

    parse.__name__ = convert.__name__
    return parse


_TOLERANCE = _checked(float, lambda v: math.isfinite(v) and v >= 0, "must be finite and >= 0")
_DIMENSION = _checked(int, lambda v: v >= 1, "must be >= 1")
_COUNT = _checked(int, lambda v: v >= 0, "must be >= 0")


@cache  # one parser per process; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    top = _Cli(prog="qgcl", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=_TOLERANCE, default=None, help="comparison tolerance")
        p.add_argument("--max-dim", type=_DIMENSION, default=linalg.MAX_DIM_DEFAULT,
                       help="total dimension cap (default 4096)")

    p_check = sub.add_parser("check", help="well-formedness diagnostics")
    p_check.add_argument("file")
    common(p_check)

    p_run = sub.add_parser("run", help="evaluate the program on a density operator")
    p_run.add_argument("file")
    p_run.add_argument("--input", required=True, help="density operator JSON file")
    p_run.add_argument("--out", default=None, help="output file (default stdout)")
    common(p_run)

    p_wp = sub.add_parser("wp", help="weakest precondition of an observable")
    p_wp.add_argument("file")
    p_wp.add_argument("--observable", required=True, help="observable JSON file")
    p_wp.add_argument("--out", default=None, help="output file (default stdout)")
    common(p_wp)

    p_eq = sub.add_parser("equiv", help="decide program equivalence")
    p_eq.add_argument("file1")
    p_eq.add_argument("file2")
    common(p_eq)

    p_br = sub.add_parser("branches", help="list classical states and trace weights")
    p_br.add_argument("file")
    common(p_br)

    p_re = sub.add_parser("reproduce", help="re-run a worked example or theorem suite")
    p_re.add_argument("suite", choices=sorted(SUITES))
    p_re.add_argument("--n", type=_COUNT, default=None, help="instance count / unroll depth")
    p_re.add_argument("--seed", type=int, default=0)
    common(p_re)
    return top


def _load_program(path: str, tol: float, max_dim: int, diagnostics=None):
    """The parsed program; on failure the error or the diagnostics (to the
    ``diagnostics`` stream, default stderr) and exit 66 or 1."""
    try:
        return parse_file(path, tol=tol, max_dim=max_dim)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EX_NOINPUT)
    except SourceError as exc:
        for d in exc.diagnostics:
            print(str(d), file=diagnostics or sys.stderr)
        raise SystemExit(EX_REPORTED)


def _load_json(path: str, loader, tol: float):
    try:
        with matrixio._gc_paused():
            return loader(matrixio.load_file(path), tol)
    except (OSError, json.JSONDecodeError, QgclError, ValueError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EX_NOINPUT)


def _emit(to_record, value, out: str | None) -> None:
    """``value``'s record, to ``out`` or stdout; exit 73 when ``out`` cannot be written."""
    with matrixio._gc_paused():
        text = matrixio.dumps(to_record(value))
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        raise SystemExit(EX_CANTCREAT)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "reproduce" and args.suite == "loop" and (args.n or 0) > MAX_UNROLL_DEFAULT:
        parser.error(f"loop --n must be <= {MAX_UNROLL_DEFAULT}, got {args.n}")
    tol = args.tol if args.tol is not None else linalg.DEFAULT_TOL
    try:
        if args.command == "check":
            _load_program(args.file, tol, args.max_dim, sys.stdout)
            print("ok")
            return EX_OK

        if args.command == "run":
            program = _load_program(args.file, tol, args.max_dim)
            state = _load_json(args.input, matrixio.density_from_record, tol)
            out = apply_program(program, state, tol=tol, max_dim=args.max_dim)
            _emit(matrixio.density_to_record, out, args.out)
            return EX_OK

        if args.command == "wp":
            program = _load_program(args.file, tol, args.max_dim)
            observable = _load_json(args.observable, matrixio.observable_from_record, tol)
            result = wp_apply(program, observable, tol=tol, max_dim=args.max_dim)
            _emit(matrixio.observable_to_record, result, args.out)
            return EX_OK

        if args.command == "equiv":
            p = _load_program(args.file1, tol, args.max_dim)
            q = _load_program(args.file2, tol, args.max_dim)
            equiv_tol = args.tol if args.tol is not None else PROGRAM_TOL_DEFAULT
            verdict, deviation = program_equiv_report(p, q, equiv_tol, max_dim=args.max_dim)
            if verdict == "qvar-mismatch":
                print("QVAR-MISMATCH")
                return EX_QVAR_MISMATCH
            print(f"{'EQUIV' if verdict == 'equiv' else 'DISTINCT'} max-choi-deviation={deviation:.3e}")
            return EX_OK if verdict == "equiv" else EX_REPORTED

        if args.command == "branches":
            program = _load_program(args.file, tol, args.max_dim)
            sd = semi_classical(program, tol=tol, max_dim=args.max_dim)
            rows = zip(sd.states, sd.trace_weights().tolist())
            for state, weight in sorted(rows, key=lambda row: sort_key(row[0])):
                print(f"{render(state)}  weight={weight!r}")
            return EX_OK

        if args.command == "reproduce":
            suite = SUITES[args.suite]
            ok, lines = suite(seed=args.seed, n=args.n, tol=args.tol)
            print(f"reproduce {args.suite}:")
            for line in lines:
                print(line)
            print("PASS" if ok else "FAIL")
            return EX_OK if ok else EX_NUMERICAL
    except QgclError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_NUMERICAL
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
