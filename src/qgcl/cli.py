"""Batch command-line front end.

Exit codes: 0 success (or EQUIV), 1 diagnostics reported or programs DISTINCT,
2 equivalence attempted over different variable sets, 64 usage error, 66
unreadable or malformed input file, 70 numerical failure or resource limit.
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
from .equivalence import program_equiv_report
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


def _load_program(path: str, tol: float):
    try:
        return parse_file(path, tol=tol)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EX_NOINPUT)
    except SourceError as exc:
        for d in exc.diagnostics:
            print(str(d), file=sys.stderr)
        raise SystemExit(EX_REPORTED)


def _load_json(path: str, loader, tol: float):
    try:
        return loader(matrixio.load_file(path), tol)
    except (OSError, json.JSONDecodeError, QgclError, ValueError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EX_NOINPUT)


def _emit(record, out: str | None) -> None:
    text = matrixio.dumps(record)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "reproduce" and args.suite == "loop" and (args.n or 0) > MAX_UNROLL_DEFAULT:
        parser.error(f"loop --n must be <= {MAX_UNROLL_DEFAULT}, got {args.n}")
    tol = args.tol if args.tol is not None else linalg.DEFAULT_TOL
    try:
        if args.command == "check":
            try:
                parse_file(args.file, tol=tol)
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EX_NOINPUT
            except SourceError as exc:
                for d in exc.diagnostics:
                    print(str(d))
                return EX_REPORTED
            print("ok")
            return EX_OK

        if args.command == "run":
            program = _load_program(args.file, tol)
            state = _load_json(args.input, matrixio.density_from_record, tol)
            out = apply_program(program, state, tol=tol, max_dim=args.max_dim)
            _emit(matrixio.density_to_record(out), args.out)
            return EX_OK

        if args.command == "wp":
            program = _load_program(args.file, tol)
            observable = _load_json(args.observable, matrixio.observable_from_record, tol)
            result = wp_apply(program, observable, tol=tol, max_dim=args.max_dim)
            _emit(matrixio.observable_to_record(result), args.out)
            return EX_OK

        if args.command == "equiv":
            p = _load_program(args.file1, tol)
            q = _load_program(args.file2, tol)
            equiv_tol = args.tol if args.tol is not None else 1e-8
            verdict, deviation = program_equiv_report(p, q, equiv_tol, max_dim=args.max_dim)
            if verdict == "qvar-mismatch":
                print("QVAR-MISMATCH")
                return EX_QVAR_MISMATCH
            print(f"{'EQUIV' if verdict == 'equiv' else 'DISTINCT'} max-choi-deviation={deviation:.3e}")
            return EX_OK if verdict == "equiv" else EX_REPORTED

        if args.command == "branches":
            program = _load_program(args.file, tol)
            sd = semi_classical(program, tol=tol, max_dim=args.max_dim)
            for state in sorted(sd.states, key=sort_key):
                weight = sd.weight(state)
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
    except RecursionError:
        print("error: program nests too deeply (Python's recursion limit)", file=sys.stderr)
        return EX_NUMERICAL
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
