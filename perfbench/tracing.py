"""Per-layer spans installed from outside the package.

Each traced function is replaced, at every module attribute through which
callers look it up, by a wrapper that records a span (name, start, end,
parent span, op id) and counts calls, errors and layer-specific work.  The
replacement is undone when the ``Tracer`` context exits.  Spans stay in
memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from importlib import import_module

import qgcl.classical as classical
import qgcl.cli as cli
import qgcl.equivalence as equivalence
import qgcl.linalg as linalg
import qgcl.matrixio as matrixio
import qgcl.ovf as ovf
import qgcl.parser as parser
import qgcl.program as program
import qgcl.registers as registers
import qgcl.semantics as semantics

wp = import_module("qgcl.wp")  # the package attribute ``qgcl.wp`` is the function


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _add(key: str, amount):
    """Counter adding ``amount(args, kwargs, result)`` to ``key`` per call."""
    def count(c, args, kwargs, out):
        c[key] += amount(args, kwargs, out)
    return count


def _kraus_out(key: str):
    return _add(key, lambda a, k, out: len(out.kraus))


def _pruned(c, args, kwargs, out):
    c["ovf.prune_zero_kraus.offered"] += len(_arg(args, kwargs, 0, "ops"))
    c["ovf.prune_zero_kraus.kept"] += len(out)


# (span name, lookup sites, counter).  The first site is where the function
# is defined; the others are modules that imported it by name.
TRACED = (
    ("cli.main", ((cli, "main"),), None),
    ("parser.parse_source", ((parser, "parse_source"),), None),
    ("program.well_formed", ((program, "well_formed"), (parser, "well_formed")), None),
    ("program.qvar_layout",
     ((program, "qvar_layout"), (semantics, "qvar_layout"), (equivalence, "qvar_layout")), None),
    ("semantics.apply_program", ((semantics, "apply_program"), (cli, "apply_program")), None),
    ("wp.wp_apply", ((wp, "wp_apply"), (cli, "wp_apply")), None),
    ("semantics.semi_classical", ((semantics, "semi_classical"), (cli, "semi_classical")),
     _add("semantics.semi_classical.states_out", lambda a, k, out: len(out.states))),
    ("semantics.denote", ((semantics, "denote"), (wp, "denote"), (equivalence, "denote")), None),
    ("semantics.block_channel", ((semantics, "block_channel"),),
     _kraus_out("semantics.block_channel.kraus_out")),
    ("semantics.system_environment_model", ((semantics, "system_environment_model"),), None),
    ("semantics.coin_relocation_lhs_rhs", ((semantics, "coin_relocation_lhs_rhs"),), None),
    ("equivalence.program_equiv_report",
     ((equivalence, "program_equiv_report"), (cli, "program_equiv_report")), None),
    ("equivalence.choi_deviation", ((equivalence, "choi_deviation"),), None),
    ("ovf.OperatorValuedFunction.validate", ((ovf.OperatorValuedFunction, "validate"),), None),
    ("ovf.guarded_ovf", ((ovf, "guarded_ovf"), (equivalence, "guarded_ovf")),
     _add("ovf.guarded_ovf.states_out", lambda a, k, out: len(out.table))),
    ("ovf.to_superop", ((ovf, "to_superop"), (semantics, "to_superop"), (equivalence, "to_superop")),
     _kraus_out("ovf.to_superop.kraus_out")),
    ("ovf.SuperOperator.then", ((ovf.SuperOperator, "then"),), _kraus_out("ovf.SuperOperator.then.kraus_out")),
    ("ovf.prune_zero_kraus", ((ovf, "prune_zero_kraus"), (semantics, "prune_zero_kraus")), _pruned),
    ("ovf.apply_kraus", ((ovf, "apply_kraus"),),
     _add("ovf.apply_kraus.kraus_in", lambda a, k, out: len(_arg(a, k, 0, "kraus")))),
    ("registers.embed", ((registers, "embed"), (ovf, "embed"), (semantics, "embed")),
     _add("registers.embed.bytes_computed", lambda a, k, out: _arg(a, k, 2, "full").dim ** 2 * 16)),
    ("linalg.as_matrix", ((linalg, "as_matrix"),), None),
    ("linalg.is_positive", ((linalg, "is_positive"),), None),
    ("linalg.tensor", ((linalg, "tensor"),), None),
    ("linalg.permute_factors", ((linalg, "permute_factors"),), None),
    ("linalg.choi", ((linalg, "choi"),),
     _add("linalg.choi.bytes_computed", lambda a, k, out: out.size * 16)),
    ("linalg.choi_to_kraus", ((linalg, "choi_to_kraus"),), None),
    ("classical.concat", ((classical, "concat"),), None),
    ("classical.oplus", ((classical, "oplus"),), None),
    ("matrixio.load_file", ((matrixio, "load_file"),),
     _add("matrixio.bytes_read", lambda a, k, out: os.path.getsize(_arg(a, k, 0, "path")))),
    ("matrixio.density_from_record", ((matrixio, "density_from_record"),), None),
    ("matrixio.observable_from_record", ((matrixio, "observable_from_record"),), None),
    ("matrixio.density_to_record", ((matrixio, "density_to_record"),), None),
    ("matrixio.observable_to_record", ((matrixio, "observable_to_record"),), None),
    ("matrixio.dumps", ((matrixio, "dumps"),),
     _add("matrixio.bytes_written", lambda a, k, out: len(out.encode("utf-8")))),
)

# Counters recorded at the traced boundaries; with the call counts they must
# repeat exactly for one seed.
COUNTERS = (
    "registers.embed.bytes_computed",
    "ovf.guarded_ovf.states_out",
    "ovf.apply_kraus.kraus_in",
    "ovf.to_superop.kraus_out",
    "ovf.SuperOperator.then.kraus_out",
    "semantics.block_channel.kraus_out",
    "ovf.prune_zero_kraus.kept_ratio",
    "semantics.semi_classical.states_out",
    "linalg.choi.bytes_computed",
    "matrixio.bytes_read",
    "matrixio.bytes_written",
)


class Tracer:
    """Installs the spans on entry and restores every patched attribute on exit."""

    def __init__(self):
        self.names: dict[str, int] = {}
        self.spans: list[tuple | None] = []
        self.stack: list[list] = []  # [span index, time covered by children]
        self.op = -1
        self.reset()
        self._undo: list[tuple[object, str, object]] = []
        self.notes: list[str] = []

    def reset(self) -> None:
        """Start a new measurement window for the aggregated figures."""
        self.stats = {name: [0.0, 0, 0] for name, _, _ in TRACED}  # self_s, calls, errors
        self.counts: defaultdict[str, float] = defaultdict(float)

    def __enter__(self) -> "Tracer":
        self.notes.clear()
        for name, sites, counter in TRACED:
            owner, attr = sites[0]
            original = getattr(owner, attr, None)
            if original is None:
                self.notes.append(f"{name}: not found, reported as zero")
                continue
            wrapper = self._wrap(name, original, counter)
            for owner, attr in sites:
                if getattr(owner, attr, None) is original:
                    self._undo.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                else:
                    self.notes.append(f"{name}: {getattr(owner, '__name__', owner)}.{attr} "
                                      "no longer refers to it, not traced there")
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, name: str, fn, counter):
        index = self.names.setdefault(name, len(self.names))
        stack, spans = self.stack, self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            stat = self.stats.setdefault(name, [0.0, 0, 0])
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stat[2] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[frame[0]] = (index, start, end, parent, self.op)
                stat[0] += end - start - frame[1]
                stat[1] += 1
            if counter is not None:
                counter(self.counts, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def op_call(self, index: int, kind: str, call):
        """Run one benchmark op under a root span ``op.<kind>``."""
        self.op = index
        return self._wrap(f"op.{kind}", call, None)()

    def figures(self) -> dict[str, float]:
        """Self time, calls and errors per traced function, plus the counters."""
        out: dict[str, float] = {}
        for name, _, _ in TRACED:
            self_s, calls, errors = self.stats[name]
            out[f"{name}.self_s"] = self_s
            out[f"{name}.calls"] = calls
            out[f"{name}.errors"] = errors
        c = self.counts
        for key in COUNTERS:
            out[key] = c[key]
        offered = c["ovf.prune_zero_kraus.offered"]
        out["ovf.prune_zero_kraus.kept_ratio"] = c["ovf.prune_zero_kraus.kept"] / offered if offered else 1.0
        return out

    def write(self, path: str) -> int:
        """Write every span as one JSON line; returns the span count."""
        names = list(self.names)
        origin = min((s[1] for s in self.spans if s), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                index, start, end, parent, op = s
                fh.write(json.dumps({"name": names[index], "start": start - origin,
                                     "end": end - origin, "parent": parent, "op": op}) + "\n")
        return len(self.spans)
