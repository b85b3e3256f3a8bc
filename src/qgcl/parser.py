"""Concrete syntax for guarded-command quantum programs.

A source file declares quantum variables, named matrices and measurements,
then gives one program.  Sequencing binds loosest, and a chain is one node
however it is parenthesised; arms inside braces are separated by ``;`` and
the parser tells an arm boundary from a sequence by one token of lookahead (a
statement never starts with an integer, ``|`` or ``@``).  Matrices appear by declared name or as
inline JSON records in the shared matrix text format.

    qvar q : 2;
    matrix H = {"rows":2,"cols":2,"entries":[[0.707,0],[0.707,0],[0.707,0],[-0.707,0]]};
    measurement M = { 0: P0; 1: P1 };
    use "gates.json";

    measure x <- M[q] { 0: skip; 1: H[q] }

A ``{`` whose next non-blank character is ``"`` opens an inline matrix: the
lexer decodes the whole JSON record as one token.  No brace of the grammar
can start that way, since a statement never starts with a string.  Numbers
are written with ASCII digits and have at least one digit.

The lexer makes one match per token, blanks and comments before it included.
A token keeps its offset; its ``span`` comes from a table of line starts
where it is read (node spans, diagnostics).  A ``;`` chain is read in a loop.
A matrix the source only implies (a block's ``|i>`` state, a guard's
computational basis) is checked against ``max_dim`` before it is built.
"""

from __future__ import annotations

import json
import math
import os
import re
from bisect import bisect_right
from typing import Any, Callable, NamedTuple

import numpy as np

from . import linalg, matrixio
from .errors import CapacityError, Diagnostic, QgclError, SourceError, Span
from .program import (Abort, Block, GuardBasis, Guarded, Measure, Measurement, ProbChoice, Program,
                      QChoice, QVar, Seq, Skip, Unitary, walk, well_formed)
from .registers import check_cap

# One match per token: the blanks and comments before it, then one
# alternative per token kind, tried in order.  WORD is split into KEYWORD and
# IDENT after the match; JSON matches only the opening brace; EOF matches at
# the end of the text and BAD at any other character.
_TOKEN = re.compile(
    r"""[ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*
      (?: (?P<WORD>[^\W\d]\w*)
        | (?P<JSON>\{(?=[ \t\r\n]*"))
        | (?P<PUNCT><-|->|:=|[\[\]{}();:,|>@=])
        | (?P<FLOAT>(?:-?[0-9]+\.[0-9]*|-\.[0-9]+)(?:[eE][+-]?[0-9]+)?|-?[0-9]+[eE][+-]?[0-9]+)
        | (?P<INT>-?[0-9]+)
        | (?P<STRING>"[^"\\]*(?:\\.[^"\\]*)*")
        | (?P<EOF>\Z)
        | (?P<BAD>.) )""",
    re.VERBOSE | re.DOTALL,
)
_NEWLINE = re.compile("\n")
_JSON = json.JSONDecoder()


class Token(NamedTuple):
    kind: str  # IDENT, KEYWORD, INT, FLOAT, STRING, JSON, PUNCT, EOF
    text: str
    pos: int  # offset of the token's first character in the source
    lines: tuple[int, ...]  # offset of each line's first character in the source
    # JSON: the decoded record.  A "{" whose record does not decode is lexed
    # as PUNCT and carries the reason, reported if a matrix is expected there.
    value: Any = None

    @property
    def span(self) -> Span:
        return _span(self.lines, self.pos)


def _span(lines: tuple[int, ...], pos: int) -> Span:
    line = bisect_right(lines, pos)
    return Span(line, pos - lines[line - 1] + 1)


def _error(code: str, message: str, span: Span | None) -> SourceError:
    return SourceError([Diagnostic(code, message, span)])


def _found(tok: Token) -> str:
    """A token as a diagnostic names it; a record's text is never quoted."""
    return "inline matrix" if tok.kind == "JSON" else repr(tok.text or tok.kind)


def tokenize(text: str) -> list[Token]:
    """The tokens of ``text``, ending with one EOF token."""
    lines = (0, *(m.end() for m in _NEWLINE.finditer(text)))
    tokens: list[Token] = []
    match, pos = _TOKEN.match, 0
    while True:
        m = match(text, pos)
        kind = m.lastgroup
        start, pos = m.span(kind)
        value = None
        if kind == "WORD":
            # \w also admits numeric characters that are not letters; an
            # identifier starts with a letter or "_".
            if not (text[start].isalpha() or text[start] == "_"):
                kind = "BAD"
            else:
                kind = "KEYWORD" if text[start:pos] in KEYWORDS else "IDENT"
        elif kind == "JSON":
            try:
                value, pos = _JSON.raw_decode(text, start)
            except json.JSONDecodeError as exc:
                kind = "PUNCT"
                value = ("unterminated inline matrix" if exc.pos >= len(text) else
                         f"malformed inline matrix: {exc.msg} at {exc.lineno}:{exc.colno}")
        if kind == "BAD":
            bad = text[start]
            message = "unterminated string literal" if bad == '"' else f"unexpected character {bad!r}"
            raise _error("lex", message, _span(lines, start))
        tokens.append(Token(kind, text[start:pos], start, lines, value))
        if kind == "EOF":
            return tokens


class Parser:
    def __init__(self, text: str, *, base_dir: str = ".", max_dim: int = linalg.MAX_DIM_DEFAULT):
        # EOF twice: the parser reads at most one token past the one it
        # consumes last, and it consumes EOF at most once.
        self.tokens = tokenize(text)
        self.tokens.append(self.tokens[-1])
        self.pos = 0
        self.base_dir = base_dir
        self.max_dim = max_dim
        # Declared quantum variables and named matrices and measurements.
        self.qvars: dict[str, int] = {}
        self.matrices: dict[str, np.ndarray] = {}
        self.measurements: dict[str, Measurement] = {}

    # -- token helpers ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def advance(self) -> Token:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise _error("syntax", f"expected {want!r}, found {_found(tok)}", tok.span)
        self.pos += 1
        return tok

    def _arms(self, item: Callable[[], Any]):
        """``{ item (; item)* }``, each ``item`` a rule of the parse."""
        self.expect("PUNCT", "{")
        items = [(yield from item())]
        while self.at("PUNCT", ";"):
            self.advance()
            items.append((yield from item()))
        self.expect("PUNCT", "}")
        return items

    def _outcomes(self, read: Callable[[], Any], what: str, span: Span | None = None):
        """``{ INT : read (; INT : read)* }`` as pairs, each outcome once: a
        repeat is reported at ``span``, by default the opening ``{``."""
        brace = self.peek()

        def arm():
            m = int(self.expect("INT").text)
            self.expect("PUNCT", ":")
            return m, (yield read,)

        arms = yield from self._arms(arm)
        seen = [m for m, _ in arms]
        if len(set(seen)) != len(seen):
            raise _error("syntax", f"duplicate measurement {what} {seen}", span or brace.span)
        return arms

    # -- declarations ------------------------------------------------------

    def parse_source(self) -> Program:
        while (tok := self.peek()).kind == "KEYWORD" and tok.text in _DECLARATIONS:
            _DECLARATIONS[self.advance().text](self)
            self.expect("PUNCT", ";")
        body = self.parse_program()
        self.expect("EOF")
        return body

    def _qvar_declaration(self) -> None:
        name = self.expect("IDENT")
        self.expect("PUNCT", ":")
        dim_tok = self.expect("INT")
        dim = int(dim_tok.text)
        if dim < 2:
            raise _error("declaration", f"dimension of {name.text!r} must be at least 2", dim_tok.span)
        if name.text in self.qvars:
            raise _error("declaration", f"quantum variable {name.text!r} declared twice", name.span)
        self.qvars[name.text] = dim

    def _define(self, table: dict, value: Callable[[], Any]) -> None:
        name = self.expect("IDENT")
        self.expect("PUNCT", "=")
        table[name.text] = value()

    def _use(self) -> None:
        path_tok = self.expect("STRING")
        rel = path_tok.text[1:-1]
        path = rel if os.path.isabs(rel) else os.path.join(self.base_dir, rel)
        try:
            loaded = matrixio.load_definitions(path)
        except (OSError, ValueError, QgclError) as exc:
            raise _error("use", f"cannot load definitions from {rel!r}: {exc}", path_tok.span)
        self.matrices.update(loaded)

    def _matrix_ref(self) -> np.ndarray:
        tok = self.advance()
        if tok.kind == "IDENT":
            if tok.text not in self.matrices:
                raise _error("unknown-name", f"matrix {tok.text!r} is not declared", tok.span)
            return self.matrices[tok.text]
        if tok.kind == "JSON":
            try:
                return matrixio.matrix_from_record(tok.value)
            except QgclError as exc:
                raise _error("syntax", f"bad inline matrix: {exc}", tok.span)
        raise _error(
            "syntax", tok.value or f"expected a matrix name or inline matrix, found {_found(tok)}", tok.span
        )

    def _measurement_literal(self) -> Measurement:
        return Measurement(tuple(walk((self._outcomes, self._matrix_ref, "outcomes"), _call)))

    def _measurement_ref(self) -> Measurement:
        tok = self.peek()
        if tok.kind == "IDENT":
            self.advance()
            if tok.text not in self.measurements:
                raise _error("unknown-name", f"measurement {tok.text!r} is not declared", tok.span)
            return self.measurements[tok.text]
        if self.at("PUNCT", "{"):
            return self._measurement_literal()
        raise _error("syntax", f"expected a measurement, found {_found(tok)}", tok.span)

    def _qvar(self) -> QVar:
        name = self.expect("IDENT")
        if name.text not in self.qvars:
            raise _error("undeclared-variable", f"quantum variable {name.text!r} is not declared", name.span)
        return name.text, self.qvars[name.text]

    def _qvar_list(self) -> tuple[QVar, ...]:
        qvars = [self._qvar()]
        while self.at("PUNCT", ","):
            self.advance()
            qvars.append(self._qvar())
        return tuple(qvars)

    def _qvar_brackets(self) -> tuple[QVar, ...]:
        self.expect("PUNCT", "[")
        qvars = self._qvar_list()
        self.expect("PUNCT", "]")
        return qvars

    # -- programs ----------------------------------------------------------
    # Each reader below is a rule of one ``walk``: it asks for a nested
    # program or statement by yielding ``(reader,)``, so a program of any
    # depth nests no Python frame per level.

    def parse_program(self) -> Program:
        return walk((self._program,), _call)

    def _program(self):
        """A ``;`` chain, collected in a loop into one node at its first ``;``."""
        statements, seps = [(yield self._statement,)], []
        while self.at("PUNCT", ";") and _starts_statement(self.peek(1)):
            seps.append(self.advance())
            statements.append((yield self._statement,))
        return Seq(*statements, span=seps[0].span) if seps else statements[0]

    def _statement(self):
        """One statement.  A ``QgclError`` raised while its node is built,
        such as a coin on a repeated variable, is reported at its first token."""
        tok = self.peek()
        try:
            if tok.kind == "KEYWORD" and tok.text in _STATEMENTS:
                return (yield from _STATEMENTS[tok.text](self))
            if self.at("PUNCT", "("):
                self.advance()
                inner = yield self._program,
                self.expect("PUNCT", ")")
                return inner
            if _starts_statement(tok):
                matrix = self._matrix_ref()
                return Unitary(self._qvar_brackets(), matrix, span=tok.span)
        except (SourceError, CapacityError):
            raise
        except QgclError as exc:
            raise _error("syntax", str(exc), tok.span) from exc
        raise _error("syntax", f"expected a statement, found {_found(tok)}", tok.span)

    def _leaf(self):
        """``abort`` or ``skip``: a statement that nests none."""
        yield from ()
        tok = self.advance()
        return (Abort if tok.text == "abort" else Skip)(span=tok.span)

    def _measure(self):
        start = self.advance()
        xvar = self.expect("IDENT")
        self.expect("PUNCT", "<-")
        measurement = self._measurement_ref()
        qvars = self._qvar_brackets()
        branches = yield from self._outcomes(self._program, "arm", start.span)
        return Measure(xvar.text, qvars, measurement, tuple(branches), span=start.span)

    def _basis_and_arms(self, dim: int, span: Span):
        """``[basis B] { |i> -> P; ... }``, the tail shared by guard and qchoice."""
        basis, arity = None, dim  # the computational basis, built once the arms match it
        if self.at("KEYWORD", "basis"):
            self.advance()
            basis = GuardBasis(self._matrix_ref())
            arity = basis.arity if basis.dim == dim else dim
        else:
            check_cap(dim, self.max_dim)
        arms: dict[int, Program] = {}

        def arm():
            self.expect("PUNCT", "|")
            idx_tok = self.expect("INT")
            idx = int(idx_tok.text)
            self.expect("PUNCT", ">")
            self.expect("PUNCT", "->")
            if idx in arms:
                raise _error("syntax", f"duplicate guard arm |{idx}>", idx_tok.span)
            arms[idx] = yield self._program,

        yield from self._arms(arm)
        if sorted(arms) != list(range(arity)):
            raise _error(
                "guard-arms",
                f"guard arms must enumerate |0>..|{arity - 1}| exactly, got {sorted(arms)}",
                span,
            )
        basis = basis or GuardBasis.computational(dim)
        return basis, tuple(arms[i] for i in range(arity))

    def _guard(self):
        start = self.advance()
        qvars = self._qvar_list()
        basis, branches = yield from self._basis_and_arms(math.prod(d for _, d in qvars), start.span)
        return Guarded(qvars, basis, branches, span=start.span)

    def _block(self):
        start = self.advance()
        self.expect("KEYWORD", "local")
        qvars = self._qvar_list()
        self.expect("PUNCT", ":=")
        if self.at("PUNCT", "|"):
            self.advance()
            idx_tok = self.expect("INT")
            self.expect("PUNCT", ">")
            dim = math.prod(d for _, d in qvars)
            idx = int(idx_tok.text)
            if not 0 <= idx < dim:
                raise _error(
                    "syntax", f"ket |{idx}> out of range for locals of dimension {dim}", idx_tok.span
                )
            check_cap(dim, self.max_dim)
            ket = linalg.basis_ket(dim, idx)
            init = ket @ linalg.dagger(ket)
        else:
            init = self._matrix_ref()
        self.expect("PUNCT", ";")
        body = yield self._program,
        self.expect("KEYWORD", "end")
        return Block(qvars, init, body, span=start.span)

    def _pchoice(self):
        start = self.advance()

        def arm():
            branch = yield self._program,
            self.expect("PUNCT", "@")
            num = self.advance()
            if num.kind not in ("INT", "FLOAT"):
                raise _error("syntax", f"expected a probability, found {_found(num)}", num.span)
            return float(num.text), branch

        weights, branches = zip(*(yield from self._arms(arm)))
        return ProbChoice(weights, branches, span=start.span)

    def _qchoice(self):
        start = self.advance()
        coin = yield self._statement,
        from .program import qvar_layout

        basis, branches = yield from self._basis_and_arms(qvar_layout(coin).dim, start.span)
        return QChoice(coin, basis, branches, span=start.span)


def _call(read: Callable, *args):
    """The parse's rule for ``walk``: a reader, run on the parser's tokens."""
    return read(*args)


# Each keyword that opens a declaration or a statement, with its parser.
_DECLARATIONS: dict[str, Callable[[Parser], None]] = {
    "qvar": Parser._qvar_declaration,
    "matrix": lambda p: p._define(p.matrices, p._matrix_ref),
    "measurement": lambda p: p._define(p.measurements, p._measurement_literal),
    "use": Parser._use,
}
_STATEMENTS: dict[str, Callable[[Parser], Any]] = {
    "abort": Parser._leaf,
    "skip": Parser._leaf,
    "measure": Parser._measure,
    "guard": Parser._guard,
    "begin": Parser._block,
    "pchoice": Parser._pchoice,
    "qchoice": Parser._qchoice,
}
KEYWORDS = frozenset(_DECLARATIONS) | frozenset(_STATEMENTS) | {"basis", "local", "end"}


def _starts_statement(tok: Token) -> bool:
    """One token of lookahead; a ``{`` here opens an inline matrix that did
    not decode, reported by the statement that reads it."""
    if tok.kind == "KEYWORD":
        return tok.text in _STATEMENTS
    return tok.kind in ("IDENT", "JSON") or (tok.kind == "PUNCT" and tok.text in ("(", "{"))


def parse_source(text: str, *, base_dir: str = ".", tol: float = linalg.DEFAULT_TOL,
                 max_dim: int = linalg.MAX_DIM_DEFAULT) -> Program:
    """Parse and well-formedness-check one source text.

    Raises :class:`SourceError` carrying located diagnostics on any lexical,
    syntactic or well-formedness problem, and :class:`CapacityError` when a
    matrix the source implies would exceed ``max_dim``.
    """
    program = Parser(text, base_dir=base_dir, max_dim=max_dim).parse_source()
    diagnostics = well_formed(program, tol)
    if diagnostics:
        raise SourceError(diagnostics)
    return program


def parse_file(path: str, *, tol: float = linalg.DEFAULT_TOL,
               max_dim: int = linalg.MAX_DIM_DEFAULT) -> Program:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_source(text, base_dir=os.path.dirname(os.path.abspath(path)), tol=tol,
                        max_dim=max_dim)


def check_source(text: str, *, base_dir: str = ".", tol: float = linalg.DEFAULT_TOL) -> list[Diagnostic]:
    """All diagnostics of a source text; empty when it is well-formed."""
    try:
        parse_source(text, base_dir=base_dir, tol=tol)
    except SourceError as exc:
        return exc.diagnostics
    return []
