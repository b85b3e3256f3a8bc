import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgcl import linalg as la
from qgcl.errors import CapacityError, SourceError, Span
from qgcl.matrixio import matrix_to_record
from qgcl.parser import Parser, check_source, parse_file, parse_source, tokenize
from qgcl.printer import print_program
from qgcl.program import (
    Abort,
    Block,
    GuardBasis,
    Guarded,
    Measurement,
    ProbChoice,
    QChoice,
    Seq,
    Skip,
    Unitary,
    ast_equal,
)
from qgcl.semantics import denote

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
I2 = la.identity(2)
DATA = os.path.join(os.path.dirname(__file__), "data")


def lit(m) -> str:
    return json.dumps(matrix_to_record(np.asarray(m, dtype=complex)))


PRELUDE = "\n".join(
    [
        "qvar q : 2;",
        "qvar c : 2;",
        "qvar r : 3;",
        f"matrix H = {lit(H)};",
        f"matrix X = {lit(X)};",
        f"matrix I = {lit(I2)};",
        f"measurement M0 = {{ 0: {lit(np.diag([1.0, 0.0]))}; 1: {lit(np.diag([0.0, 1.0]))} }};",
        "",
    ]
)


def parse(body: str):
    return parse_source(PRELUDE + body)


class TestParsing:
    def test_skip(self):
        assert isinstance(parse("skip"), Skip)

    def test_a_chain_is_one_node_however_grouped(self):
        parts = [parse(s) for s in ("H[q]", "X[q]", "skip")]
        for text in ("H[q]; X[q]; skip", "(H[q]; X[q]); skip", "H[q]; (X[q]; skip)"):
            p = parse(text)
            assert isinstance(p, Seq) and len(p.parts) == 3
            assert ast_equal(p, Seq(*parts)) and not any(isinstance(q, Seq) for q in p.parts)

    def test_guard_builds_the_controlled_not(self):
        p = parse("guard c { |0> -> I[q]; |1> -> X[q] }")
        assert isinstance(p, Guarded)
        channel = denote(p)
        # control-first layout: |0><0| (x) I + |1><1| (x) X
        cnot = la.tensor(np.diag([1.0, 0.0]), I2) + la.tensor(np.diag([0.0, 1.0]), X)
        assert channel.layout.names == ("c", "q")
        assert len(channel.kraus) == 1
        assert la.max_abs_diff(channel.kraus[0], cnot) < 1e-12

    def test_qchoice_single_walker_step(self):
        src = PRELUDE + "qchoice H[c] { |0> -> X[q]; |1> -> I[q] }"
        p = parse_source(src)
        assert isinstance(p, QChoice)
        channel = denote(p)
        step = (la.tensor(np.diag([1.0, 0.0]), X) + la.tensor(np.diag([0.0, 1.0]), I2)) @ la.tensor(H, I2)
        assert len(channel.kraus) == 1
        assert la.max_abs_diff(channel.kraus[0], step) < 1e-12

    def test_measure_with_named_measurement(self):
        p = parse("measure x <- M0[q] { 0: skip; 1: X[q] }")
        assert p.x == "x"
        assert p.measurement.outcomes == (0, 1)

    def test_block_with_ket_init(self):
        p = parse("begin local c := |1>; guard c { |0> -> I[q]; |1> -> X[q] } end")
        assert isinstance(p, Block)
        assert la.max_abs_diff(p.init, np.diag([0.0, 1.0])) == 0

    def test_pchoice_weights(self):
        p = parse("pchoice { H[q] @ 0.25; X[q] @ 0.5 }")
        assert isinstance(p, ProbChoice)
        assert p.weights == (0.25, 0.5)

    def test_parenthesised_seq_coin(self):
        p = parse("qchoice (H[c]; X[c]) { |0> -> I[q]; |1> -> X[q] }")
        assert isinstance(p, QChoice)
        assert isinstance(p.coin, Seq)

    def test_inline_matrix_statement(self):
        p = parse(f"{lit(X)}[q]")
        assert isinstance(p, Unitary)
        assert la.max_abs_diff(p.matrix, X) == 0

    def test_guard_with_named_basis(self):
        p = parse("guard c basis H { |0> -> I[q]; |1> -> X[q] }")
        assert la.max_abs_diff(p.basis.matrix, H) == 0

    def test_use_loads_definitions(self, tmp_path):
        defs = {"Y": matrix_to_record(np.array([[0, -1j], [1j, 0]]))}
        path = tmp_path / "gates.json"
        path.write_text(json.dumps(defs))
        src = f'qvar q : 2;\nuse "gates.json";\nY[q]'
        program = parse_source(src, base_dir=str(tmp_path))
        assert isinstance(program, Unitary)
        source_file = tmp_path / "prog.qgcl"
        source_file.write_text(src)
        assert ast_equal(parse_file(str(source_file)), program)

    def test_scientific_notation_in_matrix_entries(self):
        m = parse('{"rows":1,"cols":1,"entries":[[1e0,0.0]]}[q]'.replace('"rows":1,"cols":1', '"rows":2,"cols":2').replace(
            '"entries":[[1e0,0.0]]',
            '"entries":[[1e0,0.0],[0.0,0.0],[0.0,0.0],[-1.0e0,0.0]]',
        ))
        assert la.max_abs_diff(m.matrix, np.diag([1.0, -1.0])) == 0


class TestDiagnostics:
    def test_var_reuse_is_reported_once_at_the_first_semicolon(self):
        arms = "{ 0: skip; 1: skip }"
        [d] = check_source(PRELUDE + f"skip; measure x <- M0[q] {arms}; measure x <- M0[q] {arms}")
        assert (d.code, d.message, str(d.span)) == (
            "var-reuse", "classical variables ['x'] appear on both sides of ';'", "8:5")

    def test_syntax_error_carries_position(self):
        with pytest.raises(SourceError) as exc:
            parse_source("qvar q : 2;\nskip skip")
        d = exc.value.diagnostics[0]
        assert d.code == "syntax"
        assert d.span is not None and d.span.line == 2

    NEGATIVE = [
        ("qvar q : 2;\n$", "lex"),
        ("qvar q : 2;\nskip skip", "syntax"),
        (PRELUDE + "H[w]", "undeclared-variable"),
        (PRELUDE + "W[q]", "unknown-name"),
        (
            PRELUDE + f"measure x <- {{ 0: {lit(np.diag([1.0, 0.0]))} }}[q] {{ 0: skip }}",
            "measure-incomplete",
        ),
        (PRELUDE + "measure x <- M0[q] { 0: skip; 1: skip }; measure x <- M0[q] { 0: skip; 1: skip }", "var-reuse"),
        (PRELUDE + "guard c { |0> -> I[c]; |1> -> X[q] }", "guard-var-overlap"),
        (PRELUDE + "guard c { |0> -> I[q] }", "guard-arms"),
        (PRELUDE + f"begin local c := {lit(np.diag([2.0, 0.0]))}; guard c {{ |0> -> I[q]; |1> -> X[q] }} end", "block-init"),
        (PRELUDE + "pchoice { H[q] @ 0.8; X[q] @ 0.9 }", "prob-weights"),
        (PRELUDE + f"guard c basis {lit(np.array([[1.0, 1.0], [0.0, 0.0]]))} {{ |0> -> I[q]; |1> -> X[q] }}", "guard-basis"),
        (PRELUDE + f"{lit(np.diag([1.0, 0.5]))}[q]", "unitary-nonunitary"),
        (
            PRELUDE
            + f"measure x <- {{ 0: {lit(np.diag([1.0, 0.0]))}; 0: {lit(np.diag([0.0, 1.0]))} }}[q] {{ 0: skip }}",
            "syntax",
        ),
        ('qvar q : 2;\nuse "no-such-defs.json";\nskip', "use"),
        (f'qvar q : 2;\nuse "{os.path.join(DATA, "null_entry_defs.json")}";\nskip', "use"),
        (f'qvar q : 2;\nuse "{os.path.join(DATA, "bool_entry_defs.json")}";\nskip', "use"),
        ("pchoice { skip @ -. }", "lex"),
        ("qvar q : \u00b2;", "lex"),
    ]

    @pytest.mark.parametrize("src,code", NEGATIVE, ids=[c for _, c in NEGATIVE])
    def test_negative_corpus(self, src, code):
        diagnostics = check_source(src)
        assert diagnostics, f"expected a diagnostic of class {code}"
        assert code in {d.code for d in diagnostics}


MATRIX_3_LINES = '{"rows":1,\n "cols":1,\n "entries":[[1,0]]}'


class TestLexer:
    TABLE = [
        ("// note\nskip // end", [("KEYWORD", "skip", 2, 1), ("EOF", "", 2, 12)]),
        (
            "-0.5 -.5 5. 1e-3 1e",
            [("FLOAT", "-0.5", 1, 1), ("FLOAT", "-.5", 1, 6), ("FLOAT", "5.", 1, 10),
             ("FLOAT", "1e-3", 1, 13), ("INT", "1", 1, 18), ("IDENT", "e", 1, 19), ("EOF", "", 1, 20)],
        ),
        ("-> <- :=", [("PUNCT", "->", 1, 1), ("PUNCT", "<-", 1, 4), ("PUNCT", ":=", 1, 7), ("EOF", "", 1, 9)]),
        ('"a\\"b" x', [("STRING", '"a\\"b"', 1, 1), ("IDENT", "x", 1, 8), ("EOF", "", 1, 9)]),
        (
            "{ 0: P }",
            [("PUNCT", "{", 1, 1), ("INT", "0", 1, 3), ("PUNCT", ":", 1, 4), ("IDENT", "P", 1, 6),
             ("PUNCT", "}", 1, 8), ("EOF", "", 1, 9)],
        ),
        ('{ "rows": 1 } x', [("JSON", '{ "rows": 1 }', 1, 1), ("IDENT", "x", 1, 15), ("EOF", "", 1, 16)]),
        ('{"n":"}"} x', [("JSON", '{"n":"}"}', 1, 1), ("IDENT", "x", 1, 11), ("EOF", "", 1, 12)]),
        (MATRIX_3_LINES + " ;", [("JSON", MATRIX_3_LINES, 1, 1), ("PUNCT", ";", 3, 21), ("EOF", "", 3, 22)]),
    ]

    @pytest.mark.parametrize("text,expected", TABLE)
    def test_kind_text_and_span(self, text, expected):
        assert [(t.kind, t.text, t.span.line, t.span.col) for t in tokenize(text)] == expected

    def test_inline_matrix_token_carries_the_record(self):
        tok = tokenize('{"n":"}"}')[0]
        assert tok.value == {"n": "}"}

    def test_diagnostic_after_a_multiline_matrix(self):
        [d] = check_source(f"qvar q : 2;\nmatrix A = {MATRIX_3_LINES};\nskip skip")
        assert (d.code, d.span.line, d.span.col) == ("syntax", 5, 6)

    def test_unterminated_string(self):
        [d] = check_source('qvar q : 2;\nuse "gates.json;\nskip')
        assert (d.code, d.message, d.span.line, d.span.col) == ("lex", "unterminated string literal", 2, 5)

    def test_unterminated_inline_matrix(self):
        [d] = check_source('qvar q : 2;\nskip; {"rows": 2, "cols": 2')
        assert (d.code, d.message, d.span.line, d.span.col) == ("syntax", "unterminated inline matrix", 2, 7)

    def test_diagnostic_names_but_never_quotes_an_inline_matrix(self):
        [d] = check_source('qvar q : 2;\nuse {"rows": 1};\nskip')
        assert d.code == "syntax"
        assert "found inline matrix" in d.message and "rows" not in d.message

    LEX_ERRORS = [
        ('qvar q : 2;\nuse "gates.json;\nskip', "lex", "unterminated string literal", "2:5"),
        ("qvar q : 2;\n  skip; $", "lex", "unexpected character '$'", "2:9"),
        ("qvar q : 2;\r\n\tskip // note\r\n  %", "lex", "unexpected character '%'", "3:3"),
        ("qvar q : 2;\nqvar r : \u00b2;", "lex", "unexpected character '\u00b2'", "2:10"),
        ('qvar q : 2;\nskip; {"rows": 2, "cols": 2', "syntax", "unterminated inline matrix", "2:7"),
        ('qvar q : 2;\nskip;\n  {"rows": 2,, "cols": 2}[q]', "syntax",
         "malformed inline matrix: Expecting property name enclosed in double quotes at 3:14", "3:3"),
        (f"qvar q : 2;\nmeasurement M = {{ 0: {lit(np.diag([1.0, 0.0]))}; "
         f"0: {lit(np.diag([0.0, 1.0]))} }};\nskip", "syntax", "duplicate measurement outcomes [0, 0]", "2:17"),
        (PRELUDE + "skip; measure x <- M0[q] { 1: skip; 1: abort }", "syntax",
         "duplicate measurement arm [1, 1]", "8:7"),
        (PRELUDE + "skip;\n  qchoice H[c, c] { |0> -> skip; |1> -> X[q] }", "syntax",
         "duplicate variable names in layout ['c', 'c']", "9:3"),
    ]

    @pytest.mark.parametrize("text,code,message,where", LEX_ERRORS)
    def test_lex_error_position(self, text, code, message, where):
        [d] = check_source(text)
        assert (d.code, d.message, str(d.span)) == (code, message, where)

    # Sources whose tokens the property below reassembles with other blanks.
    SNIPPETS = [Path(DATA, "..", "..", "samples", name).read_text(encoding="utf-8")
                for name in ("bb84.qgcl", "walk_step.qgcl")] + [
        f"qvar q : 2;\nmatrix A = {MATRIX_3_LINES};\npchoice {{ A[q] @ 0.5; skip @ -.5e1 }}"]
    BLANKS = st.lists(st.sampled_from([" ", "\t", "\n", "\r\n", "// note\n", "//\r\n"]),
                      min_size=1, max_size=3).map("".join)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_spans_are_the_naive_line_and_column_of_each_offset(self, data):
        source = data.draw(st.sampled_from(self.SNIPPETS))
        original = tokenize(source)[:-1]
        blanks = data.draw(st.lists(self.BLANKS, min_size=len(original) + 1,
                                    max_size=len(original) + 1))
        text = blanks[0] + "".join(tok.text + blank for tok, blank in zip(original, blanks[1:]))
        tokens = tokenize(text)
        assert [(t.kind, t.text) for t in tokens] == [(t.kind, t.text) for t in original] + [("EOF", "")]
        for tok in tokens:
            assert text[tok.pos:tok.pos + len(tok.text)] == tok.text
            line_start = text.rfind("\n", 0, tok.pos) + 1
            assert tok.span == Span(text.count("\n", 0, tok.pos) + 1, tok.pos - line_start + 1)


class TestParserLimits:
    def test_a_long_chain_is_one_node(self):
        n = 5000
        words = [("skip", "abort")[i % 2] for i in range(n)]
        program = Parser("; ".join(words)).parse_program()
        starts = np.cumsum([0] + [len(w) + 2 for w in words]) + 1  # columns of the words
        leaves = [(Skip, Abort)[i % 2](span=Span(1, int(starts[i]))) for i in range(n)]
        assert type(program) is Seq and program.span == Span(1, 5)  # its first ';'
        assert ast_equal(program, Seq(*leaves))
        assert [q.span for q in program.parts] == [q.span for q in leaves]

    @pytest.mark.parametrize("dim", [5000, 10**6])
    @pytest.mark.parametrize("body", ["begin local q := |0>; U[r, q] end", "guard q { |0> -> skip }"])
    def test_implied_matrices_are_capped_before_they_are_built(self, dim, body):
        with pytest.raises(CapacityError, match=f"layout dimension {dim} exceeds the cap 4096"):
            parse_source(f"qvar q : {dim}; qvar r : 2; {body}")

    def test_the_cap_is_the_given_max_dim(self):
        guard = "guard q { |0> -> skip; |1> -> skip; |2> -> skip }"
        with pytest.raises(CapacityError, match="layout dimension 3 exceeds the cap 2"):
            parse_source(f"qvar q : 3; {guard}", max_dim=2)
        assert parse_source(f"qvar q : 3; begin local q := |2>; {guard} end", max_dim=3)


class TestRoundTrip:
    def test_a_sequence_coin_keeps_its_parentheses(self):
        coin = Seq(Unitary((("c", 2),), H), Unitary((("c", 2),), X))
        p = QChoice(coin, GuardBasis.computational(2), (Skip(), Unitary((("q", 2),), X)))
        text = print_program(p)
        assert "qchoice (" in text and ast_equal(parse_source(text), p)

    def test_print_parse_on_fifty_programs(self):
        from conftest import corpus

        for p in corpus(50):
            text = print_program(p)
            again = parse_source(text)
            assert ast_equal(p, again), text

    def test_print_uses_declared_names(self):
        p = parse("qchoice H[c] { |0> -> I[q]; |1> -> X[q] }")
        text = print_program(p, matrices={"H": H, "X": X, "I": I2})
        assert "matrix H =" in text and "H[c]" in text
        assert ast_equal(parse_source(text), p)

    def test_print_inlines_unknown_matrices(self):
        p = parse("H[q]")
        text = print_program(p)
        assert '"entries"' in text
        assert ast_equal(parse_source(text), p)

    def test_print_named_measurement(self):
        p = parse("measure x <- M0[q] { 0: skip; 1: X[q] }")
        m0 = Measurement(((0, np.diag([1.0, 0.0])), (1, np.diag([0.0, 1.0]))))
        text = print_program(p, measurements={"M0": m0})
        assert "measurement M0 =" in text and "<- M0[q]" in text
        assert ast_equal(parse_source(text), p)

    def test_printed_ket_init_round_trips(self):
        p = parse("begin local c := |0>; guard c { |0> -> I[q]; |1> -> X[q] } end")
        text = print_program(p)
        assert ":= |0>" in text
        assert ast_equal(parse_source(text), p)

    def test_guard_basis_rendered_by_name_when_declared(self):
        p = parse("guard c basis H { |0> -> I[q]; |1> -> X[q] }")
        named = print_program(p, matrices={"H": H})
        assert "basis H {" in named
        assert ast_equal(parse_source(named), p)
        inline = print_program(p)
        assert "basis {" in inline
        assert ast_equal(parse_source(inline), p)


class TestTwoWalkersSharingCoins:
    """A step of two walkers whose coins are entangled by a shared unitary:
    an entangling gate on both coins, then one quantum choice per walker."""

    SRC = "\n".join(
        [
            "qvar q1 : 4;",
            "qvar q2 : 4;",
            "qvar c1 : 2;",
            "qvar c2 : 2;",
            f"matrix H = {lit(H)};",
            f"matrix U = {lit(np.kron(H, H) @ np.diag([1, 1, 1, -1]))};",
            f"matrix TL = {lit(np.roll(np.eye(4), -1, axis=0))};",
            f"matrix TR = {lit(np.roll(np.eye(4), 1, axis=0))};",
            "",
            "U[c1, c2];",
            "qchoice H[c1] { |0> -> TL[q1]; |1> -> TR[q1] };",
            "qchoice H[c2] { |0> -> TL[q2]; |1> -> TR[q2] }",
        ]
    )

    def test_parses_and_desugars_to_guarded_steps(self):
        from qgcl.program import desugar, well_formed

        p = parse_source(self.SRC)
        assert isinstance(p, Seq) and isinstance(p.parts[0], Unitary)
        step1 = p.parts[1]
        assert isinstance(step1, QChoice) and step1.coin.qvars == (("c1", 2),)
        lowered = desugar(p)
        assert well_formed(lowered) == []
        # each choice's coin and guard are spliced into the one chain
        assert [type(q) for q in lowered.parts] == [Unitary, Unitary, Guarded, Unitary, Guarded]
        assert lowered.parts[2].qvars == (("c1", 2),)

    def test_step_channel_is_unitary_conjugation(self):
        p = parse_source(self.SRC)
        channel = denote(p)
        assert len(channel.kraus) == 1
        assert la.is_unitary(channel.kraus[0], 1e-9)
