"""Concrete syntax round trips and error reporting."""

import gc
import random
import textwrap
import weakref

import pytest

from _fresh import run_fresh
from _gen import scoped_instance
from _machines import M_ACC2, M_FIRST1, M_LASTPROP
from hopfp import frontend
from hopfp.compiler import CodingContext, ReductionParams, build_machine_formula
from hopfp.domains import SetV, State, Tup, make_set
from hopfp.evaluator import compile_formula
from hopfp.frontend import (
    ParseError,
    format_formula,
    format_lts,
    format_tm,
    format_type,
    format_value,
    infer_value_type,
    parse_formula,
    parse_lts,
    parse_tm,
    parse_type,
    parse_value,
)
from hopfp.logic import (
    GROUND as G,
    TT,
    Act,
    Apply,
    Compound,
    Exists,
    Not,
    Or,
    Pfp,
    Prop,
    SetOf,
    _nodes,
    and_,
    formula_size,
    forall,
    implies,
)
from hopfp.lts import ordered_lts
from hopfp.machine import encode_lts

# (text, str of the ParseError, its span as (start, end, line, col) or None).
# Offsets count characters, so the "é" before a fault and the "\r" of a
# CRLF count one each; "\f", "\v" and no-break spaces are atom characters.
FORMULA_ERRORS = [
    ("(or tt\n  (bogus x))", "line 2, col 3: unknown connective 'bogus'", (9, 18, 2, 3)),
    ("tt)", "line 1, col 3: trailing input after a formula", (2, 3, 1, 3)),
    ("tt (", "line 1, col 4: trailing input after a formula", (3, 4, 1, 4)),
    ("(bogus x) )", "line 1, col 11: trailing input after a formula", (10, 11, 1, 11)),
    ("(not tt) tt", "line 1, col 10: trailing input after a formula", (9, 11, 1, 10)),
    (")", "line 1, col 1: unexpected closing parenthesis", (0, 1, 1, 1)),
    ("(not tt", "line 1, col 1: unclosed parenthesis", (0, 1, 1, 1)),
    ("(not (or tt", "line 1, col 6: unclosed parenthesis", (5, 6, 1, 6)),
    ("", "empty input, expected a formula", None),
    ("; only a comment\n  \n", "empty input, expected a formula", None),
    (
        "; head\r\n(or tt\t; note\r\n\t(bogus x))",
        "line 3, col 2: unknown connective 'bogus'",
        (24, 33, 3, 2),
    ),
    ("(or tt\fff)", "line 1, col 5: expected a formula, got 'tt\\x0cff'", (4, 9, 1, 5)),
    ("(or tt\vff)", "line 1, col 5: expected a formula, got 'tt\\x0bff'", (4, 9, 1, 5)),
    ("(not\u00a0tt)", "line 1, col 1: unknown connective 'not\\xa0tt'", (0, 8, 1, 1)),
    ("(or (prop café x) (bogus))", "line 1, col 19: unknown connective 'bogus'", (18, 25, 1, 19)),
    ("foo", "line 1, col 1: expected a formula, got 'foo'", (0, 3, 1, 1)),
    ("()", "line 1, col 1: expected a keyword after (", (0, 2, 1, 1)),
    ("(prop p)", "line 1, col 1: prop takes a name and a variable", (0, 8, 1, 1)),
    ("(act < x)", "line 1, col 1: act takes a name and two variables", (0, 9, 1, 1)),
    ("(app X)", "line 1, col 1: app takes a set variable and arguments", (0, 7, 1, 1)),
    ("(not tt tt)", "line 1, col 1: not takes one formula", (0, 11, 1, 1)),
    ("(imp tt)", "line 1, col 1: imp takes two formulas", (0, 8, 1, 1)),
    ("(exists ((x o)))", "line 1, col 1: exists takes a binder list and a body", (0, 16, 1, 1)),
    (
        "(forall ((x o)) tt tt)",
        "line 1, col 1: forall takes a binder list and a body",
        (0, 22, 1, 1),
    ),
    (
        "(pfp (X (set o)) (x))",
        "line 1, col 1: pfp takes a binder, an argument list and a body",
        (0, 21, 1, 1),
    ),
    ("(pfp (X (set o)) x (app X x))", "line 1, col 18: expected an argument list", (17, 18, 1, 18)),
    ("(exists () tt)", "line 1, col 9: expected a nonempty binder list", (8, 10, 1, 9)),
    ("(exists (x o) tt)", "line 1, col 10: expected (VAR TYPE)", (9, 10, 1, 10)),
    ("(prop (p) x)", "line 1, col 7: expected a proposition name", (6, 9, 1, 7)),
    # a form is converted once per text and context: a bad form written
    # twice is reported where it first occurs, a form read as a binder
    # pair or a type is read again in formula position, and a repeated
    # good form hides no later error
    ("(or (bogus x) tt\n  (bogus x))", "line 1, col 5: unknown connective 'bogus'", (4, 13, 1, 5)),
    ("(or (exists ((x o)) tt) (x o))", "line 1, col 25: unknown connective 'x'", (24, 29, 1, 25)),
    ("(or (exists ((x (set o))) tt) (set o))", "line 1, col 31: unknown connective 'set'", (30, 37, 1, 31)),
    (
        "(and (not (prop p x)) (or (not (prop p x)) (prop p)))",
        "line 1, col 44: prop takes a name and a variable",
        (43, 51, 1, 44),
    ),
]

TYPE_ERRORS = [
    ("int", "line 1, col 1: unknown type 'int'", (0, 3, 1, 1)),
    ("(set)", "line 1, col 1: set takes one element type", (0, 5, 1, 1)),
    ("(set o o)", "line 1, col 1: set takes one element type", (0, 9, 1, 1)),
    ("(tuple)", "line 1, col 1: tuple needs at least one part", (0, 7, 1, 1)),
    ("(powerset o)", "line 1, col 1: unknown type former 'powerset'", (0, 12, 1, 1)),
    ("((set) o)", "line 1, col 1: expected a keyword after (", (0, 9, 1, 1)),
    ("", "empty input, expected a type", None),
]

VALUE_ERRORS = [
    ("nope", "line 1, col 1: unknown state 'nope'", (0, 4, 1, 1)),
    ("s9", "line 1, col 1: unknown state 's9'", (0, 2, 1, 1)),
    ("(pair s0 s1)", "line 1, col 1: unknown value former 'pair'", (0, 12, 1, 1)),
    ("(bag s0)", "line 1, col 1: unknown value former 'bag'", (0, 8, 1, 1)),
    ("(set (tuple s0 s7))", "line 1, col 16: unknown state 's7'", (15, 17, 1, 16)),
    ("(tuple)", "line 1, col 1: tuple needs at least one item", (0, 7, 1, 1)),
    ("(set s0", "line 1, col 1: unclosed parenthesis", (0, 1, 1, 1)),
    (" ; none", "empty input, expected a value", None),
]


def assert_parse_error(parse, text, message, span):
    with pytest.raises(ParseError) as err:
        parse(text)
    got = err.value.span
    assert str(err.value) == message, text
    assert (got and (got.start, got.end, got.line, got.col)) == span, text


class TestTypes:
    def test_parse(self):
        assert parse_type("o") == G
        assert parse_type("(set o)") == SetOf(G)
        assert parse_type("(tuple o (set o))") == Compound((G, SetOf(G)))
        assert parse_type("(set (tuple o o))") == SetOf(Compound((G, G)))

    def test_round_trip(self):
        for t in (G, SetOf(G), Compound((G, SetOf(SetOf(G)))), SetOf(Compound((G, G)))):
            assert parse_type(format_type(t)) == t

    def test_formatting_a_formula_is_a_type_error(self):
        for f in (TT, Exists("x", G, TT)):
            with pytest.raises(TypeError, match="not a type"):
                format_type(f)

    def test_errors(self):
        for text, message, span in TYPE_ERRORS:
            assert_parse_error(parse_type, text, message, span)


class TestFormulaParsing:
    def test_atoms(self):
        assert parse_formula("tt") == TT
        assert parse_formula("ff") == Not(TT)
        assert parse_formula("(prop p x)") == Prop("p", "x")
        assert parse_formula("(act < x y)") == Act("<", "x", "y")
        assert parse_formula("(app X x y)") == Apply("X", ("x", "y"))

    def test_sugar_normalizes(self):
        a, b, c = Prop("p", "x"), Prop("q", "x"), TT
        assert parse_formula("(and (prop p x) (prop q x))") == and_(a, b)
        assert parse_formula("(imp (prop p x) (prop q x))") == implies(a, b)
        assert parse_formula("(forall ((x o)) (prop p x))") == forall("x", G, a)
        assert parse_formula("(or (prop p x) (prop q x) tt)") == Or(a, Or(b, c))
        assert parse_formula("(and)") == TT
        assert parse_formula("(or)") == Not(TT)

    def test_multi_binder_blocks_nest(self):
        got = parse_formula("(exists ((x o) (Y (set o))) tt)")
        assert got == Exists("x", G, Exists("Y", SetOf(G), TT))

    def test_pfp(self):
        got = parse_formula("(pfp (X (set (tuple o o))) (u v) (app X u v))")
        assert got == Pfp("X", SetOf(Compound((G, G))), Apply("X", ("u", "v")), ("u", "v"))

    def test_comments_and_whitespace(self):
        text = """
        ; a comment
        (or tt    ; middle comment
            ff)
        """
        assert parse_formula(text) == Or(TT, Not(TT))

    def test_error_spans(self):
        for text, message, span in FORMULA_ERRORS:
            assert_parse_error(parse_formula, text, message, span)

    def test_successful_reads_locate_nothing(self, monkeypatch):
        def no_span(*args):
            raise AssertionError("a successful read built a SourceSpan")

        monkeypatch.setattr(frontend, "SourceSpan", no_span)
        assert parse_formula("; note\n(or tt\t(prop p x))") == Or(TT, Prop("p", "x"))
        assert parse_type("(set (tuple o o))") == SetOf(Compound((G, G)))
        assert parse_value("(tuple s0 (set s1))", ordered_lts(2)) == Tup((State(0), make_set([State(1)])))

    def test_deep_nesting_reads_and_prints_back(self):
        depth = 3000
        built = TT
        for _ in range(depth):
            built = Not(built)
        text = "(not " * depth + "tt" + ")" * depth
        assert parse_formula(text) is built
        assert format_formula(built) == text

    def test_printing_leaves_the_recursion_limit(self):
        # the printer walks formulas and types iteratively, and a type
        # carries its order, so a formula or a binder type nested far
        # deeper than the default limit of 1000 frames prints, reads
        # back and is ordered without raising it
        script = textwrap.dedent("""
            import sys
            from hopfp.frontend import format_formula, parse_formula
            from hopfp.logic import GROUND, TT, Exists, Not, SetOf, formula_order
            f, t = TT, GROUND
            for _ in range(3000):
                f, t = Not(f), SetOf(t)
            print(format_formula(f) == "(not " * 3000 + "tt" + ")" * 3000)
            g = Exists("x", t, TT)
            print(parse_formula(format_formula(g)) is g, formula_order(g))
            print(sys.getrecursionlimit())
        """)
        proc = run_fresh("-c", script)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout == "True\nTrue 3001\n1000\n"

    def test_reading_leaves_the_recursion_limit(self):
        # the readers keep their waiting converters on a list, so forms
        # nested far deeper than the default limit of 1000 frames read
        # without raising it; a nested value is walked by hand, as ==
        # on it would recurse
        script = textwrap.dedent("""
            import sys
            from hopfp.domains import SetV, State, Tup
            from hopfp.frontend import parse_formula, parse_type, parse_value
            from hopfp.logic import GROUND, TT, Not, SetOf
            from hopfp.lts import ordered_lts
            f, t = TT, GROUND
            for _ in range(3000):
                f, t = Not(f), SetOf(t)
            print(parse_formula("(not " * 3000 + "tt" + ")" * 3000) is f)
            print(parse_type("(set " * 3000 + "o" + ")" * 3000) is t)
            v = parse_value("(set (tuple " * 1500 + "s1" + "))" * 1500, ordered_lts(2))
            depth = 0
            while isinstance(v, (SetV, Tup)):
                (v,) = v.members if isinstance(v, SetV) else v.items
                depth += 1
            print(depth, v == State(1))
            print(sys.getrecursionlimit())
        """)
        proc = run_fresh("-c", script)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout == "True\nTrue\n3000 True\n1000\n"

    def test_reading_converts_each_distinct_form_once(self, monkeypatch):
        # the c07 and c08 texts are trees of 13,972 and 78,823 nodes over
        # 709 and 1,478 distinct ones; reading one back constructs each
        # distinct node once, through the constructor or sugar function
        # of its form
        host = ordered_lts(6, (), ("p",), labels={(5, "p")})
        c07 = CodingContext(ordered_lts(2), M_ACC2, ReductionParams(2, 1)), "1" * 16
        c08 = CodingContext(host, M_LASTPROP, ReductionParams(1, 1)), encode_lts(host)
        formulas = [build_machine_formula(*case) for case in (c07, c08)]
        texts = [format_formula(f) for f in formulas]
        calls = []
        for name in ("Prop", "Act", "Apply", "Not", "disj", "conj", "implies", "exists_all", "forall_all", "Pfp"):
            def counted(*args, make=getattr(frontend, name)):
                calls.append(make)
                return make(*args)

            monkeypatch.setattr(frontend, name, counted)
        for built, text, sizes in zip(formulas, texts, [(709, 13972), (1478, 78823)]):
            calls.clear()
            assert parse_formula(text) is built
            nodes = _nodes(built)
            assert (len(nodes), formula_size(built)) == sizes
            assert len(calls) == len(nodes) - (TT in nodes)

    def test_printer_reads_back(self):
        for seed in range(80):
            rng = random.Random(seed)
            _, f = scoped_instance(rng)
            assert parse_formula(format_formula(f)) is f

    def test_reparsed_machine_formula_evaluates_like_the_built_one(self):
        # the height-two shape: the printed text is a tree, the built
        # formula a DAG, and reading the text back must rebuild the DAG
        host = ordered_lts(2)
        ctx = CodingContext(host, M_ACC2, ReductionParams(2, 1))
        built = build_machine_formula(ctx, "1" * 16)
        text = format_formula(built)
        assert parse_formula(text) is built

        def run(f):
            compiled = compile_formula(host, f)
            return compiled(), compiled.stats, compiled.traces

        want = run(built)
        gone = weakref.ref(built)
        del built
        gc.collect()
        assert gone() is None
        assert run(parse_formula(text)) == want

    def test_canonical_text_survives_printing(self):
        texts = [
            "tt",
            "(not tt)",
            "(or (not tt) (prop p x))",
            "(exists ((x o)) (act < x x))",
            "(pfp (X (set o)) (x) (app X x))",
        ]
        for text in texts:
            assert format_formula(parse_formula(text)) == text


class TestValues:
    def setup_method(self):
        self.T = ordered_lts(3)

    def test_parse(self):
        assert parse_value("s1", self.T) == State(1)
        assert parse_value("(tuple s0 s2)", self.T) == Tup((State(0), State(2)))
        assert parse_value("(set s2 s0)", self.T) == make_set([State(0), State(2)])
        assert parse_value("(set)", self.T) == SetV(())

    def test_nested(self):
        v = parse_value("(set (tuple s0 (set s1)))", self.T)
        assert v == make_set([Tup((State(0), make_set([State(1)])))])

    def test_round_trip(self):
        for text in ("s0", "(tuple s1 s2)", "(set s0 s2)", "(set)", "(set (set) (set s0))"):
            v = parse_value(text, self.T)
            assert parse_value(format_value(v, self.T), self.T) == v

    def test_errors(self):
        for text, message, span in VALUE_ERRORS:
            assert_parse_error(lambda t: parse_value(t, self.T), text, message, span)

    def test_infer_type(self):
        assert infer_value_type(State(0)) == G
        assert infer_value_type(Tup((State(0), make_set([State(1)])))) == Compound((G, SetOf(G)))
        assert infer_value_type(make_set([State(0)])) == SetOf(G)
        with pytest.raises(ParseError):
            infer_value_type(SetV(()))


LTS_TEXT = """
; three states on a chain with one extra action
states: a b c
actions: go
props: p
edge: a go b
edge: b go c
label: c p
ordered
"""


class TestLtsFormat:
    def test_parse(self):
        T = parse_lts(LTS_TEXT)
        assert T.states == ("a", "b", "c")
        assert T.actions == ("<", "go")
        assert T.props == ("p",)
        assert (0, "go", 1) in T.edges
        assert (0, "<", 2) in T.edges
        assert (2, "<", 0) not in T.edges
        assert (2, "p") in T.labels

    def test_explicit_order_edges(self):
        T = parse_lts("states: x y\nactions: <\nedge: y < x\n")
        assert (1, "<", 0) in T.edges
        assert (0, "<", 1) not in T.edges

    def test_printer_reads_back(self):
        T = parse_lts(LTS_TEXT)
        assert parse_lts(format_lts(T)) == T
        assert parse_lts(format_lts(ordered_lts(4, ("go",)))) == ordered_lts(4, ("go",))

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_lts("states: a\nedge: a go a\n")
        with pytest.raises(ParseError):
            parse_lts("states: a\nbogus: 1\n")
        with pytest.raises(ParseError):
            parse_lts("states: a a\n")
        with pytest.raises(ParseError):
            parse_lts("states: a\nlabel: a p\n")
        with pytest.raises(ParseError) as err:
            parse_lts("states: a b\nedge: a < c\n")
        assert err.value.span.line == 2


TM_TEXT = """
states: q0 qa qr
input: 0 1
tape: 0 1 _
blank: _
init: q0
accept: qa
reject: qr
delta: q0 1 -> qa 1 N
delta: q0 0 -> qr 0 N
delta: q0 _ -> qr _ N
"""


class TestTmFormat:
    def test_parse_matches_programmatic_spec(self):
        assert parse_tm(TM_TEXT) == M_FIRST1

    def test_halting_rules_filled(self):
        m = parse_tm(TM_TEXT)
        assert m.delta[("qa", "0")] == ("qa", "0", "N")

    def test_printer_reads_back(self):
        assert parse_tm(format_tm(M_FIRST1)) == M_FIRST1
        # the printed table carries the filled halting rules along
        assert "qa 0 -> qa 0 N" in format_tm(M_FIRST1)

    def test_missing_entries_reported(self):
        with pytest.raises(ParseError) as err:
            parse_tm("states: q0 qa qr\ninput: 0\ntape: 0 _\n")
        msg = str(err.value)
        for key in ("blank", "init", "accept", "reject"):
            assert key in msg

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_tm(TM_TEXT + "delta: q0 1 -> qa 1 N\n")
        with pytest.raises(ParseError):
            parse_tm(TM_TEXT + "init: q0\n")
        with pytest.raises(ParseError):
            parse_tm(TM_TEXT.replace("-> qa 1 N", "qa 1 N"))
        with pytest.raises(ParseError):
            parse_tm(TM_TEXT.replace("qa 1 N", "qa 1 X"))
