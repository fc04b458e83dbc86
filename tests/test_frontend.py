"""Concrete syntax round trips and error reporting."""

import gc
import random
import weakref

import pytest

from _gen import scoped_instance
from _machines import M_ACC2, M_FIRST1
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
    and_,
    forall,
    implies,
)
from hopfp.lts import ordered_lts


class TestTypes:
    def test_parse(self):
        assert parse_type("o") == G
        assert parse_type("(set o)") == SetOf(G)
        assert parse_type("(tuple o (set o))") == Compound((G, SetOf(G)))
        assert parse_type("(set (tuple o o))") == SetOf(Compound((G, G)))

    def test_round_trip(self):
        for t in (G, SetOf(G), Compound((G, SetOf(SetOf(G)))), SetOf(Compound((G, G)))):
            assert parse_type(format_type(t)) == t

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_type("int")
        with pytest.raises(ParseError):
            parse_type("(set)")
        with pytest.raises(ParseError):
            parse_type("(tuple)")
        with pytest.raises(ParseError):
            parse_type("(powerset o)")


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
        with pytest.raises(ParseError) as err:
            parse_formula("(or tt\n  (bogus x))")
        assert err.value.span.line == 2
        assert "line 2" in str(err.value)
        with pytest.raises(ParseError):
            parse_formula("(not tt")
        with pytest.raises(ParseError):
            parse_formula("(not tt) tt")
        with pytest.raises(ParseError):
            parse_formula("")
        with pytest.raises(ParseError):
            parse_formula("(exists (x o) tt)")

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
        with pytest.raises(ParseError):
            parse_value("nope", self.T)
        with pytest.raises(ParseError):
            parse_value("(pair s0 s1)", self.T)

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
        assert T.has_edge(0, "go", 1)
        assert T.has_edge(0, "<", 2)
        assert not T.has_edge(2, "<", 0)
        assert T.holds(2, "p")

    def test_explicit_order_edges(self):
        T = parse_lts("states: x y\nactions: <\nedge: y < x\n")
        assert T.has_edge(1, "<", 0)
        assert not T.has_edge(0, "<", 1)

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
