"""Typing rules, sugar normalization, interning and static measures."""

import copy
import dataclasses
import gc
import pickle
import signal
import textwrap
import weakref

import pytest

from _fresh import run_fresh
from hopfp import logic
from hopfp.logic import (
    GROUND,
    TT,
    Act,
    Apply,
    Compound,
    Exists,
    Ground,
    Not,
    Or,
    Pfp,
    Prop,
    SetOf,
    Tru,
    TypingError,
    and_,
    applied_arg_types,
    check_well_formed,
    conj,
    disj,
    exists_all,
    false_,
    forall,
    formula_order,
    formula_size,
    implies,
    order_of,
)

G = GROUND
GG = Compound((G, G))


class TestTypes:
    def test_orders(self):
        assert order_of(G) == 1
        assert order_of(GG) == 1
        assert order_of(SetOf(G)) == 2
        assert order_of(Compound((G, SetOf(G)))) == 2
        assert order_of(SetOf(SetOf(G))) == 3
        assert order_of(SetOf(Compound((G, SetOf(G))))) == 3

    def test_empty_compound_rejected(self):
        with pytest.raises(TypingError):
            Compound(())

    def test_applied_arg_types(self):
        assert applied_arg_types(SetOf(GG)) == (G, G)
        assert applied_arg_types(SetOf(G)) == (G,)
        # non-compound elements are taken whole, one argument
        assert applied_arg_types(SetOf(SetOf(G))) == (SetOf(G),)
        assert applied_arg_types(SetOf(SetOf(GG))) == (SetOf(GG),)
        with pytest.raises(TypingError):
            applied_arg_types(GG)


class TestSugar:
    def test_shapes(self):
        a, b = Prop("p", "x"), Prop("q", "x")
        assert false_() == Not(TT)
        assert and_(a, b) == Not(Or(Not(a), Not(b)))
        assert implies(a, b) == Or(Not(a), b)
        assert forall("x", G, a) == Not(Exists("x", G, Not(a)))

    def test_folds(self):
        a, b, c = Prop("p", "x"), Prop("q", "x"), Tru()
        assert conj([]) == TT
        assert conj([a]) == a
        assert conj([a, b, c]) == and_(a, and_(b, c))
        assert disj([]) == false_()
        assert disj([a, b, c]) == Or(a, Or(b, c))

    def test_exists_all_order(self):
        f = exists_all([("x", G), ("Y", SetOf(G))], TT)
        assert f == Exists("x", G, Exists("Y", SetOf(G), TT))


class TestWellFormedness:
    def test_annotation(self):
        # checking annotates nothing: it returns the formula and builds no node
        f = Exists("X", SetOf(GG), Exists("x", G, Exists("y", G, Apply("X", ("x", "y")))))
        gc.collect()
        before = len(logic._NODES)
        assert check_well_formed(f) is f
        assert check_well_formed(f) is f
        assert len(logic._NODES) == before

    def test_context_supplies_free_variables(self):
        f = Apply("X", ("x",))
        with pytest.raises(TypingError):
            check_well_formed(f)
        assert check_well_formed(f, {"X": SetOf(G), "x": G}) is f

    def test_prop_act_need_ground(self):
        with pytest.raises(TypingError):
            check_well_formed(Prop("p", "X"), {"X": SetOf(G)})
        with pytest.raises(TypingError):
            check_well_formed(Act("a", "x", "Y"), {"x": G, "Y": SetOf(G)})

    def test_apply_arity_and_types(self):
        ctx = {"X": SetOf(GG), "x": G, "S": SetOf(G)}
        with pytest.raises(TypingError):
            check_well_formed(Apply("X", ("x",)), ctx)
        with pytest.raises(TypingError):
            check_well_formed(Apply("X", ("x", "S")), ctx)
        with pytest.raises(TypingError):
            check_well_formed(Apply("x", ("x",)), ctx)

    def test_higher_order_apply_takes_whole_set(self):
        ctx = {"F": SetOf(SetOf(G)), "S": SetOf(G), "x": G}
        f = Apply("F", ("S",))
        assert check_well_formed(f, ctx) is f
        with pytest.raises(TypingError):
            check_well_formed(Apply("F", ("x",)), ctx)

    def test_pfp_rules(self):
        body = Apply("X", ("u", "v"))
        ok = Pfp("X", SetOf(GG), body, ("u", "v"))
        assert check_well_formed(ok, {"u": G, "v": G}) is ok
        with pytest.raises(TypingError):
            check_well_formed(Pfp("X", GG, TT, ("u", "v")), {"u": G, "v": G})
        with pytest.raises(TypingError):
            check_well_formed(Pfp("X", SetOf(GG), TT, ("u",)), {"u": G})
        with pytest.raises(TypingError):
            check_well_formed(Pfp("X", SetOf(GG), TT, ("u", "u")), {"u": G})
        # argument variables live in the surrounding scope
        with pytest.raises(TypingError):
            check_well_formed(Pfp("X", SetOf(G), Exists("u", G, TT), ("u",)))

    def test_shadowing_resolves_innermost(self):
        f = Exists("x", SetOf(G), Exists("x", G, Prop("p", "x")))
        check_well_formed(f)
        g = Exists("x", G, Exists("x", SetOf(G), Prop("p", "x")))
        with pytest.raises(TypingError):
            check_well_formed(g)

    def test_shared_subformula_checked_per_typing_of_its_variables(self):
        inner = Apply("S", ("x",))
        ground = Exists("S", SetOf(G), Exists("x", G, inner))
        lifted = Exists("S", SetOf(SetOf(G)), Exists("x", SetOf(G), inner))
        both = and_(ground, lifted)
        assert check_well_formed(both) is both
        # the same node with x left unbound, or typed against S, in the
        # same pass
        open_x = Exists("S", SetOf(G), inner)
        with pytest.raises(TypingError, match="unbound variable 'x'"):
            check_well_formed(conj([ground, lifted, open_x]))
        mixed = Exists("S", SetOf(G), Exists("x", SetOf(G), inner))
        with pytest.raises(TypingError, match="argument 'x' of 'S' has type set"):
            check_well_formed(conj([ground, lifted, mixed]))


class TestInterning:
    def test_types_are_interned(self):
        t = SetOf(Compound((G, SetOf(G))))
        assert t is SetOf(Compound((GROUND, SetOf(GROUND))))
        assert Ground() is G and type(t).__hash__ is object.__hash__
        assert pickle.loads(pickle.dumps(t)) is t
        assert copy.deepcopy(t) is t and copy.copy(t) is t
        f = Exists("X", t, TT)
        assert pickle.loads(pickle.dumps(f)) is f
        assert copy.deepcopy(f) is f
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.elem = G

    def test_same_fields_same_node(self):
        assert Tru() is TT
        assert Apply("X", ("x",)) is Apply(head="X", args=("x",))
        a, b = Prop("p", "x"), Act("a", "x", "y")
        assert and_(a, b) is and_(a, b)
        assert and_(a, b) is not and_(b, a)
        # types are interned too, so equal types give one node
        assert Exists("X", SetOf(GG), TT) is Exists("X", SetOf(Compound((G, G))), TT)
        assert Pfp("X", SetOf(G), Apply("X", ("u",)), ("u",)) is Pfp(
            "X", SetOf(G), Apply("X", ("u",)), ("u",)
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.var = "y"
        f = forall("x", G, and_(a, b))
        assert copy.deepcopy(f) is f
        assert pickle.loads(pickle.dumps(f)) is f
        with pytest.raises(TypeError):
            Not(TT, TT)
        with pytest.raises(TypeError):
            Apply("X")

    def test_checking_twice_gives_the_same_formula(self):
        f = Exists("X", SetOf(GG), forall("x", G, Exists("y", G, and_(
            Apply("X", ("x", "y")), Pfp("Z", SetOf(G), Or(Apply("Z", ("x",)), Prop("p", "x")), ("x",))))))
        once = check_well_formed(f)
        assert once is f
        assert check_well_formed(once) is once

    def test_dropped_formula_leaves_the_table(self):
        gc.collect()
        before = len(logic._NODES)
        f = TT
        for i in range(5000):
            f = and_(Or(f, Prop("p", "x%d" % (i % 5))), Exists("y", G, Act("a", "x", "y")))
        assert len(logic._NODES) > before + 5000
        root = weakref.ref(f)
        del f
        gc.collect()
        assert root() is None
        assert len(logic._NODES) == before


class TestMeasures:
    def test_free_vars(self):
        f = Exists("x", G, Or(Prop("p", "x"), Act("a", "x", "y")))
        assert f.free == {"y"}
        pf = Pfp("X", SetOf(G), Or(Apply("X", ("z",)), Prop("p", "w")), ("z",))
        assert pf.free == {"z", "w"}
        assert TT.free == frozenset()
        assert forall("x", G, Apply("X", ("x", "y"))).free == {"X", "y"}

    def test_formula_order(self):
        assert formula_order(Exists("x", G, Prop("p", "x"))) == 1
        assert formula_order(Exists("X", SetOf(G), TT)) == 2
        # fixpoints over ground relations stay first order
        pf = Pfp("X", SetOf(GG), Apply("X", ("u", "v")), ("u", "v"))
        assert formula_order(pf, {"u": G, "v": G}) == 1
        pf2 = Pfp("X", SetOf(SetOf(G)), Apply("X", ("S",)), ("S",))
        assert formula_order(pf2, {"S": SetOf(G)}) == 2
        assert formula_order(Apply("X", ("x",)), {"X": SetOf(G), "x": G}) == 2

    def test_formula_size(self):
        assert formula_size(TT) == 1
        assert formula_size(and_(TT, TT)) == 6
        assert formula_size(Exists("x", G, Prop("p", "x"))) == 2

    def test_deep_formula_in_a_fresh_interpreter(self):
        # checking and measuring walk without recursion, so a formula
        # nested far deeper than the default limit of 1000 frames needs
        # no raised limit
        script = textwrap.dedent("""
            import sys
            from hopfp.logic import GROUND, Prop, check_well_formed, conj, formula_order, formula_size
            f = conj([Prop("p", "x")] * 3000)
            ctx = {"x": GROUND}
            print(check_well_formed(f, ctx) is f, formula_size(f), formula_order(f, ctx))
            print(sys.getrecursionlimit())
        """)
        proc = run_fresh("-c", script)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout == "True %d 1\n1000\n" % (1 + 5 * 2999)

    def test_measures_visit_each_shared_node_once(self):
        # a tree walk would take 2**65 steps; a stuck walk fails the test
        g = Prop("p", "x")
        for _ in range(64):
            g = Or(g, g)

        def stuck(signum, frame):
            raise TimeoutError("a measure walked the tree instead of the DAG")

        old = signal.signal(signal.SIGALRM, stuck)
        signal.alarm(10)
        try:
            assert formula_size(g) == 2**65 - 1
            assert formula_order(g) == 1
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
