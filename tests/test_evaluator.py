"""Evaluator semantics, fixpoint traces and resource accounting.

The heavy lifting is a differential test: random well-typed formulas on
random small systems are evaluated both by the fast evaluator and by the
literal structural one in _reference, which share no code paths.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gen import random_formula, random_lts, scoped_instance
from _reference import ref_eval, ref_pfp_limit
from hopfp.domains import (
    BudgetError,
    ConformanceError,
    SetV,
    State,
    make_set,
)
from hopfp.evaluator import EvalStats, compile_formula, evaluate, pfp_iterate
from hopfp.frontend import format_formula
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
    TypingError,
    and_,
    check_well_formed,
    forall,
)
from hopfp.lts import ordered_lts

GG = Compound((G, G))


# ---------------------------------------------------------------------------
# direct cases


def lab_lts():
    return ordered_lts(3, actions=("a",), props=("p",),
                       edges=((0, "a", 1), (1, "a", 2), (2, "a", 0)),
                       labels=((2, "p"),))


class TestBasics:
    def test_atoms_and_quantifiers(self):
        T = lab_lts()
        assert evaluate(T, Exists("x", G, Prop("p", "x")))
        assert not evaluate(T, forall("x", G, Prop("p", "x")))
        assert evaluate(T, Exists("x", G, Exists("y", G, Act("<", "x", "y"))))
        assert not evaluate(T, Exists("x", G, Act("<", "x", "x")))

    def test_unknown_vocabulary_is_empty(self):
        T = lab_lts()
        assert not evaluate(T, Exists("x", G, Prop("nope", "x")))
        assert not evaluate(T, Exists("x", G, Exists("y", G, Act("nope", "x", "y"))))

    def test_free_variables_from_env(self):
        T = lab_lts()
        ctx = {"x": G}
        assert evaluate(T, Prop("p", "x"), env={"x": State(2)}, ctx=ctx)
        assert not evaluate(T, Prop("p", "x"), env={"x": State(0)}, ctx=ctx)

    def test_env_conformance(self):
        T = lab_lts()
        with pytest.raises(TypingError):
            evaluate(T, Prop("p", "x"), env={"x": State(2)})
        with pytest.raises(ConformanceError):
            evaluate(T, Prop("p", "x"), env={"x": State(5)}, ctx={"x": G})
        with pytest.raises(ConformanceError):
            evaluate(T, Prop("p", "x"), ctx={"x": G})
        with pytest.raises(ConformanceError):
            evaluate(T, TT, env={"x": State(0)})

    def test_set_binding(self):
        T = lab_lts()
        ctx = {"X": SetOf(G), "x": G}
        f = Apply("X", ("x",))
        env = {"X": make_set([State(0), State(2)]), "x": State(2)}
        assert evaluate(T, f, env=env, ctx=ctx)
        env["x"] = State(1)
        assert not evaluate(T, f, env=env, ctx=ctx)

    def test_second_order_exists(self):
        T = lab_lts()
        # some set contains exactly the labeled states
        f = Exists("X", SetOf(G), forall("y", G,
            and_(Or(Not(Apply("X", ("y",))), Prop("p", "y")),
                 Or(Not(Prop("p", "y")), Apply("X", ("y",))))))
        assert evaluate(T, f)

    def test_budget(self):
        T = lab_lts()
        f = Exists("R", SetOf(GG), TT)
        with pytest.raises(BudgetError):
            evaluate(T, f, budget=100)
        assert evaluate(T, f, budget=512)


class TestPfp:
    def test_constant_stage_stabilizes_immediately(self):
        T = lab_lts()
        pf = Pfp("X", SetOf(G), TT, ("x",))
        tr = pfp_iterate(T, pf)
        assert tr.outcome == "stabilized"
        assert tr.stabilized_at == 1
        assert tr.stages[0] == frozenset()
        assert tr.limit() == frozenset({0, 1, 2})

    def test_flip_has_no_fixpoint(self):
        T = lab_lts()
        pf = Pfp("X", SetOf(G), Not(Apply("X", ("x",))), ("x",))
        tr = pfp_iterate(T, pf)
        assert tr.outcome == "no-fixpoint"
        assert tr.stabilized_at is None
        assert tr.limit() == frozenset()
        assert not evaluate(T, Exists("x", G, pf))

    def test_stage_value_decodes(self):
        T = lab_lts()
        pf = Pfp("X", SetOf(G), Prop("p", "x"), ("x",))
        tr = pfp_iterate(T, pf)
        assert tr.stage_value(tr.stabilized_at) == SetV((State(2),))

    def test_reachability_equals_bfs(self):
        # x reachable from the least state along action a
        src = forall("w", G, Not(Act("<", "w", "x")))
        step = Exists("y", G, and_(Apply("X", ("y",)), Act("a", "y", "x")))
        pf = Pfp("X", SetOf(G), Or(src, step), ("x",))
        for seed in range(25):
            rng = random.Random(seed)
            n = rng.randint(1, 5)
            edges = [(i, "a", j) for i in range(n) for j in range(n) if rng.random() < 0.35]
            T = ordered_lts(n, actions=("a",), edges=edges)
            reach = {0}
            frontier = [0]
            while frontier:
                u = frontier.pop()
                for (a, _, b) in [(i, None, j) for (i, _, j) in edges]:
                    if a == u and b not in reach:
                        reach.add(b)
                        frontier.append(b)
            tr = pfp_iterate(T, pf)
            assert tr.outcome == "stabilized"
            assert tr.limit() == frozenset(reach), (seed, edges)

    def test_limit_shared_across_outer_bindings(self):
        T = lab_lts()
        pf = Pfp("X", SetOf(G), Or(Prop("p", "x"),
                 Exists("y", G, and_(Apply("X", ("y",)), Act("<", "y", "x")))), ("x",))
        stats = EvalStats()
        evaluate(T, Exists("x", G, pf), stats=stats)
        single = EvalStats()
        pfp_iterate(T, pf, stats=single)
        # one iteration run serves every binding of x
        assert stats.pfp_iterations == single.pfp_iterations

    def test_nested_env_dependent_fixpoint(self):
        T = lab_lts()
        # members below a cutoff z: limit depends on the outer binding
        pf = Pfp("X", SetOf(G), Act("<", "x", "z"), ("x",))
        ctx = {"z": G}
        for z in range(3):
            tr = pfp_iterate(T, pf, env={"z": State(z)}, ctx=ctx)
            assert tr.limit() == frozenset(range(z))

    def test_long_stage_cycle_has_no_fixpoint(self):
        # X = {i} steps to {i + 1 mod 3}: the stages cycle through three sets
        T = lab_lts()
        start = and_(Not(Exists("y", G, Apply("X", ("y",)))), Prop("p", "x"))
        step = Exists("y", G, and_(Apply("X", ("y",)), Act("a", "y", "x")))
        pf = Pfp("X", SetOf(G), Or(start, step), ("x",))
        tr = pfp_iterate(T, pf)
        assert tr.stages == (frozenset(), {2}, {0}, {1}, {2})
        assert tr.outcome == "no-fixpoint"
        assert tr.limit() == frozenset()
        assert evaluate(T, Exists("x", G, pf)) is False

    def test_compiled_traces_per_outer_binding(self):
        # the limit depends on z, so each binding of z runs its own iteration
        T = lab_lts()
        pf = Pfp("X", SetOf(G), Or(Act("<", "x", "z"),
                 Exists("y", G, and_(Apply("X", ("y",)), Act("a", "y", "x")))), ("x",))
        # only z = s2 carries p, so every z is tried
        compiled = compile_formula(T, Exists("z", G, Exists("x", G, and_(pf, Prop("p", "z")))))
        assert compiled() is True
        runs = compiled.traces
        assert len(runs) == 3
        for z, tr in enumerate(runs):
            assert tr == pfp_iterate(T, pf, env={"z": State(z)}, ctx={"z": G})

    def test_args_need_no_outer_binding_in_iterate(self):
        T = lab_lts()
        pf = Pfp("X", SetOf(GG), Act("a", "u", "v"), ("u", "v"))
        tr = pfp_iterate(T, pf)
        assert tr.outcome == "stabilized"
        assert len(tr.limit()) == 3


class TestStats:
    def test_counts_are_deterministic(self):
        T = lab_lts()
        f = Exists("X", SetOf(G), Exists("x", G,
            and_(Apply("X", ("x",)), Prop("p", "x"))))
        a, b = EvalStats(), EvalStats()
        assert evaluate(T, f, stats=a) == evaluate(T, f, stats=b)
        assert a == b
        assert a.subformula_evals > 0
        assert a.peak_live_values > 0

    def test_peak_live_grows_with_nesting(self):
        T = lab_lts()
        shallow = EvalStats()
        evaluate(T, forall("x", G, TT), stats=shallow)
        deep = EvalStats()
        evaluate(T, forall("x", G, forall("y", G, forall("z", G, TT))), stats=deep)
        assert deep.peak_live_values > shallow.peak_live_values


# ---------------------------------------------------------------------------
# differential testing against the structural reference


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_differential_against_reference(seed):
    rng = random.Random(seed)
    T, f = scoped_instance(rng)
    want = ref_eval(T, f)
    got = evaluate(T, f)
    assert got == want


def _assert_pfp_trace_matches_reference(T, pf: Pfp, scope: dict, env: dict) -> None:
    ref_limit, ref_stages = ref_pfp_limit(T, check_well_formed(pf, scope), env)
    ctx = {v: t for v, t in scope.items() if v not in pf.args}
    tr = pfp_iterate(T, pf, env=env, ctx=ctx)
    assert [tr.stage_value(i) for i in range(len(tr.stages))] == ref_stages
    assert make_set([State(i) for i in tr.limit()]) == ref_limit


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_differential_pfp_traces(seed):
    rng = random.Random(seed)
    T = random_lts(rng)
    scope = {"g1": G, "g2": G}
    fuel = {"pfp": 1, "setq": 1}
    body = random_formula(rng, dict(scope, X=SetOf(G)), 2, fuel)
    pf = Pfp("X", SetOf(G), body, ("g1",))
    _assert_pfp_trace_matches_reference(T, pf, scope, {"g2": State(0)})


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_differential_pfp_traces_under_a_set_binding(seed):
    # the body holds a second fixpoint, which runs once per binding of
    # the outer stage X, the outer set Y and whatever else it reads
    rng = random.Random(seed)
    T = random_lts(rng)
    Y = make_set([State(i) for i in range(T.n) if rng.random() < 0.5])
    scope = {"g1": G, "g2": G, "Y": SetOf(G)}
    body = TT
    while "(pfp" not in format_formula(body):
        body = random_formula(rng, dict(scope, X=SetOf(G)), 2, {"pfp": 1, "setq": 1})
    pf = Pfp("X", SetOf(G), body, ("g1",))
    _assert_pfp_trace_matches_reference(T, pf, scope, {"g2": State(0), "Y": Y})


def test_member_guarded_chain_matches_reference():
    # the membership-guarded plan and plain enumeration must agree
    T = lab_lts()
    f = Exists("R", SetOf(GG),
        and_(Exists("x", G, Exists("y", G, and_(Apply("R", ("x", "y")), Act("a", "x", "y")))),
             forall("x", G, forall("y", G,
                 Or(Not(Apply("R", ("x", "y"))), Act("a", "x", "y"))))))
    assert evaluate(T, f) == ref_eval(T, f) is True
