"""Evaluator semantics, fixpoint traces and resource accounting.

The heavy lifting is a differential test: random well-typed formulas on
random small systems are evaluated both by the fast evaluator and by the
literal structural one in _reference, which share no code paths.
"""

import gc
import random
import textwrap
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _fresh import run_fresh
from _gen import random_formula, random_lts, scoped_instance
from _machines import M_ACC2, M_FIRST1, M_PARITY, M_SWEEP
from _probe import stage_image
from _reference import ref_eval, ref_pfp_limit
from hopfp.compiler import CodingContext, ReductionParams, build_machine_formula, crossval
from hopfp.domains import (
    BudgetError,
    ConformanceError,
    Domain,
    State,
    index_to_value,
    iter_domain,
    make_set,
)
from hopfp.evaluator import EvalStats, _Space, compile_formula, evaluate, pfp_iterate
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
    conj,
    forall,
)
from hopfp.lts import ordered_lts
from hopfp.orders import TowerSpec, build_lt

GG = Compound((G, G))
P11 = ReductionParams(1, 1)


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

    def test_budget_is_checked_when_compiling(self):
        # no evaluation reaches these quantifiers, since the disjunct
        # before them always holds; the budget holds for them all the same
        T = lab_lts()
        unreached = Or(TT, Exists("R", SetOf(GG), TT))
        with pytest.raises(BudgetError):
            compile_formula(T, unreached, budget=100)
        assert evaluate(T, unreached, budget=512)
        in_body = Pfp("X", SetOf(G), Or(TT, Exists("R", SetOf(GG), Apply("X", ("x",)))), ("x",))
        with pytest.raises(BudgetError):
            compile_formula(T, Exists("x", G, in_body), budget=100)
        assert pfp_iterate(T, in_body, budget=512).limit() == frozenset({0, 1, 2})
        # so does the tuple space a fixpoint iterates over
        pairs = Exists("u", G, Exists("v", G, Pfp("X", SetOf(GG), Act("a", "u", "v"), ("u", "v"))))
        with pytest.raises(BudgetError):
            compile_formula(T, pairs, budget=8)
        assert evaluate(T, pairs, budget=9)

    def test_typing_errors_are_the_checker_ones(self):
        # compiling meets errors in its own order: a quantifier over too
        # large a domain before a typing error, and a guarded block's
        # conjuncts over its names alone before the others.  Both report
        # the first error of check_well_formed.
        T = lab_lts()
        behind_budget = Or(Exists("R", SetOf(GG), TT), Exists("x", G, Prop("p", "y")))
        block = Exists("x", G, Exists("y", G, conj([
            Apply("S", ("x", "y")), Prop("p", "Z"), Apply("x", ("y",))])))
        for f, ctx, first in (
            (behind_budget, None, "unbound variable 'y' in proposition atom"),
            (block, {"S": SetOf(GG), "Z": SetOf(G)},
             "proposition 'p' needs a ground variable, 'Z' has type (set o)"),
        ):
            with pytest.raises(TypingError) as checked:
                check_well_formed(f, ctx)
            assert str(checked.value) == first
            for run in (lambda: evaluate(T, f, ctx=ctx, budget=100),
                        lambda: compile_formula(T, f, ctx, budget=100)):
                with pytest.raises(TypingError) as got:
                    run()
                assert str(got.value) == first

    def test_dropped_formula_is_freed_without_the_cycle_collector(self):
        T = lab_lts()
        pf = Pfp("X", SetOf(G), Or(Prop("p", "x"),
                 Exists("y", G, and_(Apply("X", ("y",)), Act("a", "y", "x")))), ("x",))
        f = Exists("x", G, and_(pf, Exists("z", G, Act("a", "x", "z"))))
        # a machine formula also has masks over several arguments, masks
        # constant over its fixpoint's tuples and scalar guarded chains
        ctx = CodingContext(ordered_lts(3), M_FIRST1, P11)
        machine = build_machine_formula(ctx, "10")
        for lts, formula in ((T, f), (ctx.lts, machine)):
            gc.disable()
            try:
                compiled = compile_formula(lts, formula)
                assert compiled()
                session = weakref.ref(compiled._session)
                del compiled
                assert session() is None
            finally:
                gc.enable()


class TestStageProbe:
    def test_image_of_a_member_set(self):
        T = lab_lts()
        x_in = Apply("X", ("x",))
        for body, image in ((x_in, {0, 1}), (Or(x_in, Prop("p", "x")), {0, 1, 2})):
            pf = Pfp("X", SetOf(G), body, ("x",))
            assert stage_image(T, pf, frozenset({0, 1})) == frozenset(image)

    def test_deep_body_in_a_fresh_interpreter(self):
        # compiling raises the recursion limit itself, so pfp_iterate
        # need not follow another call that raised it
        script = textwrap.dedent("""
            from _probe import stage_image
            from hopfp.logic import GROUND, Apply, Or, Pfp, Prop, SetOf
            from hopfp.lts import ordered_lts
            body = Apply("X", ("x",))
            for _ in range(1500):
                body = Or(body, Prop("p", "x"))
            host = ordered_lts(3, props=("p",), labels=((2, "p"),))
            pf = Pfp("X", SetOf(GROUND), body, ("x",))
            print(sorted(stage_image(host, pf, frozenset({0}))))
        """)
        proc = run_fresh("-c", script)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout == "[0, 2]\n"

    def test_a_non_binder_is_named_by_its_class(self):
        # the message does not print the formula, whose text is 0.63 MB
        # for c08
        script = textwrap.dedent("""
            from _machines import M_LASTPROP
            from hopfp.compiler import CodingContext, ReductionParams, build_machine_formula
            from hopfp.evaluator import pfp_iterate
            from hopfp.lts import ordered_lts
            from hopfp.machine import encode_lts
            host = ordered_lts(6, (), ("p",), labels={(5, "p")})
            f = build_machine_formula(CodingContext(host, M_LASTPROP, ReductionParams(1, 1)), encode_lts(host))
            try:
                pfp_iterate(host, f)
            except TypeError as exc:
                print(exc)
        """)
        proc = run_fresh("-c", script)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout == "not a fixpoint binder: Not\n"


class TestPinnedCounters:
    """Exact counters of fixed cases, as (subformula_evals, pfp_iterations,
    peak_live_values): a change to how formulas are compiled, cached or
    iterated shows here even when every verdict stays the same."""

    def _crossval(self, machine, params, word, n):
        stats = EvalStats()
        assert crossval(machine, params, word=word, n=n, check_stages=True, stats=stats).agree
        return stats.subformula_evals, stats.pfp_iterations, stats.peak_live_values

    def test_machine_cases(self):
        assert self._crossval(M_SWEEP, P11, "1101", 3) == (4943, 5, 47)
        assert self._crossval(M_FIRST1, P11, "10", 3) == (2216, 3, 31)
        assert self._crossval(M_ACC2, ReductionParams(2, 1), "1" * 16, 2) == (37112, 2, 38)
        assert self._crossval(M_PARITY, P11, "1", 5) == (8425, 4, 134)

    def test_order_queries_through_one_compiled_formula(self):
        spec = TowerSpec(1, 3)
        t = spec.slot_types[0]
        compiled = compile_formula(ordered_lts(2), build_lt(spec, ("a",), ("b",)), {"a": t, "b": t})
        values = [index_to_value(Domain(t, 2), i) for i in range(16)]
        answers = [compiled({"a": u, "b": v}) for u in values for v in values]
        assert answers.count(True) == 120
        stats = compiled.stats
        assert (stats.subformula_evals, stats.pfp_iterations, stats.peak_live_values) == (4836, 0, 10)
        assert sum(map(len, compiled._session.tables.values())) == 272
        # the memo holds existentials only; fixpoints keep their limits
        assert all(isinstance(node, (Exists, Pfp)) for node, _ in compiled._session.tables)


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

    def test_inner_runs_end_before_the_run_they_serve(self):
        # the inner fixpoint reads y, bound in the outer body, and w, which
        # the outer one reads too: one formula queried at each w runs the
        # outer fixpoint once and the inner one once per y it is asked at
        T = lab_lts()
        reach = Exists("v", G, and_(Apply("Y", ("v",)), Act("a", "v", "x")))
        inner = Pfp("Y", SetOf(G), Or(Act("a", "y", "x"), Or(Act("<", "w", "x"), reach)), ("x",))
        step = Exists("y", G, and_(Apply("X", ("y",)), inner))
        outer = Pfp("X", SetOf(G), Or(Act("a", "w", "x"), step), ("x",))
        scope = {"x": G, "y": G, "w": G}
        compiled = compile_formula(T, outer, {"x": G, "w": G})
        ended = 0
        for w in range(T.n):
            env = {"w": State(w)}
            compiled({"x": State(0), **env})
            runs = compiled.traces[ended:]
            ended += len(runs)
            served = [ref_pfp_limit(T, inner, {"y": State(y), **env}, scope)[1] for y in range(T.n)]
            want = ref_pfp_limit(T, outer, env, scope)[1]
            assert want not in served
            assert _stage_values(T, outer, runs[-1].stages) == want
            got = [_stage_values(T, inner, tr.stages) for tr in runs[:-1]]
            assert got and all(stages in served for stages in got), (w, got)
            assert pfp_iterate(T, outer, env, {"w": G}) == runs[-1]
        assert ended > 2 * T.n

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
    def test_a_stage_counts_as_one_evaluation(self):
        # the body is the stage itself, evaluated over all nine argument
        # pairs at once: one count for it, one for the binder
        pf = Pfp("X", SetOf(GG), Apply("X", ("u", "v")), ("u", "v"))
        stats = EvalStats()
        tr = pfp_iterate(lab_lts(), pf, stats=stats)
        assert tr.stages == (frozenset(), frozenset())
        assert stats.pfp_iterations == 1
        assert stats.subformula_evals == 2

    def test_counts_are_deterministic(self):
        T = lab_lts()
        f = Exists("X", SetOf(G), Exists("x", G,
            and_(Apply("X", ("x",)), Prop("p", "x"))))
        a, b = EvalStats(), EvalStats()
        assert evaluate(T, f, stats=a) == evaluate(T, f, stats=b)
        assert a == b
        assert a.subformula_evals > 0
        assert a.peak_live_values > 0

    def test_a_space_budget_stop_counts_nothing_it_did_not_keep(self):
        # the stop comes while a fixpoint stage is counted, inside a
        # quantifier; every value counted before it is released, so a
        # second call of the same formula stops at the same count
        T = ordered_lts(3, props=("p",), labels=[(s, "p") for s in range(3)])
        pf = Pfp("X", SetOf(G), Or(Apply("X", ("y",)), Prop("p", "y")), ("y",))
        compiled = compile_formula(T, Exists("z", G, Exists("y", G, pf)), live_budget=6)
        for _ in range(2):
            with pytest.raises(BudgetError, match="^8 live values exceed the space budget of 6$"):
                compiled()
            assert compiled._session.live == 0
        assert compiled.stats.peak_live_values <= 6

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
    check_well_formed(pf, scope)
    ref_limit, ref_stages = ref_pfp_limit(T, pf, env, scope)
    ctx = {v: t for v, t in scope.items() if v not in pf.args}
    tr = pfp_iterate(T, pf, env=env, ctx=ctx)
    assert _stage_values(T, pf, tr.stages) == ref_stages
    assert _stage_values(T, pf, [tr.limit()]) == [ref_limit]


def _stage_values(T, pf: Pfp, stages) -> list:
    """Sets of member indices as sets of values of pf's element type."""
    elem = Domain(pf.vtype.elem, T.n)
    return [make_set([index_to_value(elem, i) for i in s]) for s in stages]


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


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_differential_pfp_traces_over_argument_tuples(seed):
    # a binder over pairs or triples, so that its stages are evaluated
    # over several arguments at once; every body holds the stage applied
    # to swapped arguments, a quantifier that rebinds an argument's name
    # and a nested fixpoint that reads an outer argument, among random
    # parts.  Only with a third argument does a quantifier rebinding one
    # still leave two arguments free, so that it is evaluated on sets.
    rng = random.Random(seed)
    T = random_lts(rng)
    args = ("g1", "g2", "g3")[: rng.choice((2, 3))]
    X = SetOf(Compound((G,) * len(args)))
    scope = {"g1": G, "g2": G, "g3": G, "g4": G}
    inner = dict(scope, X=X)
    fuel = {"pfp": 1, "setq": 1}

    def mix(parts):
        rng.shuffle(parts)
        out = parts[0]
        for part in parts[1:]:
            out = rng.choice([Or, and_])(out, Not(part) if rng.random() < 0.3 else part)
        return out

    shadowing = mix([
        Act(rng.choice("a<"), "g1", "g2"),
        Prop(rng.choice("pq"), args[-1]),
        random_formula(rng, inner, 2, fuel),
    ])
    nested = mix([
        Act(rng.choice("a<"), "g1", "g2"),
        random_formula(rng, dict(inner, Y=SetOf(G)), 2, fuel),
    ])
    body = mix([
        Apply("X", ("g2", "g1") + args[2:]),
        Exists("g1", G, shadowing),
        Pfp("Y", SetOf(G), nested, ("g2",)),
        random_formula(rng, inner, 2, fuel),
    ])
    pf = Pfp("X", X, body, args)
    env = {v: State(rng.randrange(T.n)) for v in scope if v not in args}
    _assert_pfp_trace_matches_reference(T, pf, scope, env)


@pytest.mark.parametrize("seed", range(20))
def test_unmemoized_leaves_are_recomputed_at_every_stage(seed):
    # a binder over pairs whose body reads its arguments through parts
    # the scalar memo does not hold: ∃w ψ, free in x1, g1 and g2, one
    # more variable than the memo keys on; a nested fixpoint and a
    # quantifier that read the stage X.  Each is evaluated afresh, row
    # by row, on every call, and must give the reference's stages.
    rng = random.Random(seed)
    T = random_lts(rng)
    psi = Or(and_(Act("a", "x1", "w"), Act("<", "w", "g1")),
             and_(Prop("p", "w"), Act("a", "g2", "w")))
    reach = Exists("v", G, and_(Apply("Y", ("v",)), Act("a", "v", "x2")))
    nested = Pfp("Y", SetOf(G),
                 Or(and_(Apply("X", ("x2", "x1")), Prop("q", "g1")),
                    Or(Act("<", "x1", "x2"), reach)),
                 ("x2",))
    chain = Exists("w", G, and_(Apply("X", ("w", "x2")), Act("a", "w", "x1")))
    pf = Pfp("X", SetOf(GG), Or(nested, Or(Exists("w", G, psi), chain)), ("x1", "x2"))
    scope = {"x1": G, "x2": G, "g1": G, "g2": G}
    outer = {"g1": State(rng.randrange(T.n)), "g2": State(rng.randrange(T.n))}
    compiled = compile_formula(T, pf, scope)
    for x1 in range(T.n):
        for x2 in range(T.n):
            env = dict(outer, x1=State(x1), x2=State(x2))
            assert compiled(env) == ref_eval(T, pf, env, scope), (x1, x2)
    *inner_runs, run = compiled.traces
    want = ref_pfp_limit(T, pf, outer, scope)[1]
    assert _stage_values(T, pf, run.stages) == want
    inner_scope = dict(scope, X=SetOf(GG))
    served = [
        ref_pfp_limit(T, nested, dict(outer, X=stage, x1=State(x1)), inner_scope)[1]
        for stage in want[:-1]
        for x1 in range(T.n)
    ]
    assert inner_runs
    for tr in inner_runs:
        assert _stage_values(T, nested, tr.stages) in served


def test_repeat_masks_equal_the_division_form():
    # an axis's repeat mask has a one at the start of every run of
    # card * stride tuples: the full mask divided by one run of ones
    for cards in [(1,), (4,), (2, 3), (3, 1, 2), (2, 2, 2, 2), (3, 4, 4, 3)]:
        space = _Space(frozenset({"X"}), "X", tuple("abcd"[: len(cards)]), cards)
        assert len(space.axes) == len(cards)
        for c, s, _, rep in space.axes.values():
            assert rep == space.full // ((1 << c * s) - 1)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_one_node_under_two_typings(seed):
    # one interned probe is read under S:(set (tuple o o)), y:o from the
    # context, and under S:(set (tuple o (set o))), y:(set o) bound by
    # blocks guarded by the singletons R and Y, so that S(x, y) tests
    # member x*2+y in one typing and x*4+y in the other.  The formula
    # holds when the two readings differ.  The probes are a memoized
    # node over S and y, a guarded block and a fixpoint over the outer S
    # and y; every compile, memo and limit key must tell the typings
    # apart.  Half of the queries give both typings the same indices.
    rng = random.Random(seed)
    T = ordered_lts(2, actions=("a",),
                    edges=[(i, "a", j) for i in range(2) for j in range(2) if rng.random() < 0.5])
    T1, T2 = SetOf(GG), SetOf(Compound((G, SetOf(G))))
    ctx = {"S": T1, "y": G, "E": T1, "R": SetOf(T2), "Y": SetOf(SetOf(G))}
    reach = Exists("v", G, and_(Apply("X", ("v",)), Act("a", "v", "u")))
    probes = [
        Exists("x", G, Apply("S", ("x", "y"))),
        Exists("x", G, Exists("w", G, and_(Apply("E", ("x", "w")), Apply("S", ("w", "y"))))),
        Exists("u", G, Pfp("X", SetOf(G), Or(Apply("S", ("u", "y")), reach), ("u",))),
    ]
    d1, d2, dy = Domain(T1, 2), Domain(T2, 2), Domain(SetOf(G), 2)
    for probe in probes:
        shadow = Exists("S", T2, and_(Apply("R", ("S",)),
                                      Exists("y", SetOf(G), and_(Apply("Y", ("y",)), probe))))
        f = Or(and_(probe, Not(shadow)), and_(Not(probe), shadow))
        compiled = compile_formula(T, f, ctx)
        for _ in range(8):
            s1, y1 = rng.randrange(16), rng.randrange(2)
            s2, y2 = (s1, y1) if rng.random() < 0.5 else (rng.randrange(256), rng.randrange(4))
            env = {
                "S": index_to_value(d1, s1),
                "y": State(y1),
                "E": index_to_value(d1, rng.randrange(16)),
                "R": make_set([index_to_value(d2, s2)]),
                "Y": make_set([index_to_value(dy, y2)]),
            }
            assert compiled(env) == ref_eval(T, f, env, ctx), (probe, env)


def test_member_guarded_chain_matches_reference():
    # a block guarded by a set variable walks its members, and must agree
    # with plain enumeration
    T = lab_lts()
    f = Exists("R", SetOf(GG),
        and_(Exists("x", G, Exists("y", G, and_(Apply("R", ("x", "y")), Act("a", "x", "y")))),
             forall("x", G, forall("y", G,
                 Or(Not(Apply("R", ("x", "y"))), Act("a", "x", "y"))))))
    assert evaluate(T, f) == ref_eval(T, f) is True


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_differential_set_guarded_blocks(seed):
    # ∃x̄. S(x̄) ∧ φ with S a set variable over one to three ground parts
    # walks S's members on every call.  Among the shuffled conjuncts some
    # read the block's names alone, which run first, and some also read
    # S or the outer names.  One compiled formula is queried under
    # several values of S, then again under some of them; or the block
    # sits in the body of a fixpoint S over outer names and is guarded by
    # the stage, as a machine formula's step block is.
    rng = random.Random(seed)
    T = random_lts(rng)
    k = rng.choice((1, 2, 3))
    names = ("x1", "x2", "x3")[:k]
    S = SetOf(G) if k == 1 else SetOf(Compound((G,) * k))
    outer = ("z", "w", "u")[: max(k, 2)]
    fuel = {"pfp": 0, "setq": 0}
    local_scope = {v: G for v in names}
    outer_scope = dict(local_scope, S=S, **{v: G for v in outer})
    nested = rng.random() < 0.35
    parts = [Apply("S", names)]
    parts += [random_formula(rng, local_scope, 2, fuel) for _ in range(rng.randint(1, 2))]
    parts += [
        and_(random_formula(rng, outer_scope, 2, fuel),
             Act(rng.choice("a<"), rng.choice(names), rng.choice(outer)))
        for _ in range(rng.randint(nested, 2))
    ]
    rng.shuffle(parts)
    block = parts[0]
    for part in parts[1:]:
        block = and_(block, part)
    for v in reversed(names):
        block = Exists(v, G, block)

    def outer_env(fixed=()):
        return {v: State(rng.randrange(T.n)) for v in outer if v not in fixed}

    if nested:
        args = outer[:k]
        seed_part = random_formula(rng, {v: G for v in args}, 1, fuel)
        pf = Pfp("S", S, rng.choice([Or(block, seed_part), Or(seed_part, block)]), args)
        _assert_pfp_trace_matches_reference(
            T, pf, {v: G for v in outer}, outer_env(fixed=args))
        return
    ctx = dict({v: G for v in outer}, S=S)
    compiled = compile_formula(T, block, ctx)
    elems = list(iter_domain(Domain(S.elem, T.n)))
    values = [make_set([e for e in elems if rng.random() < p]) for p in (0.0, 0.3, 0.7)]
    for value in values + [rng.choice(values) for _ in range(4)]:
        for _ in range(2):
            env = dict(outer_env(), S=value)
            assert compiled(env) == ref_eval(T, block, env, ctx), (value, env)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_differential_fixpoint_guarded_blocks(seed):
    # ∃x̄. P(x̄) ∧ φ with P a fixpoint: a block that binds P's arguments
    # in order walks P's limit, wherever P stands among the conjuncts.  A
    # block over the arguments permuted or with an extra variable is no
    # such guard, nor, inside a binder over (z, w), is a P that reads z.
    # P may read the outer z, may cycle so that its limit is empty, and
    # the block may sit in the body of a fixpoint Y over (z, w).
    rng = random.Random(seed)
    T = random_lts(rng)
    args = ("g1", "g2")[: rng.choice((1, 2))]
    X = SetOf(G) if len(args) == 1 else SetOf(GG)
    nested = rng.random() < 0.4
    outer = {"z": G, "w": G}
    sets = {"Y": SetOf(GG)} if nested else {}
    fuel = {"pfp": 0, "setq": 0}
    reads_outer = rng.random() < 0.5
    p_scope = dict({v: G for v in args}, X=X, **sets, **(outer if reads_outer else {}))
    body = random_formula(rng, p_scope, 2, fuel)
    if reads_outer:
        body = rng.choice([Or, and_])(body, Act(rng.choice("a<"), args[0], "z"))
    if rng.random() < 0.25:
        # the stages alternate between the empty set and a fixed one
        rest = {v: t for v, t in p_scope.items() if v != "X"}
        body = and_(Not(Apply("X", args)), random_formula(rng, rest, 1, fuel))
    P = Pfp("X", X, body, args)

    kind = rng.choice(("guard", "permuted", "extra"))
    names = list(args)
    if kind == "permuted":
        names.reverse()
    elif kind == "extra":
        names.insert(rng.randrange(len(names) + 1), "g3")
    phi_scope = dict({v: G for v in names}, **outer, **sets)
    phi = and_(random_formula(rng, phi_scope, 2, fuel), Act(rng.choice("a<"), names[-1], "w"))
    parts = [P, phi]
    rng.shuffle(parts)
    block = and_(*parts)
    for v in reversed(names):
        block = Exists(v, G, block)

    if nested:
        Yf = Pfp("Y", SetOf(GG), Or(block, Apply("Y", ("w", "z"))), ("z", "w"))
        _assert_pfp_trace_matches_reference(T, Yf, outer, {})
        return
    compiled = compile_formula(T, block, outer)
    for z in range(T.n):
        for w in range(T.n):
            env = {"z": State(z), "w": State(w)}
            assert compiled(env) == ref_eval(T, block, env, outer), (z, w)
    closed = Exists("z", G, forall("w", G, block))
    assert evaluate(T, closed) == ref_eval(T, closed)
