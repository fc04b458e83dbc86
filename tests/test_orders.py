"""Order, successor and index formulas against the canonical enumeration."""

import random
from itertools import islice

import pytest

from hopfp.domains import Domain, Tup, iter_domain
from hopfp.evaluator import evaluate
from hopfp.lts import Lts, ORDER_ACTION, order_ranks, ordered_lts
from hopfp.logic import and_, formula_order, formula_size
from hopfp.orders import (
    NameSupply,
    TowerSpec,
    build_eq,
    build_index,
    build_lt,
    build_succ,
    build_total_order_axiom,
    iter_index,
)

T11 = TowerSpec(1, 1)
T21 = TowerSpec(2, 1)
T31 = TowerSpec(3, 1)
T12 = TowerSpec(1, 2)
T22 = TowerSpec(2, 2)
T13 = TowerSpec(1, 3)


def slot_env(spec, names, value):
    if spec.level == 1 and spec.width > 1:
        return dict(zip(names, value.items))
    return {names[0]: value}


def slot_ctx(spec, names):
    return dict(zip(names, spec.slot_types))


class TestNameSupply:
    def test_avoids_taken_names(self):
        # a name handed out under one base is skipped under another
        s = NameSupply()
        assert s.fresh("z1") == "z10"
        assert [s.fresh("z") for _ in range(10)] == ["z%d" % i for i in range(10)]
        assert s.fresh("z") == "z11"
        assert s.fresh("w") == "w0"

    def test_slot_arities(self):
        s = NameSupply()
        assert len(s.slot(T31)) == 3
        assert len(s.slot(T22)) == 1


class TestSpec:
    def test_value_types(self):
        from hopfp.logic import GROUND, Compound, SetOf

        assert T11.value_type == GROUND
        assert T21.value_type == Compound((GROUND, GROUND))
        assert T12.value_type == SetOf(GROUND)
        assert T22.value_type == SetOf(Compound((GROUND, GROUND)))
        assert T13.value_type == SetOf(SetOf(GROUND))

    def test_down(self):
        assert T13.down() == T12
        with pytest.raises(ValueError):
            T11.down()


CASES = [
    (T11, 1),
    (T11, 3),
    (T21, 2),
    (T21, 3),
    (T31, 2),
    (T12, 2),
    (T12, 3),
    (T22, 2),
    (T13, 2),
]


@pytest.mark.parametrize("spec,n", CASES)
def test_lt_eq_succ_match_canonical_order(spec, n):
    T = ordered_lts(n)
    values = list(iter_domain(Domain(spec.value_type, n)))
    supply = NameSupply()
    a = supply.slot(spec, "a")
    b = supply.slot(spec, "b")
    ctx = {**slot_ctx(spec, a), **slot_ctx(spec, b)}
    # positionally, the way older callers still pass a supply
    f_lt = build_lt(spec, a, b, supply)
    f_eq = build_eq(spec, a, b)
    f_succ = build_succ(spec, a, b)
    for i, u in enumerate(values):
        for j, v in enumerate(values):
            env = {**slot_env(spec, a, u), **slot_env(spec, b, v)}
            assert evaluate(T, f_lt, env=env, ctx=ctx) == (i < j), (u, v)
            assert evaluate(T, f_eq, env=env, ctx=ctx) == (i == j), (u, v)
            assert evaluate(T, f_succ, env=env, ctx=ctx) == (j == i + 1), (u, v)


@pytest.mark.parametrize("spec,n", [(T11, 3), (T21, 2), (T12, 2), (T12, 3), (T13, 2)])
def test_index_formulas_are_exact(spec, n):
    T = ordered_lts(n)
    values = list(iter_domain(Domain(spec.value_type, n)))
    supply = NameSupply()
    a = supply.slot(spec, "a")
    ctx = slot_ctx(spec, a)
    picks = range(len(values)) if len(values) <= 16 else [0, 1, len(values) - 1]
    for j in picks:
        f = build_index(spec, j, a)
        for i, u in enumerate(values):
            got = evaluate(T, f, env=slot_env(spec, a, u), ctx=ctx)
            assert got == (i == j), (j, u)


@pytest.mark.parametrize("spec", [T11, T21, T12])
def test_index_size_grows_linearly(spec):
    a = NameSupply().slot(spec, "a")
    sizes = [formula_size(build_index(spec, j, a)) for j in range(2, 9)]
    deltas = {sizes[i + 1] - sizes[i] for i in range(len(sizes) - 1)}
    assert len(deltas) == 1


def test_nested_builds_stay_capture_free():
    T = ordered_lts(2)

    def assert_agrees(spec, a, b, f, want):
        values = list(iter_domain(Domain(spec.value_type, 2)))
        ctx = {**slot_ctx(spec, a), **slot_ctx(spec, b)}
        for i, u in enumerate(values):
            for j, v in enumerate(values):
                env = {**slot_env(spec, a, u), **slot_env(spec, b, v)}
                assert evaluate(T, f, env=env, ctx=ctx) == want(i, j), (u, v)

    # a succ and an index formula over one slot
    a, b = ("a",), ("b",)
    f = and_(build_succ(T12, a, b), build_index(T12, 2, b))
    assert_agrees(T12, a, b, f, lambda i, j: j == 2 and i == 1)
    # slots named like the bound names of the comparison one level down
    a, b = ("1z",), ("1w",)
    assert_agrees(T13, a, b, build_lt(T13, a, b), lambda i, j: i < j)


@pytest.mark.parametrize("spec,n", [(T12, 2), (T12, 3), (T13, 2)])
def test_set_equality_and_the_least_set_read_no_order(spec, n):
    # a host whose "<" has no edges: set equality and index 0 look only
    # at members, so they stay exact where build_lt is no order at all
    T = Lts(states=tuple("s%d" % i for i in range(n)), actions=(ORDER_ACTION,))
    a, b = ("a",), ("b",)
    ctx = {**slot_ctx(spec, a), **slot_ctx(spec, b)}
    values = list(iter_domain(Domain(spec.value_type, n)))
    f_eq = build_eq(spec, a, b)
    f_zero = build_index(spec, 0, a)
    for u in values:
        assert evaluate(T, f_zero, env={"a": u}, ctx=ctx) == (not u.members), u
        for v in values:
            assert evaluate(T, f_eq, env={"a": u, "b": v}, ctx=ctx) == (u == v), (u, v)


def test_equal_requests_build_one_node():
    a, b = ("a",), ("b",)
    assert build_succ(T12, a, b) is build_succ(T12, a, b)
    assert build_lt(T22, a, b) is build_lt(T22, a, b)

    def spine(f):
        # f is (exists ((w T)) (and spine (succ w slot)))
        return f.body.sub.left.sub

    for j in (1, 2, 5):
        assert spine(build_index(T12, j, a)) is spine(build_index(T12, j, b))
    # the spine of j is the index formula of j - 1 at the witness name,
    # whose own spine is that of j - 1 at any slot
    assert spine(spine(build_index(T12, 5, a))) is spine(build_index(T12, 4, b))
    got = list(islice(iter_index(T21, a + b), 6))
    assert all(f is build_index(T21, j, a + b) for j, f in enumerate(got))


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_lt(T12, ("1z",), ("b",)),
        lambda: build_lt(T22, ("a",), ("1w'",)),
        lambda: build_eq(T13, ("b",), ("2z",)),
        lambda: build_succ(T12, ("2v",), ("b",)),
        lambda: build_index(T12, 3, ("2y",)),
        lambda: build_index(T21, 0, ("b", "1u'")),
        # the names the set-level successor binds, and the level-1 one's
        lambda: build_succ(T12, ("1z",), ("b",)),
        lambda: build_succ(T22, ("a",), ("1w'",)),
        lambda: build_succ(T21, ("a", "1v'"), ("b", "c")),
        # set-level equality binds z and reserves w
        lambda: build_eq(T12, ("1w",), ("b",)),
        # index 0 binds y at level 1 and z one level down from level 2 on
        lambda: build_index(T11, 0, ("1y",)),
        lambda: build_index(T12, 0, ("1z",)),
    ],
)
def test_slot_clashing_with_a_bound_name_raises(build):
    with pytest.raises(ValueError, match="bound by the builder"):
        build()


class TestTotalOrderAxiom:
    def test_ordered_systems_satisfy_it(self):
        for n in (1, 2, 3, 4):
            assert evaluate(ordered_lts(n), build_total_order_axiom())

    def test_two_states_without_order_fail(self):
        T = Lts(states=("a", "b"), actions=(ORDER_ACTION,))
        assert not evaluate(T, build_total_order_axiom())

    def test_one_state_needs_no_edges(self):
        T = Lts(states=("a",), actions=(ORDER_ACTION,))
        assert evaluate(T, build_total_order_axiom())

    def test_cycle_fails(self):
        T = Lts(
            states=("a", "b"),
            actions=(ORDER_ACTION,),
            edges=frozenset({(0, ORDER_ACTION, 1), (1, ORDER_ACTION, 0)}),
        )
        assert not evaluate(T, build_total_order_axiom())

    def test_partial_order_fails(self):
        T = Lts(
            states=("a", "b", "c"),
            actions=(ORDER_ACTION,),
            edges=frozenset({(0, ORDER_ACTION, 1)}),
        )
        assert not evaluate(T, build_total_order_axiom())

    def test_axiom_is_second_order(self):
        assert formula_order(build_total_order_axiom()) == 2

    def test_agrees_with_rank_extraction(self):
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randint(1, 4)
            edges = frozenset(
                (i, ORDER_ACTION, j)
                for i in range(n)
                for j in range(n)
                if i != j and rng.random() < 0.5
            )
            T = Lts(states=tuple("s%d" % i for i in range(n)), actions=(ORDER_ACTION,), edges=edges)
            try:
                order_ranks(T)
                expect = True
            except ValueError:
                expect = False
            assert evaluate(T, build_total_order_axiom()) == expect, (seed, edges)
