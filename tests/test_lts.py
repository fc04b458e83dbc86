"""Labeled transition systems and the built-in linear order."""

import pytest

from hopfp.lts import Lts, ORDER_ACTION, order_ranks, ordered_lts


class TestLts:
    def test_basic_accessors(self):
        T = Lts(
            states=("a", "b"),
            actions=("go",),
            props=("p",),
            edges=frozenset({(0, "go", 1)}),
            labels=frozenset({(1, "p")}),
        )
        assert T.n == 2
        assert T.state_index("b") == 1
        assert (0, "go", 1) in T.edges
        assert (1, "go", 0) not in T.edges
        assert (1, "p") in T.labels
        assert (0, "p") not in T.labels

    def test_validation(self):
        with pytest.raises(ValueError):
            Lts(states=())
        with pytest.raises(ValueError):
            Lts(states=("a", "a"))
        with pytest.raises(ValueError):
            Lts(states=("a",), edges=frozenset({(0, "go", 0)}))
        with pytest.raises(ValueError):
            Lts(states=("a",), actions=("go",), edges=frozenset({(0, "go", 1)}))
        with pytest.raises(ValueError):
            Lts(states=("a",), labels=frozenset({(0, "p")}))


class TestOrderedLts:
    def test_order_edges(self):
        T = ordered_lts(3)
        assert T.actions == (ORDER_ACTION,)
        assert T.states == ("s0", "s1", "s2")
        expected = {(i, ORDER_ACTION, j) for i in range(3) for j in range(3) if i < j}
        assert set(T.edges) == expected

    def test_extra_vocabulary(self):
        T = ordered_lts(2, actions=("a",), props=("p",), edges=((1, "a", 0),), labels=((0, "p"),))
        assert T.actions == (ORDER_ACTION, "a")
        assert (1, "a", 0) in T.edges
        assert (0, "p") in T.labels

    def test_order_ranks(self):
        T = ordered_lts(4)
        assert order_ranks(T) == [0, 1, 2, 3]

    def test_order_ranks_rejects_partial_order(self):
        T = Lts(
            states=("a", "b", "c"),
            actions=(ORDER_ACTION,),
            edges=frozenset({(0, ORDER_ACTION, 1), (0, ORDER_ACTION, 2)}),
        )
        with pytest.raises(ValueError):
            order_ranks(T)

    def test_order_ranks_needs_transitivity(self):
        T = Lts(
            states=("a", "b", "c"),
            actions=(ORDER_ACTION,),
            edges=frozenset(
                {(0, ORDER_ACTION, 1), (1, ORDER_ACTION, 2), (2, ORDER_ACTION, 0)}
            ),
        )
        with pytest.raises(ValueError):
            order_ranks(T)
