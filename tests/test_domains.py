"""Canonical value enumeration, indexing and the tower function."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfp.domains import (
    BudgetError,
    ConformanceError,
    Domain,
    SetV,
    State,
    Tup,
    canonical_compare,
    canonical_index,
    canonical_successor,
    domain_size,
    index_to_value,
    iter_domain,
    make_set,
    tower,
)
from hopfp.logic import GROUND as G
from hopfp.logic import Compound, SetOf

GG = Compound((G, G))


class TestTower:
    def test_frozen_values(self):
        assert tower(5, 0) == 5
        assert tower(2, 1) == 4
        assert tower(2, 2) == 16
        assert tower(2, 3) == 65536
        assert tower(3, 2) == 256
        assert tower(4, 1) == 16
        assert tower(9, 1) == 512

    def test_bit_budget(self):
        # 2 ** 65536 still fits the default bit budget
        assert tower(2, 4).bit_length() == 65537
        with pytest.raises(BudgetError):
            tower(2, 5)


class TestDomainSize:
    def test_basic_sizes(self):
        assert domain_size(Domain(G, 3)) == 3
        assert domain_size(Domain(GG, 3)) == 9
        assert domain_size(Domain(SetOf(G), 3)) == 8
        assert domain_size(Domain(SetOf(SetOf(G)), 2)) == 16
        assert domain_size(Domain(Compound((G, SetOf(G))), 2)) == 8
        assert domain_size(Domain(SetOf(Compound((G, SetOf(G)))), 2)) == 256

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("c", [1, 2])
    def test_powerset_chains_hit_the_tower(self, n, c):
        t = Compound((G,) * c) if c > 1 else G
        for level in range(3):
            assert domain_size(Domain(t, n)) == tower(n**c, level)
            t = SetOf(t)

    def test_size_budget(self):
        deep = SetOf(SetOf(SetOf(SetOf(G))))
        with pytest.raises(BudgetError):
            domain_size(Domain(deep, 3))


SMALL_TYPES = [
    G,
    GG,
    Compound((G, G, G)),
    SetOf(G),
    Compound((G, SetOf(G))),
    SetOf(GG),
    SetOf(SetOf(G)),
    Compound((SetOf(G), G, SetOf(G))),
]


class TestEnumeration:
    @pytest.mark.parametrize("t", SMALL_TYPES)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_round_trip_and_order(self, t, n):
        d = Domain(t, n)
        size = domain_size(d)
        values = [index_to_value(d, i) for i in range(size)]
        for i, v in enumerate(values):
            assert canonical_index(d, v) == i
        # successor walk agrees with index order and terminates
        walked = []
        v = index_to_value(d, 0)
        while v is not None:
            walked.append(v)
            v = canonical_successor(d, v)
        assert walked == values
        assert list(iter_domain(d)) == values
        # comparison is the index order
        for i in range(size - 1):
            assert canonical_compare(values[i], values[i + 1]) < 0
            assert canonical_compare(values[i + 1], values[i]) > 0
            assert canonical_compare(values[i], values[i]) == 0

    def test_tuple_first_component_most_significant(self):
        d = Domain(GG, 3)
        assert index_to_value(d, 0) == Tup((State(0), State(0)))
        assert index_to_value(d, 1) == Tup((State(0), State(1)))
        assert index_to_value(d, 3) == Tup((State(1), State(0)))

    def test_set_index_is_membership_mask(self):
        d = Domain(SetOf(G), 3)
        assert canonical_index(d, make_set([])) == 0
        assert canonical_index(d, make_set([State(0)])) == 1
        assert canonical_index(d, make_set([State(2)])) == 4
        assert canonical_index(d, make_set([State(0), State(2)])) == 5

    def test_index_range_checked(self):
        d = Domain(G, 3)
        with pytest.raises(ConformanceError):
            index_to_value(d, 3)
        with pytest.raises(ConformanceError):
            index_to_value(d, -1)

    def test_value_validated_against_domain(self):
        with pytest.raises(ConformanceError):
            canonical_index(Domain(G, 3), State(3))
        with pytest.raises(ConformanceError):
            canonical_index(Domain(GG, 2), Tup((State(0),)))
        with pytest.raises(ConformanceError):
            canonical_index(Domain(SetOf(G), 2), State(0))
        with pytest.raises(ConformanceError):
            canonical_successor(Domain(G, 2), State(7))

    def test_iter_domain_budget(self):
        d = Domain(SetOf(G), 3)
        with pytest.raises(BudgetError):
            list(iter_domain(d, budget=7))
        assert len(list(iter_domain(d, budget=8))) == 8

    def test_iter_domain_streams(self):
        # 2^32 values: only a lazy decoder reaches the first one
        assert next(iter_domain(Domain(SetOf(SetOf(G)), 5), budget=None)) == SetV(())


class TestSets:
    def test_make_set_sorts_and_dedupes(self):
        s = make_set([State(2), State(0), State(2)])
        assert s == SetV((State(0), State(2)))
        # an unsorted set's successor is still a sorted set
        unsorted = SetV((State(1), State(0)))
        assert canonical_successor(Domain(SetOf(G), 3), unsorted) == make_set([State(2)])

    def test_sets_compare_by_largest_member(self):
        a = make_set([State(0), State(1)])
        b = make_set([State(2)])
        assert canonical_compare(a, b) < 0
        # prefix relation: {1} < {0,1}
        assert canonical_compare(make_set([State(1)]), make_set([State(0), State(1)])) < 0

    def test_duplicate_members_rejected(self):
        bogus = SetV((State(1), State(1)))
        with pytest.raises(ConformanceError):
            canonical_index(Domain(SetOf(G), 3), bogus)


@given(data=st.data(), n=st.integers(1, 3))
@settings(max_examples=120, deadline=None)
def test_round_trip_property(data, n):
    t = data.draw(st.sampled_from(SMALL_TYPES))
    d = Domain(t, n)
    size = domain_size(d)
    i = data.draw(st.integers(0, size - 1))
    v = index_to_value(d, i)
    assert canonical_index(d, v) == i
    nxt = canonical_successor(d, v)
    if i == size - 1:
        assert nxt is None
    else:
        assert canonical_index(d, nxt) == i + 1
