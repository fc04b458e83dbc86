"""Finite labeled transition systems.

States carry their declaration order, which is also the canonical order
used by the value domains.  The order action is spelled "<" and is an
ordinary action; helpers here build declaration-ordered systems and
check that an explicit "<" relation is a strict total order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

ORDER_ACTION = "<"


@dataclass(frozen=True)
class Lts:
    states: tuple[str, ...]
    actions: tuple[str, ...] = ()
    props: tuple[str, ...] = ()
    edges: frozenset = field(default_factory=frozenset)   # (src index, action, dst index)
    labels: frozenset = field(default_factory=frozenset)  # (state index, prop)

    def __post_init__(self) -> None:
        if not self.states:
            raise ValueError("a transition system needs at least one state")
        for group, what in ((self.states, "state"), (self.actions, "action"), (self.props, "proposition")):
            if len(set(group)) != len(group):
                raise ValueError("duplicate %s name" % what)
        n = len(self.states)
        for s, a, t in self.edges:
            if a not in self.actions:
                raise ValueError("edge uses undeclared action %r" % a)
            if not (0 <= s < n and 0 <= t < n):
                raise ValueError("edge (%r, %r, %r) out of range" % (s, a, t))
        for s, p in self.labels:
            if p not in self.props:
                raise ValueError("label uses undeclared proposition %r" % p)
            if not 0 <= s < n:
                raise ValueError("label (%r, %r) out of range" % (s, p))

    @property
    def n(self) -> int:
        return len(self.states)

    def state_index(self, name: str) -> int:
        try:
            return self.states.index(name)
        except ValueError:
            raise ValueError("unknown state %r" % name) from None


def ordered_lts(
    n: int,
    actions: Iterable[str] = (),
    props: Iterable[str] = (),
    edges: Iterable = (),
    labels: Iterable = (),
) -> Lts:
    """n-state system s0..s{n-1} with "<" following declaration order."""
    acts = tuple(actions)
    if ORDER_ACTION not in acts:
        acts = (ORDER_ACTION,) + acts
    order_edges = {(i, ORDER_ACTION, j) for i in range(n) for j in range(n) if i < j}
    return Lts(
        states=tuple("s%d" % i for i in range(n)),
        actions=acts,
        props=tuple(props),
        edges=frozenset(order_edges) | frozenset(edges),
        labels=frozenset(labels),
    )


def order_ranks(lts: Lts) -> list[int]:
    """Rank of each state under the "<" action.

    Raises ValueError unless "<" is a strict total order on the states.
    """
    if ORDER_ACTION not in lts.actions:
        raise ValueError("no %r action declared" % ORDER_ACTION)
    n = lts.n
    rel = {(s, t) for (s, a, t) in lts.edges if a == ORDER_ACTION}
    ranks = [sum((j, i) in rel for j in range(n)) for i in range(n)]
    if sorted(ranks) != list(range(n)):
        raise ValueError("%r is not a strict total order" % ORDER_ACTION)
    for i in range(n):
        for j in range(n):
            if ((i, j) in rel) != (ranks[i] < ranks[j]):
                raise ValueError("%r is not a strict total order" % ORDER_ACTION)
    return ranks
