"""Canonical value domains over a finite state set.

Every type denotes a finite domain once the number of states n is fixed:
ground values are states, compound values are tuples, set values are
finite sets of element values.  The domain carries a canonical order via
a bijection with [0, cardinality):

  * a state is its own index;
  * a tuple is read in mixed radix with the first component most
    significant;
  * a set is read as a binary number over element indices, largest
    member most significant (the empty set is 0).

This bijection is the only definition of the order: enumeration
decodes indices, so iteration streams through a domain without ever
materializing it, and a value's successor is the value at its index
plus one.  Comparing two values stays structural, because a value
carries no domain.  Cardinalities are exact big integers, computed
bottom-up over a type's parts and guarded by a bit-length budget
because set domains grow as a tower of exponentials.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from typing import Iterator, Optional, Union

from .logic import Compound, Ground, SetOf, Type, _nodes

DEFAULT_MAX_BITS = 1 << 20
DEFAULT_ENUM_BUDGET = 1 << 24


class BudgetError(Exception):
    """A computation would exceed a configured resource budget."""


class ConformanceError(Exception):
    """A value does not belong to the domain it was used with."""


# ---------------------------------------------------------------------------
# Values


@dataclass(frozen=True)
class State:
    index: int

    def __repr__(self) -> str:
        return "s%d" % self.index


@dataclass(frozen=True)
class Tup:
    items: tuple["Value", ...]

    def __repr__(self) -> str:
        return "(" + ", ".join(repr(v) for v in self.items) + ")"


@dataclass(frozen=True)
class SetV:
    """A set value; members are sorted ascending in canonical order."""

    members: tuple["Value", ...]

    def __repr__(self) -> str:
        return "{" + ", ".join(repr(v) for v in self.members) + "}"


Value = Union[State, Tup, SetV]


def make_set(members) -> SetV:
    """Build a set value from any iterable, sorting and deduplicating."""
    unique = list(members)
    unique.sort(key=cmp_to_key(canonical_compare))
    out = []
    for v in unique:
        if not out or out[-1] != v:
            out.append(v)
    return SetV(tuple(out))


# ---------------------------------------------------------------------------
# Domains


@dataclass(frozen=True)
class Domain:
    vtype: Type
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConformanceError("domain needs at least one state, got n=%d" % self.n)


def tower(n: int, k: int) -> int:
    """k-fold iterated exponential: tower(n, 0) = n, tower(n, k+1) = 2^tower(n, k)."""
    if n < 0 or k < 0:
        raise ValueError("tower needs n >= 0 and k >= 0")
    out = n
    for _ in range(k):
        if out > DEFAULT_MAX_BITS:
            raise BudgetError("tower exceeds %d bits" % DEFAULT_MAX_BITS)
        out = 1 << out
    return out


def domain_size(d: Domain) -> int:
    """Exact cardinality of the domain."""
    return _size(d.vtype, d.n)


def _size(t: Type, n: int) -> int:
    """The size of t's domain, built bottom-up from its distinct parts'
    sizes, so that no depth of t recurses."""
    if isinstance(t, Ground):
        return n
    sizes: dict = {}
    for u in _nodes(t):
        if isinstance(u, Ground):
            sizes[u] = n
        elif isinstance(u, Compound):
            out = 1
            for p in u.parts:
                out *= sizes[p]
                if out.bit_length() > DEFAULT_MAX_BITS:
                    raise BudgetError("domain size exceeds %d bits" % DEFAULT_MAX_BITS)
            sizes[u] = out
        elif isinstance(u, SetOf):
            inner = sizes[u.elem]
            if inner > DEFAULT_MAX_BITS:
                raise BudgetError("domain size exceeds %d bits" % DEFAULT_MAX_BITS)
            sizes[u] = 1 << inner
        else:
            raise TypeError("not a type: %r" % (u,))
    return sizes[t]


def canonical_index(d: Domain, v: Value) -> int:
    """Position of the value in the canonical order; validates membership."""
    t = d.vtype
    if isinstance(t, Ground):
        if not isinstance(v, State) or not 0 <= v.index < d.n:
            raise ConformanceError("%r is not a state of a %d-state domain" % (v, d.n))
        return v.index
    if isinstance(t, Compound):
        if not isinstance(v, Tup) or len(v.items) != len(t.parts):
            raise ConformanceError("%r does not fit compound type %r" % (v, t))
        idx = 0
        for p, item in zip(t.parts, v.items):
            sub = Domain(p, d.n)
            idx = idx * domain_size(sub) + canonical_index(sub, item)
        return idx
    if isinstance(t, SetOf):
        if not isinstance(v, SetV):
            raise ConformanceError("%r does not fit set type %r" % (v, t))
        sub = Domain(t.elem, d.n)
        idx = 0
        seen = set()
        for m in v.members:
            bit = canonical_index(sub, m)
            if bit in seen:
                raise ConformanceError("duplicate member %r in %r" % (m, v))
            seen.add(bit)
            idx |= 1 << bit
        return idx
    raise TypeError("not a type: %r" % (t,))


def index_to_value(d: Domain, idx: int) -> Value:
    """Inverse of canonical_index."""
    size = domain_size(d)
    if not 0 <= idx < size:
        raise ConformanceError("index %d out of range for domain of size %d" % (idx, size))
    return _decode(d.vtype, d.n, idx)


def _decode(t: Type, n: int, idx: int) -> Value:
    """The value at an index already known to lie in the domain of (t, n)."""
    if isinstance(t, Ground):
        return State(idx)
    if isinstance(t, Compound):
        rev = []
        for p in reversed(t.parts):
            idx, rest = divmod(idx, _size(p, n))
            rev.append(_decode(p, n, rest))
        return Tup(tuple(reversed(rev)))
    if isinstance(t, SetOf):
        return SetV(tuple(_decode(t.elem, n, i) for i in iter_members(idx)))
    raise TypeError("not a type: %r" % (t,))


def iter_members(x: int) -> Iterator[int]:
    """Member indices of a set bit mask, in increasing order."""
    digits = bin(x)[:1:-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


def canonical_compare(u: Value, v: Value) -> int:
    """Three-way comparison agreeing with canonical_index on any shared domain."""
    if isinstance(u, State) and isinstance(v, State):
        return (u.index > v.index) - (u.index < v.index)
    if isinstance(u, Tup) and isinstance(v, Tup):
        if len(u.items) != len(v.items):
            raise ConformanceError("cannot compare tuples of different arity")
        for a, b in zip(u.items, v.items):
            c = canonical_compare(a, b)
            if c:
                return c
        return 0
    if isinstance(u, SetV) and isinstance(v, SetV):
        # binary-number order: walk members from the largest down; the
        # first difference decides, and a set that runs out first is smaller
        a, b = u.members, v.members
        i, j = len(a) - 1, len(b) - 1
        while i >= 0 and j >= 0:
            c = canonical_compare(a[i], b[j])
            if c:
                return c
            i -= 1
            j -= 1
        if i >= 0:
            return 1
        if j >= 0:
            return -1
        return 0
    raise ConformanceError("cannot compare %r with %r" % (u, v))


def iter_domain(d: Domain, budget: Optional[int] = DEFAULT_ENUM_BUDGET) -> Iterator[Value]:
    """Stream the domain in canonical order, decoding one index at a time."""
    size = domain_size(d)
    if budget is not None and size > budget:
        raise BudgetError("domain of size %d exceeds enumeration budget %d" % (size, budget))
    for idx in range(size):
        yield _decode(d.vtype, d.n, idx)
