"""Formulas that pin down canonical values over the built-in order.

A system whose states carry a strict total order under the reserved
action "<" supports definable arithmetic: width-c tuples of states are
compared lexicographically, and sets are compared as binary numbers
whose most significant digit is the largest member.  Iterating the
powerset climbs a tower of domains, and at every level the order, the
successor relation and "this is the j-th value" stay expressible with
formulas whose size does not depend on the domain, only on the level,
the width and j.

From level 2 on the builders use the sets' own structure where they
can: equality is mutual inclusion, the successor is a binary increment
(the least element missing from a is added, and every element below it
dropped), and the least value is the empty set.  Each quantifies over
the level below, mostly through a guarded block that walks one set's
members, where a comparison through build_lt sweeps the whole level.
These definitions agree with build_lt's order on every system whose
"<" is a strict total order, the only systems the builders are meant
for; equality and the least value do not read "<" at all.

A level-1 value occupies width many ground variables; from level 2 on a
value is a single set-typed variable.  Builders therefore work with
slots, tuples of variable names, and name their own bound variables by
role and level alone, in a shape NameSupply.fresh never produces, so
equal requests build the same interned formula.  A builder's body
mentions only its slots and its own bound names, so raising ValueError
on a slot that uses one of those names keeps every build capture free.
A builder reserves the same role names whatever its shape, also where
that shape binds fewer of them: from level 2 on, z and w one level down
for every builder; v at its own level for build_succ; y and u at its
level for iter_index, whose steps are build_succ's.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice
from typing import Iterator, Optional

from .logic import (
    GROUND,
    Act,
    Apply,
    Compound,
    Formula,
    Not,
    Or,
    SetOf,
    Type,
    and_,
    conj,
    disj,
    exists_all,
    forall,
    forall_all,
    implies,
)
from .lts import ORDER_ACTION

Slot = tuple[str, ...]


@dataclass(frozen=True)
class TowerSpec:
    """One level of the tower of domains over width-many ground parts.

    Level 1 holds the ground tuples themselves, each further level the
    powerset of the one below.
    """

    width: int
    level: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.level < 1:
            raise ValueError("width and level must be at least 1")

    @property
    def value_type(self) -> Type:
        t: Type = GROUND if self.width == 1 else Compound((GROUND,) * self.width)
        for _ in range(self.level - 1):
            t = SetOf(t)
        return t

    @property
    def slot_types(self) -> tuple[Type, ...]:
        if self.level == 1:
            return (GROUND,) * self.width
        return (self.value_type,)

    @property
    def slot_arity(self) -> int:
        return len(self.slot_types)

    def down(self) -> "TowerSpec":
        if self.level == 1:
            raise ValueError("level 1 has no lower level")
        return TowerSpec(self.width, self.level - 1)


class NameSupply:
    """Hands out variable names that avoid each other."""

    def __init__(self) -> None:
        self._taken: set[str] = set()
        self._next: dict[str, int] = {}

    def fresh(self, base: str = "z") -> str:
        i = self._next.get(base, 0)
        while True:
            name = "%s%d" % (base, i)
            i += 1
            if name not in self._taken:
                break
        self._next[base] = i
        self._taken.add(name)
        return name

    def slot(self, spec: TowerSpec, base: str = "z") -> Slot:
        return tuple(self.fresh(base) for _ in range(spec.slot_arity))


def quantify_exists(spec: TowerSpec, names: Slot, body: Formula) -> Formula:
    return exists_all(zip(names, spec.slot_types), body)


def quantify_forall(spec: TowerSpec, names: Slot, body: Formula) -> Formula:
    return forall_all(zip(names, spec.slot_types), body)


def _bound_slot(spec: TowerSpec, role: str, *given: Slot) -> Slot:
    """The slot a builder binds in the role, named by the level, the role
    letter and one prime per earlier part, as in 2z or 1w'.  Raises
    ValueError when a given slot uses one of these names."""
    names = tuple("%d%s%s" % (spec.level, role, "'" * i) for i in range(spec.slot_arity))
    clash = [name for name in names if any(name in slot for slot in given)]
    if clash:
        raise ValueError("slot names %s are bound by the builder" % clash)
    return names


def build_lt(spec: TowerSpec, a: Slot, b: Slot, supply: Optional[NameSupply] = None) -> Formula:
    """a comes strictly before b in the canonical order of the level.

    supply is ignored, and accepted only for callers that still pass one.
    """
    if spec.level == 1:
        disjuncts = []
        for i in range(spec.width):
            parts: list[Formula] = [Act(ORDER_ACTION, a[i], b[i])]
            parts += [Not(Act(ORDER_ACTION, b[j], a[j])) for j in range(i)]
            disjuncts.append(conj(parts))
        return disj(disjuncts)
    down = spec.down()
    z = _bound_slot(down, "z", a, b)
    w = _bound_slot(down, "w", a, b)
    x, y = a[0], b[0]
    above = quantify_forall(
        down,
        w,
        implies(
            build_lt(down, z, w),
            implies(Apply(x, w), Apply(y, w)),
        ),
    )
    witness = conj([Apply(y, z), Not(Apply(x, z)), above])
    return quantify_exists(down, z, witness)


def build_eq(spec: TowerSpec, a: Slot, b: Slot) -> Formula:
    """a and b are the same value of the level.

    At level 1 neither comes before the other.  From level 2 on each set
    includes the other: no z is in one of them but not in the other.
    That reads no order, and each existential walks the members of one
    set only (a guarded block).
    """
    if spec.level == 1:
        return and_(Not(build_lt(spec, a, b)), Not(build_lt(spec, b, a)))
    down = spec.down()
    z = _bound_slot(down, "z", a, b)
    _bound_slot(down, "w", a, b)  # reserved, see the module docstring
    only_in = lambda u, v: quantify_exists(down, z, and_(Apply(u, z), Not(Apply(v, z))))
    return and_(Not(only_in(a[0], b[0])), Not(only_in(b[0], a[0])))


def build_succ(spec: TowerSpec, a: Slot, b: Slot) -> Formula:
    """b is the immediate successor of a.

    At level 1, a < b and nothing lies strictly between them.  From
    level 2 on, b is a plus one as a binary number: some z in b but not
    in a has every element below it in a and not in b, and above it a
    and b agree.  The existential walks the members of b only (a
    guarded block), and its two universals sweep the level below.
    """
    # bound at level 1 only, reserved at every level
    v = _bound_slot(spec, "v", a, b)
    if spec.level == 1:
        between = quantify_exists(spec, v, and_(build_lt(spec, a, v), build_lt(spec, v, b)))
        return and_(build_lt(spec, a, b), Not(between))
    down = spec.down()
    z = _bound_slot(down, "z", a, b)
    w = _bound_slot(down, "w", a, b)
    in_a, in_b = Apply(a[0], w), Apply(b[0], w)
    carried = implies(build_lt(down, w, z), and_(in_a, Not(in_b)))
    kept = implies(build_lt(down, z, w), Or(and_(in_a, in_b), and_(Not(in_a), Not(in_b))))
    flipped = [Apply(b[0], z), Not(Apply(a[0], z))]
    return quantify_exists(
        down, z, conj(flipped + [quantify_forall(down, w, carried), quantify_forall(down, w, kept)])
    )


def build_index(spec: TowerSpec, j: int, names: Slot) -> Formula:
    """The slot holds the j-th value of the level in canonical order.

    Size grows linearly with j: the zero case says the value is the
    least one (see iter_index), and each step asserts a successor of a
    witness for j - 1.  Each call walks iter_index from j = 0, so it
    costs O(j); a caller that needs several indices of one slot should
    take them from one iter_index pass instead.
    """
    if j < 0:
        raise ValueError("index must not be negative")
    return next(islice(iter_index(spec, names), j, None))


def iter_index(spec: TowerSpec, names: Slot) -> Iterator[Formula]:
    """build_index of the slot for j = 0, 1, 2, ... in turn.

    Index 0 says, at level 1, that nothing lies below the slot and, from
    level 2 on, that the slot has no member: the least set is the empty
    one, and a guarded block tests that without reading the order.  The
    witness for j - 1 is named by the parity of j, so the formula
    for j - 1 at that name, the spine, is one node for every slot, and
    its successor steps alternate between just two nodes.  That matters
    to the evaluator, which keeps a memo table per distinct successor
    node.  The spine is extended by one step per formula, never rebuilt.
    """
    pair = y, u = (_bound_slot(spec, "y", names), _bound_slot(spec, "u", names))
    if spec.level == 1:
        least = lambda slot: Not(quantify_exists(spec, y, build_lt(spec, y, slot)))
    else:
        down = spec.down()
        z = _bound_slot(down, "z", names)
        _bound_slot(down, "w", names)  # reserved, see the module docstring
        least = lambda slot: Not(quantify_exists(down, z, Apply(slot[0], z)))
    yield least(names)
    steps = (build_succ(spec, y, u), build_succ(spec, u, y))
    last = (build_succ(spec, y, names), build_succ(spec, u, names))
    spine = least(u)
    for j in count(1):
        # spine is the formula for j - 1 at the witness name for j
        yield quantify_exists(spec, pair[j % 2], and_(spine, last[j % 2]))
        spine = quantify_exists(spec, pair[j % 2], and_(spine, steps[j % 2]))


def build_total_order_axiom() -> Formula:
    """The reserved order action is a strict total order on states.

    Irreflexivity and transitivity are first order.  Totality needs a
    twist: without built-in equality, "x equals y" is expressed as x and
    y belonging to the same ground sets, which costs one second-order
    universal.  The formula is closed, so its bound names are fixed.
    """
    x, y, z, cls = "x0", "y0", "z0", "S0"
    lt = lambda u, v: Act(ORDER_ACTION, u, v)
    irreflexive = forall(x, GROUND, Not(lt(x, x)))
    transitive = forall_all(
        [(x, GROUND), (y, GROUND), (z, GROUND)],
        implies(and_(lt(x, y), lt(y, z)), lt(x, z)),
    )
    same = forall(cls, SetOf(GROUND), implies(Apply(cls, (x,)), Apply(cls, (y,))))
    connected = forall_all(
        [(x, GROUND), (y, GROUND)],
        disj([lt(x, y), lt(y, x), same]),
    )
    return conj([irreflexive, transitive, connected])
