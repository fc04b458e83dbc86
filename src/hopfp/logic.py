"""Types and formulas of higher-order logic with partial fixpoints.

Types are built from the ground type (individuals of a transition system)
by finite products and powersets.  The order of a type is 1 for ground,
the maximum over the parts for a product, and one more than the element
order for a powerset.

Formulas are kept in a small core: truth, proposition and action atoms,
application of a set-typed variable to arguments, negation, disjunction,
existential quantification and the partial-fixpoint binder.  Conjunction,
implication, falsity and universal quantification are sugar and normalize
to the core at construction time.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union


class TypingError(Exception):
    """A formula violates the well-formedness rules."""


# formulas are walked recursively, one frame per nesting level
RECURSION_LIMIT = 20000


def allow_deep_recursion() -> None:
    """Raise the interpreter's recursion limit to RECURSION_LIMIT if lower."""
    if sys.getrecursionlimit() < RECURSION_LIMIT:
        sys.setrecursionlimit(RECURSION_LIMIT)


# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class Ground:
    def __repr__(self) -> str:
        return "o"


@dataclass(frozen=True)
class Compound:
    parts: tuple["Type", ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise TypingError("compound type needs at least one part")

    def __repr__(self) -> str:
        return "(" + " x ".join(repr(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class SetOf:
    elem: "Type"

    def __repr__(self) -> str:
        return "set(%r)" % (self.elem,)


Type = Union[Ground, Compound, SetOf]

GROUND = Ground()


def order_of(t: Type) -> int:
    """Order of a type: ground 1, product max, powerset element + 1."""
    if isinstance(t, Ground):
        return 1
    if isinstance(t, Compound):
        return max(order_of(p) for p in t.parts)
    if isinstance(t, SetOf):
        return 1 + order_of(t.elem)
    raise TypeError("not a type: %r" % (t,))


def applied_arg_types(t: Type) -> tuple[Type, ...]:
    """Argument types a variable of set type *t* expects when applied.

    A set of compounds is applied component-wise; a set over any other
    element type takes the element as a single argument.
    """
    if not isinstance(t, SetOf):
        raise TypingError("only set-typed variables can be applied, got %r" % (t,))
    if isinstance(t.elem, Compound):
        return t.elem.parts
    return (t.elem,)


# ---------------------------------------------------------------------------
# Formulas (core)


@dataclass(frozen=True)
class Tru:
    pass


@dataclass(frozen=True)
class Prop:
    prop: str
    var: str


@dataclass(frozen=True)
class Act:
    action: str
    src: str
    dst: str


@dataclass(frozen=True)
class Apply:
    head: str
    args: tuple[str, ...]
    # element type of the head's set type, filled in by check_well_formed
    elem: Optional[Type] = None


@dataclass(frozen=True)
class Not:
    sub: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    vtype: Type
    body: "Formula"


@dataclass(frozen=True)
class Pfp:
    var: str
    vtype: Type
    body: "Formula"
    args: tuple[str, ...]


Formula = Union[Tru, Prop, Act, Apply, Not, Or, Exists, Pfp]

TT = Tru()


# ---------------------------------------------------------------------------
# Sugar (normalizes to the core)


def false_() -> Formula:
    return Not(TT)


def and_(left: Formula, right: Formula) -> Formula:
    return Not(Or(Not(left), Not(right)))


def implies(left: Formula, right: Formula) -> Formula:
    return Or(Not(left), right)


def forall(var: str, vtype: Type, body: Formula) -> Formula:
    return Not(Exists(var, vtype, Not(body)))


def conj(parts: Iterable[Formula]) -> Formula:
    """Right-folded conjunction; empty conjunction is truth."""
    items = list(parts)
    if not items:
        return TT
    out = items[-1]
    for f in reversed(items[:-1]):
        out = and_(f, out)
    return out


def disj(parts: Iterable[Formula]) -> Formula:
    """Right-folded disjunction; empty disjunction is falsity."""
    items = list(parts)
    if not items:
        return false_()
    out = items[-1]
    for f in reversed(items[:-1]):
        out = Or(f, out)
    return out


def exists_all(groups: Iterable[tuple[str, Type]], body: Formula) -> Formula:
    out = body
    for var, t in reversed(list(groups)):
        out = Exists(var, t, out)
    return out


def forall_all(groups: Iterable[tuple[str, Type]], body: Formula) -> Formula:
    out = body
    for var, t in reversed(list(groups)):
        out = forall(var, t, out)
    return out


# ---------------------------------------------------------------------------
# Static checks

TypingContext = Mapping[str, Type]


def check_well_formed(f: Formula, ctx: Optional[TypingContext] = None) -> Formula:
    """Check the typing rules and return the annotated formula.

    Proposition and action atoms take ground variables.  An applied or
    fixpoint-bound variable has a set type whose element determines the
    argument count and types (see applied_arg_types).  Raises TypingError
    on any violation; on success returns a tree equal to the input except
    that every Apply node carries its head's element type.  Checking an
    already annotated formula is idempotent.
    """
    scope: dict[str, Type] = dict(ctx) if ctx else {}
    return _Checker().check(f, scope)


def _lookup(scope: Mapping[str, Type], var: str, where: str) -> Type:
    try:
        return scope[var]
    except KeyError:
        raise TypingError("unbound variable %r in %s" % (var, where)) from None


class _Checker:
    """One checking pass.

    Builder output reuses subterms heavily, so each distinct node is
    checked once per typing of its free variables and the annotated
    result keeps the sharing instead of expanding it into a tree.
    """

    def __init__(self) -> None:
        self.done: dict = {}
        self.free_vars = FreeVars()

    def check(self, f: Formula, scope: dict[str, Type]) -> Formula:
        # only the types of the node's own free variables matter, so the
        # cache key ignores whatever else happens to be in scope
        sig = tuple(sorted((v, scope[v]) for v in self.free_vars(f) if v in scope))
        key = (id(f), sig)
        hit = self.done.get(key)
        if hit is None:
            hit = self.done[key] = self._node(f, scope)
        return hit

    def _node(self, f: Formula, scope: dict[str, Type]) -> Formula:
        if isinstance(f, Tru):
            return f
        if isinstance(f, Prop):
            t = _lookup(scope, f.var, "proposition atom")
            if not isinstance(t, Ground):
                raise TypingError("proposition %r needs a ground variable, %r has type %r" % (f.prop, f.var, t))
            return f
        if isinstance(f, Act):
            for v in (f.src, f.dst):
                t = _lookup(scope, v, "action atom")
                if not isinstance(t, Ground):
                    raise TypingError("action %r needs ground variables, %r has type %r" % (f.action, v, t))
            return f
        if isinstance(f, Apply):
            t = _lookup(scope, f.head, "application")
            if not isinstance(t, SetOf):
                raise TypingError("applied variable %r must have a set type, got %r" % (f.head, t))
            expected = applied_arg_types(t)
            if len(f.args) != len(expected):
                raise TypingError(
                    "%r applied to %d arguments, its type %r takes %d" % (f.head, len(f.args), t, len(expected))
                )
            for v, want in zip(f.args, expected):
                got = _lookup(scope, v, "application argument")
                if got != want:
                    raise TypingError("argument %r of %r has type %r, expected %r" % (v, f.head, got, want))
            return Apply(f.head, f.args, t.elem)
        if isinstance(f, Not):
            return Not(self.check(f.sub, scope))
        if isinstance(f, Or):
            return Or(self.check(f.left, scope), self.check(f.right, scope))
        if isinstance(f, Exists):
            inner = dict(scope)
            inner[f.var] = f.vtype
            return Exists(f.var, f.vtype, self.check(f.body, inner))
        if isinstance(f, Pfp):
            if not isinstance(f.vtype, SetOf):
                raise TypingError("fixpoint variable %r must have a set type, got %r" % (f.var, f.vtype))
            expected = applied_arg_types(f.vtype)
            if len(f.args) != len(expected):
                raise TypingError(
                    "fixpoint over %r applied to %d arguments, expected %d" % (f.var, len(f.args), len(expected))
                )
            if len(set(f.args)) != len(f.args):
                raise TypingError("fixpoint arguments must be distinct, got %r" % (f.args,))
            for v, want in zip(f.args, expected):
                got = _lookup(scope, v, "fixpoint argument")
                if got != want:
                    raise TypingError("fixpoint argument %r has type %r, expected %r" % (v, got, want))
            inner = dict(scope)
            inner[f.var] = f.vtype
            return Pfp(f.var, f.vtype, self.check(f.body, inner), f.args)
        raise TypeError("not a formula: %r" % (f,))


class FreeVars:
    """Free-variable walker that visits each distinct node object once.

    Builder output shares subterms heavily, so results are memoized by
    node identity, which keeps a walk over a shared DAG linear in its
    distinct nodes.  An id is only unique while its node lives, so a
    walker must not outlive the formulas it has walked.
    """

    def __init__(self) -> None:
        self._memo: dict = {}

    def __call__(self, f: Formula) -> frozenset[str]:
        got = self._memo.get(id(f))
        if got is not None:
            return got
        if isinstance(f, Tru):
            got = frozenset()
        elif isinstance(f, Prop):
            got = frozenset((f.var,))
        elif isinstance(f, Act):
            got = frozenset((f.src, f.dst))
        elif isinstance(f, Apply):
            got = frozenset((f.head,) + f.args)
        elif isinstance(f, Not):
            got = self(f.sub)
        elif isinstance(f, Or):
            got = self(f.left) | self(f.right)
        elif isinstance(f, Exists):
            got = self(f.body) - {f.var}
        elif isinstance(f, Pfp):
            got = (self(f.body) - {f.var}) | frozenset(f.args)
        else:
            raise TypeError("not a formula: %r" % (f,))
        self._memo[id(f)] = got
        return got


def free_vars(f: Formula) -> frozenset[str]:
    """Free variables; fixpoint argument occurrences are free."""
    return FreeVars()(f)


def formula_order(f: Formula, ctx: Optional[TypingContext] = None) -> int:
    """Least k with free and existential variables of order <= k and
    fixpoint-bound variables of order <= k + 1.  Always at least 1."""
    scope: dict[str, Type] = dict(ctx) if ctx else {}
    need = 1
    for v in free_vars(f):
        if v in scope:
            need = max(need, order_of(scope[v]))
    return max(need, _binder_order(f))


def _binder_order(f: Formula) -> int:
    if isinstance(f, (Tru, Prop, Act, Apply)):
        return 1
    if isinstance(f, Not):
        return _binder_order(f.sub)
    if isinstance(f, Or):
        return max(_binder_order(f.left), _binder_order(f.right))
    if isinstance(f, Exists):
        return max(order_of(f.vtype), _binder_order(f.body))
    if isinstance(f, Pfp):
        return max(order_of(f.vtype) - 1, _binder_order(f.body))
    raise TypeError("not a formula: %r" % (f,))


def formula_size(f: Formula) -> int:
    """Number of nodes in the core tree."""
    if isinstance(f, (Tru, Prop, Act, Apply)):
        return 1
    if isinstance(f, Not):
        return 1 + formula_size(f.sub)
    if isinstance(f, Or):
        return 1 + formula_size(f.left) + formula_size(f.right)
    if isinstance(f, (Exists, Pfp)):
        return 1 + formula_size(f.body)
    raise TypeError("not a formula: %r" % (f,))
