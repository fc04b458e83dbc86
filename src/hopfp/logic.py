"""Types and formulas of higher-order logic with partial fixpoints.

Types are built from the ground type (individuals of a transition system)
by finite products and powersets.  A type's order attribute, set when it
is built, is 1 for ground, the maximum over the parts for a product, and
one more than the element order for a powerset.

Formulas are kept in a small core: truth, proposition and action atoms,
application of a set-typed variable to arguments, negation, disjunction,
existential quantification and the partial-fixpoint binder.  Conjunction,
implication, falsity and universal quantification are sugar and normalize
to the core at construction time.

Formula nodes are hash-consed: constructing a node whose class and fields
match a live node returns that node, so two formulas are equal exactly
when they are the same object, and a formula built twice, or read back
from its printed text, is one shared DAG.  Every node carries its free
variables in its free attribute, set when it is built.  Types are
hash-consed the same way, so comparing and hashing them is by identity.

Typing is a side condition that adds nothing to a formula: there is one
formula shape, checked or not.  check_node holds the typing rule of a
single node under the types of the names in scope; check_well_formed
applies it to every node of a formula, and the evaluator's compiler
applies it to each atom, guard and fixpoint as it compiles them.  The
walks here over a formula or a type are iterative and need no raised
recursion limit at any depth; only a type's repr, for messages, recurses.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union


class TypingError(Exception):
    """A formula violates the well-formedness rules."""


# ---------------------------------------------------------------------------
# Interning

# the live node of each class and fields, by weak references that drop
# their entry when the node dies; types are interned here too
_NODES: dict = {}


class _Entry(weakref.ref):
    __slots__ = ("key",)


def _drop(entry: _Entry) -> None:
    if _NODES.get(entry.key) is entry:
        del _NODES[entry.key]


# the __new__ written out for each node class (see _Node)
_NEW = """
def __new__(cls%s):
    key = (cls,%s)
    entry = _NODES.get(key)
    node = entry() if entry is not None else None
    if node is not None:
        return node
    node = object.__new__(cls)%s
    entry = _NODES[key] = _Entry(node, _drop)
    entry.key = key
    return node
"""


class _Node:
    """Interned base of the types and the formula nodes: constructing a node
    with the class and fields of a live one returns it, so == and hash are
    identity, and pickling or copying a node gives the node itself.  Each
    class's __new__ is written out from its fields, its __post_init__
    check, if it has one, and the derived attributes in its header (free,
    order), as dataclass writes __init__; a generic __new__ taking *fields
    made a new node cost twice as much."""

    free: frozenset  # free variables of a formula node, set at construction
    order: int  # order of a type, set at construction

    def __init_subclass__(cls, **derived: str) -> None:
        super().__init_subclass__()
        names = tuple(cls.__dict__.get("__annotations__", ()))
        params = "".join(", %s=%r" % (n, cls.__dict__[n]) if n in cls.__dict__ else ", " + n for n in names)
        fields = "".join(" %s," % n for n in names)
        sets = "".join("\n    object.__setattr__(node, %r, %s)" % (n, n) for n in names)
        if "__post_init__" in cls.__dict__:
            sets += "\n    node.__post_init__()"
        for name, expr in derived.items():
            sets += "\n    object.__setattr__(node, %r, %s)" % (name, expr)
        code: dict = {}
        exec(_NEW % (params, fields, sets), globals(), code)
        cls.__new__ = code["__new__"]
        cls.__new__.__qualname__ = cls.__qualname__ + ".__new__"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__dataclass_fields__)


# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True, eq=False, init=False)
class Ground(_Node, order="1"):
    def __repr__(self) -> str:
        return "o"


@dataclass(frozen=True, eq=False, init=False)
class Compound(_Node, order="max(p.order for p in parts)"):
    parts: tuple["Type", ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise TypingError("compound type needs at least one part")

    def __repr__(self) -> str:
        return "(" + " x ".join(repr(p) for p in self.parts) + ")"


@dataclass(frozen=True, eq=False, init=False)
class SetOf(_Node, order="elem.order + 1"):
    elem: "Type"

    def __repr__(self) -> str:
        return "set(%r)" % (self.elem,)


Type = Union[Ground, Compound, SetOf]

GROUND = Ground()


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


@dataclass(frozen=True, eq=False, init=False)
class Tru(_Node, free="frozenset()"):
    pass


@dataclass(frozen=True, eq=False, init=False)
class Prop(_Node, free="frozenset((var,))"):
    prop: str
    var: str


@dataclass(frozen=True, eq=False, init=False)
class Act(_Node, free="frozenset((src, dst))"):
    action: str
    src: str
    dst: str


@dataclass(frozen=True, eq=False, init=False)
class Apply(_Node, free="frozenset((head,) + args)"):
    head: str
    args: tuple[str, ...]


@dataclass(frozen=True, eq=False, init=False)
class Not(_Node, free="sub.free"):
    sub: "Formula"


@dataclass(frozen=True, eq=False, init=False)
class Or(_Node, free="left.free | right.free"):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, eq=False, init=False)
class Exists(_Node, free="body.free - {var}"):
    var: str
    vtype: Type
    body: "Formula"


# fixpoint argument occurrences are free
@dataclass(frozen=True, eq=False, init=False)
class Pfp(_Node, free="(body.free - {var}) | frozenset(args)"):
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
    """Check the typing rules and return f itself.

    Proposition and action atoms take ground variables.  An applied or
    fixpoint-bound variable has a set type whose element determines the
    argument count and types (see applied_arg_types).  Raises TypingError
    on the first violation met in a walk of f's nodes in order, parents
    before children and children left to right.  Each distinct node is
    visited once per typing of its free variables, so the walk is linear
    in the DAG; it is iterative, so a deep formula needs no recursion.
    """
    done: set = set()
    stack = [(f, dict(ctx) if ctx else {})]
    while stack:
        g, scope = stack.pop()
        # the types of g's free variables, read in the fixed iteration
        # order of its interned free set, with None for an unbound one
        key = (g, tuple(map(scope.get, g.free)))
        if key in done:
            continue
        done.add(key)
        check_node(g, scope)
        if isinstance(g, (Exists, Pfp)):
            scope = {**scope, g.var: g.vtype}
        stack.extend((k, scope) for k in reversed(_children(g)))
    return f


def _lookup(scope: Mapping[str, Type], var: str, where: str) -> Type:
    try:
        return scope[var]
    except KeyError:
        raise TypingError("unbound variable %r in %s" % (var, where)) from None


def check_node(f: Formula, scope: Mapping[str, Type]) -> None:
    """The typing rule of the node f alone, under the types of the names
    in scope; its children are not looked at.  Only proposition and
    action atoms, applications and fixpoints have a rule: a fixpoint's
    arguments are typed in scope, and its body, checked on its own, in
    scope and the fixpoint variable.  Raises TypingError."""
    if isinstance(f, Prop):
        t = _lookup(scope, f.var, "proposition atom")
        if not isinstance(t, Ground):
            raise TypingError("proposition %r needs a ground variable, %r has type %r" % (f.prop, f.var, t))
    elif isinstance(f, Act):
        for v in (f.src, f.dst):
            t = _lookup(scope, v, "action atom")
            if not isinstance(t, Ground):
                raise TypingError("action %r needs ground variables, %r has type %r" % (f.action, v, t))
    elif isinstance(f, Apply):
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
            if got is not want:
                raise TypingError("argument %r of %r has type %r, expected %r" % (v, f.head, got, want))
    elif isinstance(f, Pfp):
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
            if got is not want:
                raise TypingError("fixpoint argument %r has type %r, expected %r" % (v, got, want))


def formula_order(f: Formula, ctx: Optional[TypingContext] = None) -> int:
    """Least k with free and existential variables of order <= k and
    fixpoint-bound variables of order <= k + 1.  Always at least 1."""
    scope = ctx or {}
    # a fixpoint-bound variable may be one order above the bound k
    binders = [g.vtype.order - isinstance(g, Pfp) for g in _nodes(f) if isinstance(g, (Exists, Pfp))]
    return max([1] + [scope[v].order for v in f.free if v in scope] + binders)


def formula_size(f: Formula) -> int:
    """Number of nodes in the core tree, counted over the distinct nodes."""
    sizes: dict = {}
    for g in _nodes(f):
        sizes[g] = 1 + sum(sizes[k] for k in _children(g))
    return sizes[f]


def _nodes(f: Union[Formula, Type]) -> dict:
    """The distinct nodes of f, a formula or a type, as the keys of a dict,
    each after its children in a depth-first walk, children left to right."""
    seen: dict = {}
    # (node, whether its children are on the stack above it already)
    stack = [(f, False)]
    while stack:
        g, expanded = stack.pop()
        if g in seen:
            continue
        if expanded:
            seen[g] = None
        else:
            stack.append((g, True))
            stack.extend((k, False) for k in reversed(_children(g)))
    return seen


def _children(f: Union[Formula, Type]) -> tuple:
    # types come last, so a walk over a formula never tests for them
    if isinstance(f, (Tru, Prop, Act, Apply)):
        return ()
    if isinstance(f, Not):
        return (f.sub,)
    if isinstance(f, Or):
        return (f.left, f.right)
    if isinstance(f, (Exists, Pfp)):
        return (f.body,)
    if isinstance(f, Ground):
        return ()
    if isinstance(f, Compound):
        return f.parts
    if isinstance(f, SetOf):
        return (f.elem,)
    raise TypeError("not a formula or a type: %r" % (f,))
