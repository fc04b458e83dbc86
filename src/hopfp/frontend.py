"""Concrete syntax: formulas, systems, machines and value literals.

Formulas are written as s-expressions:

    tt | ff
    (prop NAME VAR) | (act NAME VAR VAR) | (app VAR VAR ...)
    (not F) | (or F ...) | (and F ...) | (imp F F)
    (exists ((VAR TYPE) ...) F) | (forall ((VAR TYPE) ...) F)
    (pfp (VAR TYPE) (VAR ...) F)

    TYPE:  o | (set TYPE) | (tuple TYPE ...)

Shorthands normalize while reading: ff, and, imp and forall become the
core connectives, multi-binder blocks become nested single binders.
The printer emits only the core, one binder per exists, and nodes are
interned (see logic), so parse_formula(format_formula(f)) is f; a text
already in core shape prints back the same up to whitespace.

Systems and machines use a line format with "key: value" entries and
";" comments; see parse_lts and parse_tm.  Parse failures carry a
source span with byte offsets and line and column numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

from .domains import SetV, State, Tup, Value, make_set
from .logic import (
    GROUND,
    TT,
    Act,
    Apply,
    Compound,
    Exists,
    Formula,
    Ground,
    Not,
    Or,
    Pfp,
    Prop,
    SetOf,
    Tru,
    Type,
    allow_deep_recursion,
    conj,
    disj,
    exists_all,
    forall_all,
    implies,
)
from .lts import Lts, ORDER_ACTION
from .machine import TmSpec


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int
    line: int
    col: int


class ParseError(Exception):
    def __init__(self, message: str, span: Optional[SourceSpan] = None) -> None:
        self.span = span
        if span is not None:
            message = "line %d, col %d: %s" % (span.line, span.col, message)
        super().__init__(message)


# ---------------------------------------------------------------------------
# s-expression layer


class Atom(NamedTuple):
    text: str
    span: SourceSpan


class SList(NamedTuple):
    items: tuple
    span: SourceSpan


Node = Union[Atom, SList]

_DELIMS = set(" \t\r\n();")


def _tokens(text: str):
    out = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
        elif ch in " \t\r":
            i += 1
            col += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            out.append((ch, ch, SourceSpan(i, i + 1, line, col)))
            i += 1
            col += 1
        else:
            j = i
            while j < n and text[j] not in _DELIMS:
                j += 1
            out.append(("atom", text[i:j], SourceSpan(i, j, line, col)))
            col += j - i
            i = j
    return out


def _read(tokens, pos: int):
    kind, text, span = tokens[pos]
    if kind == "atom":
        return Atom(text, span), pos + 1
    if kind == "(":
        items = []
        pos += 1
        while True:
            if pos >= len(tokens):
                raise ParseError("unclosed parenthesis", span)
            if tokens[pos][0] == ")":
                end = tokens[pos][2]
                full = SourceSpan(span.start, end.end, span.line, span.col)
                return SList(tuple(items), full), pos + 1
            node, pos = _read(tokens, pos)
            items.append(node)
    raise ParseError("unexpected closing parenthesis", span)


def _read_one(text: str, what: str) -> Node:
    tokens = _tokens(text)
    if not tokens:
        raise ParseError("empty input, expected %s" % what)
    node, pos = _read(tokens, 0)
    if pos != len(tokens):
        raise ParseError("trailing input after %s" % what, tokens[pos][2])
    return node


def _head(node: SList) -> str:
    if not node.items or not isinstance(node.items[0], Atom):
        raise ParseError("expected a keyword after (", node.span)
    return node.items[0].text


def _name(node: Node, what: str) -> str:
    if not isinstance(node, Atom):
        raise ParseError("expected %s" % what, node.span)
    return node.text


# ---------------------------------------------------------------------------
# types


def _type(node: Node) -> Type:
    if isinstance(node, Atom):
        if node.text == "o":
            return GROUND
        raise ParseError("unknown type %r" % node.text, node.span)
    head = _head(node)
    if head == "set":
        if len(node.items) != 2:
            raise ParseError("set takes one element type", node.span)
        return SetOf(_type(node.items[1]))
    if head == "tuple":
        if len(node.items) < 2:
            raise ParseError("tuple needs at least one part", node.span)
        return Compound(tuple(_type(x) for x in node.items[1:]))
    raise ParseError("unknown type former %r" % head, node.span)


def parse_type(text: str) -> Type:
    allow_deep_recursion()
    return _type(_read_one(text, "a type"))


def format_type(t: Type) -> str:
    if isinstance(t, Ground):
        return "o"
    if isinstance(t, Compound):
        return "(tuple %s)" % " ".join(format_type(p) for p in t.parts)
    if isinstance(t, SetOf):
        return "(set %s)" % format_type(t.elem)
    raise TypeError("not a type: %r" % (t,))


# ---------------------------------------------------------------------------
# formulas


def _binder_pair(node: Node) -> tuple[str, Type]:
    if not isinstance(node, SList) or len(node.items) != 2:
        raise ParseError("expected (VAR TYPE)", node.span)
    return _name(node.items[0], "a variable"), _type(node.items[1])


def _binder_group(node: Node) -> list[tuple[str, Type]]:
    if not isinstance(node, SList) or not node.items:
        raise ParseError("expected a nonempty binder list", node.span)
    return [_binder_pair(x) for x in node.items]


def _formula(node: Node) -> Formula:
    if isinstance(node, Atom):
        if node.text == "tt":
            return TT
        if node.text == "ff":
            return Not(TT)
        raise ParseError("expected a formula, got %r" % node.text, node.span)
    head = _head(node)
    items = node.items
    if head == "prop":
        if len(items) != 3:
            raise ParseError("prop takes a name and a variable", node.span)
        return Prop(_name(items[1], "a proposition name"), _name(items[2], "a variable"))
    if head == "act":
        if len(items) != 4:
            raise ParseError("act takes a name and two variables", node.span)
        return Act(
            _name(items[1], "an action name"),
            _name(items[2], "a variable"),
            _name(items[3], "a variable"),
        )
    if head == "app":
        if len(items) < 3:
            raise ParseError("app takes a set variable and arguments", node.span)
        return Apply(
            _name(items[1], "a set variable"),
            tuple(_name(x, "a variable") for x in items[2:]),
        )
    if head == "not":
        if len(items) != 2:
            raise ParseError("not takes one formula", node.span)
        return Not(_formula(items[1]))
    if head == "or":
        return disj([_formula(x) for x in items[1:]])
    if head == "and":
        return conj([_formula(x) for x in items[1:]])
    if head == "imp":
        if len(items) != 3:
            raise ParseError("imp takes two formulas", node.span)
        return implies(_formula(items[1]), _formula(items[2]))
    if head == "exists":
        if len(items) != 3:
            raise ParseError("exists takes a binder list and a body", node.span)
        return exists_all(_binder_group(items[1]), _formula(items[2]))
    if head == "forall":
        if len(items) != 3:
            raise ParseError("forall takes a binder list and a body", node.span)
        return forall_all(_binder_group(items[1]), _formula(items[2]))
    if head == "pfp":
        if len(items) != 4:
            raise ParseError("pfp takes a binder, an argument list and a body", node.span)
        var, vtype = _binder_pair(items[1])
        if not isinstance(items[2], SList):
            raise ParseError("expected an argument list", items[2].span)
        args = tuple(_name(x, "a variable") for x in items[2].items)
        return Pfp(var, vtype, _formula(items[3]), args)
    raise ParseError("unknown connective %r" % head, node.span)


def parse_formula(text: str) -> Formula:
    allow_deep_recursion()
    return _formula(_read_one(text, "a formula"))


def format_formula(f: Formula) -> str:
    """Core-shape text; parse_formula(format_formula(f)) is f for f not yet type checked."""
    allow_deep_recursion()
    if isinstance(f, Tru):
        return "tt"
    if isinstance(f, Prop):
        return "(prop %s %s)" % (f.prop, f.var)
    if isinstance(f, Act):
        return "(act %s %s %s)" % (f.action, f.src, f.dst)
    if isinstance(f, Apply):
        return "(app %s %s)" % (f.head, " ".join(f.args))
    if isinstance(f, Not):
        return "(not %s)" % format_formula(f.sub)
    if isinstance(f, Or):
        return "(or %s %s)" % (format_formula(f.left), format_formula(f.right))
    if isinstance(f, Exists):
        return "(exists ((%s %s)) %s)" % (f.var, format_type(f.vtype), format_formula(f.body))
    if isinstance(f, Pfp):
        return "(pfp (%s %s) (%s) %s)" % (
            f.var,
            format_type(f.vtype),
            " ".join(f.args),
            format_formula(f.body),
        )
    raise TypeError("not a formula: %r" % (f,))


# ---------------------------------------------------------------------------
# values


def _value(node: Node, lts: Lts) -> Value:
    if isinstance(node, Atom):
        try:
            return State(lts.state_index(node.text))
        except ValueError:
            raise ParseError("unknown state %r" % node.text, node.span) from None
    head = _head(node)
    if head == "tuple":
        if len(node.items) < 2:
            raise ParseError("tuple needs at least one item", node.span)
        return Tup(tuple(_value(x, lts) for x in node.items[1:]))
    if head == "set":
        return make_set(_value(x, lts) for x in node.items[1:])
    raise ParseError("unknown value former %r" % head, node.span)


def parse_value(text: str, lts: Lts) -> Value:
    """Value literal: a state name, (tuple ...) or (set ...)."""
    allow_deep_recursion()
    return _value(_read_one(text, "a value"), lts)


def infer_value_type(v: Value) -> Type:
    """Shape of a literal; empty sets have no inferable element type."""
    if isinstance(v, State):
        return GROUND
    if isinstance(v, Tup):
        return Compound(tuple(infer_value_type(x) for x in v.items))
    if isinstance(v, SetV):
        if not v.members:
            raise ParseError("cannot infer the element type of an empty set")
        return SetOf(infer_value_type(v.members[0]))
    raise TypeError("not a value: %r" % (v,))


def format_value(v: Value, lts: Lts) -> str:
    if isinstance(v, State):
        return lts.states[v.index]
    if isinstance(v, Tup):
        return "(tuple %s)" % " ".join(format_value(x, lts) for x in v.items)
    if isinstance(v, SetV):
        if not v.members:
            return "(set)"
        return "(set %s)" % " ".join(format_value(x, lts) for x in v.members)
    raise TypeError("not a value: %r" % (v,))


# ---------------------------------------------------------------------------
# line formats


def _logical_lines(text: str):
    offset = 0
    for lineno, raw in enumerate(text.split("\n"), start=1):
        bare = raw.split(";", 1)[0]
        stripped = bare.strip()
        if stripped:
            col = bare.index(stripped[0]) + 1
            span = SourceSpan(offset + col - 1, offset + len(bare.rstrip()), lineno, col)
            yield stripped, span
        offset += len(raw) + 1


def parse_lts(text: str) -> Lts:
    """System description, one entry per line.

        states: s0 s1 s2
        actions: a        ; "<" is implied by the ordered directive
        props: p
        edge: s0 a s1
        label: s2 p
        ordered           ; chain s0 < s1 < ... in declaration order

    Lines accumulate, so edges may be spread over many "edge:" lines.
    """
    states: list[str] = []
    actions: list[str] = []
    props: list[str] = []
    edge_lines: list[tuple[tuple[str, str, str], SourceSpan]] = []
    label_lines: list[tuple[tuple[str, str], SourceSpan]] = []
    ordered = False
    for line, span in _logical_lines(text):
        if line == "ordered":
            ordered = True
            continue
        if ":" not in line:
            raise ParseError("expected 'key: values' or 'ordered'", span)
        key, rest = line.split(":", 1)
        key = key.strip()
        fields = rest.split()
        if key == "states":
            states += fields
        elif key == "actions":
            actions += fields
        elif key == "props":
            props += fields
        elif key == "edge":
            if len(fields) != 3:
                raise ParseError("edge takes source, action, target", span)
            edge_lines.append(((fields[0], fields[1], fields[2]), span))
        elif key == "label":
            if len(fields) != 2:
                raise ParseError("label takes a state and a proposition", span)
            label_lines.append(((fields[0], fields[1]), span))
        else:
            raise ParseError("unknown entry %r" % key, span)
    index = {name: i for i, name in enumerate(states)}
    if ordered and ORDER_ACTION not in actions:
        actions = [ORDER_ACTION] + actions
    edges = set()
    for (src, action, dst), span in edge_lines:
        if src not in index or dst not in index:
            raise ParseError("unknown state in edge", span)
        if action not in actions:
            raise ParseError("undeclared action %r" % action, span)
        edges.add((index[src], action, index[dst]))
    if ordered:
        edges |= {(i, ORDER_ACTION, j) for i in range(len(states)) for j in range(len(states)) if i < j}
    labels = set()
    for (state, prop), span in label_lines:
        if state not in index:
            raise ParseError("unknown state in label", span)
        if prop not in props:
            raise ParseError("undeclared proposition %r" % prop, span)
        labels.add((index[state], prop))
    try:
        return Lts(
            states=tuple(states),
            actions=tuple(actions),
            props=tuple(props),
            edges=frozenset(edges),
            labels=frozenset(labels),
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_tm(text: str) -> TmSpec:
    """Machine description, one entry per line.

        states: q0 qa qr
        input: 0 1
        tape: 0 1 _
        blank: _
        init: q0
        accept: qa
        reject: qr
        delta: q0 1 -> qa 1 N

    Rules for the accepting and rejecting state may be left out; they
    are filled in as stay-put self-loops.
    """
    single = {"blank": None, "init": None, "accept": None, "reject": None}
    multi: dict[str, list[str]] = {"states": [], "input": [], "tape": []}
    delta: dict[tuple[str, str], tuple[str, str, str]] = {}
    for line, span in _logical_lines(text):
        if ":" not in line:
            raise ParseError("expected 'key: values'", span)
        key, rest = line.split(":", 1)
        key = key.strip()
        fields = rest.split()
        if key in multi:
            multi[key] += fields
        elif key in single:
            if len(fields) != 1:
                raise ParseError("%s takes exactly one value" % key, span)
            if single[key] is not None:
                raise ParseError("%s given twice" % key, span)
            single[key] = fields[0]
        elif key == "delta":
            if len(fields) != 6 or fields[2] != "->":
                raise ParseError("delta takes 'STATE SYMBOL -> STATE SYMBOL MOVE'", span)
            pair = (fields[0], fields[1])
            if pair in delta:
                raise ParseError("duplicate rule for (%s, %s)" % pair, span)
            delta[pair] = (fields[3], fields[4], fields[5])
        else:
            raise ParseError("unknown entry %r" % key, span)
    missing = [k for k, v in single.items() if v is None]
    if not multi["states"]:
        missing.insert(0, "states")
    if missing:
        raise ParseError("missing entries: %s" % ", ".join(missing))
    try:
        return TmSpec(
            states=tuple(multi["states"]),
            input_alphabet=tuple(multi["input"]),
            tape_alphabet=tuple(multi["tape"]),
            blank=single["blank"],
            init=single["init"],
            accept=single["accept"],
            reject=single["reject"],
            delta=delta,
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def format_lts(lts: Lts) -> str:
    """Line format for a system; parse_lts reads it back exactly."""
    out = ["states: %s" % " ".join(lts.states)]
    if lts.actions:
        out.append("actions: %s" % " ".join(lts.actions))
    if lts.props:
        out.append("props: %s" % " ".join(lts.props))
    for s, a, t in sorted(lts.edges):
        out.append("edge: %s %s %s" % (lts.states[s], a, lts.states[t]))
    for s, p in sorted(lts.labels):
        out.append("label: %s %s" % (lts.states[s], p))
    return "\n".join(out) + "\n"


def format_tm(spec: TmSpec) -> str:
    """Line format for a machine, rules in declaration order."""
    out = ["states: %s" % " ".join(spec.states)]
    if spec.input_alphabet:
        out.append("input: %s" % " ".join(spec.input_alphabet))
    out.append("tape: %s" % " ".join(spec.tape_alphabet))
    out.append("blank: %s" % spec.blank)
    out.append("init: %s" % spec.init)
    out.append("accept: %s" % spec.accept)
    out.append("reject: %s" % spec.reject)
    qi = {q: i for i, q in enumerate(spec.states)}
    si = {s: i for i, s in enumerate(spec.tape_alphabet)}
    rules = sorted(spec.delta.items(), key=lambda kv: (qi[kv[0][0]], si[kv[0][1]]))
    for (q, s), (q2, s2, move) in rules:
        out.append("delta: %s %s -> %s %s %s" % (q, s, q2, s2, move))
    return "\n".join(out) + "\n"
