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
source span with character offsets into the text and line and column
numbers.  The s-expression reader keeps only token indices and works
out the position of the one error it reports.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

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
    """Where a parse error sits: character offsets and the line and column of start."""

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

# A match is a comment, which leaves group 1 empty, or a token: a
# parenthesis or an atom.  Only space, tab, CR and LF separate atoms.
_TOKEN = re.compile(r";[^\n]*|([()]|[^ \t\r\n();]+)")


class _Source:
    """The one form of a text: its tokens and, for each "(", the index of
    the ")" that closes it.  Every s-expression parser starts here.

    A form is named by the index of its first token: an atom, or the "("
    of a list.  No position is kept; error works out the one it reports.
    """

    def __init__(self, text: str, what: str) -> None:
        allow_deep_recursion()
        self.text = text
        self.tokens = tokens = list(filter(None, _TOKEN.findall(text)))
        self.closes: dict[int, int] = {}
        if not tokens:
            raise ParseError("empty input, expected %s" % what)
        # the first form is matched in full before trailing input is checked
        open_at: list[int] = []
        for i, tok in enumerate(tokens):
            if tok == "(":
                open_at.append(i)
                continue
            if tok == ")":
                if not open_at:
                    raise self.error("unexpected closing parenthesis", i)
                self.closes[open_at.pop()] = i
            if not open_at:
                if i + 1 < len(tokens):
                    raise self.error("trailing input after %s" % what, i + 1)
                return
        raise self.error("unclosed parenthesis", open_at[-1])

    def form(self, i: int) -> Union[str, list[int]]:
        """The text of the atom at i, or the indices of the list's items."""
        tok = self.tokens[i]
        if tok != "(":
            return tok
        closes = self.closes
        items = []
        j, end = i + 1, closes[i]
        while j < end:
            items.append(j)
            j = closes.get(j, j) + 1
        return items

    def error(self, message: str, i: int) -> ParseError:
        """The error about the form at i, located by scanning the text again."""
        text = self.text
        bounds = [m.span(1) for m in _TOKEN.finditer(text) if m.group(1)]
        start, end = bounds[i][0], bounds[self.closes.get(i, i)][1]
        col = start - text.rfind("\n", 0, start)
        return ParseError(message, SourceSpan(start, end, text.count("\n", 0, start) + 1, col))


def _head(src: _Source, i: int, items: list[int]) -> str:
    head = src.form(items[0]) if items else None
    if not isinstance(head, str):
        raise src.error("expected a keyword after (", i)
    return head


def _name(src: _Source, i: int, what: str) -> str:
    name = src.form(i)
    if not isinstance(name, str):
        raise src.error("expected %s" % what, i)
    return name


# ---------------------------------------------------------------------------
# types


def _type(src: _Source, i: int) -> Type:
    form = src.form(i)
    if isinstance(form, str):
        if form == "o":
            return GROUND
        raise src.error("unknown type %r" % form, i)
    head = _head(src, i, form)
    if head == "set":
        if len(form) != 2:
            raise src.error("set takes one element type", i)
        return SetOf(_type(src, form[1]))
    if head == "tuple":
        if len(form) < 2:
            raise src.error("tuple needs at least one part", i)
        return Compound(tuple(_type(src, x) for x in form[1:]))
    raise src.error("unknown type former %r" % head, i)


def parse_type(text: str) -> Type:
    return _type(_Source(text, "a type"), 0)


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


def _binder_pair(src: _Source, i: int) -> tuple[str, Type]:
    form = src.form(i)
    if isinstance(form, str) or len(form) != 2:
        raise src.error("expected (VAR TYPE)", i)
    return _name(src, form[0], "a variable"), _type(src, form[1])


def _binder_group(src: _Source, i: int) -> list[tuple[str, Type]]:
    form = src.form(i)
    if isinstance(form, str) or not form:
        raise src.error("expected a nonempty binder list", i)
    return [_binder_pair(src, x) for x in form]


def _formula(src: _Source, i: int) -> Formula:
    form = src.form(i)
    if isinstance(form, str):
        if form == "tt":
            return TT
        if form == "ff":
            return Not(TT)
        raise src.error("expected a formula, got %r" % form, i)
    head = _head(src, i, form)
    if head == "prop":
        if len(form) != 3:
            raise src.error("prop takes a name and a variable", i)
        return Prop(_name(src, form[1], "a proposition name"), _name(src, form[2], "a variable"))
    if head == "act":
        if len(form) != 4:
            raise src.error("act takes a name and two variables", i)
        return Act(
            _name(src, form[1], "an action name"),
            _name(src, form[2], "a variable"),
            _name(src, form[3], "a variable"),
        )
    if head == "app":
        if len(form) < 3:
            raise src.error("app takes a set variable and arguments", i)
        return Apply(
            _name(src, form[1], "a set variable"),
            tuple(_name(src, x, "a variable") for x in form[2:]),
        )
    if head == "not":
        if len(form) != 2:
            raise src.error("not takes one formula", i)
        return Not(_formula(src, form[1]))
    if head == "or":
        return disj([_formula(src, x) for x in form[1:]])
    if head == "and":
        return conj([_formula(src, x) for x in form[1:]])
    if head == "imp":
        if len(form) != 3:
            raise src.error("imp takes two formulas", i)
        return implies(_formula(src, form[1]), _formula(src, form[2]))
    if head == "exists":
        if len(form) != 3:
            raise src.error("exists takes a binder list and a body", i)
        return exists_all(_binder_group(src, form[1]), _formula(src, form[2]))
    if head == "forall":
        if len(form) != 3:
            raise src.error("forall takes a binder list and a body", i)
        return forall_all(_binder_group(src, form[1]), _formula(src, form[2]))
    if head == "pfp":
        if len(form) != 4:
            raise src.error("pfp takes a binder, an argument list and a body", i)
        var, vtype = _binder_pair(src, form[1])
        arg_list = src.form(form[2])
        if isinstance(arg_list, str):
            raise src.error("expected an argument list", form[2])
        args = tuple(_name(src, x, "a variable") for x in arg_list)
        return Pfp(var, vtype, _formula(src, form[3]), args)
    raise src.error("unknown connective %r" % head, i)


def parse_formula(text: str) -> Formula:
    return _formula(_Source(text, "a formula"), 0)


def format_formula(f: Formula) -> str:
    """Core-shape text; parse_formula(format_formula(f)) is f."""
    allow_deep_recursion()
    return _format(f)


def _format(f: Formula) -> str:
    if isinstance(f, Tru):
        return "tt"
    if isinstance(f, Prop):
        return "(prop %s %s)" % (f.prop, f.var)
    if isinstance(f, Act):
        return "(act %s %s %s)" % (f.action, f.src, f.dst)
    if isinstance(f, Apply):
        return "(app %s %s)" % (f.head, " ".join(f.args))
    if isinstance(f, Not):
        return "(not %s)" % _format(f.sub)
    if isinstance(f, Or):
        return "(or %s %s)" % (_format(f.left), _format(f.right))
    if isinstance(f, Exists):
        return "(exists ((%s %s)) %s)" % (f.var, format_type(f.vtype), _format(f.body))
    if isinstance(f, Pfp):
        return "(pfp (%s %s) (%s) %s)" % (
            f.var,
            format_type(f.vtype),
            " ".join(f.args),
            _format(f.body),
        )
    raise TypeError("not a formula: %r" % (f,))


# ---------------------------------------------------------------------------
# values


def _value(src: _Source, i: int, lts: Lts) -> Value:
    form = src.form(i)
    if isinstance(form, str):
        try:
            return State(lts.state_index(form))
        except ValueError:
            raise src.error("unknown state %r" % form, i) from None
    head = _head(src, i, form)
    if head == "tuple":
        if len(form) < 2:
            raise src.error("tuple needs at least one item", i)
        return Tup(tuple(_value(src, x, lts) for x in form[1:]))
    if head == "set":
        return make_set(_value(src, x, lts) for x in form[1:])
    raise src.error("unknown value former %r" % head, i)


def parse_value(text: str, lts: Lts) -> Value:
    """Value literal: a state name, (tuple ...) or (set ...)."""
    return _value(_Source(text, "a value"), 0, lts)


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
