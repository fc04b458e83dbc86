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

A printed formula is a tree over a DAG of far fewer distinct nodes, and
both directions do their Python-level work once per distinct form.  The
printer builds each distinct node's text once, from its children's, and
each distinct binder type's once, bottom-up from its parts', in
iterative walks.  The reader interns the shape of every list in one
pass over the tokens, keeps those shapes instead of the tokens, and
converts each distinct shape once per context, on an explicit stack: as
a formula, a type or a value.

Systems and machines use a line format with "key: value" entries and
";" comments; see parse_lts and parse_tm.  Parse failures carry a
source span with character offsets into the text and line and column
numbers.  The s-expression reader keeps no positions and works out the
position of the one error it reports by scanning the text again.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional, Union

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
    _children,
    _nodes,
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

# A form's key is the text of an atom or the shape id of a list, and a
# form of the text is named by (index of its first token, key).
_Key = Union[str, int]
_At = tuple[int, _Key]


class _Source:
    """The one form of a text, read in one pass over its tokens.  Every
    s-expression parser starts here.

    Each list gets a shape id, interned from its items' keys, so two
    lists have one id exactly when they are written alike, up to
    whitespace and comments.  Only the shapes are kept, not the tokens:
    the items of a list occurrence follow from its shape and the sizes
    of its items' shapes.  No position is kept either; error works out
    the one it reports.  memo keeps what each converter makes of a key
    (see _read); lts is the host whose states value literals name.
    """

    def __init__(self, text: str, what: str, lts: Optional[Lts] = None) -> None:
        self.text = text
        self.lts = lts
        self.shapes: list[tuple[_Key, ...]] = []  # shape id -> its items' keys
        self.sizes: list[int] = []  # shape id -> its number of tokens
        self.memo: dict = {}  # (converter, key) -> its result
        tokens = list(filter(None, _TOKEN.findall(text)))
        if not tokens:
            raise ParseError("empty input, expected %s" % what)
        root = tokens[0]
        if root == ")":
            raise self.error("unexpected closing parenthesis", (0, root))
        if root == "(":
            root = self._shapes(tokens)
        # the first form is matched in full before trailing input is checked
        end = self.size(root)
        if end < len(tokens):
            raise self.error("trailing input after %s" % what, (end, tokens[end]))
        self.root: _At = (0, root)

    def _shapes(self, tokens: list[str]) -> int:
        """Intern the shapes of the list that tokens start with and return its id."""
        ids: dict[tuple[_Key, ...], int] = {}
        shapes, sizes = self.shapes, self.sizes
        items: list[_Key] = []  # the keys of the open list's items so far
        outer: list[list[_Key]] = []  # those of the lists around it
        rest = iter(tokens)
        next(rest)
        for tok in rest:
            if tok == "(":
                outer.append(items)
                items = []
            elif tok == ")":
                key = tuple(items)
                shape = ids.get(key)
                if shape is None:
                    shape = ids[key] = len(shapes)
                    shapes.append(key)
                    sizes.append(2 + sum(map(self.size, key)))
                if not outer:
                    return shape
                items = outer.pop()
                items.append(shape)
            else:
                items.append(tok)
        # the innermost "(" left open: the last one that the tokens after
        # it close no more often than they open
        depth, i = 0, len(tokens)
        while depth >= 0:
            i -= 1
            depth += (tokens[i] == ")") - (tokens[i] == "(")
        raise self.error("unclosed parenthesis", (i, "("))

    def size(self, key: _Key) -> int:
        """The number of tokens of a form."""
        return self.sizes[key] if type(key) is int else 1

    def form(self, at: _At) -> Union[str, list[_At]]:
        """The text of the atom at `at`, or the list's items."""
        i, key = at
        if type(key) is str:
            return key
        items = []
        i += 1
        for k in self.shapes[key]:
            items.append((i, k))
            i += self.size(k)
        return items

    def error(self, message: str, at: _At) -> ParseError:
        """The error about the form at `at`, located by scanning the text again."""
        text = self.text
        bounds = [m.span(1) for m in _TOKEN.finditer(text) if m.group(1)]
        i = at[0]
        start, end = bounds[i][0], bounds[i + self.size(at[1]) - 1][1]
        col = start - text.rfind("\n", 0, start)
        return ParseError(message, SourceSpan(start, end, text.count("\n", 0, start) + 1, col))


def _head(src: _Source, at: _At, items: list[_At]) -> str:
    head = src.form(items[0]) if items else None
    if not isinstance(head, str):
        raise src.error("expected a keyword after (", at)
    return head


def _name(src: _Source, at: _At, what: str) -> str:
    name = src.form(at)
    if not isinstance(name, str):
        raise src.error("expected %s" % what, at)
    return name


def _read(src: _Source, conv: Callable, at: _At):
    """What the converter conv makes of the form at `at`.

    A converter is a generator over one form: it yields (converter, at)
    for each subform it needs, in the order it reads them, and is sent
    back the result.  The converters waiting for a subform wait on a
    list, not on the interpreter's stack, so a form of any depth reads
    without a raised recursion limit.  Each (converter, key) is converted
    at its first occurrence only, and later ones take the result in
    src.memo.  A form that fails is not memoized, so a hit skips only a
    subform that read cleanly, and the first error met in this pre-order
    walk, and where it is, are those of a walk over the whole tree.
    """
    memo = src.memo
    waiting: list = []  # (memo key, generator) of the forms begun, innermost last
    while True:
        key = (conv, at[1])
        got = memo.get(key)
        if got is None:
            waiting.append((key, conv(src, at)))
        while waiting:
            key, gen = waiting[-1]
            try:
                conv, at = gen.send(got)
                break
            except StopIteration as done:
                got = memo[key] = done.value
                waiting.pop()
        else:
            return got


def _each(conv: Callable, items: list[_At]):
    """Read each of the items with conv, in order; the list of results."""
    out = []
    for x in items:
        out.append((yield conv, x))
    return out


# ---------------------------------------------------------------------------
# types


def _type(src: _Source, at: _At):
    """The type at `at` (see _read)."""
    form = src.form(at)
    if isinstance(form, str):
        if form != "o":
            raise src.error("unknown type %r" % form, at)
        return GROUND
    head = _head(src, at, form)
    if head == "set":
        if len(form) != 2:
            raise src.error("set takes one element type", at)
        return SetOf((yield _type, form[1]))
    if head == "tuple":
        if len(form) < 2:
            raise src.error("tuple needs at least one part", at)
        return Compound(tuple((yield from _each(_type, form[1:]))))
    raise src.error("unknown type former %r" % head, at)


def parse_type(text: str) -> Type:
    src = _Source(text, "a type")
    return _read(src, _type, src.root)


def format_type(t: Type) -> str:
    """The text of t, built bottom-up: each distinct part's once, from its parts'."""
    texts: dict = {}
    for u in _nodes(t):
        if isinstance(u, Ground):
            texts[u] = "o"
        elif isinstance(u, Compound):
            texts[u] = "(tuple %s)" % " ".join(texts[p] for p in u.parts)
        elif isinstance(u, SetOf):
            texts[u] = "(set %s)" % texts[u.elem]
        else:
            raise TypeError("not a type: %r" % (u,))
    return texts[t]


# ---------------------------------------------------------------------------
# formulas


def _binder_pair(src: _Source, at: _At):
    form = src.form(at)
    if isinstance(form, str) or len(form) != 2:
        raise src.error("expected (VAR TYPE)", at)
    return _name(src, form[0], "a variable"), (yield _type, form[1])


def _binder_group(src: _Source, at: _At):
    form = src.form(at)
    if isinstance(form, str) or not form:
        raise src.error("expected a nonempty binder list", at)
    return (yield from _each(_binder_pair, form))


def _formula(src: _Source, at: _At):
    """The formula at `at` (see _read)."""
    form = src.form(at)
    if isinstance(form, str):
        if form == "tt":
            return TT
        if form == "ff":
            return Not(TT)
        raise src.error("expected a formula, got %r" % form, at)
    head = _head(src, at, form)
    if head == "prop":
        if len(form) != 3:
            raise src.error("prop takes a name and a variable", at)
        return Prop(_name(src, form[1], "a proposition name"), _name(src, form[2], "a variable"))
    if head == "act":
        if len(form) != 4:
            raise src.error("act takes a name and two variables", at)
        return Act(
            _name(src, form[1], "an action name"),
            _name(src, form[2], "a variable"),
            _name(src, form[3], "a variable"),
        )
    if head == "app":
        if len(form) < 3:
            raise src.error("app takes a set variable and arguments", at)
        return Apply(
            _name(src, form[1], "a set variable"),
            tuple(_name(src, x, "a variable") for x in form[2:]),
        )
    if head == "not":
        if len(form) != 2:
            raise src.error("not takes one formula", at)
        return Not((yield _formula, form[1]))
    if head == "or":
        return disj((yield from _each(_formula, form[1:])))
    if head == "and":
        return conj((yield from _each(_formula, form[1:])))
    if head == "imp":
        if len(form) != 3:
            raise src.error("imp takes two formulas", at)
        return implies((yield _formula, form[1]), (yield _formula, form[2]))
    if head == "exists":
        if len(form) != 3:
            raise src.error("exists takes a binder list and a body", at)
        return exists_all((yield _binder_group, form[1]), (yield _formula, form[2]))
    if head == "forall":
        if len(form) != 3:
            raise src.error("forall takes a binder list and a body", at)
        return forall_all((yield _binder_group, form[1]), (yield _formula, form[2]))
    if head == "pfp":
        if len(form) != 4:
            raise src.error("pfp takes a binder, an argument list and a body", at)
        var, vtype = yield _binder_pair, form[1]
        arg_list = src.form(form[2])
        if isinstance(arg_list, str):
            raise src.error("expected an argument list", form[2])
        args = tuple(_name(src, x, "a variable") for x in arg_list)
        return Pfp(var, vtype, (yield _formula, form[3]), args)
    raise src.error("unknown connective %r" % head, at)


def parse_formula(text: str) -> Formula:
    src = _Source(text, "a formula")
    return _read(src, _formula, src.root)


def format_formula(f: Formula) -> str:
    """Core-shape text; parse_formula(format_formula(f)) is f.

    Each distinct node's text is built once, after its children's and
    from them, and each distinct binder type's once, by format_type; a
    node's text is dropped once its last parent is printed.  The walks
    are iterative and need no raised recursion limit."""
    nodes = _nodes(f)
    parents = Counter(k for g in nodes for k in _children(g))
    texts: dict = {}
    types: dict = {}  # the text of each binder type printed so far
    for g in nodes:
        kids = _children(g)
        texts[g] = _format(g, [texts[k] for k in kids], types)
        for k in kids:
            parents[k] -= 1
            if not parents[k]:
                del texts[k]
    return texts[f]


def _format(f: Formula, parts: list[str], types: dict) -> str:
    """The text of f, given its children's; types keeps binder types' texts."""
    if isinstance(f, Tru):
        return "tt"
    if isinstance(f, Prop):
        return "(prop %s %s)" % (f.prop, f.var)
    if isinstance(f, Act):
        return "(act %s %s %s)" % (f.action, f.src, f.dst)
    if isinstance(f, Apply):
        return "(app %s %s)" % (f.head, " ".join(f.args))
    if isinstance(f, Not):
        return "(not %s)" % parts[0]
    if isinstance(f, Or):
        return "(or %s %s)" % (parts[0], parts[1])
    if isinstance(f, (Exists, Pfp)):
        vtype = types.get(f.vtype)
        if vtype is None:
            vtype = types[f.vtype] = format_type(f.vtype)
        if isinstance(f, Exists):
            return "(exists ((%s %s)) %s)" % (f.var, vtype, parts[0])
        return "(pfp (%s %s) (%s) %s)" % (f.var, vtype, " ".join(f.args), parts[0])
    raise TypeError("not a formula: %r" % (f,))


# ---------------------------------------------------------------------------
# values


def _value(src: _Source, at: _At):
    """The value at `at`, over the host src.lts (see _read)."""
    form = src.form(at)
    if isinstance(form, str):
        try:
            return State(src.lts.state_index(form))
        except ValueError:
            raise src.error("unknown state %r" % form, at) from None
    head = _head(src, at, form)
    if head == "tuple":
        if len(form) < 2:
            raise src.error("tuple needs at least one item", at)
        return Tup(tuple((yield from _each(_value, form[1:]))))
    if head == "set":
        return make_set((yield from _each(_value, form[1:])))
    raise src.error("unknown value former %r" % head, at)


def parse_value(text: str, lts: Lts) -> Value:
    """Value literal: a state name, (tuple ...) or (set ...)."""
    src = _Source(text, "a value", lts)
    return _read(src, _value, src.root)


def infer_value_type(v: Value) -> Type:
    """Shape of a literal.  A set's element type is that of its first
    member whose type can be inferred: the empty set, which sorts first,
    has none.  Raises ParseError when no member's type can be."""
    if isinstance(v, State):
        return GROUND
    if isinstance(v, Tup):
        return Compound(tuple(infer_value_type(x) for x in v.items))
    if isinstance(v, SetV):
        for member in v.members:
            try:
                return SetOf(infer_value_type(member))
            except ParseError:
                pass
        raise ParseError("cannot infer the element type of an empty set")
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
