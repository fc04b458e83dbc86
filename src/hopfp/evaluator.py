"""Formula evaluation over finite labeled transition systems.

The evaluator follows the standard clauses: atoms consult the system,
disjunction short-circuits left to right, existentials stream through
their domain in canonical order, and the partial-fixpoint binder
iterates its stage function from the empty set.  Stage iteration stops
at the first repeat: a consecutive repeat means the sequence stabilized
and the repeated stage is the fixpoint, any other repeat means the
deterministic sequence cycles forever and the fixpoint is empty.  The
one exception to streaming is a guarded block: a block of existentials
whose variables are, in order, the arguments of a conjunct applying a
set variable or a fixpoint walks the members of that set, or of that
fixpoint's limit, instead of its domain, reading them afresh on every
call.

Internally values are handled as canonical indices (see domains): a
ground value is a small integer, a tuple is its mixed-radix index, and a
set is its characteristic bit mask, so set membership is a single shift.

One compiler turns a formula, once per call, into closures over a space
of argument tuples: a closure maps an environment to the bitset of the
tuples at which its subformula holds, bit m standing for the tuple with
member index m.  The scalar space has no arguments and one tuple, so
there a closure returns 1 or 0; plain evaluation is that case.  A
fixpoint body is compiled in the space of its binder's argument tuples,
so each stage is computed as one bitset: negation and disjunction act on
whole bitsets, the binder's variable applied to its own arguments is the
stage itself, and a subformula that reads a single argument is evaluated
in the scalar space once per value of it and spread over the tuples that
share it.  Existentials of the scalar space, the nodes that sweep a
domain, are memoized when they have at most two free variables and read
no fixpoint variable in scope; nothing else is.  Each has its own table,
made while it is compiled and kept without bound.

The same walk type checks the formula.  It carries the types of the
names in scope and applies the typing rule of each atom, guard and
fixpoint (logic.check_node) where it compiles one; a node that occurs
under two typings is compiled, memoized and iterated apart under each.

Each fixpoint is iterated once per surrounding environment.  Its own
table keeps the limit of that run as a bitset, and serves it from there
to every outer quantifier binding, as a bit test, and to a block the
fixpoint guards, as the members to walk.  The session keeps the stage
trace of the run, as sets of member indices, and hands the traces out
afterwards (see CompiledFormula.traces).  All of this is invisible in the
results: the semantics is exactly the structural one.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import product
from math import prod
from operator import itemgetter
from typing import Callable, Mapping, Optional

from .domains import (
    DEFAULT_ENUM_BUDGET,
    BudgetError,
    ConformanceError,
    Domain,
    Value,
    canonical_index,
    domain_size,
    index_to_value,
    iter_members,
)
from .logic import (
    Act,
    Apply,
    Compound,
    Exists,
    Formula,
    Not,
    Or,
    Pfp,
    Prop,
    SetOf,
    Tru,
    Type,
    TypingContext,
    TypingError,
    applied_arg_types,
    check_node,
    check_well_formed,
)
from .lts import Lts

Environment = Mapping[str, Value]

_MISSING = object()

_NO_NAMES: frozenset = frozenset()

# existentials over at most this many free variables are memoized
_MEMO_MAX_VARS = 2

# compiling and the compiled closures recurse once per nesting level
RECURSION_LIMIT = 20000


@dataclass
class EvalStats:
    """Deterministic counters for one evaluation.

    subformula_evals counts evaluations of subformulas.  An evaluation at
    one binding of the free variables counts one.  Inside a fixpoint
    body, a subformula that reads the binder's arguments is evaluated
    over all argument tuples at once, to a bitset, and that counts one
    too, however many tuples there are; the evaluations at one binding
    it takes for that count on their own.

    peak_live_values counts environment bindings plus the members of all
    fixpoint stages retained by in-flight iterations (the stabilization
    check keeps every stage seen so far) plus the members of every
    fixpoint limit kept for reuse.  A guarded block binds its variables
    only at the members of its guard set or limit, one at a time, never
    across its whole domain.
    """

    # in the key order of the --stats record, which is asdict(stats)
    pfp_iterations: int = 0
    subformula_evals: int = 0
    peak_live_values: int = 0


@dataclass(frozen=True)
class PfpTrace:
    """Stage history of one fixpoint iteration.

    stages[0] is the empty set and stages[i+1] is the stage function
    applied to stages[i]; members are canonical indices into the element
    domain.  stages[stabilized_at] equals the next stage; stabilized_at is
    None when an earlier stage recurred instead.
    """

    stages: tuple
    stabilized_at: Optional[int]

    @property
    def outcome(self) -> str:
        return "no-fixpoint" if self.stabilized_at is None else "stabilized"

    def limit(self) -> frozenset:
        if self.stabilized_at is None:
            return frozenset()
        return self.stages[self.stabilized_at]


class _Space:
    """The argument tuples a subformula is compiled over.

    full is the bitset of all the tuples: 1 in the scalar space, which
    has no arguments.  In a fixpoint binder's space, with (card, stride,
    unit, rep) = axes[v] for an argument v, tuple m gives v the value
    (m // stride) % card, so the tuples that give it the value i form
    the bitset (unit << i * stride) * rep: a block of stride ones, unit,
    repeated once per value of the arguments before v.  scope holds the
    fixpoint variables bound around the space's subformulas, the
    binder's own included.  In a binder's space, scalar is the scalar
    space under the same scope; in a scalar space it is None.  A space
    holds only this geometry and caches nothing: what is kept of a
    subformula's values is kept by the scalar memo.
    """

    def __init__(
        self, scope: frozenset, var: Optional[str] = None, args: tuple = (), cards: tuple = ()
    ) -> None:
        self.scope = scope
        self.var = var
        self.args = args
        size = prod(cards)
        self.full = (1 << size) - 1
        strides = [prod(cards[j + 1:]) for j in range(len(cards))]
        # rep has a one at the start of each run of c * s tuples
        self.axes = {
            v: (c, s, (1 << s) - 1, int(("0" * (c * s - 1) + "1") * (size // (c * s)), 2))
            for v, c, s in zip(args, cards, strides)
        }
        self.scalar = _Space(scope) if args else None


class _Session:
    """One compiled formula's state: host tables, caches and counters.

    tables holds one dict per memoized existential and per fixpoint,
    under each typing of its free variables, which the node's closures
    capture: a memo maps the values of the existential's free variables
    to its result, a fixpoint's table those beyond its arguments to its
    limit mask.  An existential is memoized in the scalar space when it
    has at most _MEMO_MAX_VARS free variables and none of them is a
    fixpoint variable in scope; no other node is.  The table of compiled
    subterms (code) is filled while a formula is compiled and emptied
    afterwards, so that no closure stays reachable from the session and a
    dropped formula is freed as soon as its last reference goes.
    """

    def __init__(
        self,
        lts: Lts,
        budget: int,
        stats: EvalStats,
        live_budget: Optional[int] = None,
    ) -> None:
        self.n = lts.n
        self.budget = budget
        self.live_budget = float("inf") if live_budget is None else live_budget
        self.stats = stats
        self.tables: dict = {}
        # in the order the runs ended
        self.traces: list = []
        self.cards: dict = {}
        self.code: dict = {}
        self.live = 0
        n = self.n
        self.adj = {a: 0 for a in lts.actions}
        for s, a, t in lts.edges:
            self.adj[a] |= 1 << (s * n + t)
        self.prop_bits = {p: 0 for p in lts.props}
        for s, p in lts.labels:
            self.prop_bits[p] |= 1 << s

    def grow(self, k: int) -> None:
        """Count k more live values.  Past the space budget it raises and
        counts none of them, as the caller has nothing to release yet; the
        peak therefore never passes the budget."""
        live = self.live + k
        if live > self.live_budget:
            raise BudgetError(
                "%d live values exceed the space budget of %d" % (live, self.live_budget)
            )
        self.live = live
        if live > self.stats.peak_live_values:
            self.stats.peak_live_values = live

    def shrink(self, k: int) -> None:
        self.live -= k

    def card(self, t: Type) -> int:
        c = self.cards.get(t)
        if c is None:
            c = domain_size(Domain(t, self.n))
            self.cards[t] = c
        return c

    # -- compilation ------------------------------------------------------

    def compile_root(self, f: Formula, types: dict) -> Callable:
        """Compile f, with the names in scope typed by types, in the
        outermost scalar space, after raising the recursion limit for good."""
        if sys.getrecursionlimit() < RECURSION_LIMIT:
            sys.setrecursionlimit(RECURSION_LIMIT)
        try:
            return self.compile(f, _Space(_NO_NAMES), _NO_NAMES, types)
        finally:
            self.code.clear()

    def compile(self, g: Formula, space: _Space, bound: frozenset, types: dict) -> Callable:
        """Closure from an environment to the bitset of space's tuples at
        which g holds, with the names in scope typed by types.  bound is
        the set of names bound between space's binder and g: an argument
        bound again there is an ordinary variable.  The closures reach no
        compile table and form no cycle.
        """
        bound = bound & g.free if space.args else _NO_NAMES
        # shared subterms compile once per space and typing of their
        # free variables: one node may occur under several typings
        typing = tuple(map(types.get, g.free))
        ckey = (g, space, bound, typing)
        got = self.code.get(ckey)
        if got is not None:
            return got
        clo = self._compile(g, space, bound, types)
        fv = g.free
        if (
            not space.args
            and isinstance(g, Exists)
            and len(fv) <= _MEMO_MAX_VARS
            and not (fv & space.scope)
        ):
            # shared by the node's closures in the scalar spaces of all scopes
            clo = self._tabled(g, typing, tuple(sorted(fv)), clo)
        self.code[ckey] = clo
        return clo

    def _tabled(self, g: Formula, typing: tuple, names: tuple, compute: Callable) -> Callable:
        """compute served from g's table under typing, once per binding of names."""
        table = self.tables.setdefault((g, typing), {})
        def tabled(env: dict) -> int:
            # a list builds faster than a generator, on the hottest line
            key = tuple([env[v] for v in names])
            hit = table.get(key)
            if hit is None:
                hit = table[key] = compute(env)
            return hit
        return tabled

    def _compile(self, g: Formula, space: _Space, bound: frozenset, types: dict) -> Callable:
        stats = self.stats
        full = space.full
        argv: list = []
        if space.args:
            argv = [v for v in space.args if v in g.free and v not in bound]
            if not argv:
                # g reads none of the arguments: all tuples or none
                clo = self.compile(g, space.scalar, _NO_NAMES, types)
                def const_cl(env: dict) -> int:
                    return full if clo(env) else 0
                return const_cl
            var = space.var
            if (
                isinstance(g, Apply)
                and g.head == var
                and var not in bound
                and g.args == space.args
                and len(argv) == len(space.args)
            ):
                # well typed by its binder's rule
                def stage_cl(env: dict) -> int:
                    stats.subformula_evals += 1
                    return env[var]
                return stage_cl
            if len(argv) == 1 or not isinstance(g, (Not, Or, Exists)):
                return self._leaf(g, space, argv, types)
        elif isinstance(g, Not) and isinstance(g.sub, Not):
            return self.compile(g.sub.sub, space, bound, types)
        if isinstance(g, Not):
            sub = self.compile(g.sub, space, bound, types)
            def not_cl(env: dict) -> int:
                stats.subformula_evals += 1
                return full ^ sub(env)
            return not_cl
        if isinstance(g, Or):
            left = self.compile(g.left, space, bound, types)
            right = self.compile(g.right, space, bound, types)
            def or_cl(env: dict) -> int:
                stats.subformula_evals += 1
                m = left(env)
                return m if m == full else m | right(env)
            return or_cl
        if isinstance(g, Exists):
            return self._guarded(g, space, bound, argv, types) or self._exists(g, space, bound, types)
        return self._atom(g, space, types)

    def _atom(self, g: Formula, space: _Space, types: dict) -> Callable:
        """Atoms and fixpoints, which are compiled in the scalar space only,
        each after its typing rule is checked."""
        check_node(g, types)
        stats = self.stats
        if isinstance(g, Tru):
            def true_cl(env: dict) -> int:
                stats.subformula_evals += 1
                return 1
            return true_cl
        if isinstance(g, Prop):
            bits = self.prop_bits.get(g.prop, 0)
            var = g.var
            def prop_cl(env: dict) -> int:
                stats.subformula_evals += 1
                return (bits >> env[var]) & 1
            return prop_cl
        if isinstance(g, Act):
            bits = self.adj.get(g.action, 0)
            n = self.n
            src, dst = g.src, g.dst
            def act_cl(env: dict) -> int:
                stats.subformula_evals += 1
                return (bits >> (env[src] * n + env[dst])) & 1
            return act_cl
        if isinstance(g, Apply):
            head = g.head
            combine = self._combiner(types[head].elem, g.args)
            def apply_cl(env: dict) -> int:
                stats.subformula_evals += 1
                return (env[head] >> combine(env)) & 1
            return apply_cl
        if isinstance(g, Pfp):
            limit = self._limit(g, space.scope, types)
            combine = self._combiner(g.vtype.elem, g.args)
            def pfp_cl(env: dict) -> int:
                stats.subformula_evals += 1
                return (limit(env) >> combine(env)) & 1
            return pfp_cl
        raise TypeError("not a formula: %r" % (g,))

    def _combiner(self, elem: Type, args: tuple) -> Callable:
        """Member index of an argument tuple under the element type."""
        if isinstance(elem, Compound):
            radices = tuple(self.card(p) for p in elem.parts)
            def combine(env: dict) -> int:
                m = 0
                for v, r in zip(args, radices):
                    m = m * r + env[v]
                return m
            return combine
        single = args[0]
        return lambda env: env[single]

    def _exists(self, g: Exists, space: _Space, bound: frozenset, types: dict) -> Callable:
        stats = self.stats
        full = space.full
        var = g.var
        card = self.card(g.vtype)
        if card > self.budget:
            raise BudgetError(
                "existential over a domain of size %d exceeds budget %d" % (card, self.budget)
            )
        body = self.compile(g.body, space, bound | {var}, {**types, var: g.vtype})
        sess = self
        def exists_cl(env: dict) -> int:
            stats.subformula_evals += 1
            old = env.get(var, _MISSING)
            sess.grow(2)
            acc = 0
            try:
                for i in range(card):
                    env[var] = i
                    m = body(env)
                    if m:
                        acc |= m
                        if acc == full:
                            break
                return acc
            finally:
                if old is _MISSING:
                    env.pop(var, None)
                else:
                    env[var] = old
                sess.shrink(2)
        return exists_cl

    def _leaf(self, g: Formula, space: _Space, argv: list, types: dict) -> Callable:
        """g evaluated in the scalar space at one binding per value of the
        arguments it reads.

        The values of the last of those arguments give one row of blocks,
        spread over the space by one multiplication; every combination of
        the others, if any, cuts its rows down to the tuples carrying it.
        The mask is built afresh on every call and kept nowhere; g's
        scalar memo, where g has one, serves each binding.
        """
        stats = self.stats
        clo = self.compile(g, space.scalar, _NO_NAMES, types)
        last = argv[-1]
        card, stride, unit, rep = space.axes[last]
        outer = argv[:-1]
        cuts = [space.axes[v] for v in outer]
        def leaf_cl(env: dict) -> int:
            stats.subformula_evals += 1
            acc = 0
            for combo in product(*[range(axis[0]) for axis in cuts]):
                for v, i in zip(outer, combo):
                    env[v] = i
                row = 0
                for i in range(card):
                    env[last] = i
                    if clo(env):
                        row |= unit << i * stride
                if row:
                    m = row * rep
                    for (_, s, u, r), i in zip(cuts, combo):
                        m &= (u << i * s) * r
                    acc |= m
            return acc
        return leaf_cl

    # -- guarded blocks ---------------------------------------------------

    def _guarded(
        self, f: Exists, space: _Space, bound: frozenset, argv: list, types: dict
    ) -> Optional[Callable]:
        """f compiled as a guarded block, or None when it is none.

        When a block of existentials binds exactly the arguments, in order,
        of a conjunct that is an application of an outer set variable or a
        fixpoint (the guard), the satisfying bindings can only come from
        members of that set or of that fixpoint's limit.  The block walks
        those members instead of the full product, and its value is the
        union over them of the intersection of the other conjuncts:
        extensionally identical to plain enumeration.  The guard must not
        read an argument of the space the block is compiled in (argv),
        since its value is taken once per call.  An application is
        preferred, as reading it costs nothing; otherwise the first
        fixpoint serves, wherever it stands among the conjuncts.

        The guard's set is read on every call and none of it is kept.  A
        member is split into the block's names by the sizes of their own
        types, which the guard's typing rule makes its argument types; the
        conjuncts over those names alone run first.
        """
        names: list = []
        inner = dict(types)
        body: Formula = f
        while isinstance(body, Exists):
            names.append(body.var)
            inner[body.var] = body.vtype
            body = body.body
        if len(set(names)) != len(names):
            return None
        conjuncts = _flatten_and(body)
        guards = [c for c in conjuncts if isinstance(c, (Apply, Pfp)) and list(c.args) == names]
        for c in guards:
            if isinstance(c, Apply) and c.head not in names and c.head not in argv:
                break
        else:
            # a fixpoint's free variables beyond its arguments are outer ones
            c = next((c for c in guards if isinstance(c, Pfp) and not c.free & set(argv)), None)
            if c is None:
                return None
        check_node(c, inner)
        value = itemgetter(c.head) if isinstance(c, Apply) else self._limit(c, space.scope, inner)
        conjuncts.remove(c)
        stats = self.stats
        full = space.full
        if not conjuncts:
            # plain nonemptiness probe, cheap regardless of set size
            def any_member_cl(env: dict) -> int:
                stats.subformula_evals += 1
                return full if value(env) else 0
            return any_member_cl
        name_set = frozenset(names)
        conjuncts.sort(key=lambda d: not d.free <= name_set)
        tests = [self.compile(d, space, bound | name_set, inner) for d in conjuncts]
        # a member index splits into the names' values, the last one first
        splits = tuple((v, self.card(inner[v])) for v in names[:0:-1])
        first = names[0]
        arity = len(names)
        sess = self
        def member_cl(env: dict) -> int:
            stats.subformula_evals += 1
            x = value(env)
            saved = {v: env.get(v, _MISSING) for v in names}
            sess.grow(arity + 1)
            acc = 0
            try:
                for rem in iter_members(x):
                    for v, r in splits:
                        rem, env[v] = divmod(rem, r)
                    env[first] = rem
                    m = full
                    for test in tests:
                        m &= test(env)
                        if not m:
                            break
                    else:
                        acc |= m
                        if acc == full:
                            break
                return acc
            finally:
                _restore(env, saved)
                sess.shrink(arity + 1)
        return member_cl

    # -- partial fixpoints ------------------------------------------------

    def _limit(self, f: Pfp, scope: frozenset, types: dict) -> Callable:
        """Closure from an environment to the bit mask of f's limit there.

        f, whose typing rule holds, is compiled once per scope and typing
        of its free variables, whether it serves as an atom or as the
        guard of a block.  It runs once per binding of its free variables
        beyond its arguments, whose values key the limit in f's table.
        """
        typing = tuple(map(types.get, f.free))
        ckey = (f, scope, typing)
        got = self.code.get(ckey)
        if got is not None:
            return got
        # the space of f's argument tuples, under scope and f's variable
        cards = tuple(map(self.card, applied_arg_types(f.vtype)))
        size = prod(cards)
        if size > self.budget:
            raise BudgetError(
                "fixpoint over a tuple space of size %d exceeds budget %d" % (size, self.budget)
            )
        inner = _Space(scope | {f.var}, f.var, f.args, cards)
        body = self.compile(f.body, inner, _NO_NAMES, {**types, f.var: f.vtype})
        residual = tuple(sorted(f.free - set(f.args)))
        sess = self
        def run(env: dict) -> int:
            limit = sess.run_pfp(f, inner, body, env)
            sess.grow(limit.bit_count())
            return limit
        limit_cl = self._tabled(f, typing, residual, run)
        self.code[ckey] = limit_cl
        return limit_cl

    def run_pfp(self, f: Pfp, space: _Space, body: Callable, env: dict) -> int:
        """Iterate f's body, compiled in space, from the empty set to a
        repeat; the bit mask of its limit.  The run's trace joins traces.
        space is only read: it keeps nothing between stages or runs."""
        stats = self.stats
        var = f.var
        saved = {v: env.get(v, _MISSING) for v in f.args + (var,)}
        self.grow(len(f.args) + 2)
        stored = 0
        try:
            # the stages so far, in order
            seen: dict = {}
            nxt = 0
            while nxt not in seen:
                seen[nxt] = None
                prev = nxt
                stats.pfp_iterations += 1
                env[var] = prev
                nxt = body(env)
                size = nxt.bit_count()
                self.grow(size)
                stored += size
            stages = tuple(frozenset(iter_members(s)) for s in [*seen, nxt])
            at = len(seen) - 1 if nxt == prev else None
            self.traces.append(PfpTrace(stages, at))
            return 0 if at is None else nxt
        finally:
            _restore(env, saved)
            self.shrink(len(f.args) + 2 + stored)


def _flatten_and(f: Formula) -> list:
    """View a desugared conjunction as its list of conjuncts."""
    if (
        isinstance(f, Not)
        and isinstance(f.sub, Or)
        and isinstance(f.sub.left, Not)
        and isinstance(f.sub.right, Not)
    ):
        return _flatten_and(f.sub.left.sub) + _flatten_and(f.sub.right.sub)
    return [f]


def _restore(env: dict, saved: dict) -> None:
    """Put back the bindings a binder saved before rebinding its names."""
    for v, old in saved.items():
        if old is _MISSING:
            env.pop(v, None)
        else:
            env[v] = old


class CompiledFormula:
    """A formula compiled once against a system and queried many times.

    Memo tables, fixpoint limits and traces persist between calls, and
    grow without bound, so sweeping a family of environments over the same
    formula costs a dictionary lookup per subformula instead of a
    recompilation per query.  Use compile_formula to construct one.
    """

    def __init__(self, session: _Session, f: Formula, declared: dict) -> None:
        self._session = session
        self._declared = declared
        self._free = tuple(sorted(f.free))
        self._root = session.compile_root(f, declared)
        self.formula = f

    @property
    def stats(self) -> EvalStats:
        return self._session.stats

    @property
    def traces(self) -> tuple:
        """PfpTrace of every fixpoint run so far, in the order the runs ended.

        A fixpoint runs once per binding of its body's other free
        variables; a run that needs an inner fixpoint ends after it.
        """
        return tuple(self._session.traces)

    def __call__(self, env: Optional[Environment] = None) -> bool:
        session = self._session
        ienv = _index_env(session.n, self._declared, self._free, env)
        session.grow(len(ienv))
        try:
            return bool(self._root(ienv))
        finally:
            session.shrink(len(ienv))


def _index_env(n: int, declared: dict, free: tuple, env: Optional[Environment]) -> dict:
    """Canonical indices of the bindings, which must cover the free variables."""
    ienv: dict = {}
    for var, value in (env or {}).items():
        t = declared.get(var)
        if t is None:
            raise ConformanceError("binding for undeclared variable %r" % var)
        ienv[var] = canonical_index(Domain(t, n), value)
    for var in free:
        if var not in ienv:
            raise ConformanceError("free variable %r has no binding" % var)
    return ienv


def compile_formula(
    lts: Lts,
    f: Formula,
    ctx: Optional[TypingContext] = None,
    budget: int = DEFAULT_ENUM_BUDGET,
    stats: Optional[EvalStats] = None,
    live_budget: Optional[int] = None,
) -> CompiledFormula:
    """Type check the formula and prepare it for repeated evaluation.

    One walk does both: every atom, guard and fixpoint is checked by its
    typing rule (logic.check_node) under the types in scope where it is
    compiled, the free variables typed by ctx.  Raises TypingError on an
    ill-typed formula, with the message check_well_formed gives, and
    BudgetError already here when a quantifier would sweep, or a fixpoint
    would iterate over, a domain larger than the budget, whether or not an
    evaluation would reach it.  A typing error anywhere in the formula
    takes precedence over any budget error.
    """
    declared = dict(ctx) if ctx else {}
    session = _Session(lts, budget, stats if stats is not None else EvalStats(), live_budget)
    try:
        return CompiledFormula(session, f, declared)
    except (TypingError, BudgetError):
        # the walk meets errors in its own order: report the checker's first
        check_well_formed(f, declared)
        raise


def evaluate(
    lts: Lts,
    f: Formula,
    env: Optional[Environment] = None,
    ctx: Optional[TypingContext] = None,
    budget: int = DEFAULT_ENUM_BUDGET,
    stats: Optional[EvalStats] = None,
    live_budget: Optional[int] = None,
) -> bool:
    """Truth value of the formula on the system under the environment.

    Free variables must be declared in ctx and bound in env to values of
    their declared types.  Raises TypingError on ill-formed formulas,
    ConformanceError on bad bindings, BudgetError when a quantifier or
    fixpoint of the formula would traverse a domain larger than the
    budget (see compile_formula), or when the live value count passes
    live_budget if one is given.
    """
    return compile_formula(lts, f, ctx, budget, stats, live_budget)(env)


def pfp_iterate(
    lts: Lts,
    f: Pfp,
    env: Optional[Environment] = None,
    ctx: Optional[TypingContext] = None,
    budget: int = DEFAULT_ENUM_BUDGET,
    stats: Optional[EvalStats] = None,
    live_budget: Optional[int] = None,
) -> PfpTrace:
    """Run one fixpoint iteration to its outcome and return the trace.

    The binder is compiled and evaluated like any formula, and the trace
    is the one that run records.  The argument variables need no
    bindings or declarations: their types are forced by the binder's
    type and the stage function ranges over all their values.  Other
    free variables of the body must be declared and bound as for
    evaluate.
    """
    if not isinstance(f, Pfp):
        raise TypeError("not a fixpoint binder: %s" % type(f).__name__)
    declared = dict(ctx) if ctx else {}
    bound = dict(env) if env else {}
    if isinstance(f.vtype, SetOf):
        for v, t in zip(f.args, applied_arg_types(f.vtype)):
            declared.setdefault(v, t)
            # any value serves: the stage function ranges over all of them
            bound.setdefault(v, index_to_value(Domain(declared[v], lts.n), 0))
    compiled = compile_formula(lts, f, declared, budget, stats, live_budget)
    compiled(bound)
    return compiled.traces[-1]

