"""Formula evaluation over finite labeled transition systems.

The evaluator follows the standard clauses: atoms consult the system,
disjunction short-circuits left to right, existentials stream through
their domain in canonical order, and the partial-fixpoint binder
iterates its stage function from the empty set.  Stage iteration stops
at the first repeat: a consecutive repeat means the sequence stabilized
and the repeated stage is the fixpoint, any other repeat means the
deterministic sequence cycles forever and the fixpoint is empty.

Internally values are handled as canonical indices (see domains): a
ground value is a small integer, a tuple is its mixed-radix index, and a
set is its characteristic bit mask, so set membership is a single shift.
Formulas are compiled once per call into closures; results of small
stable subformulas are memoized for the duration of the call.

A fixpoint body is evaluated a set at a time: during a run a stage is a
bitset over the binder's argument tuples, bit m standing for the tuple
with member index m, and each stage is computed as one bitset.  Negation
and disjunction act on whole bitsets, the binder's variable applied to
its own arguments is the stage itself, and a subformula that reads a
single argument is evaluated once per value of that argument and spread
over the tuples that share it.  Each fixpoint is iterated once per
surrounding environment.  The session keeps the whole stage trace of
that run, as sets of member indices, serves the limit to every outer
quantifier binding from it, and hands the traces out afterwards (see
CompiledFormula.traces), so nothing has to iterate a fixpoint again to
inspect its stages.  All of this is invisible in the results: the
semantics is exactly the structural one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Callable, Mapping, Optional

from .domains import (
    DEFAULT_ENUM_BUDGET,
    BudgetError,
    ConformanceError,
    Domain,
    SetV,
    Value,
    canonical_index,
    domain_size,
    index_to_value,
    make_set,
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
    allow_deep_recursion,
    applied_arg_types,
    check_well_formed,
)
from .lts import Lts

Environment = Mapping[str, Value]

_MISSING = object()

# results of subformulas over at most this many free variables are memoized
_MEMO_MAX_VARS = 2

# memo stores stop growing past this many entries so long reuse of one
# compiled formula cannot hold the whole query history in memory; large
# machine encodings legitimately warm a few million entries, so the cap
# sits well above that
_MEMO_CAP = 1 << 22


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
    check keeps every stage seen so far) plus member tuples kept by
    cached quantifier plans.
    """

    subformula_evals: int = 0
    pfp_iterations: int = 0
    peak_live_values: int = 0


@dataclass(frozen=True)
class PfpTrace:
    """Stage history of one fixpoint iteration.

    stages[0] is the empty set and stages[i+1] is the stage function
    applied to stages[i]; members are canonical indices into the element
    domain.  outcome is "stabilized" (stages[stabilized_at] equals the
    next stage) or "no-fixpoint" (an earlier stage recurred).
    """

    stages: tuple
    outcome: str
    stabilized_at: Optional[int]
    elem_type: Type
    n: int

    def limit(self) -> frozenset:
        if self.outcome == "stabilized":
            return self.stages[self.stabilized_at]
        return frozenset()

    def stage_value(self, i: int) -> SetV:
        d = Domain(self.elem_type, self.n)
        return make_set(index_to_value(d, m) for m in self.stages[i])


class _Session:
    """One evaluation run: compiled plan, caches and counters.

    The table of compiled subterms (code) is filled while a formula is
    compiled and emptied afterwards, so that no closure stays reachable
    from the session and a dropped formula is freed as soon as its last
    reference goes.
    """

    def __init__(
        self,
        lts: Lts,
        budget: int,
        stats: EvalStats,
        live_budget: Optional[int] = None,
    ) -> None:
        self.lts = lts
        self.n = lts.n
        self.budget = budget
        self.live_budget = float("inf") if live_budget is None else live_budget
        self.stats = stats
        self.memo: dict = {}
        # PfpTrace of each fixpoint run, keyed by binder and environment
        self.limits: dict = {}
        self.plans: dict = {}
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
        self.live += k
        if self.live > self.stats.peak_live_values:
            self.stats.peak_live_values = self.live
            if self.live > self.live_budget:
                raise BudgetError(
                    "%d live values exceed the space budget of %d"
                    % (self.live, self.live_budget)
                )

    def shrink(self, k: int) -> None:
        self.live -= k

    def card(self, t: Type) -> int:
        c = self.cards.get(t)
        if c is None:
            c = domain_size(Domain(t, self.n))
            self.cards[t] = c
        return c

    def sweep_card(self, t: Type) -> int:
        """Size of a domain a quantifier enumerates, checked against the budget."""
        card = self.card(t)
        if card > self.budget:
            raise BudgetError(
                "existential over a domain of size %d exceeds budget %d" % (card, self.budget)
            )
        return card

    # -- compilation ------------------------------------------------------

    def compile_root(self, f: Formula) -> Callable:
        try:
            return self.compile(f)
        finally:
            self.code.clear()

    def compile(self, f: Formula, pfp_scope: frozenset = frozenset()) -> Callable:
        # shared subterms compile once
        ckey = (f, pfp_scope)
        got = self.code.get(ckey)
        if got is not None:
            return got
        clo = self._compile(f, pfp_scope)
        fv = f.free
        if (
            isinstance(f, (Not, Or, Exists))
            and len(fv) <= _MEMO_MAX_VARS
            and not (fv & pfp_scope)
        ):
            names = tuple(sorted(fv))
            memo = self.memo
            inner = clo
            def memoized(env: dict) -> bool:
                key = (f,) + tuple(env[v] for v in names)
                hit = memo.get(key)
                if hit is None:
                    hit = inner(env)
                    if len(memo) < _MEMO_CAP:
                        memo[key] = hit
                return hit
            clo = memoized
        self.code[ckey] = clo
        return clo

    def _compile(self, f: Formula, pfp_scope: frozenset) -> Callable:
        stats = self.stats
        if isinstance(f, Tru):
            def true_cl(env: dict) -> bool:
                stats.subformula_evals += 1
                return True
            return true_cl
        if isinstance(f, Prop):
            bits = self.prop_bits.get(f.prop, 0)
            var = f.var
            def prop_cl(env: dict) -> bool:
                stats.subformula_evals += 1
                return (bits >> env[var]) & 1 == 1
            return prop_cl
        if isinstance(f, Act):
            bits = self.adj.get(f.action, 0)
            n = self.n
            src, dst = f.src, f.dst
            def act_cl(env: dict) -> bool:
                stats.subformula_evals += 1
                return (bits >> (env[src] * n + env[dst])) & 1 == 1
            return act_cl
        if isinstance(f, Apply):
            return self._compile_apply(f)
        if isinstance(f, Not):
            if isinstance(f.sub, Not):
                return self.compile(f.sub.sub, pfp_scope)
            sub = self.compile(f.sub, pfp_scope)
            def not_cl(env: dict) -> bool:
                stats.subformula_evals += 1
                return not sub(env)
            return not_cl
        if isinstance(f, Or):
            left = self.compile(f.left, pfp_scope)
            right = self.compile(f.right, pfp_scope)
            def or_cl(env: dict) -> bool:
                stats.subformula_evals += 1
                return left(env) or right(env)
            return or_cl
        if isinstance(f, Exists):
            plan = self._member_plan(f, pfp_scope)
            if plan is not None:
                return plan
            return self._compile_exists(f, pfp_scope)
        if isinstance(f, Pfp):
            return self._compile_pfp(f, pfp_scope)
        raise TypeError("not a formula: %r" % (f,))

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

    def _compile_apply(self, f: Apply) -> Callable:
        if f.elem is None:
            raise ConformanceError("formula was not type checked before evaluation")
        stats = self.stats
        head = f.head
        combine = self._combiner(f.elem, f.args)
        def apply_cl(env: dict) -> bool:
            stats.subformula_evals += 1
            return (env[head] >> combine(env)) & 1 == 1
        return apply_cl

    def _compile_exists(self, f: Exists, pfp_scope: frozenset) -> Callable:
        stats = self.stats
        var = f.var
        card = self.sweep_card(f.vtype)
        body = self.compile(f.body, pfp_scope)
        sess = self
        def exists_cl(env: dict) -> bool:
            stats.subformula_evals += 1
            old = env.get(var, _MISSING)
            sess.grow(2)
            try:
                for i in range(card):
                    env[var] = i
                    if body(env):
                        return True
                return False
            finally:
                if old is _MISSING:
                    env.pop(var, None)
                else:
                    env[var] = old
                sess.shrink(2)
        return exists_cl

    # -- guarded existential chains --------------------------------------

    def guarded_chain(self, f: Exists) -> Optional[tuple]:
        """(guard, its argument radices, other conjuncts) of a guarded chain.

        When a block of existentials binds exactly the arguments of an
        application of an outer set variable (the guard), the satisfying
        bindings can only come from members of that set, so the chain can
        walk the set instead of the full product.  None when f is no such
        chain.
        """
        names: list = []
        body: Formula = f
        while isinstance(body, Exists):
            names.append(body.var)
            body = body.body
        if len(set(names)) != len(names):
            return None
        conjuncts = _flatten_and(body)
        for i, c in enumerate(conjuncts):
            if isinstance(c, Apply) and list(c.args) == names and c.head not in names:
                if c.elem is None:
                    raise ConformanceError("formula was not type checked before evaluation")
                radices = tuple(map(self.card, applied_arg_types(SetOf(c.elem))))
                return c, radices, conjuncts[:i] + conjuncts[i + 1:]
        return None

    def passing_members(self, f: Exists, x: int, names: tuple, radices: tuple, local: list) -> tuple:
        """Argument tuples of the members of set x that pass the local conjuncts.

        Conjuncts over the chain variables alone are evaluated once per
        set value and the surviving tuples are kept in plans; the chain's
        other conjuncts run per call.
        """
        arity = len(names)
        kept = []
        tmp: dict = {}
        for m in _iter_members(x):
            rem = m
            comps = [0] * arity
            for j in range(arity - 1, 0, -1):
                rem, comps[j] = divmod(rem, radices[j])
            comps[0] = rem
            for v, i in zip(names, comps):
                tmp[v] = i
            for clo in local:
                if not clo(tmp):
                    break
            else:
                kept.append(tuple(comps))
        passing = tuple(kept)
        self.plans[(f, x)] = passing
        self.grow(len(passing))
        return passing

    def _member_plan(self, f: Exists, pfp_scope: frozenset) -> Optional[Callable]:
        """Plan for an exists-chain guarded by a membership atom (see
        guarded_chain).  Extensionally identical to plain enumeration."""
        chain = self.guarded_chain(f)
        if chain is None:
            return None
        guard, radices, rest = chain
        names = guard.args
        stats = self.stats
        head = guard.head
        if not rest:
            # plain nonemptiness probe, cheap regardless of set size
            def any_member_cl(env: dict) -> bool:
                stats.subformula_evals += 1
                return env[head] != 0
            return any_member_cl
        name_set = frozenset(names)
        local = [self.compile(c, pfp_scope) for c in rest if c.free <= name_set]
        outer = [self.compile(c, pfp_scope) for c in rest if not (c.free <= name_set)]
        arity = len(names)
        plans = self.plans
        sess = self
        def member_cl(env: dict) -> bool:
            stats.subformula_evals += 1
            x = env[head]
            passing = plans.get((f, x))
            if passing is None:
                passing = sess.passing_members(f, x, names, radices, local)
            if not outer:
                return bool(passing)
            saved = {v: env.get(v, _MISSING) for v in names}
            sess.grow(arity + 1)
            try:
                for comps in passing:
                    for v, i in zip(names, comps):
                        env[v] = i
                    for clo in outer:
                        if not clo(env):
                            break
                    else:
                        return True
                return False
            finally:
                _restore(env, saved)
                sess.shrink(arity + 1)
        return member_cl

    # -- partial fixpoints ------------------------------------------------

    def _compile_pfp(self, f: Pfp, pfp_scope: frozenset) -> Callable:
        stats = self.stats
        stage = _StageCompiler(self, f, pfp_scope).compile()
        residual = tuple(sorted(f.free - set(f.args)))
        combine = self._combiner(f.vtype.elem, f.args)
        sess = self
        def pfp_cl(env: dict) -> bool:
            stats.subformula_evals += 1
            key = (f,) + tuple(env[v] for v in residual)
            trace = sess.limits.get(key)
            if trace is None:
                trace = sess.run_pfp(f, stage, env)
                sess.limits[key] = trace
                sess.grow(len(trace.limit()))
            return combine(env) in trace.limit()
        return pfp_cl

    def run_pfp(self, f: Pfp, stage: "_Stage", env: dict) -> PfpTrace:
        stats = self.stats
        var = f.var
        saved = {v: env.get(v, _MISSING) for v in f.args + (var,)}
        self.grow(len(f.args) + 2)
        stored = 0
        try:
            prev = 0
            seen = {prev: 0}
            stages = [prev]
            while True:
                stats.pfp_iterations += 1
                env[var] = prev
                nxt = stage.image(env)
                size = nxt.bit_count()
                self.grow(size)
                stored += size
                stages.append(nxt)
                if nxt == prev:
                    return _trace(f, stages, "stabilized", seen[prev], self.n)
                if nxt in seen:
                    return _trace(f, stages, "no-fixpoint", None, self.n)
                seen[nxt] = len(stages) - 1
                prev = nxt
        finally:
            stage.end_run()
            _restore(env, saved)
            self.shrink(len(f.args) + 2 + stored)


def _trace(f: Pfp, stages: list, outcome: str, at: Optional[int], n: int) -> PfpTrace:
    return PfpTrace(tuple(frozenset(_iter_members(s)) for s in stages), outcome, at, f.vtype.elem, n)


class _Stage:
    """The body of one fixpoint binder compiled to act on whole stages.

    image(env) is the bitset of the argument tuples at which the body
    holds, with the binder's variable bound in env to the current stage
    bitset.  Masks of subformulas evaluated per argument value are cached
    for one run: those that read the stage for one stage, the others
    until end_run.
    """

    def __init__(self, mask: Callable, run: dict, step: dict) -> None:
        self.mask = mask
        self.run = run
        self.step = step

    def image(self, env: dict) -> int:
        self.step.clear()
        return self.mask(env)

    def end_run(self) -> None:
        self.run.clear()
        self.step.clear()


class _StageCompiler:
    """Compiles one fixpoint body into a _Stage.

    With (card, stride, unit, rep) = axes[v] for an argument v, tuple m
    of the argument space gives v the value (m // stride) % card, so the
    tuples that give it the value i form the bitset
    (unit << i * stride) * rep: a block of stride ones, unit, repeated
    once per value of the arguments before v.

    A subformula is compiled against the set of names bound between the
    binder and it; an argument bound again there is an ordinary variable.
    The closures it makes reach neither the compiler nor each other in a
    cycle.
    """

    def __init__(self, sess: _Session, f: Pfp, pfp_scope: frozenset) -> None:
        assert isinstance(f.vtype, SetOf)
        self.sess = sess
        self.f = f
        # scope of the scalar closures compiled for the body
        self.scope = pfp_scope | {f.var}
        cards = tuple(map(sess.card, applied_arg_types(f.vtype)))
        space = prod(cards)
        if space > sess.budget:
            raise BudgetError(
                "fixpoint over a tuple space of size %d exceeds budget %d" % (space, sess.budget)
            )
        self.full = full = (1 << space) - 1
        strides = [prod(cards[j + 1:]) for j in range(len(cards))]
        self.axes = {
            v: (c, s, (1 << s) - 1, full // ((1 << c * s) - 1))
            for v, c, s in zip(f.args, cards, strides)
        }
        self.run: dict = {}
        self.step: dict = {}
        self.table: dict = {}

    def compile(self) -> _Stage:
        return _Stage(self.mask(self.f.body, frozenset()), self.run, self.step)

    def mask(self, g: Formula, bound: frozenset) -> Callable:
        key = (g, bound & g.free)
        got = self.table.get(key)
        if got is None:
            got = self.table[key] = self._mask(g, key[1])
        return got

    def _mask(self, g: Formula, bound: frozenset) -> Callable:
        sess, f, full = self.sess, self.f, self.full
        stats = sess.stats
        argv = [v for v in f.args if v in g.free and v not in bound]
        if not argv:
            clo = sess.compile(g, self.scope)
            def const_mask(env: dict) -> int:
                return full if clo(env) else 0
            return const_mask
        if (
            isinstance(g, Apply)
            and g.head == f.var
            and f.var not in bound
            and g.args == f.args
            and len(argv) == len(f.args)
        ):
            var = f.var
            def stage_mask(env: dict) -> int:
                stats.subformula_evals += 1
                return env[var]
            return stage_mask
        if len(argv) == 1:
            return self._leaf(g, argv, bound)
        if isinstance(g, Not):
            sub = self.mask(g.sub, bound)
            def not_mask(env: dict) -> int:
                stats.subformula_evals += 1
                return full ^ sub(env)
            return not_mask
        if isinstance(g, Or):
            left = self.mask(g.left, bound)
            right = self.mask(g.right, bound)
            def or_mask(env: dict) -> int:
                stats.subformula_evals += 1
                m = left(env)
                return m if m == full else m | right(env)
            return or_mask
        if isinstance(g, Exists):
            chain = sess.guarded_chain(g)
            if chain is not None and chain[0].head not in argv:
                return self._chain(g, chain, bound)
            return self._exists(g, bound)
        return self._leaf(g, argv, bound)

    def _exists(self, g: Exists, bound: frozenset) -> Callable:
        sess, full = self.sess, self.full
        stats = sess.stats
        var = g.var
        card = sess.sweep_card(g.vtype)
        body = self.mask(g.body, bound | {var})
        def exists_mask(env: dict) -> int:
            stats.subformula_evals += 1
            saved = {var: env.get(var, _MISSING)}
            sess.grow(2)
            acc = 0
            try:
                for i in range(card):
                    env[var] = i
                    acc |= body(env)
                    if acc == full:
                        break
                return acc
            finally:
                _restore(env, saved)
                sess.shrink(2)
        return exists_mask

    def _chain(self, g: Exists, chain: tuple, bound: frozenset) -> Callable:
        """A guarded chain: the union over the guard set's passing members of
        the intersection of the other conjuncts' masks."""
        sess, full = self.sess, self.full
        stats = sess.stats
        guard, radices, rest = chain
        names = guard.args
        name_set = frozenset(names)
        local = [sess.compile(c, self.scope) for c in rest if c.free <= name_set]
        outer = [self.mask(c, bound | name_set) for c in rest if not (c.free <= name_set)]
        head = guard.head
        arity = len(names)
        plans = sess.plans
        def member_mask(env: dict) -> int:
            stats.subformula_evals += 1
            x = env[head]
            passing = plans.get((g, x))
            if passing is None:
                passing = sess.passing_members(g, x, names, radices, local)
            saved = {v: env.get(v, _MISSING) for v in names}
            sess.grow(arity + 1)
            acc = 0
            try:
                for comps in passing:
                    for v, i in zip(names, comps):
                        env[v] = i
                    m = full
                    for conjunct in outer:
                        m &= conjunct(env)
                        if not m:
                            break
                    acc |= m
                    if acc == full:
                        break
                return acc
            finally:
                _restore(env, saved)
                sess.shrink(arity + 1)
        return member_mask

    def _leaf(self, g: Formula, argv: list, bound: frozenset) -> Callable:
        """g evaluated at one binding per value of the arguments it reads.

        The values of the last of those arguments give one row of blocks,
        spread over the space by one multiplication; every combination of
        the others, if any, cuts its rows down to the tuples carrying it.
        The result is cached by the values of g's variables bound inside
        the body.
        """
        stats = self.sess.stats
        clo = self.sess.compile(g, self.scope)
        var = self.f.var
        cache = self.step if var in g.free and var not in bound else self.run
        tag = len(self.table)
        keyvars = tuple(sorted(g.free & bound))
        last = argv[-1]
        card, stride, unit, rep = self.axes[last]
        outer = argv[:-1]
        cuts = [self.axes[v] for v in outer]
        def leaf_mask(env: dict) -> int:
            stats.subformula_evals += 1
            key = (tag,) + tuple(env[v] for v in keyvars)
            hit = cache.get(key)
            if hit is None:
                hit = 0
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
                        hit |= m
                cache[key] = hit
            return hit
        return leaf_mask


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


def _iter_members(x: int):
    """Member indices of a set bit mask, in increasing order."""
    digits = bin(x)[:1:-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


class CompiledFormula:
    """A formula compiled once against a system and queried many times.

    Memo tables and fixpoint traces persist between calls, so sweeping a
    family of environments over the same formula costs a dictionary
    lookup per subformula instead of a recompilation per query.  Use
    compile_formula to construct one.
    """

    def __init__(self, session: _Session, checked: Formula, declared: dict) -> None:
        self._session = session
        self._declared = declared
        self._free = tuple(sorted(checked.free))
        self._root = session.compile_root(checked)
        self.formula = checked

    @property
    def stats(self) -> EvalStats:
        return self._session.stats

    @property
    def traces(self) -> tuple:
        """PfpTrace of every fixpoint run so far, in the order the runs ended.

        A fixpoint runs once per binding of its body's other free
        variables; a run that needs an inner fixpoint ends after it.
        """
        return tuple(self._session.limits.values())

    def __call__(self, env: Optional[Environment] = None) -> bool:
        session = self._session
        ienv = _index_env(session.n, self._declared, self._free, env)
        session.grow(len(ienv))
        try:
            return self._root(ienv)
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

    Raises BudgetError already here when a quantifier would sweep, or a
    fixpoint would iterate over, a domain larger than the budget, whether
    or not an evaluation would reach it.
    """
    allow_deep_recursion()
    checked = check_well_formed(f, ctx)
    stats = stats if stats is not None else EvalStats()
    session = _Session(lts, budget, stats, live_budget)
    return CompiledFormula(session, checked, dict(ctx) if ctx else {})


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


def _binder_scope(
    lts: Lts, f: Pfp, env: Optional[Environment], ctx: Optional[TypingContext]
) -> tuple[dict, dict]:
    """Declarations and bindings for a fixpoint binder evaluated on its
    own, with the arguments declared and bound if they are not."""
    if not isinstance(f, Pfp):
        raise TypeError("not a fixpoint binder: %r" % (f,))
    declared = dict(ctx) if ctx else {}
    bound = dict(env) if env else {}
    if isinstance(f.vtype, SetOf):
        for v, t in zip(f.args, applied_arg_types(f.vtype)):
            declared.setdefault(v, t)
            # any value serves: the stage function ranges over all of them
            bound.setdefault(v, index_to_value(Domain(declared[v], lts.n), 0))
    return declared, bound


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
    declared, bound = _binder_scope(lts, f, env, ctx)
    compiled = compile_formula(lts, f, declared, budget, stats, live_budget)
    compiled(bound)
    return compiled.traces[-1]


def apply_stage(
    lts: Lts,
    f: Pfp,
    members: frozenset,
    env: Optional[Environment] = None,
    ctx: Optional[TypingContext] = None,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> frozenset:
    """One application of the binder's stage function to any member set.

    members are canonical indices into the element domain, as in the
    stages of a PfpTrace; the image is computed a set at a time, as a
    stage of an iteration is.  Declarations and bindings are as for
    pfp_iterate.
    """
    declared, bound = _binder_scope(lts, f, env, ctx)
    checked = check_well_formed(f, declared)
    session = _Session(lts, budget, EvalStats())
    try:
        stage = _StageCompiler(session, checked, frozenset()).compile()
    finally:
        session.code.clear()
    ienv = _index_env(lts.n, declared, tuple(sorted(checked.free)), bound)
    ienv[f.var] = sum(1 << m for m in set(members))
    try:
        return frozenset(_iter_members(stage.image(ienv)))
    finally:
        stage.end_run()
