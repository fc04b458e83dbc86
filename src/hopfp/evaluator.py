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
Fixpoint stages are kept as frozensets of member indices.  Formulas are
compiled once per call into closures; results of small stable
subformulas are memoized for the duration of the call, and each fixpoint
is iterated once per surrounding environment.  The session keeps the
whole stage trace of that run, serves the limit to every outer
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
    """One evaluation run: compiled plan, caches and counters."""

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

    # -- compilation ------------------------------------------------------

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
            x = env[head]
            m = combine(env)
            if type(x) is int:
                return (x >> m) & 1 == 1
            return m in x
        return apply_cl

    def _compile_exists(self, f: Exists, pfp_scope: frozenset) -> Callable:
        stats = self.stats
        var = f.var
        card = self.card(f.vtype)
        over = card > self.budget
        body = self.compile(f.body, pfp_scope)
        sess = self
        def exists_cl(env: dict) -> bool:
            stats.subformula_evals += 1
            if over:
                raise BudgetError(
                    "existential over a domain of size %d exceeds budget %d" % (card, sess.budget)
                )
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

    def _member_plan(self, f: Exists, pfp_scope: frozenset) -> Optional[Callable]:
        """Plan for an exists-chain guarded by a membership atom.

        When a block of existentials binds exactly the arguments of an
        application of an outer set variable, the satisfying bindings can
        only come from members of that set, so the plan walks the set
        instead of the full product.  Extensionally identical to plain
        enumeration.
        """
        chain: list[tuple[str, Type]] = []
        body: Formula = f
        while isinstance(body, Exists):
            chain.append((body.var, body.vtype))
            body = body.body
        names = [v for v, _ in chain]
        if len(set(names)) != len(names):
            return None
        conjuncts = _flatten_and(body)
        guard_at = None
        for i, c in enumerate(conjuncts):
            if isinstance(c, Apply) and list(c.args) == names and c.head not in names:
                guard_at = i
                break
        if guard_at is None:
            return None
        guard = conjuncts[guard_at]
        assert isinstance(guard, Apply)
        if guard.elem is None:
            raise ConformanceError("formula was not type checked before evaluation")
        stats = self.stats
        head = guard.head
        arity = len(names)
        sess = self
        rest = [c for j, c in enumerate(conjuncts) if j != guard_at]
        if not rest:
            # plain nonemptiness probe, cheap regardless of set size
            def any_member_cl(env: dict) -> bool:
                stats.subformula_evals += 1
                for _ in _iter_members(env[head]):
                    return True
                return False
            return any_member_cl
        radices = tuple(map(self.card, applied_arg_types(SetOf(guard.elem))))
        # conjuncts over the chain variables alone are evaluated once per
        # set value and the surviving member tuples are cached; conjuncts
        # that also look at outer bindings run per call as usual
        name_set = frozenset(names)
        local = [self.compile(c, pfp_scope) for c in rest if c.free <= name_set]
        outer = [self.compile(c, pfp_scope) for c in rest if not (c.free <= name_set)]
        plans = self.plans
        def member_cl(env: dict) -> bool:
            stats.subformula_evals += 1
            x = env[head]
            passing = plans.get((f, x))
            if passing is None:
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
                plans[(f, x)] = passing
                sess.grow(len(passing))
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
        assert isinstance(f.vtype, SetOf)
        elem = f.vtype.elem
        comp_cards = tuple(map(self.card, applied_arg_types(f.vtype)))
        residual = tuple(sorted(f.free - set(f.args)))
        body = self.compile(f.body, pfp_scope | {f.var})
        combine = self._combiner(elem, f.args)
        sess = self
        def pfp_cl(env: dict) -> bool:
            stats.subformula_evals += 1
            key = (f,) + tuple(env[v] for v in residual)
            trace = sess.limits.get(key)
            if trace is None:
                trace = sess.run_pfp(f, body, comp_cards, env)
                sess.limits[key] = trace
                sess.grow(len(trace.limit()))
            return combine(env) in trace.limit()
        return pfp_cl

    def run_pfp(self, f: Pfp, body: Callable, comp_cards: tuple, env: dict) -> PfpTrace:
        space = prod(comp_cards)
        if space > self.budget:
            raise BudgetError(
                "fixpoint over a tuple space of size %d exceeds budget %d" % (space, self.budget)
            )
        stats = self.stats
        names = f.args
        var = f.var
        saved = {v: env.get(v, _MISSING) for v in names + (var,)}
        self.grow(len(names) + 2)
        stored = 0
        try:
            prev: frozenset = frozenset()
            seen = {prev: 0}
            stages = [prev]
            ranges = [range(c) for c in comp_cards]
            while True:
                stats.pfp_iterations += 1
                env[var] = prev
                members = []
                m = 0
                for comps in product(*ranges):
                    for v, i in zip(names, comps):
                        env[v] = i
                    if body(env):
                        members.append(m)
                    m += 1
                nxt = frozenset(members)
                self.grow(len(nxt))
                stored += len(nxt)
                stages.append(nxt)
                if nxt == prev:
                    return PfpTrace(tuple(stages), "stabilized", seen[prev], f.vtype.elem, self.n)
                if nxt in seen:
                    return PfpTrace(tuple(stages), "no-fixpoint", None, f.vtype.elem, self.n)
                seen[nxt] = len(stages) - 1
                prev = nxt
        finally:
            _restore(env, saved)
            self.shrink(len(names) + 2 + stored)


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


def _iter_members(x):
    if type(x) is int:
        while x:
            low = x & -x
            yield low.bit_length() - 1
            x ^= low
    else:
        yield from x


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
        self._root = session.compile(checked)
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
        ienv: dict = {}
        for var, value in (env or {}).items():
            t = self._declared.get(var)
            if t is None:
                raise ConformanceError("binding for undeclared variable %r" % var)
            ienv[var] = canonical_index(Domain(t, session.n), value)
        for var in self._free:
            if var not in ienv:
                raise ConformanceError("free variable %r has no binding" % var)
        session.grow(len(ienv))
        try:
            return self._root(ienv)
        finally:
            session.shrink(len(ienv))


def compile_formula(
    lts: Lts,
    f: Formula,
    ctx: Optional[TypingContext] = None,
    budget: int = DEFAULT_ENUM_BUDGET,
    stats: Optional[EvalStats] = None,
    live_budget: Optional[int] = None,
) -> CompiledFormula:
    """Type check the formula and prepare it for repeated evaluation."""
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
    fixpoint would traverse a domain larger than the budget, or when the
    live value count passes live_budget if one is given.
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
    type and the stage function rebinds them for every candidate tuple.
    Other free variables of the body must be declared and bound as for
    evaluate.
    """
    if not isinstance(f, Pfp):
        raise TypeError("not a fixpoint binder: %r" % (f,))
    declared = dict(ctx) if ctx else {}
    bound = dict(env) if env else {}
    if isinstance(f.vtype, SetOf):
        for v, t in zip(f.args, applied_arg_types(f.vtype)):
            declared.setdefault(v, t)
            # any value serves: the stage function rebinds the arguments
            bound.setdefault(v, index_to_value(Domain(declared[v], lts.n), 0))
    compiled = compile_formula(lts, f, declared, budget, stats, live_budget)
    compiled(bound)
    return compiled.traces[-1]
