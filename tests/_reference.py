"""Plain structural evaluator used to cross-check the fast one.

Follows the semantic clauses literally on structural values, with no
caching, no index arithmetic and no plan selection.  Only usable at toy
scale; the differential tests keep domains tiny.
"""

from hopfp.domains import Domain, SetV, Tup, Value, iter_domain, make_set
from hopfp.logic import (
    Act,
    Apply,
    Compound,
    Exists,
    Not,
    Or,
    Pfp,
    Prop,
    SetOf,
    Tru,
    check_well_formed,
)
from hopfp.lts import Lts


def ref_eval(lts: Lts, f, env=None, ctx=None) -> bool:
    check_well_formed(f, ctx)
    return _eval(lts, f, dict(env or {}), dict(ctx or {}))


def _member_of(elem, values) -> Value:
    if isinstance(elem, Compound):
        return Tup(tuple(values))
    return values[0]


def _eval(lts: Lts, f, env: dict, scope: dict) -> bool:
    """Truth of f under env, whose names have the types in scope."""
    if isinstance(f, Tru):
        return True
    if isinstance(f, Prop):
        return (env[f.var].index, f.prop) in lts.labels
    if isinstance(f, Act):
        return (env[f.src].index, f.action, env[f.dst].index) in lts.edges
    if isinstance(f, Apply):
        member = _member_of(scope[f.head].elem, [env[a] for a in f.args])
        return member in env[f.head].members
    if isinstance(f, Not):
        return not _eval(lts, f.sub, env, scope)
    if isinstance(f, Or):
        return _eval(lts, f.left, env, scope) or _eval(lts, f.right, env, scope)
    if isinstance(f, Exists):
        saved = env.get(f.var)
        had = f.var in env
        inner = {**scope, f.var: f.vtype}
        for v in iter_domain(Domain(f.vtype, lts.n)):
            env[f.var] = v
            if _eval(lts, f.body, env, inner):
                if had:
                    env[f.var] = saved
                else:
                    del env[f.var]
                return True
        if had:
            env[f.var] = saved
        else:
            del env[f.var]
        return False
    if isinstance(f, Pfp):
        limit, _ = ref_pfp_limit(lts, f, env, scope)
        member = _member_of(f.vtype.elem, [env[a] for a in f.args])
        return member in limit.members
    raise TypeError("not a formula: %r" % (f,))


def ref_pfp_limit(lts: Lts, f: Pfp, env: dict, scope: dict) -> tuple:
    """Iterate the stage function from the empty set to its outcome, the
    names of env and f's arguments having the types in scope.

    Returns the limit and the list of stages, from the empty set up to
    and including the first repeated one.
    """
    assert isinstance(f.vtype, SetOf)
    elem_domain = Domain(f.vtype.elem, lts.n)
    if isinstance(f.vtype.elem, Compound):
        part_domains = [Domain(p, lts.n) for p in f.vtype.elem.parts]
    else:
        part_domains = [elem_domain]
    inner_scope = {**scope, f.var: f.vtype}

    def stage(current: SetV) -> SetV:
        inner = dict(env)
        inner[f.var] = current
        members = []
        for candidate in iter_domain(elem_domain):
            parts = candidate.items if isinstance(candidate, Tup) else (candidate,)
            for a, p in zip(f.args, parts):
                inner[a] = p
            if _eval(lts, f.body, inner, inner_scope):
                members.append(candidate)
        return make_set(members)

    current = make_set([])
    seen = [current]
    while True:
        nxt = stage(current)
        if nxt == current:
            return current, seen + [nxt]
        if nxt in seen:
            return make_set([]), seen + [nxt]
        seen.append(nxt)
        current = nxt
