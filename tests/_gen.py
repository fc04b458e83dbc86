"""Random well-typed formulas over small systems, for differential tests."""

import random

from hopfp.logic import (
    GROUND as G,
    TT,
    Act,
    Apply,
    Compound,
    Exists,
    Not,
    Or,
    Pfp,
    Prop,
    SetOf,
    and_,
)
from hopfp.lts import Lts, ordered_lts
from hopfp.machine import TmSpec

GG = Compound((G, G))

QUANT_TYPES = [G, SetOf(G)]
PFP_TYPES = [SetOf(G), SetOf(GG)]


def random_lts(rng: random.Random) -> Lts:
    n = rng.randint(1, 3)
    edges = [(i, "a", j) for i in range(n) for j in range(n) if rng.random() < 0.4]
    labels = [(i, p) for i in range(n) for p in ("p", "q") if rng.random() < 0.4]
    return ordered_lts(n, actions=("a",), props=("p", "q"), edges=edges, labels=labels)


def _vars_of(scope: dict, t) -> list:
    return [v for v, vt in scope.items() if vt == t]


def random_formula(rng: random.Random, scope: dict, depth: int, fuel: dict):
    grounds = _vars_of(scope, G)
    atoms = [lambda: TT]
    if grounds:
        atoms.append(lambda: Prop(rng.choice("pq"), rng.choice(grounds)))
        atoms.append(lambda: Act(rng.choice(["a", "<"]), rng.choice(grounds), rng.choice(grounds)))
    for head, ht in scope.items():
        if isinstance(ht, SetOf):
            want = ht.elem.parts if isinstance(ht.elem, Compound) else (ht.elem,)
            pools = [_vars_of(scope, w) for w in want]
            if all(pools):
                atoms.append(lambda h=head, ps=pools: Apply(h, tuple(rng.choice(p) for p in ps)))
    if depth <= 0:
        return rng.choice(atoms)()
    roll = rng.random()
    if roll < 0.18:
        return rng.choice(atoms)()
    if roll < 0.34:
        return Not(random_formula(rng, scope, depth - 1, fuel))
    if roll < 0.52:
        return Or(random_formula(rng, scope, depth - 1, fuel),
                  random_formula(rng, scope, depth - 1, fuel))
    if roll < 0.64:
        return and_(random_formula(rng, scope, depth - 1, fuel),
                    random_formula(rng, scope, depth - 1, fuel))
    if roll < 0.9 or fuel["pfp"] <= 0:
        t = rng.choice(QUANT_TYPES)
        if t != G:
            if fuel["setq"] <= 0:
                t = G
            else:
                fuel["setq"] -= 1
        # occasionally shadow an existing name
        if scope and rng.random() < 0.2:
            var = rng.choice(list(scope))
        else:
            var = "v%d" % rng.randrange(1000)
        inner = dict(scope)
        inner[var] = t
        return Exists(var, t, random_formula(rng, inner, depth - 1, fuel))
    t = rng.choice(PFP_TYPES)
    want = t.elem.parts if isinstance(t.elem, Compound) else (t.elem,)
    pools = [_vars_of(scope, w) for w in want]
    args = []
    for pool in pools:
        avail = [v for v in pool if v not in args]
        if not avail:
            return rng.choice(atoms)()
        args.append(rng.choice(avail))
    fuel["pfp"] -= 1
    inner = dict(scope)
    xvar = "F%d" % rng.randrange(1000)
    inner[xvar] = t
    body = random_formula(rng, inner, depth - 1, fuel)
    return Pfp(xvar, t, body, tuple(args))


def scoped_instance(rng: random.Random):
    """A random system plus a closed random formula over it."""
    T = random_lts(rng)
    base = {"g1": G, "g2": G}
    fuel = {"pfp": 2, "setq": 2}
    body = random_formula(rng, base, rng.randint(1, 4), fuel)
    f = Exists("g1", G, Exists("g2", G, body))
    return T, f


def random_tm(rng: random.Random) -> TmSpec:
    """A total machine with a couple of working states, starting in one
    of them when it has any."""
    extra = rng.randint(0, 2)
    states = tuple("q%d" % i for i in range(extra)) + ("qa", "qr")
    tape = tuple("01#"[: rng.randint(1, 3)]) + ("_",)
    inputs = tuple(s for s in tape[:-1] if rng.random() < 0.9)
    delta = {}
    for q in states[:extra]:
        for s in tape:
            delta[(q, s)] = (rng.choice(states), rng.choice(tape), rng.choice("LRN"))
    return TmSpec(
        states=states,
        input_alphabet=inputs,
        tape_alphabet=tape,
        blank="_",
        init=rng.choice(states[:extra] or states),
        accept="qa",
        reject="qr",
        delta=delta,
    )
