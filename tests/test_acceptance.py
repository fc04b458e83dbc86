"""Acceptance gate: ten numbered checks covering the whole tool chain.

Run with -v to get one pass or fail line per criterion.  Everything is
exact; where a criterion carries a runtime ceiling the test measures and
asserts it.  The three long cases, c07 at three states, c08 and the
width-two replay beside it, are marked "extended" and can be left out
with -m "not extended".
"""

import itertools
import random
import time

import pytest

from hopfp.compiler import (
    CodingContext,
    PreconditionError,
    ReductionParams,
    build_machine_formula,
    crossval,
    decode_stage,
    encode_stage,
)
from hopfp.domains import (
    BudgetError,
    Domain,
    canonical_compare,
    domain_size,
    iter_domain,
    tower,
)
from hopfp.evaluator import EvalStats, compile_formula, evaluate, pfp_iterate
from hopfp.frontend import (
    format_formula,
    format_lts,
    format_tm,
    parse_formula,
    parse_lts,
    parse_tm,
)
from hopfp.logic import (
    GROUND,
    Act,
    Apply,
    Exists,
    Not,
    Or,
    Pfp,
    SetOf,
    Tru,
    and_,
    formula_size,
)
from hopfp.lts import ordered_lts
from hopfp.machine import Configuration, TmSpec
from hopfp.orders import NameSupply, TowerSpec, build_lt, iter_index

from _gen import random_lts, random_tm, scoped_instance
from _machines import M_ACC, M_ACC2, M_ACC4, M_FIRST1, M_LASTPROP, M_REJ, M_SWEEP

P11 = ReductionParams(1, 1)


def _slot_env(spec, names, value):
    if spec.level == 1 and spec.width > 1:
        return dict(zip(names, value.items))
    return {names[0]: value}


def _slot_ctx(spec, names):
    return dict(zip(names, spec.slot_types))


def _binder_count(f):
    if isinstance(f, Not):
        return _binder_count(f.sub)
    if isinstance(f, Or):
        return _binder_count(f.left) + _binder_count(f.right)
    if isinstance(f, Exists):
        return 1 + _binder_count(f.body)
    if isinstance(f, Pfp):
        return 1 + len(f.args) + _binder_count(f.body)
    return 0


def test_c01_order_family_agrees_with_canonical_comparison_everywhere():
    began = time.monotonic()
    combos = [
        (TowerSpec(c, level), n)
        for c in (1, 2)
        for level in (1, 2, 3)
        for n in (2, 3)
        if domain_size(Domain(TowerSpec(c, level).value_type, n)) <= 512
    ]
    assert len(combos) == 10
    for spec, n in combos:
        system = ordered_lts(n)
        supply = NameSupply()
        a = supply.slot(spec)
        b = supply.slot(spec)
        lt = build_lt(spec, a, b)
        compiled = compile_formula(
            system, lt, {**_slot_ctx(spec, a), **_slot_ctx(spec, b)}
        )
        values = list(iter_domain(Domain(spec.value_type, n)))
        count = len(values)
        rows = []
        for u in values:
            bits = 0
            env_a = _slot_env(spec, a, u)
            for j, v in enumerate(values):
                if compiled({**env_a, **_slot_env(spec, b, v)}):
                    bits |= 1 << j
            rows.append(bits)
        for i, u in enumerate(values):
            for j, v in enumerate(values):
                assert (rows[i] >> j) & 1 == (canonical_compare(u, v) < 0)
        cols = [0] * count
        everyone = (1 << count) - 1
        for i in range(count):
            assert not (rows[i] >> i) & 1
            for j in range(count):
                if (rows[i] >> j) & 1:
                    cols[j] |= 1 << i
                    # anything below j stays below i
                    assert rows[i] | rows[j] == rows[i]
        for i in range(count):
            assert rows[i] & cols[i] == 0
            assert rows[i] | cols[i] == everyone & ~(1 << i)
    assert time.monotonic() - began < 60


def test_c02_domain_sizes_are_towers():
    for c in (1, 2):
        for k in (1, 2, 3):
            for n in (1, 2, 3):
                size = domain_size(Domain(TowerSpec(c, k).value_type, n))
                assert size == tower(n**c, k - 1)
                if c == 1:
                    assert size == tower(n, k - 1)


def test_c03_index_formulas_pick_out_single_elements():
    spec = TowerSpec(1, 2)
    for n in (1, 2, 3):
        system = ordered_lts(n)
        values = list(iter_domain(Domain(spec.value_type, n)))
        sizes = []
        for j, idx in zip(range(len(values)), iter_index(spec, ("x",))):
            sizes.append(formula_size(idx))
            compiled = compile_formula(system, idx, _slot_ctx(spec, ("x",)))
            holders = [
                pos for pos, v in enumerate(values) if compiled({"x": v})
            ]
            assert holders == [j]
        deltas = {sizes[j + 1] - sizes[j] for j in range(len(sizes) - 1)}
        assert len(deltas) == 1


def test_c04_fixpoint_algebra_and_reachability():
    began = time.monotonic()
    system = ordered_lts(3)
    flip = Pfp("F", SetOf(GROUND), Not(Apply("F", ("z",))), ("z",))
    trace = pfp_iterate(system, flip)
    assert trace.outcome == "no-fixpoint"
    assert trace.limit() == frozenset()
    assert evaluate(system, Exists("z", GROUND, flip)) is False

    always = Pfp("F", SetOf(GROUND), Tru(), ("z",))
    trace = pfp_iterate(system, always)
    assert trace.outcome == "stabilized"
    assert trace.stabilized_at == 1
    assert trace.stages[1] == frozenset(range(3))

    rng = random.Random(20240825)
    for _ in range(25):
        n = rng.randint(1, 5)
        edges = [
            (i, "e", j)
            for i in range(n)
            for j in range(n)
            if rng.random() < 0.35
        ]
        system = ordered_lts(n, ("e",), edges=edges)
        seen = {0}
        frontier = [0]
        while frontier:
            src = frontier.pop()
            for a, _, b in [(x, y, z) for x, y, z in edges if x == src]:
                if b not in seen:
                    seen.add(b)
                    frontier.append(b)
        start = next(iter_index(TowerSpec(1, 1), ("y",)))
        grow = Exists("x", GROUND, and_(Apply("R", ("x",)), Act("e", "x", "y")))
        reach = Pfp("R", SetOf(GROUND), Or(start, grow), ("y",))
        trace = pfp_iterate(system, reach)
        assert trace.outcome == "stabilized"
        assert trace.limit() == frozenset(seen)
    assert time.monotonic() - began < 30


def test_c05_stages_replay_the_run_and_stop_with_it():
    began = time.monotonic()
    cases = [
        (M_ACC, ["", "1", "0110"]),
        (M_REJ, ["", "1", "0110"]),
        (M_FIRST1, ["", "0", "1", "10", "01", "111"]),
        (M_SWEEP, ["", "1", "111", "1101", "011"]),
    ]
    for machine, words in cases:
        for word in words:
            stats = EvalStats()
            rep = crossval(machine, P11, word=word, n=3, check_stages=True, stats=stats)
            assert rep.cells == 8 and rep.tuple_space == 576
            # the stages come from the evaluation's own run of the fixpoint
            assert stats.pfp_iterations == rep.stage_count - 1
            assert rep.agree
            assert rep.stages_match
            assert rep.pfp_outcome == "stabilized"
            assert rep.stabilized_at == rep.machine_steps + 1
    assert time.monotonic() - began < 300


def test_c06_synthetic_agreement_on_sampled_words():
    began = time.monotonic()
    rng = random.Random(977)
    words = [
        "".join(bits)
        for length in range(9)
        for bits in itertools.product("01", repeat=length)
    ]
    for machine in (M_ACC, M_REJ, M_FIRST1, M_SWEEP):
        # the sweep steps onto the cell after its input, so on an eight
        # cell tape its words stop at length seven
        pool = [w for w in words if len(w) <= 7] if machine is M_SWEEP else words
        for word in rng.sample(pool, 32):
            assert crossval(machine, P11, word=word, n=3).agree
    assert time.monotonic() - began < 600


def test_c07_height_two_geometry_smoke():
    began = time.monotonic()
    rep = crossval(M_ACC2, ReductionParams(2, 1), word="1" * 16, n=2)
    assert rep.n == 2 and rep.cells == 16 and rep.tuple_space == 1024
    assert rep.machine_accepted and rep.agree
    assert time.monotonic() - began < 600


@pytest.mark.extended
def test_c07_height_two_stage_replay_on_three_states():
    # height two over a three state host: 256 cells, 589,824 tuples,
    # and a run that sweeps ten cells before it accepts
    began = time.monotonic()
    rep = crossval(M_SWEEP, ReductionParams(2, 1), word="1" * 10, n=3, check_stages=True)
    assert rep.cells == 256 and rep.tuple_space == 589824
    assert rep.machine_accepted and rep.agree
    assert rep.stages_match and rep.stage_count - 1 == 13
    assert time.monotonic() - began < 120


@pytest.mark.extended
def test_c08_encoded_mode_end_to_end():
    began = time.monotonic()
    # the requested shape: width two, height one, 512 cells.  512 cells
    # force a three state host, but a machine that reads system
    # encodings speaks at least four tape symbols, so no such host can
    # carry it.  The smallest geometry that fits an encoding reader and
    # its own host encoding is six states at width one.
    assert CodingContext(ordered_lts(3), M_ACC2, ReductionParams(1, 2)).cells == 512
    with pytest.raises(PreconditionError):
        CodingContext(ordered_lts(3), M_ACC4, ReductionParams(1, 2))
    with pytest.raises(PreconditionError):
        CodingContext(ordered_lts(3), M_LASTPROP, ReductionParams(1, 2))

    host = ordered_lts(6, (), ("p",), labels={(5, "p")})
    stats = EvalStats()
    rep = crossval(M_LASTPROP, P11, lts=host, check_stages=True, stats=stats)
    assert rep.mode == "encoded"
    assert rep.cells == 64 and rep.tuple_space == 147456
    assert rep.machine_accepted and rep.formula_accepted and rep.agree
    assert rep.stages_match and rep.stage_count == 57
    # (subformula_evals, pfp_iterations, peak_live_values), as pinned for
    # the shorter cases in test_evaluator.TestPinnedCounters
    assert (stats.subformula_evals, stats.pfp_iterations, stats.peak_live_values) == (
        1788796, 56, 3590)
    assert time.monotonic() - began < 120


@pytest.mark.extended
def test_c08_width_two_stage_replay_on_three_states():
    # the requested width-two shape itself, with a machine that fits it:
    # 512 cells, 2,359,296 tuples, and a run that sweeps five cells
    began = time.monotonic()
    stats = EvalStats()
    rep = crossval(M_SWEEP, ReductionParams(1, 2), word="11111", n=3, check_stages=True, stats=stats)
    assert rep.cells == 512 and rep.tuple_space == 2359296
    assert rep.machine_accepted and rep.agree
    assert rep.stages_match and rep.stage_count == 9
    assert rep.stabilized_at == rep.machine_steps + 1
    assert (stats.subformula_evals, stats.pfp_iterations, stats.peak_live_values) == (
        6683915, 8, 4102)
    assert time.monotonic() - began < 120


def test_c09_space_discipline():
    stats = EvalStats()
    ctx = CodingContext(ordered_lts(3), M_FIRST1, P11)
    rep = crossval(M_FIRST1, P11, word="10", check_stages=True, stats=stats)
    assert rep.agree
    binders = _binder_count(build_machine_formula(ctx, "10"))
    allowance = binders * (3 * ctx.tuple_space + 64)
    assert 0 < stats.peak_live_values <= allowance

    # set quantifiers enumerate their domain only within the budget
    sweep = Exists("X", SetOf(GROUND), Exists("x", GROUND, Apply("X", ("x",))))
    assert evaluate(ordered_lts(3), sweep, budget=8) is True
    with pytest.raises(BudgetError):
        evaluate(ordered_lts(3), sweep, budget=4)


def test_c10_round_trips_hold_at_scale():
    rng = random.Random(31337)
    for _ in range(1000):
        _, formula = scoped_instance(rng)
        assert parse_formula(format_formula(formula)) is formula
    for _ in range(1000):
        system = random_lts(rng)
        assert parse_lts(format_lts(system)) == system
    for _ in range(1000):
        machine = random_tm(rng)
        assert parse_tm(format_tm(machine)) == machine
    ctx = CodingContext(ordered_lts(3), M_FIRST1, P11)
    for _ in range(1000):
        tape = [rng.choice(M_FIRST1.tape_alphabet) for _ in range(rng.randint(0, 8))]
        while tape and tape[-1] == "_":
            tape.pop()
        cfg = Configuration(rng.choice(M_FIRST1.states), rng.randrange(8), tuple(tape))
        assert decode_stage(ctx, encode_stage(ctx, cfg)) == cfg
