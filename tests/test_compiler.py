"""Machine-to-formula compilation, checked against the direct simulator."""

import gc
import hashlib
import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hopfp import compiler, logic, orders
from hopfp.compiler import (
    SET_VAR,
    TUPLE_VARS,
    CodingContext,
    NotAnEncoding,
    PreconditionError,
    ReductionParams,
    build_init,
    build_machine_formula,
    build_stage_fixpoint,
    build_trans,
    crossval,
    decode_stage,
    encode_stage,
    resolve_case,
)
from hopfp.domains import BudgetError, Domain, State, index_to_value, make_set
from hopfp.evaluator import compile_formula, evaluate
from hopfp.frontend import format_formula
from hopfp.logic import (
    GROUND,
    Compound,
    SetOf,
    _nodes,
    check_well_formed,
    formula_order,
    formula_size,
)
from hopfp.lts import Lts, ordered_lts
from hopfp.machine import Configuration, TmSpec, run

from _gen import random_tm
from _machines import (
    M_ACC,
    M_ACC2,
    M_ACC4,
    M_FIRST1,
    M_LASTPROP,
    M_LOOP,
    M_PACE,
    M_PARITY,
    M_SWEEP,
)
from _probe import stage_image

P11 = ReductionParams(1, 1)


def _ctx(machine, n, params=P11):
    return CodingContext(ordered_lts(n), machine, params)


def _quads(ctx, members):
    out = []
    for idx in members:
        rest, g = divmod(idx, ctx.n)
        rest, j = divmod(rest, ctx.cells)
        q, h = divmod(rest, ctx.cells)
        out.append((q, h, j, g))
    return out


def _pack(ctx, quads):
    return frozenset(
        ((q * ctx.cells + h) * ctx.cells + j) * ctx.n + g for q, h, j, g in quads
    )


# -- geometry ---------------------------------------------------------------


def test_coding_context_geometry_examples():
    ctx = _ctx(M_FIRST1, 3)
    pos = ctx.pos_type
    assert pos == SetOf(GROUND)
    assert ctx.member_type == Compound((GROUND, pos, pos, GROUND))
    assert ctx.cells == 8
    assert _ctx(M_ACC2, 2, ReductionParams(2, 1)).cells == 16
    wide = _ctx(M_ACC2, 2, ReductionParams(1, 2))
    assert wide.pos_type == SetOf(Compound((GROUND, GROUND)))
    assert wide.cells == 16


def test_params_must_be_positive():
    with pytest.raises(ValueError):
        ReductionParams(0, 1)
    with pytest.raises(ValueError):
        ReductionParams(1, 0)


def test_context_requires_enough_states():
    with pytest.raises(PreconditionError, match="at least 3"):
        _ctx(M_FIRST1, 2)
    # four tape symbols push the requirement past a three state system
    with pytest.raises(PreconditionError, match="at least 4"):
        _ctx(M_ACC4, 3)


def test_context_requires_the_declaration_order():
    backwards = Lts(
        states=("s0", "s1", "s2"),
        actions=("<",),
        props=(),
        edges=frozenset({(2, "<", 1), (2, "<", 0), (1, "<", 0)}),
        labels=frozenset(),
    )
    with pytest.raises(PreconditionError, match="declaration order"):
        CodingContext(backwards, M_ACC, P11)
    unordered = Lts(
        states=("s0", "s1", "s2"),
        actions=("<",),
        props=(),
        edges=frozenset(),
        labels=frozenset(),
    )
    with pytest.raises(PreconditionError):
        CodingContext(unordered, M_ACC, P11)


# -- configuration coding ---------------------------------------------------


def test_encoding_shape_on_a_known_configuration():
    ctx = _ctx(M_FIRST1, 3)
    cfg = M_FIRST1.initial_configuration("10")
    quads = sorted(_quads(ctx, encode_stage(ctx, cfg)))
    # state q0 codes 0, head on cell 0; symbols: "1" codes 1, "0" codes 0,
    # every cell past the input carries the blank code 2
    assert quads == [(0, 0, j, {0: 1, 1: 0}.get(j, 2)) for j in range(8)]


def test_value_level_round_trip():
    ctx = _ctx(M_FIRST1, 3)
    for word in ["", "1", "10", "011"]:
        cfg = M_FIRST1.initial_configuration(word)
        members = encode_stage(ctx, cfg)
        assert len(members) == 8
        assert decode_stage(ctx, members) == cfg


def test_round_trip_exhaustive_over_small_configurations():
    ctx = _ctx(M_FIRST1, 3)
    seen = 0
    for q in M_FIRST1.states:
        for head in range(8):
            for support in range(3):
                for tape in itertools.product(M_FIRST1.tape_alphabet, repeat=support):
                    if tape and tape[-1] == "_":
                        continue
                    cfg = Configuration(q, head, tape)
                    assert decode_stage(ctx, encode_stage(ctx, cfg)) == cfg
                    seen += 1
    assert seen == 216


def test_decode_flags_each_condition():
    ctx = _ctx(M_FIRST1, 4)
    cfg = M_FIRST1.initial_configuration("10")
    good = _quads(ctx, encode_stage(ctx, cfg))
    assert decode_stage(ctx, encode_stage(ctx, cfg)) == cfg

    out_of_range = [(3, h, j, g) for q, h, j, g in good]
    with pytest.raises(NotAnEncoding) as err:
        decode_stage(ctx, _pack(ctx, out_of_range))
    assert err.value.condition == 1

    disagree = [(q if j else q + 1, h, j, g) for q, h, j, g in good]
    with pytest.raises(NotAnEncoding) as err:
        decode_stage(ctx, _pack(ctx, disagree))
    assert err.value.condition == 1

    moved = [(q, h if j else h + 1, j, g) for q, h, j, g in good]
    with pytest.raises(NotAnEncoding) as err:
        decode_stage(ctx, _pack(ctx, moved))
    assert err.value.condition == 2

    with pytest.raises(NotAnEncoding) as err:
        decode_stage(ctx, _pack(ctx, good[1:]))
    assert err.value.condition == 3

    doubled = [(q, h, j if j else 1, g) for q, h, j, g in good]
    with pytest.raises(NotAnEncoding) as err:
        decode_stage(ctx, _pack(ctx, doubled))
    assert err.value.condition == 3

    with pytest.raises(NotAnEncoding) as err:
        decode_stage(ctx, frozenset())
    assert err.value.condition == 3

    bad_symbol = [(q, h, j, g if j else 3) for q, h, j, g in good]
    with pytest.raises(NotAnEncoding) as err:
        decode_stage(ctx, _pack(ctx, bad_symbol))
    assert err.value.condition == 4


def test_coding_bounds():
    ctx = _ctx(M_FIRST1, 3)
    with pytest.raises(PreconditionError):
        encode_stage(ctx, Configuration("q0", 8, ()))
    with pytest.raises(PreconditionError):
        encode_stage(ctx, Configuration("q0", 0, ("1",) * 9))
    with pytest.raises(PreconditionError):
        build_init(ctx, "1" * 9)
    with pytest.raises(ValueError):
        build_init(ctx, "2")


def test_encode_stage_names_an_unknown_state_or_symbol():
    ctx = _ctx(M_FIRST1, 3)
    with pytest.raises(ValueError, match="^unknown state 'zz'$"):
        encode_stage(ctx, Configuration("zz", 0, ()))
    with pytest.raises(ValueError, match="^unknown tape symbol 'x'$"):
        encode_stage(ctx, Configuration("q0", 0, ("1", "x")))


# -- stage function ---------------------------------------------------------


def test_first_stage_is_the_initial_encoding():
    ctx = _ctx(M_FIRST1, 3)
    for word in ["", "1", "01"]:
        image = stage_image(ctx.lts, build_stage_fixpoint(ctx, word), frozenset())
        assert image == encode_stage(ctx, M_FIRST1.initial_configuration(word))


def test_stage_function_follows_the_run():
    ctx = _ctx(M_SWEEP, 3)
    word = "111"
    stage = build_stage_fixpoint(ctx, word)
    cur = frozenset()
    for cfg in run(M_SWEEP, word).configs:
        cur = stage_image(ctx.lts, stage, cur)
        assert cur == encode_stage(ctx, cfg)
    # halting configurations keep themselves through their self loops
    assert stage_image(ctx.lts, stage, cur) == cur


def test_step_branch_needs_a_nonempty_stage():
    ctx = _ctx(M_FIRST1, 3)
    yq, hd, cell, ys = TUPLE_VARS
    declared = {SET_VAR: ctx.set_type, yq: GROUND, hd: ctx.pos_type, cell: ctx.pos_type, ys: GROUND}
    compiled = compile_formula(ctx.lts, build_trans(ctx), declared)
    zero = index_to_value(Domain(ctx.pos_type, ctx.n), 0)
    env = {SET_VAR: make_set(()), yq: State(0), hd: zero, cell: zero, ys: State(1)}
    assert compiled(env) is False


def test_perturbed_stages_never_invent_reachable_looking_runs():
    """Off-path inputs may produce garbage but never a wrong configuration.

    The stage function is only contractual on encodings that arise from
    the empty set; this probes it on corrupted sets and insists any
    decodable image belongs to the simulator's own trace.
    """
    rng = random.Random(7)
    for machine, word in [(M_FIRST1, "10"), (M_SWEEP, "11")]:
        ctx = _ctx(machine, 3)
        reachable = run(machine, word).configs
        base = encode_stage(ctx, machine.initial_configuration(word))
        for _ in range(8):
            members = set(base)
            for _ in range(rng.randint(1, 3)):
                roll = rng.random()
                if roll < 0.4 and members:
                    members.discard(rng.choice(sorted(members)))
                elif roll < 0.8:
                    members.add(rng.randrange(ctx.tuple_space))
                else:
                    members = set(rng.sample(range(ctx.tuple_space), k=len(members)))
            if not members:
                members.add(rng.randrange(ctx.tuple_space))
            try:
                decode_stage(ctx, frozenset(members))
                continue  # still a proper encoding, out of scope here
            except NotAnEncoding:
                pass
            image = stage_image(ctx.lts, build_stage_fixpoint(ctx, word), frozenset(members))
            try:
                cfg = decode_stage(ctx, image)
            except NotAnEncoding:
                continue
            assert cfg in reachable


# -- whole formulas ---------------------------------------------------------


def test_machine_formula_is_closed_and_of_the_right_order():
    ctx = _ctx(M_FIRST1, 3)
    phi = build_machine_formula(ctx, "1")
    assert phi.free == frozenset()
    assert formula_order(phi) == 2
    ctx2 = CodingContext(ordered_lts(2), M_ACC2, ReductionParams(2, 1))
    assert formula_order(build_machine_formula(ctx2, "1")) == 3


@pytest.mark.parametrize(
    "machine, n, params, word, pinned",
    [
        (M_PARITY, 5, P11, "1", (542, 2476, "ff4bbf55e4cf568b")),
        (M_SWEEP, 3, P11, "1101", (675, 2263, "36d87292b88bd285")),
        (M_ACC2, 2, ReductionParams(2, 1), "1" * 16, (709, 13972, "b24542c916d717b2")),
        (M_FIRST1, 3, P11, "10", (524, 1826, "28d6270f04f2c702")),
    ],
)
def test_machine_formulas_stay_identical(machine, n, params, word, pinned):
    # distinct nodes, tree size and a digest of the printed text
    phi = build_machine_formula(_ctx(machine, n, params), word)
    digest = hashlib.sha256(format_formula(phi).encode()).hexdigest()[:16]
    assert (len(_nodes(phi)), formula_size(phi), digest) == pinned


def test_checking_a_machine_formula_builds_no_node():
    # a checked formula is the built one, not a second DAG beside it
    phi = build_machine_formula(_ctx(M_PARITY, 5), "1")
    gc.collect()
    before = len(logic._NODES)
    checked = check_well_formed(phi)
    assert len(logic._NODES) - before == 0
    assert checked is phi


def test_each_indexed_slot_is_walked_once_per_build(monkeypatch):
    starts = []
    walk = orders.iter_index

    def counted(spec, names):
        starts.append((spec, names))
        return walk(spec, names)

    monkeypatch.setattr(orders, "iter_index", counted)
    monkeypatch.setattr(compiler, "iter_index", counted)
    for machine, n, word in [(M_PARITY, 5, "1"), (M_SWEEP, 3, "1101")]:
        starts.clear()
        build_machine_formula(_ctx(machine, n), word)
        # the state and symbol codes of candidate and witness, and the
        # head, cell, witness head and last input cell positions
        assert len(set(starts)) == 8
        assert len(starts) == len(set(starts))
    # the passes live on the coding context, so later builds on it walk
    # no slot again
    starts.clear()
    ctx = _ctx(M_PARITY, 5)
    build_machine_formula(ctx, "1")
    build_machine_formula(ctx, "1")
    build_stage_fixpoint(ctx, "1")
    assert len(starts) == len(set(starts)) == 8


def test_unordered_system_falsifies_the_formula():
    ctx = _ctx(M_FIRST1, 3)
    phi = build_machine_formula(ctx, "1")
    broken = Lts(
        states=("s0", "s1", "s2"),
        actions=("<",),
        props=(),
        edges=frozenset(),
        labels=frozenset(),
    )
    assert evaluate(broken, phi) is False


# -- cross validation -------------------------------------------------------


def test_crossval_synthetic_with_stage_fidelity():
    rep = crossval(M_FIRST1, P11, word="10", check_stages=True)
    assert rep.mode == "synthetic" and rep.n == 3 and rep.cells == 8
    assert rep.machine_accepted and rep.formula_accepted and rep.agree
    assert rep.stages_match and rep.stabilized_at == rep.machine_steps + 1
    assert json.dumps(rep.to_record())
    rep = crossval(M_FIRST1, P11, word="01", check_stages=True)
    assert rep.agree and not rep.formula_accepted and rep.stages_match


def test_crossval_on_looping_machines():
    spin = crossval(M_LOOP, P11, word="1", n=3, check_stages=True)
    assert spin.machine_looped and not spin.formula_accepted and spin.agree
    # a one step loop freezes the stage sequence without halting
    assert spin.pfp_outcome == "stabilized" and spin.stages_match
    pace = crossval(M_PACE, P11, word="", n=4, check_stages=True)
    assert pace.machine_looped and not pace.formula_accepted and pace.agree
    assert pace.pfp_outcome == "no-fixpoint" and pace.stages_match


def test_crossval_agreement_on_parity():
    for word in ["", "1", "01", "111", "1010"]:
        assert crossval(M_PARITY, P11, word=word, n=4).agree


def _crossval_or_skip(machine, word):
    """The stage-checked report of a case at P11, or why it cannot run:
    "cells" if the run needs more cells than the coding has, "steps" if
    it runs past 500 steps."""
    try:
        return crossval(machine, P11, word=word, check_stages=True, max_steps=500)
    except PreconditionError as err:
        if "cells" not in str(err):
            raise
        return "cells"
    except BudgetError:
        return "steps"


def test_random_machines_replay_stage_by_stage():
    rng = random.Random(20261021)
    skipped = Counter()
    for _ in range(400):
        machine = random_tm(rng)
        length = rng.randint(0, 5) if machine.input_alphabet else 0
        word = "".join(rng.choice(machine.input_alphabet) for _ in range(length))
        rep = _crossval_or_skip(machine, word)
        if isinstance(rep, str):
            skipped[rep] += 1
        else:
            assert rep.agree and rep.stages_match, (machine, word, rep)
    # 386 of the 400 cases are checked
    assert skipped == {"cells": 4, "steps": 10}


@st.composite
def machine_cases(draw):
    """A machine of random_tm's shape and a word for it; a failing case
    shrinks to fewer working states, fewer symbols and a shorter word."""
    extra = draw(st.integers(0, 2))
    states = tuple("q%d" % i for i in range(extra)) + ("qa", "qr")
    tape = tuple("01#"[: draw(st.integers(1, 3))]) + ("_",)
    rule = st.tuples(st.sampled_from(states), st.sampled_from(tape), st.sampled_from("NLR"))
    delta = {(q, s): draw(rule) for q in states[:extra] for s in tape}
    init = draw(st.sampled_from(states[:extra] or states))
    machine = TmSpec(states, tape[:-1], tape, "_", init, "qa", "qr", delta)
    return machine, draw(st.text(tape[:-1], max_size=5))


@pytest.fixture(scope="module")
def compiled_once():
    # compiling raises the recursion limit for good; Hypothesis warns when
    # the limit changes inside a test, so raise it before the first one
    compile_formula(ordered_lts(1), logic.TT)


@pytest.mark.usefixtures("compiled_once")
@given(case=machine_cases())
@settings(max_examples=100, deadline=None)
def test_random_machine_cases_replay_stage_by_stage(case):
    rep = _crossval_or_skip(*case)
    assume(not isinstance(rep, str))
    assert rep.agree and rep.stages_match, rep


def test_height_two_geometry():
    rep = crossval(M_ACC2, ReductionParams(2, 1), word="1" * 16, n=2, check_stages=True)
    assert rep.agree and rep.stages_match
    assert rep.cells == 16 and rep.tuple_space == 1024


def test_width_two_geometry():
    rep = crossval(M_ACC2, ReductionParams(1, 2), word="11", n=2, check_stages=True)
    assert rep.agree and rep.stages_match and rep.cells == 16


def test_crossval_preconditions():
    with pytest.raises(PreconditionError):
        crossval(M_FIRST1, P11, word="1", n=2)
    with pytest.raises(ValueError):
        crossval(M_LASTPROP, P11)
    # the sweep leaves its input, so eight letters need a ninth cell
    with pytest.raises(PreconditionError):
        crossval(M_SWEEP, P11, word="1" * 8, n=3)
    # a machine reading system encodings has at least four tape symbols,
    # so no three state system can host one
    t3 = ordered_lts(3, (), ("p",), labels={(2, "p")})
    with pytest.raises(PreconditionError):
        crossval(M_LASTPROP, ReductionParams(1, 2), lts=t3)


def test_requested_size_must_match_the_given_system():
    with pytest.raises(ValueError, match="requested system size 7"):
        resolve_case(M_FIRST1, P11, ordered_lts(3), "10", 7)
    with pytest.raises(ValueError, match="requested system size 5"):
        crossval(M_FIRST1, P11, lts=ordered_lts(3), word="10", n=5)
    mode, ctx, word = resolve_case(M_FIRST1, P11, ordered_lts(3), "10", 3)
    assert (mode, ctx.n, word) == ("synthetic", 3, "10")
