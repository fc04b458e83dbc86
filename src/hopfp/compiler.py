"""Space-bounded machines compiled into fixpoint formulas.

A deterministic machine that runs in bounded space can be replayed by a
formula over any large enough totally ordered system: tape positions
become values of an iterated powerset type over the states, whole
configurations become sets of tagged tuples, and one partial fixpoint
walks the run step by step.  The builders here produce those formulas;
crossval checks them against the direct simulator on concrete inputs,
down to the individual fixpoint stages.

A system with n states yields tower(n^c, k) tape cells at height k and
width c, so the machine may use that much space.  The coding needs
n >= max(state count, tape alphabet size, c), since states and symbols
are coded by single individuals, and it reads the reserved order as the
declaration order of the states.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterable, Optional

from .domains import DEFAULT_ENUM_BUDGET, Domain, domain_size
from .evaluator import EvalStats, compile_formula
from .lts import Lts, order_ranks, ordered_lts
from .logic import (
    GROUND,
    Apply,
    Compound,
    Exists,
    Formula,
    Not,
    Or,
    Pfp,
    SetOf,
    Type,
    and_,
    conj,
    exists_all,
    implies,
)
from .machine import LEFT, RIGHT, Configuration, TmSpec, _trim, encode_lts, run
from .orders import (
    TowerSpec,
    build_eq,
    build_lt,
    build_succ,
    build_total_order_axiom,
    iter_index,
    quantify_exists,
)

# fixed variable names of the generated formulas: the stage set, the
# candidate member (state code, head cell, own cell, symbol code), the
# witness member drawn from the stage at the old head cell (it also
# probes the stage for emptiness), the old content at the candidate's
# cell and the input's last cell
SET_VAR = "cfg"
TUPLE_VARS = ("yq", "hd", "cell", "ys")
WITNESS_VARS = ("xq", "xh", "xc", "xs")
OLD_VAR = "xo"
LAST_VAR = "zb"


class PreconditionError(ValueError):
    """The system or input is outside what the coding can represent."""


class NotAnEncoding(ValueError):
    """A set value violates one of the four configuration coding conditions."""

    def __init__(self, condition: int, message: str) -> None:
        super().__init__("condition %d: %s" % (condition, message))
        self.condition = condition


@dataclass(frozen=True)
class ReductionParams:
    """Geometry of the coding: powerset height k and ground width c."""

    k: int
    c: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("height must be positive")
        if self.c < 1:
            raise ValueError("width must be positive")


def minimal_system_size(machine: TmSpec, params: ReductionParams) -> int:
    """Fewest states a host system needs for this machine and shape."""
    return max(len(machine.states), len(machine.tape_alphabet), params.c)


@dataclass(frozen=True)
class CodingContext:
    """One machine/system pair with everything the builders derive from it.

    Machine state number i and tape symbol number j are coded by the
    individuals at positions i and j of the order, so the reserved order
    must list the states in declaration order.  passes holds the one
    iter_index pass of each indexed slot the builders have asked for.
    """

    lts: Lts
    machine: TmSpec
    params: ReductionParams
    passes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.lts.n
        m = self.machine
        need = minimal_system_size(m, self.params)
        if n < need:
            raise PreconditionError(
                "system has %d states but the coding needs at least %d, the "
                "largest of state count %d, tape alphabet size %d and width %d"
                % (n, need, len(m.states), len(m.tape_alphabet), self.params.c)
            )
        try:
            ranks = order_ranks(self.lts)
        except ValueError as err:
            raise PreconditionError(str(err)) from None
        if ranks != list(range(n)):
            raise PreconditionError(
                "the order on the system must list its states in declaration order"
            )

    @property
    def n(self) -> int:
        return self.lts.n

    @property
    def pos_spec(self) -> TowerSpec:
        return TowerSpec(self.params.c, self.params.k + 1)

    @property
    def code_spec(self) -> TowerSpec:
        return TowerSpec(1, 1)

    @property
    def pos_type(self) -> Type:
        return self.pos_spec.value_type

    @property
    def member_type(self) -> Compound:
        return Compound((GROUND, self.pos_type, self.pos_type, GROUND))

    @property
    def set_type(self) -> SetOf:
        return SetOf(self.member_type)

    @property
    def cells(self) -> int:
        return domain_size(Domain(self.pos_type, self.n))

    @property
    def tuple_space(self) -> int:
        return self.n * self.cells * self.cells * self.n

    def index(self, spec: TowerSpec, j: int, slot: tuple) -> Formula:
        """The formula for "slot holds the j-th value of the level", read
        off the slot's one iter_index pass, which no call restarts."""
        got = self.passes.get((spec, slot))
        if got is None:
            got = self.passes[spec, slot] = ([], iter_index(spec, slot))
        done, rest = got
        while len(done) <= j:
            done.append(next(rest))
        return done[j]


# -- configuration coding ---------------------------------------------------


def encode_stage(ctx: CodingContext, cfg: Configuration) -> frozenset:
    """Member indices of the configuration's encoding.

    This is the shape fixpoint stages take: member (q, h, j, g) says the
    machine is in state q with its head on cell h, and cell j holds
    symbol g.  All cells are present, blanks included.
    """
    n, cells = ctx.n, ctx.cells
    m = ctx.machine
    if cfg.head >= cells:
        raise PreconditionError(
            "head position %d outside the %d available cells" % (cfg.head, cells)
        )
    if len(cfg.tape) > cells:
        raise PreconditionError(
            "tape uses %d cells but only %d exist" % (len(cfg.tape), cells)
        )
    q = m.state_index(cfg.state)
    base = (q * cells + cfg.head) * cells
    return frozenset(
        (base + j) * n + m.symbol_index(cfg.symbol_at(j, m.blank))
        for j in range(cells)
    )


def decode_stage(ctx: CodingContext, members: Iterable[int]) -> Configuration:
    """Rebuild the configuration coded by a set of member indices.

    The four coding conditions are checked in order and the first
    violation is reported: (1) one shared state code naming a machine
    state, (2) one shared head cell, (3) exactly one member per cell,
    (4) symbol codes naming tape symbols.
    """
    n, cells = ctx.n, ctx.cells
    m = ctx.machine
    quads = []
    for idx in members:
        rest, g = divmod(idx, n)
        rest, j = divmod(rest, cells)
        q, h = divmod(rest, cells)
        quads.append((q, h, j, g))
    states = {q for q, _, _, _ in quads}
    if len(states) > 1:
        raise NotAnEncoding(1, "members disagree on the state code")
    if states and min(states) >= len(m.states):
        raise NotAnEncoding(1, "state code %d names no machine state" % min(states))
    heads = {h for _, h, _, _ in quads}
    if len(heads) > 1:
        raise NotAnEncoding(2, "members disagree on the head cell")
    content: dict = {}
    for _, _, j, g in quads:
        if j in content:
            raise NotAnEncoding(3, "more than one member for cell %d" % j)
        content[j] = g
    for j in range(cells):
        if j not in content:
            raise NotAnEncoding(3, "no member for cell %d" % j)
    for j in range(cells):
        if content[j] >= len(m.tape_alphabet):
            raise NotAnEncoding(
                4, "symbol code %d at cell %d names no tape symbol" % (content[j], j)
            )
    tape = tuple(m.tape_alphabet[content[j]] for j in range(cells))
    return Configuration(m.states[min(states)], min(heads), _trim(tape, m.blank))


# -- formula builders -------------------------------------------------------


def _code_eq(ctx: CodingContext, var: str, code: int) -> Formula:
    """The ground variable holds the individual at the given order position."""
    return ctx.index(ctx.code_spec, code, (var,))


def build_init(ctx: CodingContext, word: str) -> Formula:
    """Constraint satisfied by exactly the members encoding the start.

    Free variables: the candidate member.  The head sits on cell zero in
    the starting state, cells under the input carry its letters, and a
    witness for the input's last cell forces blanks past it.  The index
    formulas of all these cells hang off one interned spine of
    successor steps (see iter_index).
    """
    m, cells = ctx.machine, ctx.cells
    if len(word) > cells:
        raise PreconditionError(
            "input of length %d does not fit into %d cells" % (len(word), cells)
        )
    for ch in word:
        if ch not in m.input_alphabet:
            raise ValueError("input symbol %r not allowed" % ch)
    yq, hd, cell, ys = TUPLE_VARS
    pspec = ctx.pos_spec
    parts = [
        ctx.index(pspec, 0, (hd,)),
        _code_eq(ctx, yq, m.state_index(m.init)),
    ]
    for j, ch in enumerate(word):
        at = ctx.index(pspec, j, (cell,))
        parts.append(implies(at, _code_eq(ctx, ys, m.symbol_index(ch))))
    blank = _code_eq(ctx, ys, m.symbol_index(m.blank))
    if not word:
        parts.append(blank)
    else:
        last = (LAST_VAR,)
        parts.append(
            quantify_exists(
                pspec,
                last,
                and_(
                    ctx.index(pspec, len(word) - 1, last),
                    implies(build_lt(pspec, last, (cell,)), blank),
                ),
            )
        )
    return conj(parts)


def build_trans(ctx: CodingContext) -> Formula:
    """One-step relation between configuration encodings.

    Free variables: the stage set and the candidate member.  A witness
    member at the old head cell fixes the scanned symbol, a second
    witness at the candidate's own cell carries the old content there,
    and one conjunct per transition rule forces the new state, the moved
    head and the written symbol.  Cells away from the old head keep
    their content.  Bound names are fixed, so a test that recurs, such
    as the old head against the candidate's cell, is one interned node
    whose existentials share their memo tables during evaluation.
    """
    m = ctx.machine
    yq, hd, cell, ys = TUPLE_VARS
    xq, xh, xc, xs = WITNESS_VARS
    pspec = ctx.pos_spec
    at_head = build_eq(pspec, (xh,), (cell,))
    stay = build_eq(pspec, (hd,), (xh,))
    step_right = build_succ(pspec, (xh,), (hd,))
    step_left = Or(
        build_succ(pspec, (hd,), (xh,)),
        and_(
            ctx.index(pspec, 0, (xh,)),
            ctx.index(pspec, 0, (hd,)),
        ),
    )
    old_content = Exists(
        OLD_VAR,
        GROUND,
        and_(
            Apply(SET_VAR, (xq, xh, cell, OLD_VAR)),
            implies(Not(at_head), build_eq(ctx.code_spec, (ys,), (OLD_VAR,))),
        ),
    )
    blocks = []
    for (q, sym), (q2, sym2, move) in m.delta.items():
        matches = and_(
            _code_eq(ctx, xq, m.state_index(q)),
            _code_eq(ctx, xs, m.symbol_index(sym)),
        )
        moved = step_left if move == LEFT else step_right if move == RIGHT else stay
        forced = conj(
            [
                _code_eq(ctx, yq, m.state_index(q2)),
                moved,
                implies(at_head, _code_eq(ctx, ys, m.symbol_index(sym2))),
            ]
        )
        blocks.append(implies(matches, forced))
    body = conj(
        [
            Apply(SET_VAR, WITNESS_VARS),
            build_eq(pspec, (xc,), (xh,)),
            old_content,
        ]
        + blocks
    )
    return exists_all(list(zip(WITNESS_VARS, ctx.member_type.parts)), body)


def build_stage_formula(ctx: CodingContext, word: str) -> Formula:
    """The stage function: step the coded run, or start it from nothing.

    On an empty stage set only the start branch can hold, so the first
    stage is the initial configuration's encoding; afterwards the step
    branch reproduces the successor and halting configurations repeat
    through their self loop rules, freezing the iteration.
    """
    # built as a negated existential so evaluation probes one member
    probe = list(zip(WITNESS_VARS, ctx.member_type.parts))
    empty = Not(exists_all(probe, Apply(SET_VAR, WITNESS_VARS)))
    return Or(build_trans(ctx), and_(empty, build_init(ctx, word)))


def build_stage_fixpoint(ctx: CodingContext, word: str) -> Pfp:
    """The applied fixpoint binder over the stage function."""
    return Pfp(SET_VAR, ctx.set_type, build_stage_formula(ctx, word), TUPLE_VARS)


def build_machine_formula(ctx: CodingContext, word: str) -> Formula:
    """Closed formula true on the system iff the machine accepts the word."""
    yq = TUPLE_VARS[0]
    accept = _code_eq(ctx, yq, ctx.machine.state_index(ctx.machine.accept))
    return and_(
        build_total_order_axiom(),
        exists_all(
            list(zip(TUPLE_VARS, ctx.member_type.parts)),
            and_(accept, build_stage_fixpoint(ctx, word)),
        ),
    )


# -- cross validation -------------------------------------------------------


@dataclass(frozen=True)
class CrossvalReport:
    """Verdicts of formula and simulator on one machine/input case."""

    mode: str
    word: str
    n: int
    k: int
    c: int
    cells: int
    tuple_space: int
    machine_accepted: bool
    machine_steps: int
    machine_space: int
    machine_looped: bool
    formula_accepted: bool
    agree: bool
    stage_count: Optional[int] = None
    pfp_outcome: Optional[str] = None
    stabilized_at: Optional[int] = None
    stages_match: Optional[bool] = None
    first_mismatch: Optional[int] = None

    def to_record(self) -> dict:
        return asdict(self)


def resolve_case(
    machine: TmSpec,
    params: ReductionParams,
    lts: Optional[Lts] = None,
    word: Optional[str] = None,
    n: Optional[int] = None,
) -> tuple[str, CodingContext, str]:
    """Mode, coding and input word of one machine/system case.

    Encoded mode (no word given) runs the machine on the text encoding
    of the given system.  Synthetic mode takes the word as given and,
    when no system is supplied, builds a plain ordered one of the
    requested or minimal suitable size.  A requested size that differs
    from the size of a supplied system raises ValueError.
    """
    if lts is not None and n is not None and n != lts.n:
        raise ValueError("requested system size %d, but the given system has %d states" % (n, lts.n))
    if word is None:
        if lts is None:
            raise ValueError("encoded mode needs a system to encode")
        mode, word = "encoded", encode_lts(lts)
    else:
        mode = "synthetic"
    if lts is None:
        lts = ordered_lts(n if n is not None else minimal_system_size(machine, params))
    return mode, CodingContext(lts, machine, params), word


def crossval(
    machine: TmSpec,
    params: ReductionParams,
    lts: Optional[Lts] = None,
    word: Optional[str] = None,
    n: Optional[int] = None,
    check_stages: bool = False,
    budget: int = DEFAULT_ENUM_BUDGET,
    max_steps: Optional[int] = None,
    stats: Optional[EvalStats] = None,
    live_budget: Optional[int] = None,
) -> CrossvalReport:
    """Run formula and simulator on one case and compare.

    The case is set up by resolve_case.  With check_stages every stage
    of the fixpoint, as traced by the evaluation of the formula itself,
    is compared against the corresponding simulator configuration.
    budget and live_budget bound the evaluation as for evaluate.
    """
    mode, ctx, word = resolve_case(machine, params, lts, word, n)
    result = run(machine, word, max_steps)
    if result.space > ctx.cells:
        raise PreconditionError(
            "the run uses %d cells but the coding provides %d" % (result.space, ctx.cells)
        )
    compiled = compile_formula(
        ctx.lts, build_machine_formula(ctx, word), budget=budget, stats=stats,
        live_budget=live_budget,
    )
    formula_accepted = compiled()
    fields = dict(
        mode=mode,
        word=word,
        n=ctx.n,
        k=params.k,
        c=params.c,
        cells=ctx.cells,
        tuple_space=ctx.tuple_space,
        machine_accepted=result.accepted,
        machine_steps=result.steps,
        machine_space=result.space,
        machine_looped=result.looped,
        formula_accepted=formula_accepted,
        agree=formula_accepted == result.accepted,
    )
    if check_stages:
        # the order axiom holds on every coding host, so the evaluation
        # reached the formula's one fixpoint, and ran it exactly once
        # since its body has no free variables but the set and arguments
        trace = compiled.traces[-1]
        first_mismatch = next(
            (i + 1 for i, cfg in enumerate(result.configs)
             if i + 1 >= len(trace.stages) or trace.stages[i + 1] != encode_stage(ctx, cfg)),
            None,
        )
        if not result.looped:
            want = ("stabilized", result.steps + 1)
        else:
            # a loop that repeats one configuration freezes the stage
            # sequence there; longer loops make the stages cycle
            entered = result.configs.index(result.final)
            loop = result.steps - entered
            want = ("stabilized", entered + 1) if loop == 1 else ("no-fixpoint", None)
        matches = first_mismatch is None and (trace.outcome, trace.stabilized_at) == want
        fields.update(
            stage_count=len(trace.stages),
            pfp_outcome=trace.outcome,
            stabilized_at=trace.stabilized_at,
            stages_match=matches,
            first_mismatch=first_mismatch,
        )
    return CrossvalReport(**fields)
