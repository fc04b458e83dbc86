"""Deterministic single-tape machines and their runs.

The tape is one-way infinite: moving left at cell 0 leaves the head in
place.  Halting states carry forced self-loops (same state, same
symbol, no move), so a halted machine repeats its configuration forever;
outside the halting states the transition table must be total.  Symbols
are single characters so that inputs are ordinary strings.

Runs detect revisited configurations: a deterministic machine that
repeats a configuration never halts, so the run reports a loop and does
not accept.  Space usage is the number of cells the head has visited,
one plus the largest head position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .domains import BudgetError
from .lts import Lts

LEFT, RIGHT, STAY = "L", "R", "N"
MOVES = (LEFT, RIGHT, STAY)

Rule = tuple[str, str, str]


@dataclass(frozen=True)
class TmSpec:
    states: tuple[str, ...]
    input_alphabet: tuple[str, ...]
    tape_alphabet: tuple[str, ...]
    blank: str
    init: str
    accept: str
    reject: str
    delta: Mapping[tuple[str, str], Rule]

    def __post_init__(self) -> None:
        if len(set(self.states)) != len(self.states) or not self.states:
            raise ValueError("states must be nonempty and distinct")
        for q in (self.init, self.accept, self.reject):
            if q not in self.states:
                raise ValueError("unknown state %r" % q)
        if self.accept == self.reject:
            raise ValueError("accepting and rejecting state must differ")
        if len(set(self.tape_alphabet)) != len(self.tape_alphabet):
            raise ValueError("tape symbols must be distinct")
        for s in self.tape_alphabet:
            if len(s) != 1:
                raise ValueError("tape symbols are single characters, got %r" % s)
        if self.blank not in self.tape_alphabet:
            raise ValueError("blank %r not in the tape alphabet" % self.blank)
        if self.blank in self.input_alphabet:
            raise ValueError("blank may not occur in the input alphabet")
        for s in self.input_alphabet:
            if s not in self.tape_alphabet:
                raise ValueError("input symbol %r not in the tape alphabet" % s)
        table = dict(self.delta)
        for (q, s), (q2, s2, move) in table.items():
            if q not in self.states or s not in self.tape_alphabet:
                raise ValueError("rule for unknown pair (%r, %r)" % (q, s))
            if q2 not in self.states or s2 not in self.tape_alphabet:
                raise ValueError("rule (%r, %r) targets unknown state or symbol" % (q, s))
            if move not in MOVES:
                raise ValueError("move must be one of %s, got %r" % ("/".join(MOVES), move))
        for q in (self.accept, self.reject):
            for s in self.tape_alphabet:
                want = (q, s, STAY)
                got = table.setdefault((q, s), want)
                if got != want:
                    raise ValueError("halting state %r must keep its configuration" % q)
        # the rules in declaration order, by state and then by symbol, the
        # order in which build_trans conjoins them and format_tm prints them
        delta = {}
        for q in self.states:
            for s in self.tape_alphabet:
                if (q, s) not in table:
                    raise ValueError("transition table misses (%r, %r)" % (q, s))
                delta[q, s] = table[q, s]
        object.__setattr__(self, "delta", delta)

    def is_halting(self, q: str) -> bool:
        return q in (self.accept, self.reject)

    def state_index(self, q: str) -> int:
        try:
            return self.states.index(q)
        except ValueError:
            raise ValueError("unknown state %r" % q) from None

    def symbol_index(self, s: str) -> int:
        try:
            return self.tape_alphabet.index(s)
        except ValueError:
            raise ValueError("unknown tape symbol %r" % s) from None

    def initial_configuration(self, word: str) -> "Configuration":
        for ch in word:
            if ch not in self.input_alphabet:
                raise ValueError("input symbol %r not allowed" % ch)
        return Configuration(self.init, 0, _trim(tuple(word), self.blank))

    def step(self, conf: "Configuration") -> "Configuration":
        sym = conf.symbol_at(conf.head, self.blank)
        q2, s2, move = self.delta[(conf.state, sym)]
        cells = list(conf.tape)
        if conf.head >= len(cells):
            cells.extend(self.blank * (conf.head + 1 - len(cells)))
        cells[conf.head] = s2
        if move == RIGHT:
            head = conf.head + 1
        elif move == LEFT and conf.head > 0:
            head = conf.head - 1
        else:
            head = conf.head
        return Configuration(q2, head, _trim(tuple(cells), self.blank))


def _trim(cells: tuple[str, ...], blank: str) -> tuple[str, ...]:
    end = len(cells)
    while end > 0 and cells[end - 1] == blank:
        end -= 1
    return cells[:end]


@dataclass(frozen=True)
class Configuration:
    """State, head position and tape with trailing blanks trimmed."""

    state: str
    head: int
    tape: tuple[str, ...]

    def symbol_at(self, i: int, blank: str) -> str:
        if i < len(self.tape):
            return self.tape[i]
        return blank


@dataclass(frozen=True)
class RunResult:
    accepted: bool
    steps: int
    space: int
    configs: tuple[Configuration, ...]  # every configuration of the run, in order
    looped: bool = False

    @property
    def final(self) -> Configuration:
        return self.configs[-1]


def run(spec: TmSpec, word: str, max_steps: Optional[int] = None) -> RunResult:
    """Simulate to the halting configuration or the first repeat; keep every configuration.

    A machine that revisits a configuration loops forever; the run stops
    at the first repeat, which it keeps as its last configuration.
    """
    conf = spec.initial_configuration(word)
    configs, seen = [conf], {conf}
    while not spec.is_halting(conf.state):
        if max_steps is not None and len(configs) > max_steps:
            raise BudgetError("run exceeded %d steps" % max_steps)
        conf = spec.step(conf)
        configs.append(conf)
        if conf in seen:
            break
        seen.add(conf)
    looped = not spec.is_halting(conf.state)
    space = max(c.head for c in configs) + 1
    return RunResult(conf.state == spec.accept, len(configs) - 1, space, tuple(configs), looped)


def encode_lts(lts: Lts) -> str:
    """Flat word form of a system for machine input.

    The state count in unary, then per action (in code point order) the
    edge matrix row by row, then per proposition (same order) the label
    bits, every section closed by a separator.
    """
    n = lts.n
    out = ["1" * n, "#"]
    for a in sorted(lts.actions):
        bits = ["0"] * (n * n)
        for (s, act, t) in lts.edges:
            if act == a:
                bits[s * n + t] = "1"
        out.append("".join(bits))
        out.append("#")
    for p in sorted(lts.props):
        bits = ["0"] * n
        for (s, prop) in lts.labels:
            if prop == p:
                bits[s] = "1"
        out.append("".join(bits))
        out.append("#")
    return "".join(out)
