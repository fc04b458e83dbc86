"""The four benchmark workloads.

Each workload is built from a seed and then serves cases one at a time:
prepare(i) makes the inputs of case i outside the timed region, call(inp)
is the library work that is timed, and check(inp, out) compares the
outcome against an independent answer and returns the case's
deterministic counters.  Library functions are always reached through
the hopfp package or its modules at call time, so the span tracer can
wrap them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import hopfp as H

BINARY = ("0", "1")
TAPE = ("0", "1", "_")
P11 = H.ReductionParams(1, 1)


class CaseFailure(Exception):
    """A case produced an answer that disagrees with the reference."""


def _tm(states, init, delta, input_alphabet=BINARY, tape_alphabet=TAPE):
    return H.TmSpec(
        states=states,
        input_alphabet=input_alphabet,
        tape_alphabet=tape_alphabet,
        blank="_",
        init=init,
        accept="qa",
        reject="qr",
        delta=delta,
    )


def machines():
    """The machines of the acceptance cases c05 to c08, by name."""
    return {
        # halt at once, accepting respectively rejecting
        "acc": _tm(("qa", "qr"), "qa", {}),
        "rej": _tm(("qa", "qr"), "qr", {}),
        # accepts words starting with 1, never moves
        "first1": _tm(
            ("q0", "qa", "qr"),
            "q0",
            {
                ("q0", "1"): ("qa", "1", "N"),
                ("q0", "0"): ("qr", "0", "N"),
                ("q0", "_"): ("qr", "_", "N"),
            },
        ),
        # sweeps right, accepts words of ones only
        "sweep": _tm(
            ("q0", "qa", "qr"),
            "q0",
            {
                ("q0", "1"): ("q0", "1", "R"),
                ("q0", "0"): ("qr", "0", "N"),
                ("q0", "_"): ("qa", "_", "N"),
            },
        ),
        # accepts words with an even number of ones
        "parity": _tm(
            ("qe", "qo", "qa", "qr"),
            "qe",
            {
                ("qe", "1"): ("qo", "1", "R"),
                ("qe", "0"): ("qe", "0", "R"),
                ("qe", "_"): ("qa", "_", "N"),
                ("qo", "1"): ("qe", "1", "R"),
                ("qo", "0"): ("qo", "0", "R"),
                ("qo", "_"): ("qr", "_", "N"),
            },
        ),
        # accepts at once on a two-symbol tape (c07)
        "acc2": _tm(("qa", "qr"), "qa", {}, input_alphabet=("1",), tape_alphabet=("1", "_")),
        # reads a system encoding, accepts iff the last state carries the prop (c08)
        "lastprop": _tm(
            ("q0", "q1", "q2", "qa", "qr"),
            "q0",
            {
                ("q0", "0"): ("q0", "0", "R"),
                ("q0", "1"): ("q0", "1", "R"),
                ("q0", "#"): ("q0", "#", "R"),
                ("q0", "_"): ("q1", "_", "L"),
                ("q1", "#"): ("q2", "#", "L"),
                ("q1", "0"): ("qr", "0", "N"),
                ("q1", "1"): ("qr", "1", "N"),
                ("q1", "_"): ("qr", "_", "N"),
                ("q2", "1"): ("qa", "1", "N"),
                ("q2", "0"): ("qr", "0", "N"),
                ("q2", "#"): ("qr", "#", "N"),
                ("q2", "_"): ("qr", "_", "N"),
            },
            input_alphabet=("0", "1", "#"),
            tape_alphabet=("0", "1", "#", "_"),
        ),
    }


def _crossval_counters(report, stats) -> dict:
    return {
        "evaluator.subformula_evals": stats.subformula_evals,
        "evaluator.pfp_iterations": stats.pfp_iterations,
        "evaluator.peak_live_values": stats.peak_live_values,
        "evaluator.tuples_tested": stats.pfp_iterations * report.tuple_space,
        "machine.steps": report.machine_steps,
    }


@dataclass
class CrossvalCase:
    machine: H.TmSpec
    word: str
    stats: H.EvalStats


class ReplayN5:
    """Stage replay of the parity machine on the 5-state host (c05 shape)."""

    name = "replay-n5"
    cycle = 1
    word_length = 1

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.machine = machines()["parity"]
        self.host = H.ordered_lts(5)
        self.coding = H.CodingContext(self.host, self.machine, P11)
        assert self.coding.cells == 32 and self.coding.tuple_space == 25600

    def prepare(self, i: int) -> CrossvalCase:
        word = "".join(self.rng.choice(BINARY) for _ in range(self.word_length))
        return CrossvalCase(self.machine, word, H.EvalStats())

    def call(self, inp: CrossvalCase):
        return H.crossval(
            inp.machine, P11, lts=self.host, word=inp.word, check_stages=True, stats=inp.stats
        )

    def check(self, inp: CrossvalCase, rep) -> dict:
        if not rep.agree:
            raise CaseFailure("verdicts differ on %r" % inp.word)
        if not rep.stages_match:
            raise CaseFailure("stage %s differs on %r" % (rep.first_mismatch, inp.word))
        if rep.stabilized_at != rep.machine_steps + 1:
            raise CaseFailure(
                "stabilized at %s after %d steps on %r"
                % (rep.stabilized_at, rep.machine_steps, inp.word)
            )
        return _crossval_counters(rep, inp.stats)


class WordsN3:
    """Sampled words for four machines on the 3-state host (c06 shape)."""

    name = "words-n3"
    cycle = 1
    host_size = 3
    order = ("acc", "rej", "first1", "sweep")

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        zoo = machines()
        self.machines = [zoo[m] for m in self.order]
        self.host = H.ordered_lts(self.host_size)
        for m in self.machines:
            H.CodingContext(self.host, m, P11)

    def prepare(self, i: int) -> CrossvalCase:
        machine = self.machines[i % len(self.machines)]
        # the sweep steps onto the cell after its input, so on the eight
        # cell tape its words stop at length seven
        longest = 7 if self.order[i % len(self.order)] == "sweep" else 8
        length = self.rng.randint(0, longest)
        word = "".join(self.rng.choice(BINARY) for _ in range(length))
        return CrossvalCase(machine, word, H.EvalStats())

    def call(self, inp: CrossvalCase):
        return H.crossval(inp.machine, P11, lts=self.host, word=inp.word, stats=inp.stats)

    def check(self, inp: CrossvalCase, rep) -> dict:
        if not rep.agree:
            raise CaseFailure("verdicts differ on %r" % inp.word)
        return _crossval_counters(rep, inp.stats)


@dataclass
class ReparseCase:
    label: str
    formula: object
    host: object
    space: int
    expected: object  # simulator verdict, or None when not evaluated
    stats: H.EvalStats


class Reparse:
    """Print and parse back the c07 and c08 formulas.

    A cycle is three c07 round trips and one c08 round trip, and a run
    ends after a whole cycle.  The median case is then a c07 one, which
    exercises parse, check and evaluation, while the 12 s c08 case shows
    in cases_per_s; alternating one to one would put the median between
    two single samples of different cases.
    """

    name = "reparse"
    schedule = (0, 0, 0, 1)
    cycle = len(schedule)

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        zoo = machines()
        labels7 = {(s, "p") for s in range(2) if rng.random() < 0.5}
        host7 = H.ordered_lts(2, (), ("p",), labels=labels7)
        ctx7 = H.CodingContext(host7, zoo["acc2"], H.ReductionParams(2, 1))
        word7 = "1" * 16
        labels8 = {(s, "p") for s in range(6) if rng.random() < 0.5}
        host8 = H.ordered_lts(6, (), ("p",), labels=labels8)
        ctx8 = H.CodingContext(host8, zoo["lastprop"], P11)
        word8 = H.encode_lts(host8)
        self.formulas = (
            ("c07", H.build_machine_formula(ctx7, word7), host7, ctx7.tuple_space,
             H.run(zoo["acc2"], word7).accepted),
            ("c08", H.build_machine_formula(ctx8, word8), host8, ctx8.tuple_space, None),
        )

    def prepare(self, i: int) -> ReparseCase:
        label, formula, host, space, expected = self.formulas[self.schedule[i % self.cycle]]
        return ReparseCase(label, formula, host, space, expected, H.EvalStats())

    def call(self, inp: ReparseCase):
        text = H.format_formula(inp.formula)
        back = H.parse_formula(text)
        same = back == inp.formula
        if inp.expected is None:
            H.check_well_formed(inp.formula)
            H.check_well_formed(back)
            return text, same, None
        built = H.evaluate(inp.host, inp.formula, stats=inp.stats)
        parsed = H.evaluate(inp.host, back, stats=inp.stats)
        return text, same, (built, parsed)

    def check(self, inp: ReparseCase, out) -> dict:
        text, same, verdicts = out
        if not same:
            raise CaseFailure("%s does not survive printing and parsing" % inp.label)
        if verdicts is not None and verdicts != (inp.expected, inp.expected):
            raise CaseFailure(
                "%s verdicts built/parsed %s, simulator %s" % (inp.label, verdicts, inp.expected)
            )
        return {
            "evaluator.subformula_evals": inp.stats.subformula_evals,
            "evaluator.pfp_iterations": inp.stats.pfp_iterations,
            "evaluator.peak_live_values": inp.stats.peak_live_values,
            "evaluator.tuples_tested": inp.stats.pfp_iterations * inp.space,
            "frontend.text_bytes": len(text),
        }


@dataclass
class OrderShape:
    spec: H.TowerSpec
    host: H.Lts
    formula: object
    declared: dict
    slots: tuple
    values: list
    compiled: H.CompiledFormula = None
    pending: list = field(default_factory=list)

    def compile(self) -> None:
        self.compiled = H.compile_formula(self.host, self.formula, self.declared)

    def slot_env(self, names, value) -> dict:
        if self.spec.level == 1 and self.spec.width > 1:
            return dict(zip(names, value.items))
        return {names[0]: value}


@dataclass
class OrderQuery:
    compiled: H.CompiledFormula
    u: object
    v: object
    env: dict
    evals_before: int


class OrderQueries:
    """Compiled order formulas of the ten c01 tower shapes, queried by rows.

    A row is one value u of a shape compared against every value v of
    that shape in seeded order; shapes take turns row by row.  The memo
    of a compiled formula grows with every new pair, so all formulas
    are compiled afresh every ROWS_PER_PASS rows per shape: each pass
    starts cold, and a run sees the same mix of cold and warm queries
    however many cases it completes.
    """

    name = "order-queries"
    cycle = 1
    ROWS_PER_PASS = 8

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.shapes = []
        for c in (1, 2):
            for level in (1, 2, 3):
                spec = H.TowerSpec(c, level)
                for n in (2, 3):
                    if H.domain_size(H.Domain(spec.value_type, n)) > 512:
                        continue
                    supply = H.NameSupply()
                    a, b = supply.slot(spec), supply.slot(spec)
                    declared = {**dict(zip(a, spec.slot_types)), **dict(zip(b, spec.slot_types))}
                    formula = H.build_lt(spec, a, b, supply)
                    values = list(H.iter_domain(H.Domain(spec.value_type, n)))
                    self.shapes.append(
                        OrderShape(spec, H.ordered_lts(n), formula, declared, (a, b), values))
        assert len(self.shapes) == 10
        self.rows = 0
        self.row: list = []
        self._next_row()

    def prepare(self, i: int) -> OrderQuery:
        if not self.row:
            self._next_row()
        shape, u, v = self.row.pop()
        a, b = shape.slots
        env = {**shape.slot_env(a, u), **shape.slot_env(b, v)}
        return OrderQuery(shape.compiled, u, v, env, shape.compiled.stats.subformula_evals)

    def _next_row(self) -> None:
        if self.rows % (len(self.shapes) * self.ROWS_PER_PASS) == 0:
            for shape in self.shapes:
                shape.compile()
        shape = self.shapes[self.rows % len(self.shapes)]
        self.rows += 1
        # u runs through a seeded permutation of the shape's values, so
        # every run sees nearly the same mix of cheap and costly rows
        if not shape.pending:
            shape.pending = list(shape.values)
            self.rng.shuffle(shape.pending)
        u = shape.pending.pop()
        vs = list(shape.values)
        self.rng.shuffle(vs)
        self.row = [(shape, u, v) for v in vs]

    def call(self, inp: OrderQuery) -> bool:
        return inp.compiled(inp.env)

    def check(self, inp: OrderQuery, answer: bool) -> dict:
        if answer != (H.canonical_compare(inp.u, inp.v) < 0):
            raise CaseFailure("order formula answers %s on %r < %r" % (answer, inp.u, inp.v))
        stats = inp.compiled.stats
        return {
            "evaluator.subformula_evals": stats.subformula_evals - inp.evals_before,
            "evaluator.peak_live_values": stats.peak_live_values,
        }


WORKLOADS = {w.name: w for w in (ReplayN5, WordsN3, Reparse, OrderQueries)}
