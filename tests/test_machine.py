"""Machine normalization, stepping, runs and the system encoding."""

import itertools
import random

import pytest

from _machines import M_ACC, M_FIRST1, M_LOOP, M_PARITY, M_REJ, M_SWEEP, _tm
from hopfp.domains import BudgetError
from hopfp.lts import ordered_lts
from hopfp.machine import Configuration, TmSpec, encode_lts, run


class TestSpecValidation:
    def test_halting_rules_filled_in(self):
        for s in ("0", "1", "_"):
            assert M_ACC.delta[("qa", s)] == ("qa", s, "N")
            assert M_ACC.delta[("qr", s)] == ("qr", s, "N")

    def test_halting_rules_must_keep_configuration(self):
        with pytest.raises(ValueError):
            _tm(("qa", "qr"), "qa", {("qa", "1"): ("qr", "1", "N")})
        with pytest.raises(ValueError):
            _tm(("qa", "qr"), "qa", {("qa", "1"): ("qa", "1", "R")})

    def test_totality_enforced(self):
        with pytest.raises(ValueError):
            _tm(("q0", "qa", "qr"), "q0", {("q0", "1"): ("qa", "1", "N")})

    def test_vocabulary_checks(self):
        with pytest.raises(ValueError):
            _tm(("q0", "qa", "qr"), "q0", {("q0", "x"): ("qa", "1", "N")})
        with pytest.raises(ValueError):
            _tm(("qa", "qr"), "missing", {})
        with pytest.raises(ValueError):
            TmSpec(("qa", "qr"), ("0",), ("0", "_"), "_", "qa", "qa", "qa", {})
        with pytest.raises(ValueError):
            TmSpec(("qa", "qr"), ("0", "_"), ("0", "_"), "_", "qa", "qa", "qr", {})
        with pytest.raises(ValueError):
            TmSpec(("qa", "qr"), ("ab",), ("ab", "_"), "_", "qa", "qa", "qr", {})

    def test_word_symbols_checked(self):
        with pytest.raises(ValueError):
            M_ACC.initial_configuration("2")
        with pytest.raises(ValueError):
            M_ACC.initial_configuration("_")


class TestStepping:
    def test_left_at_the_wall_stays(self):
        m = _tm(
            ("q0", "qa", "qr"),
            "q0",
            {("q0", s): ("qa", s, "L") for s in ("0", "1", "_")},
        )
        out = m.step(m.initial_configuration("1"))
        assert out.head == 0

    def test_halting_configuration_is_fixed(self):
        final = run(M_FIRST1, "10").final
        assert M_FIRST1.step(final) == final

    def test_trailing_blanks_trimmed(self):
        m = _tm(
            ("q0", "qa", "qr"),
            "q0",
            {
                ("q0", "1"): ("qa", "_", "N"),
                ("q0", "0"): ("qr", "0", "N"),
                ("q0", "_"): ("qr", "_", "N"),
            },
        )
        out = run(m, "1")
        assert out.final.tape == ()
        assert out.accepted


class TestRuns:
    def test_immediate_accept_and_reject(self):
        for word in ("", "0", "1101"):
            a = run(M_ACC, word)
            assert a.accepted and a.steps == 0 and a.space == 1
            r = run(M_REJ, word)
            assert not r.accepted and r.steps == 0

    def test_first_symbol_machine(self):
        assert run(M_FIRST1, "1").accepted
        assert run(M_FIRST1, "10").accepted
        assert not run(M_FIRST1, "01").accepted
        assert not run(M_FIRST1, "").accepted
        assert run(M_FIRST1, "111").space == 1

    def test_sweep_machine(self):
        out = run(M_SWEEP, "1111")
        assert out.accepted
        assert out.steps == 5
        assert out.space == 5
        assert run(M_SWEEP, "").accepted
        bad = run(M_SWEEP, "110")
        assert not bad.accepted
        assert bad.space == 3

    def test_parity_machine_against_counting(self):
        for k in range(6):
            for bits in itertools.product("01", repeat=k):
                w = "".join(bits)
                assert run(M_PARITY, w).accepted == (w.count("1") % 2 == 0), w

    def test_loop_detection(self):
        out = run(M_LOOP, "1")
        assert out.looped
        assert not out.accepted
        # the run ends at the first repeat, which it keeps
        assert out.final in out.configs[:-1]

    def test_step_budget(self):
        with pytest.raises(BudgetError):
            run(M_SWEEP, "1" * 10, max_steps=5)
        # the budget bounds the steps taken: a run of exactly that many passes
        steps = run(M_SWEEP, "11").steps
        assert run(M_SWEEP, "11", max_steps=steps).steps == steps
        with pytest.raises(BudgetError):
            run(M_SWEEP, "11", max_steps=steps - 1)

    def test_iter_run_lists_all_configurations(self):
        out = run(M_SWEEP, "11")
        confs = out.configs
        assert len(confs) == out.steps + 1
        assert confs[0] == Configuration("q0", 0, ("1", "1"))
        assert all(M_SWEEP.step(a) == b for a, b in zip(confs, confs[1:]))
        assert confs[-1].state == "qa"


class TestEncoding:
    def test_golden_strings(self):
        assert encode_lts(ordered_lts(2, props=("p",), labels=((1, "p"),))) == "11#0100#01#"
        assert encode_lts(ordered_lts(1)) == "1#0#"
        assert encode_lts(ordered_lts(2, actions=("a",), edges=((1, "a", 0),))) == "11#0100#0010#"

    def test_sections_in_code_point_order(self):
        T = ordered_lts(2, actions=("b", "a"), edges=((0, "a", 1), (1, "b", 0)))
        # '<' before 'a' before 'b'
        assert encode_lts(T) == "11#0100#0100#0010#"

    def test_length_formula(self):
        for seed in range(20):
            rng = random.Random(seed)
            n = rng.randint(1, 5)
            acts = tuple(sorted({rng.choice("abc") for _ in range(rng.randint(0, 3))}))
            props = tuple(sorted({rng.choice("pq") for _ in range(rng.randint(0, 2))}))
            edges = [
                (i, a, j)
                for i in range(n)
                for j in range(n)
                for a in acts
                if rng.random() < 0.3
            ]
            labels = [(i, p) for i in range(n) for p in props if rng.random() < 0.5]
            T = ordered_lts(n, actions=acts, props=props, edges=edges, labels=labels)
            enc = encode_lts(T)
            a_count = len(acts) + 1
            assert len(enc) == n + 1 + a_count * (n * n + 1) + len(props) * (n + 1)
            assert set(enc) <= {"0", "1", "#"}
