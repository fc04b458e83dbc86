"""The command line surface: exit codes, streams and file handling."""

import json
import sys

import pytest

from hopfp.cli import run_cli
from hopfp.compiler import CodingContext, ReductionParams, build_machine_formula
from hopfp.evaluator import RECURSION_LIMIT, evaluate
from hopfp.frontend import format_lts, format_tm, parse_formula
from hopfp.lts import ordered_lts

from _fresh import run_fresh
from _machines import M_FIRST1, M_LASTPROP, M_LOOP, M_SWEEP

T3 = ordered_lts(3, (), ("p",), labels={(2, "p")})


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


@pytest.fixture
def lts_file(files):
    return files("t3.lts", format_lts(T3))


@pytest.fixture
def tm_file(files):
    return files("first1.tm", format_tm(M_FIRST1))


# -- typecheck --------------------------------------------------------------


def test_typecheck_reports_the_order(files, capsys):
    f = files("f.hof", "(exists ((x o)) (prop p x))")
    assert run_cli(["typecheck", "--formula", f]) == 0
    assert capsys.readouterr().out == "order: 1\n"
    g = files("g.hof", "(exists ((X (set o))) (app X x))")
    assert run_cli(["typecheck", "--formula", g]) == 2
    h = files("h.hof", "(forall ((X (set o))) (exists ((x o)) (app X x)))")
    assert run_cli(["typecheck", "--formula", h]) == 0
    assert capsys.readouterr().out.endswith("order: 2\n")


def test_typecheck_rejects_bad_text(files, capsys):
    for text, err in (
        ("(and (prop p)", "error: line 1, col 1: unclosed parenthesis\n"),
        ("(or tt\n  (bogus x))", "error: line 2, col 3: unknown connective 'bogus'\n"),
    ):
        assert run_cli(["typecheck", "--formula", files("bad.hof", text)]) == 2
        assert capsys.readouterr().err == err


# -- eval -------------------------------------------------------------------


def test_eval_true_on_any_system(files, lts_file, capsys):
    f = files("tt.hof", "tt")
    assert run_cli(["eval", "--lts", lts_file, "--formula", f]) == 0
    assert capsys.readouterr().out == "true\n"


def test_eval_exit_code_is_the_verdict(files, lts_file, capsys):
    f = files("p.hof", "(prop p x)")
    assert run_cli(["eval", "--lts", lts_file, "--formula", f, "--env", "x=s2"]) == 0
    assert run_cli(["eval", "--lts", lts_file, "--formula", f, "--env", "x=s0"]) == 1
    out = capsys.readouterr().out
    assert out == "true\nfalse\n"


def test_eval_matches_the_library_on_a_sample(files, lts_file):
    cases = [
        ("tt", True),
        ("(not tt)", False),
        ("(exists ((x o)) (prop p x))", True),
        ("(forall ((x o)) (prop p x))", False),
        ("(exists ((x o) (y o)) (act < x y))", True),
        ("(forall ((X (set o))) (exists ((x o)) (app X x)))", False),
    ]
    for i, (text, want) in enumerate(cases):
        assert evaluate(T3, parse_formula(text)) is want
        f = files("case%d.hof" % i, text)
        assert run_cli(["eval", "--lts", lts_file, "--formula", f]) == (
            0 if want else 1
        )


def test_eval_set_environment_binding(files, lts_file):
    f = files("member.hof", "(app X x)")
    args = ["eval", "--lts", lts_file, "--formula", f]
    assert run_cli(args + ["--env", "X=(set s0 s1)", "--env", "x=s0"]) == 0
    assert run_cli(args + ["--env", "X=(set s0 s1)", "--env", "x=s2"]) == 1


def test_eval_binds_a_set_of_sets_holding_the_empty_set(files, lts_file, capsys):
    # the empty set sorts first, so the element type comes from a later member
    f = files("has_empty.hof", "(exists ((Y (set o))) (and (app X Y) (not (exists ((y o)) (app Y y)))))")
    args = ["eval", "--lts", lts_file, "--formula", f]
    assert run_cli(args + ["--env", "X=(set (set) (set s0))"]) == 0
    assert run_cli(args + ["--env", "X=(set (set s0) (set s1 s2))"]) == 1
    # no member has an inferable type
    assert run_cli(args + ["--env", "X=(set (set))"]) == 2
    assert "cannot infer the element type of an empty set" in capsys.readouterr().err


def test_eval_stats_record(files, lts_file, capsys):
    f = files("q.hof", "(exists ((x o)) (prop p x))")
    assert run_cli(["eval", "--lts", lts_file, "--formula", f, "--stats"]) == 0
    lines = capsys.readouterr().out.splitlines()
    record = json.loads(lines[1])
    assert set(record) == {"pfp_iterations", "subformula_evals", "peak_live_values"}
    assert record["subformula_evals"] > 0


def test_eval_usage_errors(files, lts_file, capsys):
    f = files("p.hof", "(prop p x)")
    # unbound free variable, malformed binding, unknown state
    assert run_cli(["eval", "--lts", lts_file, "--formula", f]) == 2
    assert run_cli(["eval", "--lts", lts_file, "--formula", f, "--env", "x"]) == 2
    assert run_cli(["eval", "--lts", lts_file, "--formula", f, "--env", "x=zz"]) == 2
    assert run_cli(["eval", "--lts", lts_file, "--formula", "/no/such/file"]) == 2
    assert capsys.readouterr().err.count("error:") == 4


def test_eval_reports_the_checker_first_typing_error(files, lts_file, capsys):
    # a typing error behind a quantifier over too large a domain, and two
    # under a guarded block that runs its conjunct over x and y first
    behind_budget = files("b.hof", "(or (exists ((R (set (tuple o o)))) tt) "
                                   "(exists ((x o)) (prop p y)))")
    block = files("g.hof", "(exists ((S (set (tuple o o))) (Z (set o))) (and tt "
                           "(exists ((x o) (y o)) (and (app S x y) (prop p Z) (app x y)))))")
    for f, err in (
        (behind_budget, "error: unbound variable 'y' in proposition atom\n"),
        (block, "error: proposition 'p' needs a ground variable, 'Z' has type set(o)\n"),
    ):
        assert run_cli(["eval", "--lts", lts_file, "--formula", f, "--budget", "100"]) == 2
        assert capsys.readouterr().err == err


def test_eval_budget_errors(files, lts_file, capsys):
    f = files("big.hof", "(exists ((X (set o))) (app X x))")
    args = ["eval", "--lts", lts_file, "--formula", f, "--env", "x=s0"]
    assert run_cli(args) == 0
    assert run_cli(args + ["--budget", "4"]) == 3
    assert run_cli(args + ["--space-budget", "1"]) == 3
    assert capsys.readouterr().err.count("budget:") == 2


# -- simulate ---------------------------------------------------------------


def test_simulate_prints_steps_and_space(tm_file, capsys):
    assert run_cli(["simulate", "--tm", tm_file, "--word", "10"]) == 0
    assert capsys.readouterr().out == "steps: 1\nspace: 1\n"
    assert run_cli(["simulate", "--tm", tm_file, "--word", "01"]) == 1


def test_simulate_reports_loops(files, capsys):
    f = files("loop.tm", format_tm(M_LOOP))
    assert run_cli(["simulate", "--tm", f, "--word", ""]) == 1
    assert "looped" in capsys.readouterr().out


def test_simulate_step_budget(files, capsys):
    f = files("sweep.tm", format_tm(M_SWEEP))
    assert run_cli(["simulate", "--tm", f, "--word", "1111", "--max-steps", "2"]) == 3
    assert "budget:" in capsys.readouterr().err


# -- compile-tm -------------------------------------------------------------


def test_compile_tm_output_evaluates(tm_file, lts_file, tmp_path, capsys):
    out = tmp_path / "first1.hof"
    code = run_cli(
        ["compile-tm", "--tm", tm_file, "--k", "1", "--c", "1",
         "--word", "10", "-o", str(out)]
    )
    assert code == 0
    phi = parse_formula(out.read_text())
    assert evaluate(ordered_lts(3), phi) is True
    ctx = CodingContext(ordered_lts(3), M_FIRST1, ReductionParams(1, 1))
    assert phi is build_machine_formula(ctx, "10")
    assert run_cli(["typecheck", "--formula", str(out)]) == 0
    assert run_cli(["eval", "--lts", lts_file, "--formula", str(out)]) == 0
    assert capsys.readouterr().out == "order: 2\ntrue\n"
    # default output stream is stdout
    assert run_cli(["compile-tm", "--tm", tm_file, "--k", "1", "--c", "1",
                    "--word", "01"]) == 0
    text = capsys.readouterr().out
    assert evaluate(ordered_lts(3), parse_formula(text)) is False
    out.write_text(text)
    assert run_cli(["eval", "--lts", lts_file, "--formula", str(out)]) == 1


def test_compile_tm_word_and_lts_exclude_each_other(tm_file, lts_file):
    with pytest.raises(SystemExit) as err:
        run_cli(["compile-tm", "--tm", tm_file, "--k", "1", "--c", "1",
                 "--word", "1", "--lts", lts_file])
    assert err.value.code == 2


# -- crossval ---------------------------------------------------------------


def test_crossval_agree_accept(tm_file, capsys):
    code = run_cli(["crossval", "--tm", tm_file, "--k", "1", "--c", "1",
                    "--word", "10"])
    assert code == 0
    assert capsys.readouterr().out == "agree: accept\n"


def test_crossval_agree_reject_with_stages(tm_file, capsys):
    code = run_cli(["crossval", "--tm", tm_file, "--k", "1", "--c", "1",
                    "--word", "01", "--stages"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("agree: reject\n")
    assert "stages: match, outcome stabilized" in out


def test_crossval_stats_records(tm_file, capsys):
    code = run_cli(["crossval", "--tm", tm_file, "--k", "1", "--c", "1",
                    "--word", "10", "--stats"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    report = json.loads(lines[1])
    assert report["mode"] == "synthetic" and report["agree"] is True
    counters = json.loads(lines[2])
    assert counters["pfp_iterations"] > 0


def test_crossval_space_budget(tm_file, capsys):
    args = ["crossval", "--tm", tm_file, "--k", "1", "--c", "1", "--word", "10"]
    assert run_cli(args + ["--space-budget", "10000"]) == 0
    assert run_cli(args + ["--space-budget", "20"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "agree: accept\n"
    assert "budget: " in captured.err
    assert "exceed the space budget of 20" in captured.err


def test_crossval_encoded_mode_too_small(tm_file, files, capsys):
    # an encoding of a 3 state system cannot fit its own 8 cell tape
    f = files("t3.lts", format_lts(ordered_lts(3)))
    code = run_cli(["crossval", "--tm", tm_file, "--k", "1", "--c", "1",
                    "--lts", f])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_crossval_size_must_match_the_system(files, capsys):
    # a host this reader fits, so only the disagreeing --n is at fault
    tm = files("lastprop.tm", format_tm(M_LASTPROP))
    host = files("t6.lts", format_lts(ordered_lts(6, (), ("p",), labels={(5, "p")})))
    code = run_cli(["crossval", "--tm", tm, "--k", "1", "--c", "1",
                    "--lts", host, "--n", "7"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: requested system size 7, but the given system has 6 states\n")


def test_crossval_geometry_too_small(tm_file, capsys):
    code = run_cli(["crossval", "--tm", tm_file, "--k", "1", "--c", "1",
                    "--word", "1", "--n", "2"])
    assert code == 2
    assert "at least 3" in capsys.readouterr().err


# -- domain-size ------------------------------------------------------------


def test_domain_size_examples(capsys):
    assert run_cli(["domain-size", "--type", "(set o)", "--n", "3"]) == 0
    assert run_cli(["domain-size", "--type", "o", "--n", "5"]) == 0
    assert run_cli(["domain-size", "--type", "(set (set (set o)))", "--n", "2"]) == 0
    assert capsys.readouterr().out == "8\n5\n65536\n"


def test_recursion_depth_stop_names_the_limit(files, lts_file, capsys):
    # reading, checking and ordering walk iteratively; compiling recurses
    # per level
    depth = 2 * max(sys.getrecursionlimit(), RECURSION_LIMIT)
    f = files("deep.hof", "(not " * depth + "tt" + ")" * depth)
    assert run_cli(["typecheck", "--formula", f]) == 0
    assert capsys.readouterr().out == "order: 1\n"
    # a fresh interpreter keeps the default limit of 1000 frames, which
    # compiling in this one may have raised
    g = files("deep-type.hof", "(exists ((x " + "(set " * 3000 + "o" + ")" * 3000 + ")) tt)")
    proc = run_fresh("-m", "hopfp.cli", "typecheck", "--formula", g)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "order: 3001\n", "")
    assert run_cli(["eval", "--lts", lts_file, "--formula", f]) == 3
    err = capsys.readouterr().err
    assert err.count("budget: recursion depth limit of %d reached" % sys.getrecursionlimit()) == 1


def test_domain_size_budget(capsys):
    t = "(set (set (set (set (set o)))))"
    assert run_cli(["domain-size", "--type", t, "--n", "3"]) == 3
    assert "budget:" in capsys.readouterr().err


def test_deep_domain_size_is_a_size_budget_stop():
    # sizes are built bottom-up, so a type deeper than the default limit
    # of 1000 frames stops on its size, not on the recursion depth; a
    # fresh interpreter keeps that limit, which compiling here may raise
    t = "(set " * 1500 + "o" + ")" * 1500
    code = "import sys; from hopfp.cli import run_cli; sys.exit(run_cli(sys.argv[1:]))"
    proc = run_fresh("-c", code, "domain-size", "--type", t, "--n", "2")
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "budget: domain size exceeds 1048576 bits\n"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
def test_domain_size_past_the_digit_limit_is_a_budget_stop(capsys):
    # 2^(2^13) has 2,467 decimal digits and 2^(2^14) 4,933
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert run_cli(["domain-size", "--type", "(set (set o))", "--n", "13"]) == 0
        out = capsys.readouterr().out
        assert out == "%d\n" % (1 << (1 << 13)) and len(out) == 2467 + 1
        assert run_cli(["domain-size", "--type", "(set (set o))", "--n", "14"]) == 3
    finally:
        sys.set_int_max_str_digits(old)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "budget: domain size has more decimal digits than the interpreter's limit of 4300\n")


# -- plumbing ---------------------------------------------------------------


def test_usage_errors_exit_two():
    for argv in [[], ["frobnicate"], ["eval"], ["domain-size", "--type", "o", "--n", "0"]]:
        with pytest.raises(SystemExit) as err:
            run_cli(argv)
        assert err.value.code == 2


def test_module_entry_point(tm_file):
    proc = run_fresh("-m", "hopfp.cli", "simulate", "--tm", tm_file, "--word", "10")
    assert proc.returncode == 0
    assert proc.stdout == "steps: 1\nspace: 1\n"
