"""Command line front door.

Exit codes carry the verdict: 0 and 1 are the two answers of the
subcommand (true/false, accept/reject, agree/disagree), 2 reports a
usage, parse or typing problem and 3 a blown budget.  Everything a
script would consume goes to stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .compiler import ReductionParams, build_machine_formula, crossval, resolve_case
from .domains import (
    DEFAULT_ENUM_BUDGET,
    BudgetError,
    ConformanceError,
    Domain,
    domain_size,
)
from .evaluator import EvalStats, evaluate
from .frontend import (
    ParseError,
    format_formula,
    infer_value_type,
    parse_formula,
    parse_lts,
    parse_tm,
    parse_type,
    parse_value,
)
from .logic import TypingError, check_well_formed, formula_order
from .machine import run

EXIT_USAGE = 2
EXIT_BUDGET = 3


def _positive(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not an integer: %r" % text) from None
    if v <= 0:
        raise argparse.ArgumentTypeError("must be positive: %r" % text)
    return v


def _slurp(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit(text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _stats_record(stats: EvalStats) -> str:
    return json.dumps(
        {
            "pfp_iterations": stats.pfp_iterations,
            "subformula_evals": stats.subformula_evals,
            "peak_live_values": stats.peak_live_values,
        }
    )


def _parse_env(pairs, lts):
    env = {}
    ctx = {}
    for item in pairs or []:
        if "=" not in item:
            raise ParseError("--env takes NAME=VALUE, got %r" % item)
        name, literal = item.split("=", 1)
        value = parse_value(literal, lts)
        env[name] = value
        ctx[name] = infer_value_type(value)
    return env, ctx


def _machine_case(args: argparse.Namespace):
    """Machine, coding shape and optional host system of compile-tm and crossval."""
    machine = parse_tm(_slurp(args.tm))
    lts = parse_lts(_slurp(args.lts)) if args.lts is not None else None
    return machine, ReductionParams(args.k, args.c), lts


def cmd_typecheck(args: argparse.Namespace) -> int:
    formula = check_well_formed(parse_formula(_slurp(args.formula)))
    print("order: %d" % formula_order(formula))
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    lts = parse_lts(_slurp(args.lts))
    formula = parse_formula(_slurp(args.formula))
    env, ctx = _parse_env(args.env, lts)
    stats = EvalStats()
    verdict = evaluate(
        lts,
        formula,
        env=env or None,
        ctx=ctx or None,
        budget=args.budget,
        stats=stats,
        live_budget=args.space_budget,
    )
    print("true" if verdict else "false")
    if args.stats:
        print(_stats_record(stats))
    return 0 if verdict else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    machine = parse_tm(_slurp(args.tm))
    result = run(machine, args.word, args.max_steps)
    print("steps: %d" % result.steps)
    print("space: %d" % result.space)
    if result.looped:
        print("looped")
    return 0 if result.accepted else 1


def cmd_compile_tm(args: argparse.Namespace) -> int:
    machine, params, lts = _machine_case(args)
    _, ctx, word = resolve_case(machine, params, lts, args.word, args.n)
    _emit(format_formula(build_machine_formula(ctx, word)), args.output)
    return 0


def cmd_crossval(args: argparse.Namespace) -> int:
    machine, params, lts = _machine_case(args)
    stats = EvalStats()
    report = crossval(
        machine,
        params,
        lts=lts,
        word=args.word,
        n=args.n,
        check_stages=args.stages,
        budget=args.budget,
        max_steps=args.max_steps,
        stats=stats,
        live_budget=args.space_budget,
    )
    machine_says = "accept" if report.machine_accepted else "reject"
    if report.agree:
        print("agree: %s" % machine_says)
    else:
        formula_says = "accept" if report.formula_accepted else "reject"
        print("disagree: machine=%s formula=%s" % (machine_says, formula_says))
    if args.stages:
        print(
            "stages: %s, outcome %s"
            % ("match" if report.stages_match else "mismatch", report.pfp_outcome)
        )
        if report.first_mismatch is not None:
            print("first mismatch at stage %d" % report.first_mismatch)
    if args.stats:
        print(json.dumps(report.to_record()))
        print(_stats_record(stats))
    return 0 if report.agree else 1


def cmd_domain_size(args: argparse.Namespace) -> int:
    size = domain_size(Domain(parse_type(args.type), args.n))
    try:
        text = str(size)
    except ValueError:
        # the interpreter bounds int to decimal conversion (sys.set_int_max_str_digits)
        raise BudgetError(
            "domain size has more decimal digits than the interpreter's limit of %d"
            % sys.get_int_max_str_digits()
        ) from None
    print(text)
    return 0


def _add_machine_case(p: argparse.ArgumentParser) -> None:
    """The options that _machine_case reads."""
    p.add_argument("--tm", required=True, help="machine file")
    p.add_argument("--k", required=True, type=_positive, help="tower height")
    p.add_argument("--c", required=True, type=_positive, help="tuple width")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--word", help="synthetic input word")
    group.add_argument("--lts", help="system whose encoding becomes the word")
    p.add_argument("--n", type=_positive, default=None,
                   help="host system size for synthetic words")


def _add_budgets(p: argparse.ArgumentParser) -> None:
    """The domain and space budgets of eval and crossval."""
    p.add_argument("--budget", type=_positive, default=DEFAULT_ENUM_BUDGET,
                   help="largest domain a quantifier may sweep")
    p.add_argument("--space-budget", type=_positive, default=None,
                   help="cap on simultaneously live values")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfp",
        description="Evaluate fixpoint formulas over finite systems and "
        "cross-check compiled machines against direct simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("typecheck", help="parse a formula and report its order")
    p.add_argument("--formula", required=True, help="formula file, - for stdin")
    p.set_defaults(func=cmd_typecheck)

    p = sub.add_parser("eval", help="truth of a formula on a system")
    p.add_argument("--lts", required=True, help="system file")
    p.add_argument("--formula", required=True, help="formula file, - for stdin")
    p.add_argument(
        "--env",
        action="append",
        metavar="NAME=VALUE",
        help="binding for a free variable; the value is a state name, "
        "(tuple ...) or (set ...) literal",
    )
    _add_budgets(p)
    p.add_argument("--stats", action="store_true",
                   help="print one JSON record of evaluation counters")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simulate", help="run a machine on a word")
    p.add_argument("--tm", required=True, help="machine file")
    p.add_argument("--word", required=True, help="input word, may be empty")
    p.add_argument("--max-steps", type=_positive, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compile-tm", help="emit the formula for a machine run")
    _add_machine_case(p)
    p.add_argument("-o", "--output", default=None, help="write here, - for stdout")
    p.set_defaults(func=cmd_compile_tm)

    p = sub.add_parser("crossval", help="compare formula truth with simulation")
    _add_machine_case(p)
    p.add_argument("--stages", action="store_true",
                   help="also compare every fixpoint stage with the run")
    _add_budgets(p)
    p.add_argument("--max-steps", type=_positive, default=None)
    p.add_argument("--stats", action="store_true",
                   help="print the full report and counters as JSON records")
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("domain-size", help="cardinality of a type's domain")
    p.add_argument("--type", required=True, help='type text, e.g. "(set o)"')
    p.add_argument("--n", required=True, type=_positive, help="system size")
    p.set_defaults(func=cmd_domain_size)

    return parser


def run_cli(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # PreconditionError and NotAnEncoding are ValueErrors
    except (ParseError, TypingError, ConformanceError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except RecursionError as exc:
        print("budget: recursion depth limit of %d reached: %s"
              % (sys.getrecursionlimit(), exc), file=sys.stderr)
        return EXIT_BUDGET
    except (BudgetError, MemoryError) as exc:
        print("budget: %s" % exc, file=sys.stderr)
        return EXIT_BUDGET


def main() -> int:
    return run_cli(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
