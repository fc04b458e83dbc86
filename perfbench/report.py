"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/report.py [--seeds 1-10] [--trace 0|1]
    python3 perfbench/report.py --baseline perfbench/baseline.json

Each run is a separate process (perfbench/run.py) over every workload of
BENCHMARK.json, for its run_seconds.  For every workload and metric the
table gives the median over the seeds, the quartiles and the spread,
which is the distance between the quartiles as a share of the median,
next to the bound from BENCHMARK.json.  failed_frac is the failed share
of all attempted cases.

--baseline measures the whole baseline from the current sources and
writes it afresh to that JSON file: two sets of untraced runs over
BASELINE_SEEDS, then traced runs over TRACED_SEEDS, together with why
each workload exists and which end-to-end metric each layer metric
should move.  It also compares the medians of the two untraced sets
against the bounds and exits 1 when one moved by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# layer metric -> end-to-end metric it should move -> workload, as
# predicted before any optimisation; "none" means it should move nothing
LAYER_MAP = [
    ("evaluator.pfp_s", "case_p50_s, cases_per_s", "replay-n5",
     "pfp_s + eval_s are over 95% of a case; about half of one on words-n3"),
    ("evaluator.eval_s", "case_p50_s, cases_per_s", "replay-n5",
     "also reparse, through the two c07 evaluations; no fixpoint on order-queries"),
    ("evaluator.compile_s", "case_p50_s", "words-n3", ""),
    ("evaluator.member_yield", "case_p50_s", "replay-n5",
     "stage members per tested tuple: the waste set-at-a-time stages remove"),
    ("logic.check_s", "cases_per_s", "reparse",
     "checking the reparsed c08 formula; also case_p50_s on words-n3"),
    ("logic.dag_nodes", "cases_per_s", "reparse", "with logic.tree_nodes, the sharing lost by reparsing"),
    ("frontend.parse_s", "cases_per_s", "reparse", "reparse only"),
    ("frontend.format_s", "cases_per_s", "reparse", "reparse only"),
    ("domains.index_s", "case_p50_s", "order-queries", "the only workload where domains carries cost"),
    ("orders.build_s", "case_p50_s", "words-n3", "sub-millisecond; recorded to catch growth"),
    ("compiler.build_s", "case_p50_s", "words-n3", "about 5 ms of an 80 ms case; nothing on replay-n5"),
    ("compiler.stage_check_s", "case_p50_s", "words-n3", "nothing on replay-n5"),
    ("compiler.self_s", "case_p50_s", "words-n3", "nothing on replay-n5"),
    ("machine.run_s", "none", "all", "below 1 ms everywhere"),
]


BASELINE_SEEDS = list(range(1, 11))
TRACED_SEEDS = [1, 2, 3]


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_one(workload: str, seed: int, seconds, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit("%s seed %d exited %d:\n%s" % (workload, seed, proc.returncode, proc.stderr))
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
    return {"env": env, "result": json.loads(lines[-1])}


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def measure(bench: dict, seeds: list, trace: int) -> tuple:
    """Run every workload over seeds; print and return the summary."""
    metrics = bench["per_layer"] if trace else bench["end_to_end"]
    summary = {}
    all_correct = True
    for w in bench["workloads"]:
        workload = w["name"]
        runs = [run_one(workload, seed, bench["run_seconds"], trace) for seed in seeds]
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        correct = all(r["result"]["correct"] for r in runs)
        all_correct = all_correct and correct
        print("%s: %d runs, correct %s, failed_frac %.6g (%d of %d cases), calib_s median %.4f"
              % (workload, len(runs), correct, failed / attempted, failed, attempted,
                 statistics.median(r["env"]["calib_s"] for r in runs)))
        rows = {}
        for m in metrics:
            s = summarise([r["result"]["metrics"][m["name"]]["value"] for r in runs])
            rows[m["name"]] = dict(s, unit=m["unit"])
            bound = m.get("bound")
            flag = "" if bound is None or s["spread"] <= bound / 3 else "  <- above bound/3"
            print("  %-28s %-6s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.3f%s%s"
                  % (m["name"], m["unit"], s["median"], s["q1"], s["q3"], s["spread"],
                     "" if bound is None else " bound %.2f" % bound, flag))
        summary[workload] = {
            "env": {k: runs[0]["env"][k] for k in ("python", "cpu_count", "commit", "sources")},
            "seeds": seeds,
            "seconds": bench["run_seconds"],
            "correct": correct,
            "failed_frac": failed / attempted,
            "calib_s": [r["env"]["calib_s"] for r in runs],
            "metrics": rows,
        }
        sys.stdout.flush()
    return summary, all_correct


def moved(bench: dict, first: dict, second: dict) -> bool:
    """Print how far each median moved from the first set to the second."""
    worse = {"lower": 1, "higher": -1}
    ok = True
    print("second set against the first:")
    for workload in first:
        for m in bench["end_to_end"]:
            a = first[workload]["metrics"][m["name"]]["median"]
            b = second[workload]["metrics"][m["name"]]["median"]
            change = worse[m["better"]] * (b - a) / a
            over = change > m["bound"]
            ok = ok and not over
            print("  %-14s %-14s %+.3f worse, bound %.2f%s"
                  % (workload, m["name"], change, m["bound"], "  <- over" if over else ""))
    return ok


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--baseline", help="measure the baseline and write it to this JSON file")
    args = p.parse_args(argv)
    if not args.baseline:
        _, correct = measure(bench, parse_seeds(args.seeds), args.trace)
        return 0 if correct else 1

    print("== end_to_end")
    first, correct_a = measure(bench, BASELINE_SEEDS, 0)
    print("== end_to_end_repeat")
    second, correct_b = measure(bench, BASELINE_SEEDS, 0)
    print("== per_layer")
    traced, correct_t = measure(bench, TRACED_SEEDS, 1)
    steady = moved(bench, first, second)
    sets = {"end_to_end": first, "end_to_end_repeat": second, "per_layer": traced}
    base = {
        "layer_map": [
            {"layer_metric": a, "end_to_end": b, "workload": c, "note": d}
            for a, b, c, d in LAYER_MAP
        ],
        "workloads": {
            w["name"]: dict({key: got[w["name"]] for key, got in sets.items()}, why=w["why"])
            for w in bench["workloads"]
        },
    }
    Path(args.baseline).write_text(json.dumps(base, indent=1, sort_keys=True) + "\n")
    return 0 if correct_a and correct_b and correct_t and steady else 1


if __name__ == "__main__":
    sys.exit(main())
