"""Run one benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N [--seconds S] --trace 0|1

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's src directory.  Workloads: replay-n5,
words-n3, reparse, order-queries (see perfbench/README.md).

Each run is one client in one process: a case starts when the previous
one has returned and been checked.  --seconds defaults to run_seconds in
BENCHMARK.json.  With --trace 0 the run reports the end-to-end metrics;
with --trace 1 every case runs untraced and then at once again, with
spans around every call between modules, on a second set-up of the same
seed, and the run reports per-layer metrics and the tracing overhead.  Human-readable lines come first; the last line
of stdout is one JSON object with correct, attempted, failed and
metrics.  A run whose cases fail, or whose counters differ from an
earlier run of the same seed and sources, reports correct false.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# set-ups timed per run, each in a fresh process, spread evenly over the
# run between cases, so that their median averages over the host's slow
# and fast spells as the cases do; setup_s is their median
SETUP_PROBES = 12
# per-case counters kept for the repeat check against earlier runs
KEPT_CASES = 200
# in a traced run, net new objects after which garbage is collected
GC_GROWTH = 20000
# evaluator counters that the CLI's --stats record also prints
STATS_KEYS = ("pfp_iterations", "subformula_evals", "peak_live_values")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float,
                   default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set the workload up, print ready and exit")
    return p.parse_args(argv)


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop, to spot a slow host phase."""
    t = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x = (x * 31 + i) & 0xFFFF
    return time.perf_counter() - t


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def fingerprint() -> str:
    """Digest of the sources that decide a run's inputs and counters."""
    h = hashlib.sha256()
    mine = [HERE / name for name in ("run.py", "tracing.py", "workloads.py")]
    for path in sorted(SRC.glob("hopfp/*.py")) + mine:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:12]


def probe_setup(args) -> float:
    """Wall seconds from starting a fresh process to its first case."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    t = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        took = time.perf_counter() - t
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError("set-up probe failed with exit code %s" % code)
    return took


@dataclass
class Pass:
    """What one closed loop over cases observed."""

    lat: list = field(default_factory=list)  # seconds per case
    kept: list = field(default_factory=list)  # counters of the first cases, None if failed
    totals: Counter = field(default_factory=Counter)
    peak_live: int = 0
    failures: list = field(default_factory=list)
    wall: float = 0.0

    def add(self, counters) -> None:
        if len(self.kept) < KEPT_CASES:
            self.kept.append(counters)
        for k, v in (counters or {}).items():
            if k == "evaluator.peak_live_values":
                self.peak_live = max(self.peak_live, v)
            else:
                self.totals[k] += v


def run_case(workload, i: int, seen: Pass, tracer=None) -> None:
    """Prepare, run and check case i of workload, and record it in seen.

    Only the call is timed, and only the call runs under the tracer.
    """
    from workloads import CaseFailure
    import hopfp

    inp = workload.prepare(i)
    if tracer is not None:
        tracer.case = i
        first_span = len(tracer.spans)
    clock = time.perf_counter
    with tracer or nullcontext():
        t = clock()
        try:
            out = workload.call(inp)
            err = None
        except hopfp.BudgetError as exc:
            err = "budget stop: %s" % exc
        except RecursionError as exc:
            err = "recursion limit %d reached: %s" % (sys.getrecursionlimit(), exc)
        except Exception:
            err = traceback.format_exc()
        seen.lat.append(clock() - t)
    # taken even from a failed case, so that none of it counts in the next
    spanned = traced_counters(tracer, first_span) if tracer is not None else {}
    got = None
    if err is None:
        try:
            got = workload.check(inp, out)
        except CaseFailure as exc:
            err = str(exc)
    if err is not None:
        seen.failures.append("case %d: %s" % (i, err))
    else:
        got.update(spanned)
    seen.add(got)


def run_cases(seconds: float, *lanes, between=None) -> list:
    """Closed loop over cases until the time is used up.

    Each lane is a (workload, tracer or None) pair; case i runs on every
    lane in turn before case i + 1 starts.  Then between(done) is called
    with the share of the time used up; the time it takes does not count
    as time of the loop.  The loop stops at the end of a workload cycle.
    Returns one Pass per lane.
    """
    passes = [Pass() for _ in lanes]
    cycle = lanes[0][0].cycle
    clock = time.perf_counter
    began = clock()
    paused = 0.0
    i = 0
    while True:
        for (workload, tracer), seen in zip(lanes, passes):
            run_case(workload, i, seen, tracer)
        i += 1
        if between is not None:
            t = clock()
            between((t - began - paused) / seconds)
            paused += clock() - t
        if clock() - began - paused >= seconds and i % cycle == 0:
            break
    for seen in passes:
        seen.wall = clock() - began - paused
    return passes


def traced_counters(tracer, first_span: int) -> dict:
    """Counters read from the spans and kept results of one case."""
    import hopfp
    from tracing import node_counts

    out = Counter()
    for name, *_ in tracer.spans[first_span:]:
        if name == "domains.canonical_index":
            out["domains.index_calls"] += 1
    for name, args, result in tracer.take_kept():
        if name == "logic.check_well_formed":
            tree, dag = node_counts(result)
            out["logic.tree_nodes"] += tree
            out["logic.dag_nodes"] += dag
        elif name == "evaluator.pfp_iterate":
            space = hopfp.domain_size(hopfp.Domain(result.elem_type, result.n))
            out["evaluator.stage_members"] += sum(len(s) for s in result.stages[1:])
            out["evaluator.stage_tuples"] += (len(result.stages) - 1) * space
        elif name == "frontend.parse_formula":
            out["frontend.parsed_bytes"] += len(args[0])
    return dict(out)


def tail(lat):
    """(percentile, value) of the highest percentile with ten samples beyond."""
    if len(lat) < 11:
        return None
    ordered = sorted(lat)
    return 100.0 * (len(lat) - 10) / len(lat), ordered[-11]


def repeat_check(args, kept, tag: str) -> list:
    """Compare per-case counters with an earlier run of this seed and source."""
    OUT.mkdir(exist_ok=True)
    path = OUT / ("counters-%s-s%d-t%d-%s.json" % (args.workload, args.seed, args.trace, tag))
    if not path.is_file():
        path.write_text(json.dumps(kept))
        return []
    earlier = json.loads(path.read_text())
    for i, (a, b) in enumerate(zip(earlier, kept)):
        if a != b:
            return ["case %d counters %s differ from an earlier run of this seed: %s"
                    % (i, b, a)]
    return []


def cli_stats_check(workload_cls, seed: int, first: dict) -> list:
    """The CLI's --stats counters for case 0 equal the library call's."""
    import hopfp

    inp = workload_cls(seed).prepare(0)
    cmd = [sys.executable, "-m", "hopfp.cli", "crossval", "--tm", "-", "--k", "1",
           "--c", "1", "--n", str(workload_cls.host_size), "--word", inp.word, "--stats"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(cmd, input=hopfp.format_tm(inp.machine), capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=120)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return ["hopfp.cli crossval --stats exited %d: %s" % (proc.returncode, proc.stderr)]
    report, stats = json.loads(lines[-2]), json.loads(lines[-1])
    want = {k: first["evaluator." + k] for k in STATS_KEYS}
    got = {k: stats[k] for k in STATS_KEYS}
    if got != want or report["machine_steps"] != first["machine.steps"]:
        return ["hopfp.cli crossval --stats gave %s, steps %s; the benchmark recorded %s"
                % (got, report["machine_steps"], first)]
    return []


def end_to_end(lat, wall, probes) -> dict:
    return {
        "setup_s": (statistics.median(probes), "s"),
        "cases_per_s": (len(lat) / wall, "1/s"),
        "case_p50_s": (statistics.median(lat), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def per_layer(tracer, untraced: Pass, traced: Pass) -> dict:
    from tracing import QUERY_SPAN, outermost_duration, self_times, span_cost

    lat_b = traced.lat
    n = len(lat_b)
    st = self_times(tracer.spans)

    def self_of(prefix):
        return sum(row[2] for name, row in st.items() if name.startswith(prefix))

    tot = traced.totals
    fixpoint_s = self_of("evaluator.pfp_iterate") + self_of(QUERY_SPAN)
    parse_s = self_of("frontend.parse_formula")
    rows = {
        "evaluator.pfp_s": (self_of("evaluator.pfp_iterate") / n, "s"),
        "evaluator.eval_s": (self_of(QUERY_SPAN) / n, "s"),
        "evaluator.compile_s": (self_of("evaluator.compile_formula") / n, "s"),
        "evaluator.self_s": (self_of("evaluator.") / n, "s"),
        "evaluator.subformula_evals": (tot["evaluator.subformula_evals"] / n, "count"),
        "evaluator.pfp_iterations": (tot["evaluator.pfp_iterations"] / n, "count"),
        "evaluator.peak_live_values": (traced.peak_live, "count"),
        "evaluator.tuples_tested": (tot["evaluator.tuples_tested"] / n, "count"),
        "evaluator.tuples_per_s": (
            tot["evaluator.tuples_tested"] / fixpoint_s if fixpoint_s else 0.0, "1/s"),
        "evaluator.member_yield": (
            tot["evaluator.stage_members"] / tot["evaluator.stage_tuples"]
            if tot["evaluator.stage_tuples"] else 0.0, "ratio"),
        "logic.check_s": (self_of("logic.") / n, "s"),
        "logic.tree_nodes": (tot["logic.tree_nodes"] / n, "count"),
        "logic.dag_nodes": (tot["logic.dag_nodes"] / n, "count"),
        "frontend.format_s": (self_of("frontend.format_formula") / n, "s"),
        "frontend.parse_s": (parse_s / n, "s"),
        "frontend.text_bytes": (tot["frontend.text_bytes"] / n, "bytes"),
        "frontend.parse_mb_per_s": (
            tot["frontend.parsed_bytes"] / parse_s / 1e6 if parse_s else 0.0, "MB/s"),
        "domains.index_s": (self_of("domains.") / n, "s"),
        "domains.index_calls": (tot["domains.index_calls"] / n, "count"),
        "orders.build_s": (self_of("orders.") / n, "s"),
        "compiler.build_s": (outermost_duration(tracer.spans, "compiler.build_") / n, "s"),
        "compiler.stage_check_s": (self_of("compiler.encode_stage") / n, "s"),
        "compiler.self_s": (self_of("compiler.crossval") / n, "s"),
        "machine.run_s": (self_of("machine.") / n, "s"),
        "machine.steps": (tot["machine.steps"] / n, "count"),
        "trace.case_s": (sum(lat_b) / n, "s"),
        "trace.overhead_s": (
            statistics.median(b - a for a, b in zip(untraced.lat, lat_b)), "s"),
        "trace.spans": (len(tracer.spans) / n, "count"),
    }
    layers = sorted({name.split(".")[0] for name in st})
    for layer in layers:
        print("self %-10s %.6f s/case" % (layer, self_of(layer + ".") / n))
    top = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    print("self %-10s %.6f s/case" % ("benchmark", (sum(lat_b) - top) / n))
    cost = span_cost()
    print("span cost %.3g s, times %.1f spans = %.3g s/case of tracing overhead"
          % (cost, len(tracer.spans) / n, cost * len(tracer.spans) / n))
    return rows


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hopfp" / "__init__.py").is_file():
        print("perfbench: no hopfp package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hopfp
    from workloads import WORKLOADS

    if Path(hopfp.__file__).resolve().parent != SRC / "hopfp":
        print("perfbench: hopfp imported from %s, not %s" % (hopfp.__file__, SRC),
              file=sys.stderr)
        return 2
    workload_cls = WORKLOADS.get(args.workload)
    if workload_cls is None:
        print("perfbench: unknown workload %r, choose from %s"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    if args.setup_probe:
        workload_cls(args.seed)
        print("ready", flush=True)
        return 0

    workload = workload_cls(args.seed)
    own_setup = time.perf_counter() - START
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "commit": git_commit(),
        "sources": fingerprint(),
        "calib_s": calibrate(),
        "own_setup_s": own_setup,
    }
    cpu0 = time.process_time()
    problems = []
    if args.trace == 0:
        probes = []

        def probe(done):
            while len(probes) < min(done, 1.0) * SETUP_PROBES:
                probes.append(probe_setup(args))

        (seen,) = run_cases(args.seconds, (workload, None), between=probe)
        probe(1.0)
        rows = end_to_end(seen.lat, seen.wall, probes)
        env["loop_wall_s"] = seen.wall
        failures = seen.failures
        attempted = len(seen.lat)
    else:
        from tracing import Tracer

        def collect(done):
            if gc.get_count()[0] > GC_GROWTH:
                gc.collect()

        # garbage is collected between the pairs of untraced and traced
        # case, never inside one, so that no collection lands on one side
        # of a pair only
        tracer = Tracer()
        gc.disable()
        try:
            untraced, seen = run_cases(
                args.seconds, (workload, None), (workload_cls(args.seed), tracer),
                between=collect)
        finally:
            gc.enable()
        failures = untraced.failures + seen.failures
        for i, (a, b) in enumerate(zip(untraced.kept, seen.kept)):
            if a and b and any(b[k] != v for k, v in a.items()):
                problems.append("case %d counters differ between the untraced and the "
                                "traced pass: %s / %s" % (i, a, b))
                break
        rows = per_layer(tracer, untraced, seen)
        OUT.mkdir(exist_ok=True)
        tracer.write(str(OUT / ("spans-%s-s%d.jsonl" % (args.workload, args.seed))))
        attempted = len(untraced.lat) + len(seen.lat)
    if not failures:
        problems += repeat_check(args, seen.kept, env["sources"])
        if args.workload == "words-n3" and args.trace == 0:
            problems += cli_stats_check(workload_cls, args.seed, seen.kept[0])
    env["wall_s"] = time.perf_counter() - START
    env["cpu_s"] = time.process_time() - cpu0

    for msg in failures[:5] + problems:
        print("perfbench: %s" % msg.rstrip(), file=sys.stderr)
    print("env " + json.dumps(env))
    for name, (value, unit) in rows.items():
        print("%-28s %14.6g %s" % (name, value, unit))
    print("%-28s %14.6g %s" % ("failed_frac", len(failures) / attempted, "ratio"))
    if args.trace == 0:
        got = tail(seen.lat)
        if got is None:
            print("case_tail_s: too few cases (%d) for a tail" % len(seen.lat))
        else:
            print("%-28s %14.6g s at p%.4f of %d cases"
                  % ("case_tail_s", got[1], got[0], len(seen.lat)))
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in rows.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"env": env, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
