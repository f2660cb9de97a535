#!/usr/bin/env python3
"""End-to-end benchmark for nscs.

One run:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the nscs library and the nscs_perfbench program from the
checkout into .bench_build/perfbench (incremental after the first
run), runs one workload and passes its output through.  The
last line of standard output is the result object; with --trace 1
the span trace is written to .bench_build/perfbench/traces/.
--seconds is at most 60.

Self-check:

    python3 perfbench/run.py --self-check [--seed FIRST]

runs every workload 10 times for BENCHMARK.json's run_seconds,
interleaved, with seeds FIRST, FIRST+1, ... (default 1), and prints
per metric the median, the quartiles and the quartile spread as a
share of the median.

Run from the root of a checkout.  Exits nonzero when the build fails,
the sources are missing, an operation failed or the output does not
match BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "nscs_perfbench")
SELF_CHECK_REPS = 10
# nscs_perfbench measures for at most 60 s; its set-ups, checks and
# traced replay take well under the rest.
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build incrementally; build output goes to
    stderr so the result stays the last line of stdout."""
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s not found next to perfbench/: run from a full "
                 "nscs checkout" % need)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", "nscs_perfbench",
           "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(workload, seed, seconds, trace):
    """Run nscs_perfbench; return (exit code, stdout lines, result)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=BUILD, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, lines, result


def validate(result, trace):
    """The result line must carry exactly BENCHMARK.json's metrics."""
    if result is None:
        return "no result line"
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want)))
    return None


def self_check(first_seed):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    values = {w: {} for w in workloads}
    shares = {w: set() for w in workloads}
    for rep in range(SELF_CHECK_REPS):
        for w in workloads:
            seed = first_seed + rep
            code, _, result = run_once(w, seed, spec["run_seconds"], 0)
            err = validate(result, 0)
            if code != 0 or err:
                fail("%s seed %d: exit %d %s" % (w, seed, code, err or ""), 1)
            shares[w].add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print("rep %d %s seed %d done" % (rep, w, seed), file=sys.stderr)
    for w in workloads:
        print("== %s (%d runs, failed share %s)" %
              (w, SELF_CHECK_REPS, sorted(shares[w])))
        print("%-28s %14s %14s %14s %8s" %
              ("metric", "q1", "median", "q3", "iqr/med"))
        for name, v in values[w].items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            print("%-28s %14.6g %14.6g %14.6g %8.4f" %
                  (name, q1, med, q3, spread))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args()

    build()
    if args.self_check:
        self_check(args.seed)
        return
    if not args.workload or args.seconds is None:
        fail("--workload and --seconds are required")
    code, lines, result = run_once(args.workload, args.seed, args.seconds,
                                   args.trace)
    for line in lines:
        print(line)
    sys.stdout.flush()
    err = validate(result, args.trace) if code == 0 else None
    if err:
        fail(err, 3)
    sys.exit(code)


if __name__ == "__main__":
    main()
