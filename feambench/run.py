#!/usr/bin/env python3
"""FEAM benchmark entry point.

Builds the driver (feambench/CMakeLists.txt, sources from ../src) into
.bench_build/feambench, runs one workload in a fresh process and relays
its output; the last line is the JSON result.

    python3 feambench/run.py --workload fleet-steady --seed 42 --seconds 20 --trace 0
    python3 feambench/run.py --selftest

--selftest runs every workload at the tiny shape (a 10x4 fleet and a
two-benchmark paper subset), untraced and traced, at seed 42 and at a
held-out seed. It checks that each run is correct, that every metric named
in BENCHMARK.json is printed with its unit, and that the traced run's
verdicts equal the untraced run's.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "feambench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "feambench")
EXE = os.path.join(BUILD_DIR, "feam_bench")
WORKLOADS = ["fleet-steady", "fleet-churn", "paper-matrix", "pair-cold"]
HELD_OUT_SEED = 1042
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds incrementally; build chatter goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("feambench: no FEAM sources at %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "feam_bench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def run_driver(args, capture):
    """Runs the driver in its own process; kills it if it overruns."""
    proc = subprocess.Popen([EXE] + args, cwd=ROOT,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("feambench: %s timed out" % " ".join(args))
    return proc.returncode, out.decode() if capture else ""


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for seed in (42, HELD_OUT_SEED):
            digests = {}
            for trace in (0, 1):
                label = "%s seed %d trace %d" % (workload, seed, trace)
                code, out = run_driver(
                    ["--workload", workload, "--seed", str(seed), "--seconds",
                     "1", "--trace", str(trace), "--tiny"], capture=True)
                lines = out.strip().splitlines()
                if code != 0 or len(lines) < 2:
                    problems.append("%s: exit %d" % (label, code))
                    continue
                result = json.loads(lines[-1])
                verdicts = json.loads(lines[-2])["verdicts"]
                if not result["correct"] or result["failed"] != 0:
                    problems.append("%s: not correct" % label)
                metrics = result["metrics"]
                if set(metrics) != set(expected[trace]):
                    problems.append("%s: metric names %s" % (
                        label, sorted(set(metrics) ^ set(expected[trace]))))
                for name, unit in expected[trace].items():
                    if name in metrics and metrics[name].get("unit") != unit:
                        problems.append("%s: %s has unit %r, not %r" % (
                            label, name, metrics[name].get("unit"), unit))
                digests[trace] = verdicts[0]
            if len(digests) == 2 and digests[0] != digests[1]:
                problems.append("%s seed %d: traced verdicts %s != untraced %s"
                                % (workload, seed, digests[1], digests[0]))
            print("selftest: %s seed %d checked" % (workload, seed), flush=True)
    for problem in problems:
        print("selftest: FAIL: " + problem)
    print("selftest: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("feambench: build failed: %s" % err)
    if args.selftest:
        return selftest()
    code, _ = run_driver(["--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--trace",
                          str(args.trace)], capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
