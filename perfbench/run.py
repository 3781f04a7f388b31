#!/usr/bin/env python3
"""Builds and runs the end-to-end LDL1 benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> ...
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark program
(perfbench/ldl_perfbench.cc) is compiled together with the library
sources under src/ into .bench_build/ (Release), so every run measures the
checkout it sits in. Its standard output is passed through; its last line
is the JSON result (--workload all runs the three workloads in turn, each
with its own result line). With --trace 1 the spans of the traced half are
written to .bench_build/traces/<workload>-seed<n>.json.

--selftest checks the benchmark itself at tiny sizes: every oracle rejects
an answer with one tuple dropped, and every workload prints exactly the
metrics BENCHMARK.json names, with their units, in both trace modes.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "ldl_perfbench")
WORKLOADS = ("materialize", "goal-magic", "update-churn")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("error: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target",
                      "ldl_perfbench", "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850)
            if done.returncode != 0:
                print("error: build step failed: " + " ".join(step),
                      file=sys.stderr)
                return False
    return True


def run_binary(args):
    """Runs the benchmark binary and returns (exit code, stdout lines)."""
    done = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    return done.returncode, done.stdout.splitlines()


def parse_result(lines):
    """The final JSON line of a run, validated; None if malformed."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if (not isinstance(result, dict)
            or set(result) != {"correct", "attempted", "failed", "metrics"}
            or not isinstance(result["attempted"], int)
            or result["attempted"] < 1):
        return None
    return result


def selftest():
    code, lines = run_binary(["--selftest"])
    print("\n".join(lines))
    ok = code == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in WORKLOADS:
            code, lines = run_binary(
                ["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--tiny"])
            result = parse_result(lines)
            got = ({} if result is None else
                   {k: v.get("unit") for k, v in result["metrics"].items()})
            problems = []
            if code != 0 or result is None:
                problems.append("no result (exit %d)" % code)
            elif not result["correct"] or result["failed"] != 0:
                problems.append("answers failed their checks")
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            wrong = sorted(k for k in want if k in got and got[k] != want[k])
            for label, names in (("missing", missing), ("unexpected", extra),
                                 ("wrong unit", wrong)):
                if names:
                    problems.append("%s: %s" % (label, ", ".join(names)))
            status = "ok" if not problems else "; ".join(problems)
            print("selftest metrics %-13s trace %s: %d named, %s"
                  % (workload, trace, len(got), status))
            ok = ok and not problems
    print("selftest: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not build():
        return 2
    if args.selftest:
        return selftest()

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        if len(workloads) > 1:
            print("== %s" % workload)
        binary_args = ["--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", args.trace]
        if args.trace == "1":
            trace_dir = os.path.join(BUILD_DIR, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            binary_args += ["--trace-out", os.path.join(
                trace_dir, "%s-seed%d.json" % (workload, args.seed))]
        code, lines = run_binary(binary_args)
        if code != 0 or parse_result(lines) is None:
            print("\n".join(lines[:-1]), file=sys.stderr)
            print("error: benchmark exited with %d or printed no result" % code,
                  file=sys.stderr)
            return code or 1
        print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
