#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source, runs one workload.

    python3 perfbench/run.py --workload chain-join --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run it from the repository root. It builds the library and the benchmark
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload, and passes the benchmark's output through: the last line is one
JSON object with "correct", "attempted", "failed" and "metrics". Build output
goes to stderr. The exit code is non-zero, with no result printed, when the
build or the run fails.

--self-test runs the unit checks (percentile rule, span self times) and every
workload at its smoke size, untraced and traced, checking the result line
against the metric lists in BENCHMARK.json. live-crud is not in
BENCHMARK.json (its readers hit a ShardedCcf false negative, see
STEADINESS.md): the self-test prints its result but does not count it.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["chain-join", "probe-dram", "fleet-zipf", "live-crud"]
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "perfbench", "perfbench_unit"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return out


def bench_command(out, workload, seed, seconds, trace, smoke=False):
    cmd = [os.path.join(out, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--scratch", os.path.join(out, "scratch")]
    if trace:
        cmd += ["--trace-out",
                os.path.join(out, "trace-%s.jsonl" % workload)]
    if smoke:
        cmd.append("--smoke")
    return cmd


def run(cmd, capture):
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)


def check_result(line, names):
    """Problems with one result line, as a list of strings."""
    problems = []
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("wrong top-level keys %s" % sorted(result))
    if not result.get("correct"):
        problems.append("correct is false (%s of %s operations failed)"
                        % (result.get("failed"), result.get("attempted")))
    if result.get("attempted", 0) < 1:
        problems.append("nothing attempted")
    metrics = result.get("metrics", {})
    if names is not None and sorted(metrics) != sorted(names):
        problems.append("metrics differ from BENCHMARK.json")
    for name, m in metrics.items():
        if not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]) or not m.get("unit"):
            problems.append("bad metric %s" % name)
    return problems


def self_test():
    out = build()
    problems = []
    if run([os.path.join(out, "perfbench_unit")], capture=False).returncode:
        problems.append("unit checks failed")
    spec = None
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
    gated = WORKLOADS if spec is None else \
        [w["name"] for w in spec["workloads"]]
    for workload in WORKLOADS:
        for trace in (0, 1):
            names = None
            if spec is not None and workload in gated:
                key = "per_layer" if trace else "end_to_end"
                names = [m["name"] for m in spec[key]]
            proc = run(bench_command(out, workload, 1, 1, trace, smoke=True),
                       capture=True)
            label = "%s trace=%d" % (workload, trace)
            lines = proc.stdout.strip().splitlines()
            found = (["exit %d" % proc.returncode]
                     if proc.returncode or not lines
                     else check_result(lines[-1], names))
            if workload not in gated:
                print("%-22s %s (not in BENCHMARK.json, not counted)"
                      % (label, "; ".join(found) or "ok"))
                continue
            print("%-22s %s" % (label, "; ".join(found) or "ok"))
            problems += ["%s: %s" % (label, p) for p in found]
    for p in problems:
        print("FAILED: " + p, file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    out = build()
    proc = run(bench_command(out, args.workload, args.seed, args.seconds,
                             args.trace), capture=False)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
