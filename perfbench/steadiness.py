#!/usr/bin/env python3
"""Runs each workload once per seed and reports each end-to-end metric's
median, quartiles and spread (quartile distance as a share of the median),
the figures BENCHMARK.json's bounds are set from.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads a,b] [--markdown]

Run it from the repository root. Every run goes through run.py, as a user of
the benchmark would run it.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads")
    parser.add_argument("--markdown", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = []
    for workload in workloads:
        values, failed, attempted = {}, 0, 0
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            if proc.returncode:
                sys.exit("%s seed %d: exit %d" % (workload, seed,
                                                  proc.returncode))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            attempted += result["attempted"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (n, m["value"])
                for n, m in result["metrics"].items())), file=sys.stderr)
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            rows.append((workload, name, med, q1, q3, spread, bounds[name],
                         failed, attempted))
    if args.markdown:
        print("| workload | metric | median | q1 | q3 | spread | bound "
              "| failed |")
        print("|---|---|---|---|---|---|---|---|")
        for w, n, med, q1, q3, spread, bound, failed, attempted in rows:
            print("| %s | %s | %.6g | %.6g | %.6g | %.3f | %.2f | %d/%d |"
                  % (w, n, med, q1, q3, spread, bound, failed, attempted))
    else:
        for w, n, med, q1, q3, spread, bound, failed, attempted in rows:
            flag = "" if n == "setup_s" or spread <= bound / 3 else \
                " WIDE" if spread > bound else " >bound/3"
            print("%-11s %-20s median %-12.6g q1 %-12.6g q3 %-12.6g "
                  "spread %.3f bound %.2f failed %d/%d%s"
                  % (w, n, med, q1, q3, spread, bound, failed, attempted,
                     flag))
    return 0


if __name__ == "__main__":
    sys.exit(main())
