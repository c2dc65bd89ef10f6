#!/usr/bin/env python3
"""A/B verdict for the repository benchmark: two revisions, N run pairs.

    python3 tools/ab_compare.py --base HEAD~1 --change HEAD \\
        [--workloads probe-dram,fleet-zipf] [--pairs 10] [--seeds 1,2] \\
        [--scratch DIR] [--log FILE]
    python3 tools/ab_compare.py --base HEAD~1 --change HEAD \\
        --disasm ccf::ChainedCcf::WalkChainFrom [--scratch DIR]
    python3 tools/ab_compare.py --self-test

Run it from inside the repository. Each revision is exported with
`git archive` into its own directory under --scratch (a revision that names
an existing directory is used in place, e.g. "." for the working tree) and
its benchmark is built there. Then, per workload, it runs --pairs pairs of
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`, one
run on each side, with T the run_seconds of BENCHMARK.json; pair i uses
seed seeds[i % len(seeds)], and which side runs first alternates so that
each seed gets each order equally often. Every result (run.py's last output
line) is appended to --log as one JSON line.

The summary gives, per workload and end-to-end metric of BENCHMARK.json:
each side's median [q1, q3], the change's pair wins, the median change in
percent (positive = better), and a verdict:
  better      wins >= 9/10 of the pairs and the median gap exceeds the
              base side's quartile distance;
  worse       the change's median is worse by more than the metric's bound;
  unresolved  anything else (within the bound, or not shown better).
Only pairs whose two runs are both correct with no failed operations enter
the statistics; the others are counted and reported as dropped.

--disasm SYMBOL runs nothing: it builds each side's libccf_core.a, takes
the `objdump -d -C --no-show-raw-insn` body of every function whose
demangled name holds SYMBOL followed by "(" or "<" (all template
instantiations and [clone] parts), and prints one md5 per side over those
bodies, each function's md5, and whether the sides are identical.
Instruction addresses are dropped before hashing, and so are the names of
targets outside the function, so a function that only moved within its
object file, or whose neighbours changed, hashes the same.

Only the python3 standard library is used; nothing under perfbench/ is
changed.
"""
import argparse
import hashlib
import io
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile

SIDES = ("base", "change")


def git_root():
    out = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                         stdout=subprocess.PIPE, text=True, check=True)
    return out.stdout.strip()


def export(rev, scratch, side):
    """Directory holding `rev`'s tree: `rev` itself if it is a directory,
    else a fresh `git archive` export under `scratch`."""
    if os.path.isdir(rev):
        return os.path.abspath(rev)
    dest = os.path.join(scratch, side)
    if os.path.exists(dest):
        sys.exit("ab_compare: %s exists; pick an empty --scratch" % dest)
    tar = subprocess.run(["git", "archive", "--format=tar", rev],
                         cwd=git_root(), stdout=subprocess.PIPE, check=True)
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(dest, **safe)
    return dest


def side_env(tree):
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = os.path.join(tree, ".bench_build")
    return env


def build(tree, targets=("perfbench", "perfbench_unit")):
    """Builds the side's benchmark the way run.py does, so timed runs only
    run an up-to-date build. Returns the build directory."""
    out = os.path.join(tree, ".bench_build", "perfbench")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(tree, "perfbench"), "-B",
                      out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4", "--target"] +
                 list(targets))
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("ab_compare: build failed in %s" % tree)
    return out


ADDRESS = re.compile(r"^\s*[0-9a-f]+:\t")
TARGET = re.compile(r"\b[0-9a-f]+ <(.*)>$")


def normalize(line, header):
    """An instruction without its address and its target's address. A
    target inside the function keeps only its offset; any other target
    reads <elsewhere>: in an unlinked object a call's label names whatever
    follows the call site, often a neighbouring function."""
    line = ADDRESS.sub("", line)
    target = TARGET.search(line)
    if target:
        label = target.group(1)
        offset = label[len(header):]
        inside = label.startswith(header) and (
            not offset or offset.startswith("+0x"))
        line = line[:target.start()] + (
            "<%s>" % offset if inside else "<elsewhere>")
    return line


def disasm_bodies(text, symbol):
    """{"object: function header": normalized body lines} of every function
    in objdump -d output `text` whose name holds `symbol` followed by "("
    or "<". A body runs from its header line to the next blank line; each
    line is normalized as described in normalize()."""
    name = re.compile(r"(^|[ <])" + re.escape(symbol) + r"[(<]")
    bodies = {}
    obj = ""
    header = body = None
    for line in text.splitlines():
        if "file format" in line and line.split(":")[0].endswith(".o"):
            obj = line.split(":")[0]
        elif line.endswith(">:") and " <" in line:
            header = line[line.index(" <") + 2:-2]
            body = None
            if name.search(header):
                body = bodies.setdefault("%s: %s" % (obj, header), [])
        elif not line.strip():
            body = None
        elif body is not None:
            body.append(normalize(line, header))
    return bodies


def md5_lines(lines):
    return hashlib.md5("\n".join(lines).encode()).hexdigest()


def disasm_digest(bodies):
    """One md5 over every function's name and body, in name order."""
    lines = []
    for header in sorted(bodies):
        lines.append(header)
        lines.extend(bodies[header])
    return md5_lines(lines)


def disasm(trees, symbol, out=sys.stdout):
    """Prints both sides' digests of `symbol`; returns 0 if identical."""
    digests = {}
    for side in SIDES:
        lib = os.path.join(build(trees[side], ("ccf_core",)), "libccf_core.a")
        text = subprocess.run(["objdump", "-d", "-C", "--no-show-raw-insn",
                               lib], stdout=subprocess.PIPE, text=True,
                              check=True).stdout
        bodies = disasm_bodies(text, symbol)
        digests[side] = disasm_digest(bodies) if bodies else None
        print("%-6s %s  %d functions" % (side, digests[side], len(bodies)),
              file=out)
        for header in sorted(bodies):
            print("         %s  %s" % (md5_lines(bodies[header]), header),
                  file=out)
    same = digests["base"] is not None and digests["base"] == digests["change"]
    print("%s: %s" % (symbol, "identical" if same else "DIFFERENT"), file=out)
    return 0 if same else 1


def run_once(tree, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "0"],
        cwd=tree, env=side_env(tree), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": "exit %d" % proc.returncode}
    return json.loads(lines[-1])


def first_side(i, num_seeds):
    """0 if pair i runs the base first. Plain alternation would tie the
    order to the seed when the seed count is even."""
    return (i // num_seeds if num_seeds % 2 == 0 else i) % 2


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base, change, better, bound):
    """(wins, gain in percent, verdict) for paired value lists."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    bq1, bmed, bq3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    gain = sign * (cmed - bmed)
    pct = 100.0 * gain / abs(bmed) if bmed else (0.0 if gain == 0 else
                                                   math.copysign(math.inf,
                                                                 gain))
    if -gain > bound * abs(bmed):
        return wins, pct, "worse"
    if wins >= math.ceil(0.9 * len(base)) and gain > bq3 - bq1:
        return wins, pct, "better"
    return wins, pct, "unresolved"


def summarize(records, spec, out=sys.stdout):
    """Prints the summary of log records; returns {(workload, metric):
    verdict}."""
    metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    verdicts = {}
    workloads = []
    for r in records:
        if r["workload"] not in workloads:
            workloads.append(r["workload"])
    for workload in workloads:
        pairs = {}
        for r in records:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]
        complete = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        clean = [p for p in complete
                 if all(p[s].get("correct") and not p[s].get("failed")
                        for s in SIDES)]
        bad = {s: sum(1 for p in complete
                      if not p[s].get("correct") or p[s].get("failed"))
               for s in SIDES}
        print("%s: %d pairs, %d dropped (runs not correct or with failures:"
              " base %d, change %d)" % (workload, len(complete),
                                        len(complete) - len(clean),
                                        bad["base"], bad["change"]), file=out)
        for name, better, bound in metrics:
            used = [p for p in clean
                    if all(name in p[s].get("metrics", {}) for s in SIDES)]
            vals = {s: [p[s]["metrics"][name]["value"] for p in used]
                    for s in SIDES}
            if not used:
                continue
            wins, pct, v = verdict(vals["base"], vals["change"], better, bound)
            verdicts[(workload, name)] = v
            bq1, bmed, bq3 = quartiles(vals["base"])
            cq1, cmed, cq3 = quartiles(vals["change"])
            print("  %-24s base %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]"
                  "  wins %d/%d  %+.1f%%  %s (bound %.0f%%)"
                  % (name, bmed, bq1, bq3, cmed, cq1, cq3, wins,
                     len(vals["base"]), pct, v, 100 * bound), file=out)
    return verdicts


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def self_test():
    """Checks the statistics on canned result lines; no build, no runs."""
    spec = {"end_to_end": [
        {"name": "throughput_per_s", "better": "higher", "bound": 0.25},
        {"name": "setup_s", "better": "lower", "bound": 0.25}]}

    def line(tput, setup):
        return {"correct": True, "attempted": 10, "failed": 0, "metrics": {
            "throughput_per_s": {"value": tput, "unit": "1/s"},
            "setup_s": {"value": setup, "unit": "s"}}}

    records = []
    for i in range(10):
        # "fast": the change wins every throughput pair by ~15% with a
        # tight base spread; its setup is 40% slower (past the bound).
        records.append({"workload": "fast", "pair": i, "side": "base",
                        "result": line(100 + i % 3, 1.0 + 0.01 * (i % 2))})
        records.append({"workload": "fast", "pair": i, "side": "change",
                        "result": line(115 + i % 3, 1.4 + 0.01 * (i % 2))})
        # "noisy": same medians, alternating winners.
        records.append({"workload": "noisy", "pair": i, "side": "base",
                        "result": line(100 + (10 if i % 2 else -10), 1.0)})
        records.append({"workload": "noisy", "pair": i, "side": "change",
                        "result": line(100 + (-10 if i % 2 else 10), 1.0)})
    # "mispaired": the change wins every pair by 1 on a steep trend, but
    # pair 0's base run and pair 1's change run failed and pair 2's change
    # run is not correct; zipping each side's surviving values would pair
    # runs of different pairs and lose wins.
    for i in range(10):
        for side, value in (("base", 100 + 10 * i), ("change", 101 + 10 * i)):
            result = line(value, 1.0)
            if (i, side) in ((0, "base"), (1, "change")):
                result = {"correct": False, "attempted": 0, "failed": 0,
                          "metrics": {}}
            elif (i, side) == (2, "change"):
                result["correct"] = False
                result["metrics"]["throughput_per_s"]["value"] = 1e9
            records.append({"workload": "mispaired", "pair": i, "side": side,
                            "result": result})
    sink = io.StringIO()
    got = summarize(records, spec, out=sink)
    want = {("fast", "throughput_per_s"): "better",
            ("fast", "setup_s"): "worse",
            ("noisy", "throughput_per_s"): "unresolved",
            ("noisy", "setup_s"): "unresolved"}
    problems = ["%s %s: got %s, want %s" % (w, m, got.get((w, m)), v)
                for (w, m), v in want.items() if got.get((w, m)) != v]
    for num_seeds in (1, 2, 3):
        runs = {}
        for i in range(4 * num_seeds):
            key = (i % num_seeds, first_side(i, num_seeds))
            runs[key] = runs.get(key, 0) + 1
        if sorted(runs.values()) != [2] * (2 * num_seeds):
            problems.append("%d seeds: orders not balanced per seed %s"
                            % (num_seeds, runs))
    if verdict([1, 2, 3], [2, 3, 4], "higher", 0.25)[0] != 3:
        problems.append("a higher-is-better pair win was not counted")
    if verdict([5, 5, 5], [5, 5, 5], "lower", 0.25)[:2] != (0, 0.0):
        problems.append("a tie counted as a win or a gain")
    if "wins 10/10" not in sink.getvalue():
        problems.append("summary lacks the win count")
    if "mispaired: 10 pairs, 3 dropped" not in sink.getvalue():
        problems.append("dropped pairs not reported")
    mispaired = sink.getvalue().split("mispaired:")[1]
    if "wins 7/7" not in mispaired.splitlines()[1]:
        problems.append("failed runs not dropped pairwise")
    problems.extend(disasm_self_test())
    print(sink.getvalue(), end="")
    for p in problems:
        print("FAILED: " + p, file=sys.stderr)
    print("self-test %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


DISASM_A = """
x.o:     file format elf64-x86-64

Disassembly of section .text:

0000000000000000 <ccf::Walk(int)>:
   0:\tmov    %edi,%eax
   2:\tjne    9 <ccf::Walk(int)+0x9>
   4:\tret

0000000000000010 <ccf::WalkAll(int)>:
  10:\tret

0000000000000020 <bool ccf::Walk<ccf::Lambda>(int) const>:
  20:\tcall   25 <bool ccf::Walk<ccf::Lambda>(int) const+0x5>
  25:\tret
  26:\tcall   2b <ccf::Next(ccf::Options const&)>

000000000000002b <ccf::Next(ccf::Options const&)>:
  2b:\tret

Disassembly of section .text.unlikely:

0000000000000000 <ccf::Walk(int) [clone .cold]>:
   0:\tud2
"""


def disasm_self_test():
    """Body extraction and hashing over canned objdump output; returns the
    problems found."""
    problems = []
    bodies = disasm_bodies(DISASM_A, "ccf::Walk")
    if sorted(bodies) != ["x.o: bool ccf::Walk<ccf::Lambda>(int) const",
                          "x.o: ccf::Walk(int)",
                          "x.o: ccf::Walk(int) [clone .cold]"]:
        problems.append("disasm: wrong functions matched %s" % sorted(bodies))
    if bodies.get("x.o: ccf::Walk(int)") != ["mov    %edi,%eax",
                                             "jne    <+0x9>", "ret"]:
        problems.append("disasm: body not cut or normalized %s"
                        % bodies.get("x.o: ccf::Walk(int)"))
    # The same code placed at other addresses hashes the same; one changed
    # instruction does not.
    moved = DISASM_A.replace("0000000000000000 <ccf::Walk(int)>:",
                             "0000000000000040 <ccf::Walk(int)>:").replace(
        "   0:\tmov", "  40:\tmov").replace("   2:\tjne    9 ",
                                            "  42:\tjne    49 ")
    changed = DISASM_A.replace("mov    %edi,%eax", "mov    %esi,%eax")
    # A neighbour's new signature changes only a label outside the function.
    neighbour = DISASM_A.replace("ccf::Next(ccf::Options const&)",
                                 "ccf::Next(int)")
    digest = disasm_digest(bodies)
    if disasm_digest(disasm_bodies(moved, "ccf::Walk")) != digest:
        problems.append("disasm: a moved function hashed differently")
    # The same function emitted by two objects is kept once per object.
    twice = DISASM_A + DISASM_A.replace("x.o:", "y.o:")
    if len(disasm_bodies(twice, "ccf::Walk")) != 6:
        problems.append("disasm: one object's copy overwrote another's")
    if disasm_digest(disasm_bodies(neighbour, "ccf::Walk")) != digest:
        problems.append("disasm: a neighbour's name changed the hash")
    if disasm_digest(disasm_bodies(changed, "ccf::Walk")) == digest:
        problems.append("disasm: a changed instruction hashed the same")
    if digest != md5_lines([line for h in sorted(bodies)
                            for line in [h] + bodies[h]]):
        problems.append("disasm: digest is not the md5 of the bodies")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base")
    parser.add_argument("--change")
    parser.add_argument("--workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--scratch")
    parser.add_argument("--log")
    parser.add_argument("--disasm", metavar="SYMBOL")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    spec = load_spec(git_root())
    if not args.base or not args.change:
        parser.error("--base and --change are required")
    scratch = args.scratch or tempfile.mkdtemp(prefix="ccf-ab-")
    os.makedirs(scratch, exist_ok=True)
    log = args.log or os.path.join(scratch, "ab_log.jsonl")
    trees = {"base": export(args.base, scratch, "base"),
             "change": export(args.change, scratch, "change")}
    if args.disasm:
        return disasm(trees, args.disasm)
    for side in SIDES:
        build(trees[side])
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec["workloads"]])
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = spec["run_seconds"]
    records = []
    with open(log, "a") as f:
        for workload in workloads:
            for i in range(args.pairs):
                seed = seeds[i % len(seeds)]
                order = SIDES if first_side(i, len(seeds)) == 0 else \
                    SIDES[::-1]
                for side in order:
                    result = run_once(trees[side], workload, seed, seconds)
                    rec = {"workload": workload, "pair": i, "seed": seed,
                           "side": side, "first": order[0], "result": result}
                    records.append(rec)
                    f.write(json.dumps(rec) + "\n")
                    f.flush()
                    tput = result.get("metrics", {}).get(
                        "throughput_per_s", {}).get("value")
                    print("%s pair %d seed %d %s: throughput_per_s %s"
                          % (workload, i, seed, side, tput), file=sys.stderr)
    print("log: %s" % log)
    summarize(records, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
