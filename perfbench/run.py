#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The first call configures and builds
perfbench (and libgmpx from ../src) in Release mode under .bench_build/;
later calls only re-check the build.  Build output goes to standard error,
so the last line of standard output is always the benchmark's JSON object.
Traced runs (--trace 1) also write their spans to
.bench_build/spans/<workload>-seed<N>.tsv.

--self-test runs every workload briefly, traced and untraced, and checks that
each prints exactly the metrics BENCHMARK.json names, with their units, that
every name matches [A-Za-z0-9_.-]+ and is annotated in perfbench/spec.json,
and that the human-readable report names each workload's end-to-end figures
from perfbench/spec.json.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build perfbench; False when that fails."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        log("no gmpx sources at " + ROOT + "; nothing to benchmark")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return False
    return os.path.isfile(BINARY)


def run_binary(args, capture):
    """Run perfbench; returns (exit code, stdout text or None)."""
    try:
        result = subprocess.run(
            [BINARY] + args,
            cwd=ROOT,
            stdout=subprocess.PIPE if capture else None,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        log("perfbench did not finish within %d s" % RUN_TIMEOUT_S)
        return 1, None
    return result.returncode, result.stdout


def bench_args(workload, seed, seconds, trace, quick=False):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if trace:
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        args += ["--trace-out", os.path.join(spans, "%s-seed%d.tsv" % (workload, seed))]
    if quick:
        args.append("--quick")
    return args


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    problems = []
    for section in ("end_to_end", "per_layer"):
        for m in bench[section]:
            if not NAME_RE.match(m["name"]):
                problems.append("bad metric name %r" % m["name"])
            if m["name"] not in spec[section]:
                problems.append("%s metric %s has no annotation in spec.json" % (section, m["name"]))
    for workload in bench["workloads"]:
        name = workload["name"]
        if name not in spec["workloads"]:
            problems.append("workload %s has no annotation in spec.json" % name)
            continue
        for trace in (0, 1):
            before = len(problems)
            where = "%s trace=%d" % (name, trace)
            check_run(name, trace, bench, spec, problems)
            print("self-test %-24s %s" % (where, "ok" if len(problems) == before else "FAIL"),
                  flush=True)
    for p in problems:
        print("self-test FAIL: " + p, flush=True)
    print("self-test %s" % ("passed" if not problems else "FAILED"), flush=True)
    return 0 if not problems else 1


def check_run(name, trace, bench, spec, problems):
    """One brief run of `name`: its JSON object and its human-readable lines."""
    expected = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    code, out = run_binary(bench_args(name, spec["seeds"]["default"], 1, trace, True), True)
    where = "%s trace=%d" % (name, trace)
    if code != 0 or not out:
        problems.append("%s: exit code %d" % (where, code))
        return
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except ValueError:
        problems.append("%s: last line is not JSON" % where)
        return
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("%s: wrong top-level keys %s" % (where, sorted(result)))
        return
    if not result["correct"] or result["attempted"] < 1:
        problems.append("%s: correct=%s attempted=%s" % (where, result["correct"],
                                                          result["attempted"]))
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(k for k in expected if k in got and got[k] != expected[k])
        problems.append("%s: missing %s extra %s wrong units %s" % (where, missing, extra, wrong))
    for k, v in result["metrics"].items():
        if not NAME_RE.match(k) or not isinstance(v.get("value"), (int, float)):
            problems.append("%s: bad metric %r" % (where, k))
    if trace == 0:
        # The issue-named end-to-end figures, each printed with its unit.
        for fig in spec["workloads"][name]["figures"]:
            pattern = re.compile(r"^figure %s %s = \S+ %s\b" % (
                re.escape(name), re.escape(fig["name"]), re.escape(fig["unit"])))
            if not any(pattern.match(line) for line in lines):
                problems.append("%s: figure %s [%s] not printed" % (where, fig["name"],
                                                                     fig["unit"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()
    if not opts.self_test and not opts.workload:
        parser.error("--workload is required")
    if not build():
        return 1
    if opts.self_test:
        return self_test()
    code, _ = run_binary(bench_args(opts.workload, opts.seed, opts.seconds, opts.trace), False)
    return code


if __name__ == "__main__":
    sys.exit(main())
