#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Builds the perfbench binary (perfbench/CMakeLists.txt, which pulls in
the library from the repository root) into .bench_build/, runs one
workload, checks the binary's output against the workload and metric
names BENCHMARK.json declares, and prints the result as the last line
of stdout:

    python3 perfbench/run.py --workload qv_fig7 --seed 1 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
from a separate traced run. Seed 1 is the default (the qv_fig7
heavy-output pin is recorded for it); seed 20240427 is held out: no
tuning used it, and a later performance claim must also hold on it.
--smoke shrinks the workloads for the benchmark's own tests
(perfbench/selftest.py). Exits nonzero without printing a result when
the build, the run or the output check fails; exits 3 after printing a
result whose correctness checks failed.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and rebuilds incrementally (both no-ops when up to
    date); build output goes to stderr so stdout carries only the
    result."""
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return BUILD_DIR / "perfbench"


def validate(result, spec, workload, trace):
    """Returns a list of problems with @p result against BENCHMARK.json.

    The result must carry exactly the keys correct/attempted/failed/
    metrics, and exactly the declared metric set (end_to_end without
    tracing, per_layer with it), each with its declared unit and a
    finite value.
    """
    problems = []
    if workload not in {w["name"] for w in spec["workloads"]}:
        problems.append(f"workload {workload!r} is not declared")
    if not isinstance(result, dict):
        return problems + ["result is not a JSON object"]
    keys = {"correct", "attempted", "failed", "metrics"}
    if set(result) != keys:
        return problems + [f"result keys {sorted(result)} != {sorted(keys)}"]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    attempted, failed = result["attempted"], result["failed"]
    if not isinstance(attempted, int) or isinstance(attempted, bool) \
            or attempted < 1:
        problems.append("attempted is not a whole number >= 1")
    elif not isinstance(failed, int) or isinstance(failed, bool) \
            or not 0 <= failed <= attempted:
        problems.append("failed is not a whole number in [0, attempted]")
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    for name in sorted(set(declared) - set(metrics)):
        problems.append(f"declared metric {name} is missing")
    for name in sorted(set(metrics) - set(declared)):
        problems.append(f"metric {name} is not declared")
    for name in sorted(set(declared) & set(metrics)):
        m = metrics[name]
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            problems.append(f"metric {name} is not {{value, unit}}")
            continue
        if m["unit"] != declared[name]:
            problems.append(
                f"metric {name} has unit {m['unit']!r}, "
                f"declared {declared[name]!r}")
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) \
                or not math.isfinite(v):
            problems.append(f"metric {name} has no finite value")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload!r}")
        return 2
    if args.seed < 0:
        log("--seed must be non-negative")
        return 2

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    cmd = [str(binary), args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0:
        log(f"{args.workload} exited with {proc.returncode}")
        return 1

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError as e:
        log(f"output is not JSON: {e}")
        return 4
    problems = validate(result, spec, args.workload, args.trace == 1)
    if problems:
        for p in problems:
            log(f"malformed output: {p}")
        return 4
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 3


if __name__ == "__main__":
    sys.exit(main())
