#!/usr/bin/env python3
"""Self-test of the benchmark itself.

Runs every workload declared in BENCHMARK.json at its smoke size, with
and without tracing, through run.py, and checks that run.py's output
validator rejects malformed results. Exits nonzero on any failure:

    python3 perfbench/selftest.py
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import run  # noqa: E402


def smoke(spec, workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    assert proc.returncode == 0, \
        f"{workload} trace={trace}: exit {proc.returncode}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, \
        f"{workload} trace={trace}: {result}"
    assert run.validate(result, spec, workload, trace == 1) == []
    return result


def validator_rejects(spec, good):
    """Every mutation of a good end-to-end result must be flagged."""
    workload = spec["workloads"][0]["name"]
    a_metric = spec["end_to_end"][0]["name"]

    def mutated(fn):
        r = copy.deepcopy(good)
        fn(r)
        return r

    cases = {
        "missing metric": mutated(lambda r: r["metrics"].pop(a_metric)),
        "undeclared metric": mutated(lambda r: r["metrics"].update(
            extra={"value": 1.0, "unit": "s"})),
        "wrong unit": mutated(
            lambda r: r["metrics"][a_metric].update(unit="parsec")),
        "non-finite value": mutated(
            lambda r: r["metrics"][a_metric].update(value=float("nan"))),
        "no attempts": mutated(lambda r: r.update(attempted=0)),
        "extra key": mutated(lambda r: r.update(note="x")),
        "per-layer set under trace 0": mutated(lambda r: r.update(
            metrics={m["name"]: {"value": 1.0, "unit": m["unit"]}
                     for m in spec["per_layer"]})),
    }
    for name, bad in cases.items():
        assert run.validate(bad, spec, workload, False), \
            f"validator accepted: {name}"
    assert run.validate(good, spec, "no_such_workload", False), \
        "validator accepted an undeclared workload"


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    good = None
    for w in spec["workloads"]:
        for trace in (0, 1):
            result = smoke(spec, w["name"], trace)
            if trace == 0 and good is None:
                good = result
            print(f"ok  {w['name']} trace={trace}")
    validator_rejects(spec, good)
    print("ok  validator rejects malformed output")
    return 0


if __name__ == "__main__":
    sys.exit(main())
