#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload in BENCHMARK.json at its smallest size (--smoke),
untraced and traced, and checks that each run passes its correctness gate
and emits exactly the metrics BENCHMARK.json names for that mode, each a
finite number with the declared unit. End-to-end metrics must also be
nonzero. Exits 1 on the first workload that fails.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(workload, trace, spec):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
           "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    wanted = spec["per_layer" if trace else "end_to_end"]
    problems = []
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        problems.append(f"correctness gate failed (exit {proc.returncode})")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    got = result["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        problems.append(
            f"metric names differ: {sorted(set(got) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        value = got.get(m["name"], {})
        v = value.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{m['name']} is not a finite number: {v}")
        elif not trace and v == 0:
            problems.append(f"{m['name']} is 0")
        if value.get("unit") != m["unit"]:
            problems.append(f"{m['name']} unit {value.get('unit')}")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems = check(w["name"], trace, spec)
            print(f"{w['name']} trace={trace}: "
                  f"{'ok' if not problems else '; '.join(problems)}")
            ok = ok and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
