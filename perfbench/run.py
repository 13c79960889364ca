#!/usr/bin/env python3
"""Build and run the ndpcr end-to-end benchmark.

    python3 perfbench/run.py --workload campaign_host --seed 1 \
        --seconds 10 --trace 0

Run from the root of a source checkout. The first call configures and
builds perfbench/ (and the ndpcr libraries it drives) under
$CARGO_TARGET_DIR, default .bench_build; later calls only rebuild what
changed. Build output goes to stderr, so the last line of stdout is the
result object: {"correct", "attempted", "failed", "metrics"}.

Besides the binary's own checks (restored payloads against their commit
CRCs, final fingerprints against a failure-free reference run, exact
counts between work units and between traced and untraced passes), this
script keeps each run's exact counts under the build directory and fails
a run whose counts differ from an earlier run of the same seed and source
tree. A traced run (--trace 1) also writes a Chrome trace there and fails
unless it loads as JSON.

--smoke runs every size at its smallest; perfbench/smoke_test.py uses it.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("campaign_host", "campaign_ndp", "service_mix", "failure_sim")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not (bdir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(bdir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(bdir), "-j", jobs,
         "--target", "ndpcr_perfbench"],
        check=True, stdout=sys.stderr)
    return bdir / "ndpcr_perfbench"


def source_digest():
    """Hash of every file the benchmark binary is built from."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit_id(digest):
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    return "src-" + digest


def fail(result, why):
    log("miss: " + why)
    result["correct"] = False
    result["attempted"] += 1
    result["failed"] += 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"error: no ndpcr sources under {ROOT}; run from a checkout")
        return 2
    bdir = build_dir()
    try:
        binary = build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"error: build failed: {e}")
        return 2

    digest = source_digest()
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--commit", commit_id(digest)]
    if args.smoke:
        cmd.append("--smoke")
    trace_path = None
    if args.trace:
        trace_path = bdir / "trace" / f"{args.workload}-seed{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_path)]

    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    meta = next((json.loads(l[5:]) for l in lines if l.startswith("meta ")),
                None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"error: benchmark printed no result (exit {proc.returncode})")
        return proc.returncode or 1
    if meta is None:
        fail(result, "benchmark printed no meta line")
    else:
        # Exact counts must repeat across runs of one seed and source tree.
        state = (bdir / "exact" /
                 f"{args.workload}-seed{args.seed}-"
                 f"{'smoke' if args.smoke else 'full'}-{digest}.json")
        if state.exists():
            before = json.loads(state.read_text())
            if before != meta["exact"]:
                fail(result, f"exact counts differ from the run in {state}")
        elif proc.returncode == 0:
            state.parent.mkdir(parents=True, exist_ok=True)
            state.write_text(json.dumps(meta["exact"], sort_keys=True))
    if trace_path is not None:
        try:
            events = json.loads(trace_path.read_text())["traceEvents"]
            if not events:
                fail(result, "the Chrome trace is empty")
        except (OSError, ValueError, KeyError) as e:
            fail(result, f"the Chrome trace does not load: {e}")

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result, separators=(",", ":")), flush=True)
    if proc.returncode != 0:
        return proc.returncode
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
