#!/usr/bin/env python3
"""Build and run one dhpf benchmark workload; print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The harness (perfbench/harness, its own CMake
project over ../src) is built into .bench_build/perfbench on first use.
With --trace 0 the last stdout line carries every end-to-end metric named in
BENCHMARK.json; with --trace 1 it carries every per-layer metric, read off
a traced run, plus the tracing overhead against an untraced run of the same
workload and seed made first in the same invocation. Every op's output is
checked; `correct` is false when any op failed. Details of each run
(slowest ops, input digest, provenance, absent per-layer sources, failures)
go to stderr and to .bench_build/runs/.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("compile_fresh", "fuzz_campaign", "spmd_run", "svc_mixed")

# Each of these selects a different program than the one measured (a
# reference set-algebra path, a parallel pass driver, a changed runtime
# watchdog), so a run refuses to report numbers while any is set.
GUARDED_ENV = ("ISET_NO_CACHE", "DHPF_PAR_PASSES", "DHPF_PAR_WORKERS",
               "DHPF_MP_WATCHDOG_MS", "DHPF_SHM_WATCHDOG_MS")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS = os.path.join(ROOT, ".bench_build", "runs")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log(msg)
    sys.exit(code)


def build():
    """Configure once, then build the harness (incremental, serialized)."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                fail("configure failed")
        cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", str(os.cpu_count() or 1)]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed")


def git_describe():
    """`git describe --always --dirty` of the checkout being measured, taken
    at run time (the build's own record is fixed at configure time)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown (no git)"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_harness(args, trace, deadline, describe):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace), "--root", ROOT, "--out", RUNS]
    try:
        proc = subprocess.run(cmd, cwd=RUNS, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("harness timed out")
    if proc.returncode != 0:
        fail("harness exited with %d" % proc.returncode)
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["provenance"]["git_describe"] = describe
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, trace)
    with open(os.path.join(RUNS, name), "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
    return doc


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be >= 1", 2)

    set_vars = [v for v in GUARDED_ENV if v in os.environ]
    if set_vars:
        fail("refusing to report numbers with %s set: it changes the program measured"
             % ", ".join(set_vars), 3)
    for need in ("src/CMakeLists.txt", "examples/sample.hpf", "examples/nas"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no %s under %s: run from a full checkout of the repository" % (need, ROOT))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    build()
    os.makedirs(RUNS, exist_ok=True)
    describe = git_describe()
    # The first run in a checkout also builds; the harness's own time limit
    # starts after the build.
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.trace:
        # Per-layer numbers come only from the traced run. Its overhead is
        # measured against an untraced run of the same code, workload and
        # seed, made first in this invocation.
        docs = [run_harness(args, 0, deadline, describe), run_harness(args, 1, deadline, describe)]
        base = docs[0]["e2e"]["ops_per_s"]
        values = dict(docs[-1]["layer"])
        values["ledger.trace_overhead"] = (
            1.0 - docs[-1]["e2e"]["ops_per_s"] / base if base > 0 else 0.0)
        wanted = spec["per_layer"]
    else:
        docs = [run_harness(args, 0, deadline, describe)]
        wanted, values = spec["end_to_end"], docs[0]["e2e"]
    doc = docs[-1]

    prov = doc["provenance"]
    log("%s seed %d trace %d: %d ops in %.2f s, %d failed; yardstick slowdown %.3f; "
        "nproc %s, %s build, git %s"
        % (args.workload, args.seed, args.trace, doc["attempted"], doc["wall_s"], doc["failed"],
           doc["slowdown"], prov["nproc"], prov["build_type"], prov["git_describe"]))
    log("input digest %s; slowest ops (ms): %s" % (doc["input_digest"], doc["slowest_ops_ms"]))
    for d in docs:
        for reason in d["failures"]:
            log("failed: " + reason)
    for name, reason in sorted(doc["absent"].items()):
        log("absent %s: %s" % (name, reason))

    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
    attempted = sum(int(d["attempted"]) for d in docs)
    failed = sum(int(d["failed"]) for d in docs)
    result = {
        "correct": failed == 0 and attempted >= 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
