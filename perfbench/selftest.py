#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

1. Builds and runs perfbench_tests: every workload's output check must flag
   a seeded wrong output, and perturbing the fields that change from run to
   run on a correct program (timings, cache flags, service counters,
   backend statistics) must fail no check.
2. Runs each workload twice at one seed, traced and short, and demands the
   same input digest and identical per-op exact counts from both runs.
3. Checks the environment guard: with ISET_NO_CACHE set, run.py must exit
   non-zero and print no result.

Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS = os.path.join(ROOT, ".bench_build", "selftest")

# Per-op counts that are a pure function of the inputs. iset counters are
# demanded only where one thread does all the set algebra: the memo's hit
# and miss counts depend on scheduling once a campaign or the service
# compiles concurrently.
EXACT = {
    "compile_fresh": ["iset.enumerations", "iset.memo_misses", "iset.memo_hit_ratio",
                      "iset.intern_nodes", "iset.evictions", "iset.fm_projections",
                      "iset.emptiness_tests", "verify.checks_run", "comm.events",
                      "comm.eliminated", "lint.warnings", "cp.replicated"],
    "fuzz_campaign": ["fuzz.plans", "fuzz.sim_runs", "fuzz.mp_runs", "fuzz.shm_runs",
                      "fuzz.failures", "verify.checks_run", "comm.events", "comm.eliminated",
                      "exec.messages", "exec.bytes", "shm.barriers", "shm.shared_kb"],
    "spmd_run": ["exec.messages", "exec.bytes", "shm.barriers", "shm.shared_kb",
                 "iset.enumerations", "iset.fm_projections"],
    "svc_mixed": ["svc.errors"],
}


def check(cond, msg):
    if not cond:
        print("selftest: FAIL: " + msg, file=sys.stderr)
        sys.exit(1)
    print("selftest: ok: " + msg)


def harness(workload, seed):
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", "2", "--trace", "1", "--root", ROOT]
    out = subprocess.run(cmd, cwd=RUNS, stdout=subprocess.PIPE, check=True, text=True,
                         timeout=300).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    os.makedirs(RUNS, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench", "perfbench_tests",
                    "-j", jobs], check=True)
    tests = subprocess.run([os.path.join(BUILD, "perfbench_tests")], cwd=RUNS)
    check(tests.returncode == 0, "perfbench_tests")

    for workload, names in EXACT.items():
        a = harness(workload, 7)
        b = harness(workload, 7)
        check(a["failed"] == 0 and b["failed"] == 0, "%s: every op passes its check" % workload)
        check(a["input_digest"] == b["input_digest"],
              "%s: input digest repeats (%s)" % (workload, a["input_digest"]))
        diff = [n for n in names if a["layer"].get(n) != b["layer"].get(n)]
        check(not diff, "%s: exact counts repeat %s" % (workload, diff or names))

    env = dict(os.environ, ISET_NO_CACHE="1")
    guard = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                            "spmd_run", "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True)
    check(guard.returncode != 0 and guard.stdout.strip() == "",
          "run.py refuses to report with ISET_NO_CACHE set")


if __name__ == "__main__":
    main()
