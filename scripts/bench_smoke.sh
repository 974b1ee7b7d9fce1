#!/usr/bin/env bash
# Quick sanity check of the machine-readable bench artifacts: run a tiny
# class-S NAS table plus the compiler-technique benches with --json and
# validate every document with a real JSON parser. Used by CI; also handy
# locally after touching the bench or obs layers.
#
# usage: scripts/bench_smoke.sh [build-dir]   (default: build)
set -euo pipefail

build_dir=${1:-build}
bench_dir="$build_dir/bench"
out_dir=$(mktemp -d)
trap 'rm -rf "$out_dir"' EXIT

if [[ ! -d "$bench_dir" ]]; then
  echo "bench_smoke: no $bench_dir — build first (cmake --build $build_dir)" >&2
  exit 1
fi

check() {
  local name=$1
  python3 -m json.tool "$out_dir/$name.json" > /dev/null
  echo "  ok: $name"
}

echo "bench_smoke: NAS table (class S, all three backends)"
"$bench_dir/table_8_1_sp" --class S --json "$out_dir/table_8_1_sp.json" > /dev/null
check table_8_1_sp
"$bench_dir/table_8_1_sp" --class S --backend mp \
  --json "$out_dir/table_8_1_sp_mp.json" > /dev/null
check table_8_1_sp_mp
"$bench_dir/table_8_1_sp" --class S --backend shm \
  --json "$out_dir/table_8_1_sp_shm.json" > /dev/null
check table_8_1_sp_shm

# The artifact must carry per-variant rows and a metrics snapshot.
python3 - "$out_dir/table_8_1_sp.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["backend"] == "sim", "sim run must be labelled"
assert doc["rows"], "no rows"
assert any(r.get("hand_a") for r in doc["rows"]), "no supported hand cells"
assert doc["metrics"]["counters"], "empty metrics snapshot"
assert "latency" in doc["machine"], "missing machine constants"
assert "git" in doc["build"], "missing build provenance"
assert doc["peak_rss_bytes"] > 0, "missing peak RSS"
EOF
echo "  ok: table_8_1_sp row/metrics shape"

# The mp artifact must be labelled, carry real wall-clock times, and show
# measured speedup > 1 at 4 ranks (class S) — rank overlap is real.
python3 - "$out_dir/table_8_1_sp_mp.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["backend"] == "mp", "mp run must be labelled"
rows = {r["nprocs"]: r for r in doc["rows"]}
cell = rows[4]["dhpf_a"]
assert cell["wall_seconds"] > 0, "no measured wall-clock time"
assert cell["speedup"] > 1.0, f"no measured speedup at P=4: {cell['speedup']}"
assert doc["metrics"]["counters"].get("mp.runs", 0) > 0, "mp obs counters missing"
EOF
echo "  ok: table_8_1_sp_mp backend/wall-clock/speedup shape"

# Same contract on the shared-memory backend: labelled artifact, real
# wall-clock, measured speedup at 4 threads, and shm obs counters present.
# (The NAS node programs are message-passing codes, so they exercise shm's
# mailbox path; the barrier + shared-read path is pinned by backend_compare
# below and by the fuzz campaign.)
python3 - "$out_dir/table_8_1_sp_shm.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["backend"] == "shm", "shm run must be labelled"
rows = {r["nprocs"]: r for r in doc["rows"]}
cell = rows[4]["dhpf_a"]
assert cell["wall_seconds"] > 0, "no measured wall-clock time"
assert cell["speedup"] > 1.0, f"no measured speedup at P=4: {cell['speedup']}"
counters = doc["metrics"]["counters"]
assert counters.get("shm.runs", 0) > 0, "shm obs counters missing"
assert counters.get("shm.messages", 0) > 0, "shm mailbox path not exercised"
EOF
echo "  ok: table_8_1_sp_shm backend/wall-clock/speedup shape"

echo "bench_smoke: compiler-technique figures"
for b in fig_4_1_privatizable fig_4_2_localize fig_5_1_loop_dist \
         fig_6_1_interproc sec_7_data_avail; do
  "$bench_dir/$b" --json "$out_dir/$b.json" > /dev/null
  check "$b"
  python3 - "$out_dir/$b.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert "git" in doc["build"], "missing build provenance"
assert doc["peak_rss_bytes"] > 0, "missing peak RSS"
EOF
done

echo "bench_smoke: model accuracy (sim backend)"
"$bench_dir/model_accuracy" --json "$out_dir/model_accuracy.json" > /dev/null
check model_accuracy

# The calibrated model must land within the acceptance bound, and the
# artifact must carry the calibration + per-cell errors + build provenance.
python3 - "$out_dir/model_accuracy.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["bench"] == "model_accuracy"
assert doc["cells"], "no measured cells"
assert "git" in doc["build"], "missing build provenance"
assert "params" in doc["calibration"], "missing fitted parameters"
med = doc["median_error_calibrated"]
assert med <= 0.25, f"calibrated median error {med:.3f} exceeds 25% bound"
assert med <= doc["median_error_default"] + 1e-12, "calibration made the model worse"
EOF
echo "  ok: model_accuracy calibrated median error within 25%"

echo "bench_smoke: backend head-to-head (mp vs shm)"
"$bench_dir/backend_compare" --json "$out_dir/backend_compare.json" > /dev/null
check backend_compare

# The deterministic leaves must agree with the shm runtime's own counters
# (the model-exactness contract the fuzzer also enforces).
python3 - "$out_dir/backend_compare.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["rows"], "no rows"
for r in doc["rows"]:
    assert r["shm_barriers"] > 0, "no barriers — shm fence path not exercised"
    assert r["shm_barriers"] == r["barrier_episodes"], r["program"]
    assert r["shm_shared_read_bytes"] == r["bytes"], r["program"]
    assert r["predicted_wall_shm"] > 0 and r["predicted_wall_mp"] > 0, r["program"]
assert "git" in doc["build"], "missing build provenance"
EOF
echo "  ok: backend_compare model/runtime counter agreement"

echo "bench_smoke: compile-service throughput"
"$bench_dir/svc_throughput" --json "$out_dir/svc_throughput.json" > /dev/null
check svc_throughput

# The counter slice must be exact (it is what perf-smoke diffs), and the
# warm pass must actually be served from cache and beat the cold pass by a
# wide margin — cache hits skip the whole pipeline, so >= 10x holds even on
# one core.
python3 - "$out_dir/svc_throughput.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert all(p["ok"] == p["requests"] for p in doc["scaling"]), "failed compiles"
wc = doc["warm_cache"]
assert wc["hits"] == 48 and wc["misses"] == 48, (wc["hits"], wc["misses"])
assert wc["warm"]["served_from_cache"] == 48, "warm pass not served from cache"
speedup = wc["cold"]["wall_seconds"] / max(wc["warm"]["wall_seconds"], 1e-12)
assert speedup >= 10.0, f"warm speedup only {speedup:.1f}x"
ev = doc["eviction"]
assert ev["evictions"] == 40 and ev["entries"] == 8, ev
# One fill per program; a batch's verify and model requests hit or join it.
bp = doc["batched_pattern"]
for name, joined in (("compile_only", 0), ("batched", 600)):
    p = bp[name]
    assert p["ok"] == p["requests"], (name, p)
    assert p["misses"] == 300 and p["hits_or_coalesced"] == joined, (name, p)
assert "git" in doc["build"], "missing build provenance"
EOF
echo "  ok: svc_throughput warm-cache, eviction and batched-pattern shape"

echo "bench_smoke: iset set-algebra microbench"
"$bench_dir/iset_microbench" --json "$out_dir/iset_microbench.json" > /dev/null
check iset_microbench

# Cached and reference paths must compute identical results (the bench
# exits non-zero on divergence), and every (op, rank) cell must be present.
python3 - "$out_dir/iset_microbench.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
cells = {(o["op"], o["rank"]) for o in doc["ops"]}
assert len(cells) == 12, f"expected 3 ops x 4 ranks, got {sorted(cells)}"
assert all(o["iters"] > 0 for o in doc["ops"])
assert doc["metrics"]["counters"].get("iset.cache.hits", 0) > 0, "no memo hits"
assert "git" in doc["build"], "missing build provenance"
EOF
echo "  ok: iset_microbench op/rank coverage and cache activity"

echo "bench_smoke: iset compile-time (cached vs ISET_NO_CACHE reference)"
"$bench_dir/iset_compile_time" --json "$out_dir/iset_compile_time.json" > /dev/null
check iset_compile_time

# The variant sweep is the amortized tune/daemon profile the iset caching
# targets (ROADMAP "raw speed of the integer-set core"): assert >= 3x
# there (typ. ~6x; the margin absorbs CI noise). The fuzz campaign of 100
# distinct programs is enumeration-bound in the verifier, so it only has
# to not regress.
python3 - "$out_dir/iset_compile_time.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
var = doc["variants"]
assert var["compiles"] == 96, var["compiles"]
speedup = var["reference"]["wall_seconds"] / max(var["cached"]["wall_seconds"], 1e-12)
assert speedup >= 3.0, f"variant-sweep speedup only {speedup:.1f}x (need >= 3x)"
fz = doc["fuzz"]
assert fz["compiles"] == 100, fz["compiles"]
ratio = fz["reference"]["wall_seconds"] / max(fz["cached"]["wall_seconds"], 1e-12)
assert ratio >= 0.9, f"fuzz campaign regressed under caching: {ratio:.2f}x"
assert doc["metrics"]["counters"].get("iset.cache.hits", 0) > 0, "no memo hits"
EOF
echo "  ok: iset_compile_time variant-sweep speedup >= 3x"

echo "bench_smoke: fuzz regression corpus replay"
repo_dir=$(cd "$(dirname "$0")/.." && pwd)
"$build_dir/examples/dhpfc" --quiet --fuzz-corpus="$repo_dir/tests/corpus" \
  | tail -n 1
echo "  ok: corpus replay"

echo "bench_smoke: trace exports"
"$bench_dir/fig_8_1_4_traces" --json "$out_dir/traces.json" \
  --chrome-trace "$out_dir/trace" > /dev/null
check traces
for f in "$out_dir"/trace.*.json; do
  python3 -m json.tool "$f" > /dev/null
  echo "  ok: $(basename "$f")"
done

echo "bench_smoke: all artifacts valid"
