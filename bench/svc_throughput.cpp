// dhpf::svc throughput bench: the compile service (dhpfd's engine) under
// load, driven in-process through svc::Service so the numbers measure the
// pipeline + pool + cache, not socket syscalls.
//
// Four phases:
//   * scaling  — a fuzz-generated program set compiled cold (cache off,
//     set caches cleared per point) at 1/2/4/8 workers: compiles/sec and
//     p50/p99 request latency per point;
//   * warm     — the tuner's 48-variant flag cross product on one program,
//     twice, cache on: the first pass misses 48 times, the second is pure
//     hits (hit rate 0.5 over the run) — the dhpfc --tune scenario a
//     long-lived daemon amortizes;
//   * eviction — the same 48 variants through a capacity-8 cache on one
//     worker: exact global LRU makes evictions/entries deterministic;
//   * batched pattern — generator programs 1..300 from 4 client threads on
//     4 workers, sent the way `dhpfc --server --verify --model-report`
//     sends them (one compile+verify+model batch per program) and as
//     compile-only batches, each pass on a fresh Service with cold set
//     caches. The verify and model requests join the compile's fill, so
//     the batched passes should take about as long as the compile-only
//     ones; the wall-time ratio of their medians goes to stdout.
//
// The --json artifact is diffed against bench/baselines/svc_throughput.json
// by perf-smoke CI. Request/hit/miss/eviction counts are deterministic and
// compared; wall-clock values are emitted only under bench_diff's skipped
// names ("wall_seconds"/"seconds"), and machine-dependent facts (core
// count, derived speedups) go to stdout or into string fields, which the
// diff ignores.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "compiler_bench_common.hpp"
#include "fuzz/generator.hpp"
#include "iset/intern.hpp"
#include "svc/service.hpp"
#include "tune/tune.hpp"

using namespace dhpf;

namespace {

// The Figure 5.1-style stencil the warm phase tunes: small enough that 48
// variant compiles stay fast, rich enough that the flag axes all matter.
const char kTuned[] = R"(
    processors P(4)
    array a(64) distribute (block:0) onto P
    array b(64) distribute (block:0) onto P
    array c(64) distribute (block:0) onto P
    procedure main()
      do i = 1, 62
        b(i) = a(i-1) + a(i+1)
        c(i) = b(i) + a(i)
      enddo
    end
)";

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

struct Latency {
  double p50 = 0.0;
  double p99 = 0.0;
};

/// Percentiles of total request latency (queue wait + service time).
Latency latency_of(const std::vector<svc::Response>& rs) {
  std::vector<double> total;
  total.reserve(rs.size());
  for (const svc::Response& r : rs) total.push_back(r.queue_seconds + r.service_seconds);
  std::sort(total.begin(), total.end());
  Latency l;
  if (total.empty()) return l;
  l.p50 = total[total.size() / 2];
  l.p99 = total[(total.size() * 99) / 100];
  return l;
}

std::vector<svc::Request> fuzz_load(std::size_t n) {
  std::vector<svc::Request> reqs;
  reqs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    svc::Request req;
    req.id = i + 1;
    req.kind = svc::Kind::Compile;
    req.source = fuzz::generate(i + 1).source;
    reqs.push_back(std::move(req));
  }
  return reqs;
}

/// One compile request per tuner variant: 48 distinct cache keys over one
/// program text.
std::vector<svc::Request> variant_load() {
  std::vector<svc::Request> reqs;
  std::uint64_t id = 1;
  for (const tune::VariantSpec& v : tune::enumerate_variants()) {
    svc::Request req;
    req.id = id++;
    req.kind = svc::Kind::Compile;
    req.source = kTuned;
    req.flags.sopt = v.sopt;
    req.flags.copt = v.copt;
    reqs.push_back(std::move(req));
  }
  return reqs;
}

std::size_t count_ok(const std::vector<svc::Response>& rs) {
  std::size_t ok = 0;
  for (const svc::Response& r : rs) ok += r.ok ? 1u : 0u;
  return ok;
}

struct ScalingPoint {
  int workers = 0;
  std::size_t requests = 0, ok = 0;
  double wall = 0.0;
  Latency latency;
};

struct PassResult {
  std::size_t requests = 0, ok = 0, cached = 0;
  double wall = 0.0;
  Latency latency;
};

PassResult run_pass(svc::Service& service, const std::vector<svc::Request>& reqs) {
  PassResult p;
  const double t0 = now_seconds();
  std::vector<svc::Response> rs = service.handle_batch(reqs);
  p.wall = now_seconds() - t0;
  p.requests = rs.size();
  p.ok = count_ok(rs);
  for (const svc::Response& r : rs) p.cached += r.cached ? 1u : 0u;
  p.latency = latency_of(rs);
  return p;
}

constexpr int kPatternPrograms = 300;  // generator seeds 1..300
constexpr int kPatternClients = 4;
constexpr int kPatternReps = 3;

struct PatternPass {
  std::size_t requests = 0, ok = 0;
  std::uint64_t misses = 0, hits_or_coalesced = 0;
  double wall = 0.0;
};

/// One pass of the batched-pattern phase on a fresh 4-worker Service: each
/// client thread sends its share of the programs, one batch per program,
/// waiting for each batch's answers before sending the next.
PatternPass run_pattern(const std::vector<std::string>& sources, bool batched) {
  iset::memo::clear_caches();
  svc::ServiceOptions opt;
  opt.workers = 4;
  svc::Service service(opt);
  const std::vector<svc::Kind> kinds =
      batched ? std::vector<svc::Kind>{svc::Kind::Compile, svc::Kind::Verify, svc::Kind::Model}
              : std::vector<svc::Kind>{svc::Kind::Compile};
  std::atomic<std::size_t> requests{0}, ok{0};
  const double t0 = now_seconds();
  std::vector<std::thread> clients;
  for (int c = 0; c < kPatternClients; ++c)
    clients.emplace_back([&, c] {
      for (std::size_t i = static_cast<std::size_t>(c); i < sources.size(); i += kPatternClients) {
        std::vector<svc::Request> batch;
        for (svc::Kind kind : kinds) {
          svc::Request req;
          req.id = batch.size() + 1;
          req.kind = kind;
          req.source = sources[i];
          batch.push_back(std::move(req));
        }
        const std::vector<svc::Response> rs = service.handle_batch(batch);
        requests += rs.size();
        ok += count_ok(rs);
      }
    });
  for (std::thread& t : clients) t.join();
  PatternPass p;
  p.wall = now_seconds() - t0;
  p.requests = requests.load();
  p.ok = ok.load();
  const svc::Service::Stats stats = service.stats();
  p.misses = stats.cache.misses;
  p.hits_or_coalesced = stats.cache.hits + stats.cache.coalesced;
  return p;
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::parse_json_flag(argc, argv);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("=== svc throughput: concurrent compile service (dhpfd engine) ===\n");
  std::printf("  hardware threads: %u\n\n", hw);

  // --- scaling: cold compiles (cache off) across worker counts ----------
  const std::vector<svc::Request> load = fuzz_load(16);
  std::vector<ScalingPoint> scaling;
  std::printf("  %-8s %9s %12s %12s %12s\n", "workers", "requests", "compiles/s",
              "p50 ms", "p99 ms");
  for (int workers : {1, 2, 4, 8}) {
    // Every point starts from cold set-algebra caches; otherwise the first
    // point pays the misses for all the others.
    iset::memo::clear_caches();
    svc::ServiceOptions opt;
    opt.workers = workers;
    opt.enable_cache = false;
    svc::Service service(opt);
    PassResult p = run_pass(service, load);
    ScalingPoint pt;
    pt.workers = workers;
    pt.requests = p.requests;
    pt.ok = p.ok;
    pt.wall = p.wall;
    pt.latency = p.latency;
    scaling.push_back(pt);
    std::printf("  %-8d %9zu %12.1f %12.3f %12.3f\n", workers, p.requests,
                p.requests / std::max(p.wall, 1e-9), p.latency.p50 * 1e3,
                p.latency.p99 * 1e3);
  }
  if (hw >= 8 && scaling.front().wall > 0 && scaling.back().wall > 0)
    std::printf("  8-worker speedup over 1 (cold): %.2fx\n",
                scaling.front().wall / scaling.back().wall);
  else
    std::printf("  (scaling speedup not asserted: %u hardware thread(s))\n", hw);

  // --- warm: tuner cross product twice through one cache ----------------
  const std::vector<svc::Request> variants = variant_load();
  svc::ServiceOptions wopt;
  wopt.workers = 4;  // fixed, so the artifact is machine-independent
  wopt.cache_entries = 1024;
  svc::Service warm_service(wopt);
  PassResult cold = run_pass(warm_service, variants);
  PassResult warm = run_pass(warm_service, variants);
  const svc::Service::Stats wstats = warm_service.stats();
  const double hit_rate =
      static_cast<double>(wstats.cache.hits) /
      static_cast<double>(std::max<std::uint64_t>(1, wstats.cache.hits + wstats.cache.misses));
  std::printf("\n  warm-cache (48-variant cross product, 4 workers):\n");
  std::printf("    cold pass: %zu compiles in %.3fs (%.1f/s)\n", cold.requests, cold.wall,
              cold.requests / std::max(cold.wall, 1e-9));
  std::printf("    warm pass: %zu served in %.3fs (%.1f/s), %zu from cache\n",
              warm.requests, warm.wall, warm.requests / std::max(warm.wall, 1e-9),
              warm.cached);
  std::printf("    hit rate %.2f, warm speedup %.1fx\n", hit_rate,
              cold.wall / std::max(warm.wall, 1e-9));

  // --- eviction: exact LRU under a tiny capacity ------------------------
  svc::ServiceOptions eopt;
  eopt.workers = 1;  // sequential, so the eviction order is deterministic
  eopt.cache_entries = 8;
  svc::Service evict_service(eopt);
  PassResult epass = run_pass(evict_service, variants);
  const svc::Service::Stats estats = evict_service.stats();
  std::printf("\n  eviction (capacity 8, 1 worker): %llu evictions, %zu resident\n",
              static_cast<unsigned long long>(estats.cache.evictions),
              estats.cache.entries);

  // --- batched pattern: compile+verify+model batches vs compile-only ----
  std::vector<std::string> pattern_sources;
  for (int seed = 1; seed <= kPatternPrograms; ++seed)
    pattern_sources.push_back(fuzz::generate(static_cast<std::uint64_t>(seed)).source);
  PatternPass compile_only, batched;
  std::vector<double> compile_only_walls, batched_walls;
  for (int rep = 0; rep < kPatternReps; ++rep) {  // interleaved, so drift hits both
    compile_only = run_pattern(pattern_sources, /*batched=*/false);
    batched = run_pattern(pattern_sources, /*batched=*/true);
    compile_only_walls.push_back(compile_only.wall);
    batched_walls.push_back(batched.wall);
  }
  compile_only.wall = median_of(compile_only_walls);
  batched.wall = median_of(batched_walls);
  std::printf("\n  batched pattern (%d programs, %d clients, 4 workers, median of %d):\n",
              kPatternPrograms, kPatternClients, kPatternReps);
  std::printf("    compile-only: %zu requests in %.3fs\n", compile_only.requests,
              compile_only.wall);
  std::printf("    batched: %zu requests in %.3fs, %llu misses, %llu hits or coalesced\n",
              batched.requests, batched.wall, static_cast<unsigned long long>(batched.misses),
              static_cast<unsigned long long>(batched.hits_or_coalesced));
  std::printf("    batched / compile-only wall: %.2fx\n",
              batched.wall / std::max(compile_only.wall, 1e-9));

  if (!json_path.empty()) {
    json::Writer w;
    w.begin_object();
    w.member("bench", "svc_throughput");
    w.member("hardware_concurrency", std::to_string(hw));  // string: not diffed
    w.key("scaling");
    w.begin_array();
    for (const ScalingPoint& pt : scaling) {
      w.begin_object();
      w.member("workers", pt.workers);
      w.member("requests", pt.requests);
      w.member("ok", pt.ok);
      w.member("wall_seconds", pt.wall);
      w.key("p50");
      w.begin_object();
      w.member("seconds", pt.latency.p50);
      w.end_object();
      w.key("p99");
      w.begin_object();
      w.member("seconds", pt.latency.p99);
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.key("warm_cache");
    w.begin_object();
    w.member("variants", variants.size());
    w.member("workers", 4);
    w.member("hit_rate", hit_rate);
    w.member("hits", wstats.cache.hits);
    w.member("misses", wstats.cache.misses);
    w.key("cold");
    w.begin_object();
    w.member("requests", cold.requests);
    w.member("ok", cold.ok);
    w.member("served_from_cache", cold.cached);
    w.member("wall_seconds", cold.wall);
    w.end_object();
    w.key("warm");
    w.begin_object();
    w.member("requests", warm.requests);
    w.member("ok", warm.ok);
    w.member("served_from_cache", warm.cached);
    w.member("wall_seconds", warm.wall);
    w.end_object();
    w.end_object();
    w.key("eviction");
    w.begin_object();
    w.member("capacity", 8);
    w.member("requests", epass.requests);
    w.member("ok", epass.ok);
    w.member("evictions", estats.cache.evictions);
    w.member("entries", estats.cache.entries);
    w.end_object();
    w.key("batched_pattern");
    w.begin_object();
    w.member("programs", kPatternPrograms);
    w.member("clients", kPatternClients);
    w.member("workers", 4);
    for (const PatternPass* p : {&compile_only, &batched}) {
      w.key(p == &batched ? "batched" : "compile_only");
      w.begin_object();
      w.member("requests", p->requests);
      w.member("ok", p->ok);
      w.member("misses", p->misses);
      w.member("hits_or_coalesced", p->hits_or_coalesced);
      w.member("wall_seconds", p->wall);
      w.end_object();
    }
    w.end_object();
    bench::provenance_json(w);
    w.key("metrics");
    bench::global_metrics_json(w);
    w.end_object();
    if (!bench::write_text_file(json_path, w.str())) return 1;
  }
  return 0;
}
