// dhpf::svc::Service — the re-entrant, caching compile service.
//
// One Service owns a work-stealing thread pool (exec::ThreadPool) and a
// content-hash result cache (svc::ResultCache). Requests enter through
// submit() (async callback), handle() (synchronous wrapper), or
// handle_batch() (fan out a batch, preserve order). The socket server
// (server.hpp) and the in-process client used by tests are both thin shims
// over this class, so every transport exercises one execution path.
//
// Who answers what: submit() decides on the calling thread. A shutdown
// rejection, a stats request, a bad request and a cache hit are answered
// there, before submit() returns. A request whose key already has a fill in
// flight joins that fill as a continuation (ResultCache::on_fill) and is
// answered by the worker that fills the value. Only fills and no_cache runs
// enter the pool, so pool.submitted/pool.executed count exactly those, and
// no worker ever waits for another worker's compile.
//
// Per-request isolation: each pool job gets a fresh obs::Registry installed
// as the thread's current registry (obs::ScopedRegistry), so the pass
// timers and counters of concurrent compiles never interleave — the
// compile report a request returns is attributed to that request alone.
// The pipeline itself is re-entrant (no mutable globals; see
// codegen::CompileContext), which is what makes N workers safe.
//
// Caching: compile/verify/model requests share one cache entry per
// (source, flags, grid) — the pipeline produces all three products in one
// run, so a verify request warms the cache for the model request that
// follows. Tune results are keyed separately (they embed measurement
// configuration). `no_cache` bypasses probe and fill.
//
// Timing (Response::queue_seconds / service_seconds): queue time is time
// spent waiting for work the request did not do — the pool wait for a fill
// or no_cache run, the wait for the joined fill for a coalesced request,
// and 0 for a hit. Service time is the time spent building the response on
// the thread that answers it (for a fill, that includes the compile).
//
// Tracing: when dhpf::trace is enabled, svc.cache_probe spans land on the
// submitting thread's flight recorder, and svc.queue_wait (submit -> worker
// pickup; stamped across threads) and svc.compile on the worker's, for pool
// jobs only; all merge into the same Chrome-trace export as compiler passes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exec/pool.hpp"
#include "iset/intern.hpp"
#include "svc/cache.hpp"
#include "svc/request.hpp"

namespace dhpf::svc {

struct ServiceOptions {
  /// Worker threads. 0 = hardware concurrency, clamped to [1, 8].
  int workers = 0;
  /// Result-cache capacity in entries. Ignored when !enable_cache.
  std::size_t cache_entries = 1024;
  bool enable_cache = true;
};

class Service {
 public:
  explicit Service(const ServiceOptions& opt = {});
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Execute one request synchronously; the calling thread blocks until it
  /// is answered. Never throws: failures come back as ok=false responses.
  Response handle(const Request& req);

  /// Execute asynchronously. `done` runs exactly once, either on the
  /// calling thread before submit() returns (rejections, stats, bad
  /// requests, cache hits) or on the worker that filled the value (fills,
  /// no_cache runs, and requests that joined a fill in flight). `done` must
  /// not throw and must not block on another request's answer.
  void submit(Request req, std::function<void(Response)> done);

  /// Execute a batch concurrently; responses come back in request order.
  std::vector<Response> handle_batch(const std::vector<Request>& batch);

  /// Stop accepting work: subsequent requests answer ErrorCode::Shutdown
  /// immediately. Already-accepted requests still complete (graceful drain).
  void begin_drain();
  [[nodiscard]] bool draining() const;

  /// Block until every submitted request has completed.
  void drain();

  struct Stats {
    std::uint64_t requests = 0;  ///< accepted (excludes shutdown rejections)
    std::uint64_t ok = 0;
    std::uint64_t errors = 0;
    std::uint64_t rejected = 0;  ///< answered Shutdown while draining
    std::uint64_t by_kind[kNumKinds] = {};  ///< indexed by Kind
    ResultCache::Stats cache;
    exec::ThreadPool::Stats pool;
    iset::memo::CacheStats iset;  ///< process-wide set-algebra intern/memo stats
    int workers = 0;
  };
  [[nodiscard]] Stats stats() const;
  /// The `stats` request payload: the same numbers as a JSON document.
  [[nodiscard]] std::string stats_json() const;

  [[nodiscard]] int workers() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The cache key of a request (exposed for tests: two requests compile
/// identically iff their keys are equal).
CacheKey request_key(const Request& req);

}  // namespace dhpf::svc
