#include "svc/service.hpp"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "codegen/driver.hpp"
#include "exec/machine.hpp"
#include "hpf/parser.hpp"
#include "model/model.hpp"
#include "support/diagnostics.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "trace/trace.hpp"
#include "lint/lint.hpp"
#include "tune/tune.hpp"
#include "verify/plan.hpp"
#include "verify/verify.hpp"

namespace dhpf::svc {

namespace {

int resolve_workers(int requested) {
  if (requested > 0) return requested;
  const unsigned hc = std::thread::hardware_concurrency();
  const int n = hc == 0 ? 1 : static_cast<int>(hc);
  return n < 1 ? 1 : (n > 8 ? 8 : n);
}

/// Run one compile/verify/model, tune or lint request and package every
/// product into one cache value. The pipeline produces all three of
/// compile, verify and model in one run. Failures are packaged too (they
/// are as deterministic as successes, so caching them is sound and keeps a
/// bad program from re-paying compile cost per retry).
CachedResultPtr run_uncached(const Request& req) {
  auto out = std::make_shared<CachedResult>();
  bool parsed = false;
  try {
    hpf::Program prog = hpf::parse(req.source);
    parsed = true;
    if (!req.grid.empty()) {
      if (prog.grids().empty()) {
        // Request-validation failure, not a compile failure of the program:
        // classify as BadRequest (still cached — the verdict is a pure
        // function of source × grid, so caching it is sound).
        out->ok = false;
        out->error_code = static_cast<int>(ErrorCode::BadRequest);
        out->error = "grid override given but the program declares no processor grid";
        return out;
      }
      prog.grids().front()->extents = req.grid;
    }
    if (req.kind == Kind::Tune) {
      tune::TuneOptions topt;
      topt.measure_top_k = req.tune_measure;
      topt.xopt.backend = req.backend;
      out->tune_json = tune::tune(prog, topt).to_json();
    } else if (req.kind == Kind::Lint) {
      lint::Report rep = lint::run(prog);
      lint::add_snippets(rep, req.source);
      out->lint_json = rep.to_json();
    } else {
      const codegen::CompileResult compiled =
          codegen::compile(prog, req.flags.sopt, req.flags.copt);
      out->listing = compiled.listing;
      out->report_json = compiled.report.to_json();
      const verify::CompiledPlan bound = verify::bind(prog, compiled.cps, compiled.plan);
      out->verify_json = verify::check(bound).to_json();
      const exec::Machine machine = exec::Machine::sp2();
      const model::ModelParams mparams = model::ModelParams::from_machine(machine);
      out->model_json =
          model::predict(prog, compiled.cps, compiled.plan, machine).to_json(mparams);
    }
  } catch (const dhpf::Error& e) {
    out->ok = false;
    out->error_code =
        static_cast<int>(parsed ? ErrorCode::CompileError : ErrorCode::ParseError);
    out->error = e.what();
  } catch (const std::exception& e) {
    out->ok = false;
    out->error_code = static_cast<int>(ErrorCode::Internal);
    out->error = e.what();
  }
  return out;
}

/// Copy the cached products a given request kind asked for into a response.
void project(const Request& req, const CachedResult& value, Response& resp) {
  resp.ok = value.ok;
  resp.code = value.ok ? ErrorCode::None : static_cast<ErrorCode>(value.error_code);
  resp.error = value.error;
  if (!value.ok) return;
  switch (req.kind) {
    case Kind::Compile:
      resp.listing = value.listing;
      resp.report_json = value.report_json;
      break;
    case Kind::Verify:
      resp.verify_json = value.verify_json;
      break;
    case Kind::Model:
      resp.model_json = value.model_json;
      break;
    case Kind::Tune:
      resp.tune_json = value.tune_json;
      break;
    case Kind::Stats:
      break;
    case Kind::Lint:
      resp.lint_json = value.lint_json;
      break;
  }
}

Response response_to(const Request& req) {
  Response resp;
  resp.id = req.id;
  resp.kind = req.kind;
  return resp;
}

double seconds_between(std::uint64_t from_ns, std::uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

std::uint64_t now_ns() { return trace::Recorder::global().now_ns(); }

std::string grid_part(const std::vector<int>& grid) {
  std::ostringstream os;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (i) os << 'x';
    os << grid[i];
  }
  return os.str();
}

}  // namespace

CacheKey request_key(const Request& req) {
  // compile/verify/model share one pipeline execution (and thus one cache
  // entry); tune is its own class because measure_top_k changes the product;
  // lint is its own class too, and its key excludes the optimization flags —
  // the analyzer reads the source, not the plan, so every flag set shares
  // one lint entry (the grid override still matters: distribution lints).
  const std::string grid = grid_part(req.grid);
  if (req.kind == Kind::Lint) return content_hash({req.source, "", grid, "lint"});
  const bool is_tune = req.kind == Kind::Tune;
  // The measured backend is part of a tune key: the same program tuned on
  // sim and shm can select different variants, so they must not share an
  // entry.
  const std::string tail =
      is_tune ? "tune:" + std::string(exec::to_string(req.backend)) + ":" +
                    std::to_string(req.tune_measure)
              : "pipeline";
  return content_hash({req.source, req.flags.canonical(), grid, tail});
}

using Done = std::function<void(Response)>;

struct Service::Impl {
  explicit Impl(const ServiceOptions& opt)
      : cache(opt.enable_cache ? (opt.cache_entries == 0 ? 1 : opt.cache_entries) : 0),
        pool(resolve_workers(opt.workers), [](int worker) {
          trace::Recorder& rec = trace::Recorder::global();
          if (rec.enabled())
            rec.set_thread_label("svc-worker" + std::to_string(worker), 1000 + worker);
        }) {}

  ResultCache cache;
  exec::ThreadPool pool;
  std::atomic<bool> draining{false};
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> by_kind[kNumKinds] = {};

  void dispatch(Request req, Done done, std::uint64_t submit_ns, std::uint64_t start_ns);
  void enqueue(Request req, std::optional<CacheKey> key, Done done, std::uint64_t submit_ns);
  void answer(Response resp, const Done& done) {
    (resp.ok ? ok : errors).fetch_add(1, std::memory_order_relaxed);
    done(std::move(resp));
  }
};

Service::Service(const ServiceOptions& opt) : impl_(std::make_unique<Impl>(opt)) {}

Service::~Service() {
  impl_->draining.store(true, std::memory_order_relaxed);
  impl_->pool.drain();
}

/// Probe the cache on the calling thread: answer a hit here, queue a fill
/// or a no_cache run on the pool, or join the fill already in flight.
/// `submit_ns` stamps the submit and `start_ns` this probe; they differ
/// only for a request whose joined fill was abandoned.
void Service::Impl::dispatch(Request req, Done done, std::uint64_t submit_ns,
                             std::uint64_t start_ns) {
  if (req.no_cache) {
    enqueue(std::move(req), std::nullopt, std::move(done), submit_ns);
    return;
  }
  const CacheKey key = request_key(req);
  ResultCache::Probe probe;
  {
    DHPF_TRACE_SPAN("svc.cache_probe", trace::Kind::Phase);
    probe = cache.probe(key);
  }
  if (probe.must_fill) {
    enqueue(std::move(req), key, std::move(done), submit_ns);
    return;
  }
  if (probe.hit) {
    Response resp = response_to(req);
    resp.cached = true;
    project(req, *probe.hit, resp);
    resp.queue_seconds = seconds_between(submit_ns, start_ns);
    resp.service_seconds = seconds_between(start_ns, now_ns());
    answer(std::move(resp), done);
    return;
  }
  // A fill of this key is in flight: its filler answers this request too,
  // so no thread waits for it.
  ResultCache::on_fill(probe.pending, [this, req = std::move(req), done = std::move(done),
                                       submit_ns](CachedResultPtr value) mutable {
    const std::uint64_t joined_ns = now_ns();
    if (!value) {  // the filler abandoned the key: probe again
      dispatch(std::move(req), std::move(done), submit_ns, joined_ns);
      return;
    }
    Response resp = response_to(req);
    resp.cached = true;
    project(req, *value, resp);
    resp.queue_seconds = seconds_between(submit_ns, joined_ns);
    resp.service_seconds = seconds_between(joined_ns, now_ns());
    answer(std::move(resp), done);
  });
}

/// Run `req` on a pool worker: a fill of `key`, or a no_cache run when
/// there is no key. A fill is published before `req` is answered, so the
/// requests that joined it are answered first and a requester that sends
/// its next request after this answer finds the value resident.
void Service::Impl::enqueue(Request req, std::optional<CacheKey> key, Done done,
                            std::uint64_t submit_ns) {
  pool.submit([this, req = std::move(req), key, done = std::move(done), submit_ns] {
    trace::Recorder& rec = trace::Recorder::global();
    const std::uint64_t start_ns = rec.now_ns();
    if (rec.enabled()) {
      static const trace::NameId kQueueWait = rec.intern("svc.queue_wait");
      rec.record_complete(kQueueWait, trace::Kind::Wait, submit_ns, start_ns);
    }
    CachedResultPtr value;
    try {
      // Per-request metrics isolation: every counter and pass timer bumped
      // while this request runs lands in a registry that dies with it.
      obs::Registry request_registry;
      obs::ScopedRegistry scoped(request_registry);
      DHPF_TRACE_SPAN("svc.compile", trace::Kind::Phase);
      value = run_uncached(req);
    } catch (...) {
      // run_uncached turns dhpf::Error and std::exception into results;
      // only another throw, or an allocation failure outside its try, ends
      // here, with no result to cache.
    }
    Response resp = response_to(req);
    if (value) {
      project(req, *value, resp);
    } else {
      resp.ok = false;
      resp.code = ErrorCode::Internal;
      resp.error = "the request failed without a result";
    }
    resp.queue_seconds = seconds_between(submit_ns, start_ns);
    resp.service_seconds = seconds_between(start_ns, rec.now_ns());
    if (key && value)
      cache.fill(*key, std::move(value));
    else if (key)
      cache.abandon(*key);
    answer(std::move(resp), done);
  });
}

Response Service::handle(const Request& req) {
  std::mutex mu;
  std::condition_variable cv;
  bool ready = false;
  Response out;
  submit(req, [&](Response r) {
    std::lock_guard<std::mutex> lock(mu);
    out = std::move(r);
    ready = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return ready; });
  return out;
}

void Service::submit(Request req, std::function<void(Response)> done) {
  const std::uint64_t submit_ns = now_ns();
  Impl& im = *impl_;
  Response resp = response_to(req);
  if (im.draining.load(std::memory_order_relaxed)) {
    im.rejected.fetch_add(1, std::memory_order_relaxed);
    resp.ok = false;
    resp.code = ErrorCode::Shutdown;
    resp.error = "service is draining";
    done(std::move(resp));
    return;
  }
  im.requests.fetch_add(1, std::memory_order_relaxed);
  im.by_kind[static_cast<int>(req.kind)].fetch_add(1, std::memory_order_relaxed);
  if (req.kind == Kind::Stats) {
    resp.ok = true;
    resp.code = ErrorCode::None;
    resp.stats_json = stats_json();
  } else if (req.source.empty()) {
    resp.ok = false;
    resp.code = ErrorCode::BadRequest;
    resp.error = "empty program source";
  } else {
    im.dispatch(std::move(req), std::move(done), submit_ns, submit_ns);
    return;
  }
  resp.service_seconds = seconds_between(submit_ns, now_ns());
  im.answer(std::move(resp), done);
}

std::vector<Response> Service::handle_batch(const std::vector<Request>& batch) {
  std::vector<Response> out(batch.size());
  std::mutex mu;
  std::condition_variable cv;
  std::size_t remaining = batch.size();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    submit(batch[i], [&, i](Response r) {
      std::lock_guard<std::mutex> lock(mu);
      out[i] = std::move(r);
      if (--remaining == 0) cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return remaining == 0; });
  return out;
}

void Service::begin_drain() { impl_->draining.store(true, std::memory_order_relaxed); }

bool Service::draining() const {
  return impl_->draining.load(std::memory_order_relaxed);
}

void Service::drain() { impl_->pool.drain(); }

Service::Stats Service::stats() const {
  Stats s;
  s.requests = impl_->requests.load(std::memory_order_relaxed);
  s.ok = impl_->ok.load(std::memory_order_relaxed);
  s.errors = impl_->errors.load(std::memory_order_relaxed);
  s.rejected = impl_->rejected.load(std::memory_order_relaxed);
  for (int i = 0; i < kNumKinds; ++i)
    s.by_kind[i] = impl_->by_kind[i].load(std::memory_order_relaxed);
  s.cache = impl_->cache.stats();
  s.pool = impl_->pool.stats();
  s.iset = iset::memo::cache_stats();
  s.workers = impl_->pool.workers();
  return s;
}

std::string Service::stats_json() const {
  const Stats s = stats();
  json::Writer w(/*pretty=*/false);
  w.begin_object();
  w.member("requests", s.requests);
  w.member("ok", s.ok);
  w.member("errors", s.errors);
  w.member("rejected", s.rejected);
  w.key("by_kind");
  w.begin_object();
  for (int i = 0; i < kNumKinds; ++i)
    w.member(to_string(static_cast<Kind>(i)), s.by_kind[i]);
  w.end_object();
  w.key("cache");
  w.begin_object();
  w.member("hits", s.cache.hits);
  w.member("misses", s.cache.misses);
  w.member("coalesced", s.cache.coalesced);
  w.member("evictions", s.cache.evictions);
  w.member("entries", static_cast<std::uint64_t>(s.cache.entries));
  w.member("bytes", static_cast<std::uint64_t>(s.cache.bytes));
  w.member("capacity", static_cast<std::uint64_t>(s.cache.capacity));
  w.end_object();
  w.key("pool");
  w.begin_object();
  w.member("workers", s.workers);
  w.member("submitted", s.pool.submitted);
  w.member("executed", s.pool.executed);
  w.member("stolen", s.pool.stolen);
  w.member("queue_depth", static_cast<std::uint64_t>(s.pool.queue_depth));
  w.end_object();
  // Process-wide set-algebra cache health: interned representations and the
  // memoized-operation hit rate shared by every compile this daemon served.
  w.key("iset");
  w.begin_object();
  w.member("intern_nodes", s.iset.intern_nodes);
  w.member("intern_reuses", s.iset.intern_reuses);
  w.member("hits", s.iset.hits);
  w.member("misses", s.iset.misses);
  w.member("evictions", s.iset.evictions);
  w.end_object();
  w.end_object();
  return w.str();
}

int Service::workers() const { return impl_->pool.workers(); }

}  // namespace dhpf::svc
