#include "mp/runtime.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string_view>
#include <thread>

#include "sim/engine.hpp"
#include "support/diagnostics.hpp"
#include "support/metrics.hpp"
#include "trace/trace.hpp"

namespace dhpf::mp {

namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_between(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The longest wait, in seconds, the runtime turns into a steady-clock
/// deadline: half the clock's range, so that now() + the wait cannot
/// overflow the clock's tick count.
constexpr double kMaxWaitSeconds =
    std::chrono::duration<double>(SteadyClock::duration::max()).count() / 2;

/// `seconds` (> 0) as steady-clock ticks, capped at kMaxWaitSeconds.
SteadyClock::duration ticks(double seconds) {
  return std::chrono::duration_cast<SteadyClock::duration>(
      std::chrono::duration<double>(std::min(seconds, kMaxWaitSeconds)));
}

/// What a run calls itself: its obs/error/dump prefix and its rank spans.
/// The spans open by NameId because a DHPF_TRACE_SPAN site caches the first
/// name it interns, and each span site here serves both modes.
struct ModeNames {
  std::string_view prefix;  ///< "mp" | "shm"
  trace::NameId compute, send, recv, wait, barrier;
};

ModeNames intern_names(std::string_view prefix) {
  trace::Recorder& rec = trace::Recorder::global();
  const std::string p = std::string(prefix) + ".";
  ModeNames n;
  n.prefix = prefix;
  n.compute = rec.intern(p + "compute");
  n.send = rec.intern(p + "send");
  n.recv = rec.intern(p + "recv");
  n.wait = rec.intern(p + "wait");
  n.barrier = rec.intern(p + "barrier");
  return n;
}

const ModeNames& names_of(exec::Backend mode) {
  static const ModeNames mp = intern_names("mp");
  static const ModeNames shm = intern_names("shm");
  return mode == exec::Backend::Shm ? shm : mp;
}

/// Raised in ranks that were force-woken by the deadlock watchdog, so the
/// driver can distinguish the (shared) abort from a rank's own failure.
struct AbortError : Error {
  AbortError(std::string_view component, const std::string& msg) : Error(component, msg) {}
};

struct Message {
  int src = 0;
  int tag = 0;
  std::vector<double> data;
};

struct Mailbox {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Message> q;
};

/// The central sense-reversing barrier (Shm mode). `generation` advances on
/// every release; waiters block until their entry generation is superseded.
/// Its fields, and the blocked state of a rank waiting here, change only
/// under `mu`.
struct CentralBarrier {
  std::mutex mu;
  std::condition_variable cv;
  int count = 0;
  std::uint64_t generation = 0;
};

/// want_src of a rank parked at the barrier. No receive can wait on it
/// (recv_ready admits only exec::kAnySource and 0..n-1), whereas any negative tag
/// could belong to a receive: the collectives use negative internal tags.
constexpr int kBarrierSrc = -2;

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// First message (FIFO delivery order) matching (src, tag); src may be
/// exec::kAnySource. Caller holds the mailbox mutex.
std::size_t find_match(const Mailbox& box, int src, int tag) {
  for (std::size_t i = 0; i < box.q.size(); ++i) {
    const Message& m = box.q[i];
    if ((src == exec::kAnySource || m.src == src) && m.tag == tag) return i;
  }
  return kNpos;
}

class Runtime;

class Endpoint final : public exec::Channel {
 public:
  Endpoint(Runtime* rt, int rank) : rt_(rt), rank_(rank) {}

  [[nodiscard]] int rank() const override { return rank_; }
  [[nodiscard]] int nprocs() const override;
  [[nodiscard]] double now() const override;
  [[nodiscard]] const exec::Machine& machine() const override;

  void compute(double flops) override;
  void elapse(double seconds) override;

  void set_phase(std::string phase) override {
    const auto t = SteadyClock::now();
    phase_wall_[phase_] += seconds_between(phase_enter_, t);
    phase_ = std::move(phase);
    phase_enter_ = t;
  }
  [[nodiscard]] const std::string& phase() const override { return phase_; }

  void send(int dst, int tag, std::vector<double> data) override;
  [[nodiscard]] bool has_message(int src, int tag) const override;

  /// The shared-memory primitives (see mp::barrier / mp::note_shared_read).
  void barrier_wait();
  void add_shared_read(std::size_t bytes) { stats.shared_read_bytes += bytes; }
  [[nodiscard]] bool shared_memory() const;

  /// Realize any outstanding modelled compute (Spin/Sleep) in host time.
  void flush_compute(bool force);
  /// Close the open phase interval; called once when the rank finishes.
  void finish();

  exec::RankStats stats;
  /// phase -> total wall / blocked real seconds on this rank.
  std::map<std::string, double> phase_wall_;
  std::map<std::string, double> phase_wait_;

  // Watchdog-visible blocked state. A receive wait publishes want_src and
  // want_tag, then raises `blocked`, under this rank's mailbox mutex; a
  // barrier wait sets want_src = kBarrierSrc, then raises `blocked`, under
  // the barrier mutex. A wait that ends clears only `blocked`: want_src
  // keeps naming the last wait until the next receive wait replaces it
  // under the mailbox mutex, so a scan holding that mutex which reads
  // `blocked` set also reads the kind of wait that set it.
  std::atomic<bool> blocked{false};
  std::atomic<bool> done{false};
  std::atomic<int> want_src{0};
  std::atomic<int> want_tag{0};
  /// Generation this rank waits to end; read/written under the barrier mutex.
  std::uint64_t barrier_gen_wanted = 0;

 protected:
  bool recv_ready(int src, int tag) override;
  void recv_suspend(int, int, std::coroutine_handle<>) override;
  std::vector<double> recv_complete(int src, int tag) override;

 private:
  /// Block on `cv` (the caller holds `lock`) until `ready()` or the run
  /// aborts; false when Options::recv_timeout_s expired first.
  template <class Ready>
  bool park(std::condition_variable& cv, std::unique_lock<std::mutex>& lock, Ready ready);
  /// Charge the real time blocked since `start` to this rank and phase.
  void account_wait(SteadyClock::time_point start);

  Runtime* rt_;
  int rank_;
  std::string phase_;
  SteadyClock::time_point phase_enter_;
  double debt_seconds_ = 0.0;  ///< modelled compute not yet realized
  std::vector<double> pending_;  ///< payload stashed by recv_ready
  bool have_pending_ = false;

  friend class Runtime;
};

class Runtime {
 public:
  Runtime(exec::Backend mode, int nranks, const exec::Machine& machine, const Options& opt,
          const std::function<exec::Task(exec::Channel&)>& body)
      : mode_(mode), names_(names_of(mode)), machine_(machine), opt_(opt), body_(body) {
    require(nranks > 0, component(), "need at least one rank");
    boxes_ = std::make_unique<Mailbox[]>(static_cast<std::size_t>(nranks));
    endpoints_.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) endpoints_.push_back(std::make_unique<Endpoint>(this, r));
    errors_.resize(static_cast<std::size_t>(nranks));
  }

  [[nodiscard]] exec::Backend mode() const { return mode_; }
  [[nodiscard]] const ModeNames& names() const { return names_; }
  [[nodiscard]] std::string_view component() const { return names_.prefix; }
  [[nodiscard]] int nranks() const { return static_cast<int>(endpoints_.size()); }
  [[nodiscard]] const exec::Machine& machine() const { return machine_; }
  [[nodiscard]] const Options& options() const { return opt_; }
  [[nodiscard]] Mailbox& box(int rank) { return boxes_[static_cast<std::size_t>(rank)]; }
  [[nodiscard]] const Mailbox& box(int rank) const {
    return boxes_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] CentralBarrier& bar() { return barrier_; }
  [[nodiscard]] SteadyClock::time_point start_time() const { return start_; }

  [[nodiscard]] bool aborted() const { return aborted_.load(std::memory_order_acquire); }
  [[nodiscard]] std::string abort_message() const {
    std::lock_guard<std::mutex> lock(abort_mu_);
    return abort_msg_;
  }

  void deliver(int dst, Message msg) {
    require(dst >= 0 && dst < nranks(), component(), "send: destination rank out of range");
    Mailbox& b = box(dst);
    {
      std::lock_guard<std::mutex> lock(b.mu);
      b.q.push_back(std::move(msg));
    }
    deliveries_.fetch_add(1, std::memory_order_release);
    b.cv.notify_all();
  }

  /// Called by the releasing rank of a barrier episode (under the barrier
  /// mutex): progress signal for the watchdog plus the global episode count.
  void note_barrier_release() { barrier_epochs_.fetch_add(1, std::memory_order_release); }
  [[nodiscard]] std::uint64_t barrier_epochs() const {
    return barrier_epochs_.load(std::memory_order_acquire);
  }

  exec::RunStats run();

 private:
  void rank_main(int r);
  void watchdog_main();
  /// One precise deadlock scan; fires the abort and returns true on deadlock.
  bool deadlock_scan();
  void abort_run(const std::string& msg);
  void publish(const exec::RunStats& stats) const;

  exec::Backend mode_;
  const ModeNames& names_;
  const exec::Machine& machine_;
  Options opt_;
  const std::function<exec::Task(exec::Channel&)>& body_;
  std::unique_ptr<Mailbox[]> boxes_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::vector<std::exception_ptr> errors_;
  CentralBarrier barrier_;
  SteadyClock::time_point start_;

  std::atomic<std::uint64_t> deliveries_{0};
  std::atomic<std::uint64_t> barrier_epochs_{0};
  std::atomic<bool> aborted_{false};
  mutable std::mutex abort_mu_;
  std::string abort_msg_;

  // watchdog shutdown signalling
  std::mutex wd_mu_;
  std::condition_variable wd_cv_;
  bool wd_stop_ = false;

  friend class Endpoint;
};

// ---------------------------------------------------------------- Endpoint

int Endpoint::nprocs() const { return rt_->nranks(); }

double Endpoint::now() const { return seconds_between(rt_->start_time(), SteadyClock::now()); }

const exec::Machine& Endpoint::machine() const { return rt_->machine(); }

bool Endpoint::shared_memory() const { return rt_->mode() == exec::Backend::Shm; }

void Endpoint::compute(double flops) { elapse(flops * rt_->machine().flop_time); }

void Endpoint::elapse(double seconds) {
  require(seconds >= 0.0, rt_->component(), "negative compute time");
  stats.compute_seconds += seconds;
  if (rt_->options().compute_mode != ComputeMode::Noop)
    debt_seconds_ += seconds * rt_->options().time_scale;
  // Batch tiny per-statement charges; sub-granularity sleeps/spins would
  // swamp the run with syscall overhead.
  if (debt_seconds_ > 100e-6) flush_compute(false);
}

void Endpoint::flush_compute(bool force) {
  if (debt_seconds_ <= 0.0) return;
  const ComputeMode mode = rt_->options().compute_mode;
  if (mode == ComputeMode::Noop) {
    debt_seconds_ = 0.0;
    return;
  }
  if (!force && debt_seconds_ <= 50e-6) return;
  trace::Span span(rt_->names().compute, trace::Kind::Compute);
  const std::chrono::duration<double> d(debt_seconds_);
  if (mode == ComputeMode::Sleep) {
    std::this_thread::sleep_for(d);
  } else {
    const auto until = SteadyClock::now() + std::chrono::duration_cast<SteadyClock::duration>(d);
    while (SteadyClock::now() < until) {
      // busy-wait; keep the loop observable to the optimizer
      std::atomic_signal_fence(std::memory_order_seq_cst);
    }
  }
  debt_seconds_ = 0.0;
}

void Endpoint::finish() {
  flush_compute(true);
  const auto t = SteadyClock::now();
  phase_wall_[phase_] += seconds_between(phase_enter_, t);
}

void Endpoint::send(int dst, int tag, std::vector<double> data) {
  flush_compute(false);
  trace::Span span(rt_->names().send, trace::Kind::Send);
  const std::size_t bytes = data.size() * sizeof(double);
  rt_->deliver(dst, Message{rank_, tag, std::move(data)});
  ++stats.sends;
  stats.bytes_sent += bytes;
}

bool Endpoint::has_message(int src, int tag) const {
  const Mailbox& b = rt_->box(rank_);
  std::lock_guard<std::mutex> lock(const_cast<std::mutex&>(b.mu));
  return find_match(b, src, tag) != kNpos;
}

template <class Ready>
bool Endpoint::park(std::condition_variable& cv, std::unique_lock<std::mutex>& lock,
                    Ready ready) {
  const auto woken = [&] { return ready() || rt_->aborted(); };
  const double timeout = rt_->options().recv_timeout_s;
  if (timeout <= 0.0) {
    cv.wait(lock, woken);
    return true;
  }
  return cv.wait_until(lock, SteadyClock::now() + ticks(timeout), woken);
}

void Endpoint::account_wait(SteadyClock::time_point start) {
  const double waited = seconds_between(start, SteadyClock::now());
  stats.wait_seconds += waited;
  phase_wait_[phase_] += waited;
}

bool Endpoint::recv_ready(int src, int tag) {
  require(src == exec::kAnySource || (src >= 0 && src < rt_->nranks()), rt_->component(),
          "recv: source rank out of range");
  flush_compute(false);
  trace::Span span(rt_->names().recv, trace::Kind::Recv);
  Mailbox& b = rt_->box(rank_);
  std::unique_lock<std::mutex> lock(b.mu);
  std::size_t idx = find_match(b, src, tag);
  if (idx == kNpos && !rt_->aborted()) {
    // The wait span stays open while the rank is parked — a deadlocked
    // rank's flight recorder therefore ends with an [open] <mode>.wait,
    // which is exactly what the watchdog dump shows.
    trace::Span wait_span(rt_->names().wait, trace::Kind::Wait);
    // Publish what we are waiting for *before* raising the blocked flag so
    // the watchdog never reads a stale (src, tag) for a blocked rank.
    want_src.store(src, std::memory_order_seq_cst);
    want_tag.store(tag, std::memory_order_seq_cst);
    blocked.store(true, std::memory_order_seq_cst);
    const auto start = SteadyClock::now();
    const bool woken = park(b.cv, lock, [&] { return find_match(b, src, tag) != kNpos; });
    blocked.store(false, std::memory_order_seq_cst);
    account_wait(start);
    idx = find_match(b, src, tag);
    if (!woken) {
      std::ostringstream msg;
      msg << "recv timeout: rank " << rank_ << " waited "
          << rt_->options().recv_timeout_s << "s on (src=" << src << ", tag=" << tag
          << ") — missing send or deadlock";
      fail(rt_->component(), msg.str());
    }
  }
  if (idx == kNpos) {
    // Force-woken by the watchdog with nothing to consume.
    throw AbortError(rt_->component(), rt_->abort_message());
  }
  Message msg = std::move(b.q[idx]);
  b.q.erase(b.q.begin() + static_cast<std::ptrdiff_t>(idx));
  lock.unlock();
  ++stats.recvs;
  stats.bytes_received += msg.data.size() * sizeof(double);
  pending_ = std::move(msg.data);
  have_pending_ = true;
  return true;
}

void Endpoint::recv_suspend(int, int, std::coroutine_handle<>) {
  fail(rt_->component(), "internal: coroutine suspended on the " +
                             std::string(rt_->component()) + " backend");
}

std::vector<double> Endpoint::recv_complete(int, int) {
  require(have_pending_, rt_->component(), "internal: recv completed without a matched message");
  have_pending_ = false;
  return std::move(pending_);
}

void Endpoint::barrier_wait() {
  flush_compute(false);
  trace::Span span(rt_->names().barrier, trace::Kind::Wait);
  CentralBarrier& bar = rt_->bar();
  std::unique_lock<std::mutex> lock(bar.mu);
  if (rt_->aborted()) throw AbortError(rt_->component(), rt_->abort_message());
  ++stats.barriers;
  const std::uint64_t gen = bar.generation;
  if (++bar.count == rt_->nranks()) {
    bar.count = 0;
    ++bar.generation;
    rt_->note_barrier_release();
    bar.cv.notify_all();
    return;
  }
  // Watchdog-visible barrier wait, published under the barrier mutex.
  barrier_gen_wanted = gen;
  want_src.store(kBarrierSrc, std::memory_order_seq_cst);
  blocked.store(true, std::memory_order_seq_cst);
  const auto start = SteadyClock::now();
  const bool woken = park(bar.cv, lock, [&] { return bar.generation != gen; });
  blocked.store(false, std::memory_order_seq_cst);
  account_wait(start);
  if (bar.generation != gen) return;  // released normally
  if (!woken) {
    std::ostringstream msg;
    msg << "barrier timeout: rank " << rank_ << " waited "
        << rt_->options().recv_timeout_s << "s with " << bar.count << "/"
        << rt_->nranks() << " ranks arrived — a peer died or deadlocked";
    fail(rt_->component(), msg.str());
  }
  // Force-woken by the watchdog with the barrier still shut.
  throw AbortError(rt_->component(), rt_->abort_message());
}

/// `ch` as an endpoint of an Shm-mode run, or a dhpf::Error naming `what`.
Endpoint& shm_endpoint(exec::Channel& ch, const char* what) {
  auto* ep = dynamic_cast<Endpoint*>(&ch);
  if (ep == nullptr || !ep->shared_memory())
    fail("shm", std::string(what) + ": channel does not belong to an shm run");
  return *ep;
}

// ----------------------------------------------------------------- Runtime

void Runtime::rank_main(int r) {
  Endpoint& ep = *endpoints_[static_cast<std::size_t>(r)];
  if (trace::Recorder::global().enabled())
    trace::Recorder::global().set_thread_label("rank" + std::to_string(r), r);
  ep.phase_enter_ = SteadyClock::now();
  try {
    exec::Task root = body_(ep);
    if (root.handle()) root.handle().resume();
    require(root.done(), component(), "rank returned control without completing");
    root.rethrow_if_failed();
  } catch (...) {
    errors_[static_cast<std::size_t>(r)] = std::current_exception();
  }
  ep.finish();
  ep.done.store(true, std::memory_order_seq_cst);
}

bool Runtime::deadlock_scan() {
  // Sound because sends bump deliveries_ and a recv-blocked rank can only
  // unblock after a delivery (or abort/timeout), and a barrier release
  // bumps barrier_epochs_ while a rank parked at the barrier can only
  // proceed once its entry generation is superseded. If every unfinished
  // rank is observed blocked — recv-blocked with no matching pending
  // message (under its mailbox lock, which the rank holds whenever it
  // manipulates that state), or barrier-blocked on the current generation
  // (under the barrier lock) — and neither counter moved across the scan,
  // none of them can ever make progress again.
  const std::uint64_t before_d = deliveries_.load(std::memory_order_acquire);
  const std::uint64_t before_b = barrier_epochs();
  std::ostringstream who;
  int blocked_count = 0, live = 0;
  for (int r = 0; r < nranks(); ++r) {
    Endpoint& ep = *endpoints_[static_cast<std::size_t>(r)];
    if (ep.done.load(std::memory_order_seq_cst)) continue;
    ++live;
    bool parked_at_barrier = false;
    {
      Mailbox& b = box(r);
      std::lock_guard<std::mutex> lock(b.mu);
      if (!ep.blocked.load(std::memory_order_seq_cst)) return false;
      const int src = ep.want_src.load(std::memory_order_seq_cst);
      parked_at_barrier = src == kBarrierSrc;
      if (!parked_at_barrier) {
        const int tag = ep.want_tag.load(std::memory_order_seq_cst);
        if (find_match(b, src, tag) != kNpos) return false;  // about to wake
        who << " rank " << r << " waiting on (src=" << src << ", tag=" << tag << ")";
        ++blocked_count;
      }
    }
    if (parked_at_barrier) {
      // Confirm under the barrier mutex: the rank is genuinely parked on the
      // *current* generation (having left that wait since is progress).
      std::lock_guard<std::mutex> lock(barrier_.mu);
      if (!ep.blocked.load(std::memory_order_seq_cst) ||
          ep.want_src.load(std::memory_order_seq_cst) != kBarrierSrc)
        return false;
      if (barrier_.generation != ep.barrier_gen_wanted) return false;  // released
      who << " rank " << r << " waiting at barrier (" << barrier_.count << "/"
          << nranks() << " arrived)";
      ++blocked_count;
    }
  }
  if (live == 0 || blocked_count < live) return false;
  if (deliveries_.load(std::memory_order_acquire) != before_d) return false;
  if (barrier_epochs() != before_b) return false;
  abort_run("deadlock:" + who.str());
  return true;
}

void Runtime::abort_run(const std::string& msg) {
  {
    std::lock_guard<std::mutex> lock(abort_mu_);
    if (abort_msg_.empty()) abort_msg_ = msg;
  }
  // Before waking anyone: every stuck rank is parked, so the flight
  // recorders are a consistent picture of how the run got here.
  trace::Recorder& rec = trace::Recorder::global();
  if (rec.enabled()) {
    std::string dump =
        std::string(component()) + " watchdog: " + msg + "\n" + rec.flight_dump_text();
    std::fputs(dump.c_str(), stderr);
  }
  aborted_.store(true, std::memory_order_release);
  // Acquire-release on each wait's mutex so parked ranks observe the abort
  // flag when they re-check their wait predicate.
  for (int r = 0; r < nranks(); ++r) {
    std::lock_guard<std::mutex> lock(box(r).mu);
    box(r).cv.notify_all();
  }
  std::lock_guard<std::mutex> lock(barrier_.mu);
  barrier_.cv.notify_all();
}

void Runtime::watchdog_main() {
  const SteadyClock::duration period = ticks(opt_.watchdog_period_s);
  std::unique_lock<std::mutex> lock(wd_mu_);
  while (!wd_stop_) {
    if (wd_cv_.wait_for(lock, period, [&] { return wd_stop_; })) return;
    lock.unlock();
    const bool fired = deadlock_scan();
    lock.lock();
    if (fired) return;
  }
}

exec::RunStats Runtime::run() {
  const int n = nranks();
  start_ = SteadyClock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) threads.emplace_back([this, r] { rank_main(r); });
  std::thread watchdog;
  if (opt_.watchdog_period_s > 0.0) watchdog = std::thread([this] { watchdog_main(); });

  for (auto& t : threads) t.join();
  if (watchdog.joinable()) {
    {
      std::lock_guard<std::mutex> lock(wd_mu_);
      wd_stop_ = true;
    }
    wd_cv_.notify_all();
    watchdog.join();
  }
  const double wall = seconds_between(start_, SteadyClock::now());

  // Rank failures: report the first rank-originated error; fall back to the
  // watchdog's deadlock description when every failure is the shared abort.
  bool aborted_ranks = false;
  for (int r = 0; r < n; ++r) {
    if (!errors_[static_cast<std::size_t>(r)]) continue;
    try {
      std::rethrow_exception(errors_[static_cast<std::size_t>(r)]);
    } catch (const AbortError&) {
      aborted_ranks = true;
    } catch (const std::exception& e) {
      fail(component(), "rank " + std::to_string(r) + " failed: " + e.what());
    }
  }
  if (aborted_ranks) throw Error(component(), abort_message());

  exec::RunStats stats;
  stats.backend = mode_;
  stats.wall_seconds = wall;
  stats.barriers = static_cast<std::size_t>(barrier_epochs());
  stats.ranks.reserve(static_cast<std::size_t>(n));
  std::map<std::string, exec::RunStats::PhaseRow> phases;
  for (int r = 0; r < n; ++r) {
    Endpoint& ep = *endpoints_[static_cast<std::size_t>(r)];
    stats.ranks.push_back(ep.stats);
    stats.messages += ep.stats.sends;
    stats.bytes += ep.stats.bytes_sent;
    stats.shared_read_bytes += ep.stats.shared_read_bytes;
    for (const auto& [name, wall_s] : ep.phase_wall_) {
      exec::RunStats::PhaseRow& row = phases[name];
      row.phase = name;
      const auto wit = ep.phase_wait_.find(name);
      const double wait_s = wit == ep.phase_wait_.end() ? 0.0 : wit->second;
      row.busy += wall_s - wait_s;
      row.wait += wait_s;
    }
  }
  for (auto& [name, row] : phases) stats.phases.push_back(row);
  publish(stats);
  return stats;
}

void Runtime::publish(const exec::RunStats& stats) const {
  // Observability: the counters/gauges/timers the benches and obs docs
  // read, named under the mode's prefix.
  obs::Registry& reg = obs::Registry::global();
  const std::string m(component());
  reg.add(m + ".runs");
  reg.add(m + ".messages", stats.messages);
  reg.add(m + ".bytes", stats.bytes);
  if (mode_ == exec::Backend::Shm) {
    reg.add("shm.barriers", stats.barriers);
    reg.add("shm.shared_bytes", stats.shared_read_bytes);
  }
  for (std::size_t r = 0; r < stats.ranks.size(); ++r) {
    const exec::RankStats& rs = stats.ranks[r];
    const std::string prefix = m + ".rank" + std::to_string(r);
    reg.set_gauge(prefix + ".sends", static_cast<double>(rs.sends));
    reg.set_gauge(prefix + ".recvs", static_cast<double>(rs.recvs));
    reg.set_gauge(prefix + ".wait_seconds", rs.wait_seconds);
  }
  for (const auto& row : stats.phases)
    if (!row.phase.empty()) reg.timer(m + ".phase." + row.phase).add(row.busy);
}

}  // namespace

void barrier(exec::Channel& ch) { shm_endpoint(ch, "barrier").barrier_wait(); }

void note_shared_read(exec::Channel& ch, std::size_t bytes) {
  shm_endpoint(ch, "note_shared_read").add_shared_read(bytes);
}

double watchdog_period_from_env(double fallback) {
  const char* env = std::getenv("DHPF_MP_WATCHDOG_MS");
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const double ms = std::strtod(env, &end);
  if (end == env || *end != '\0') return fallback;  // not a number: ignore
  // inf and periods beyond the steady clock's range would overflow the
  // scan's wait (which then returns at once, every time) and nan would
  // silently disable the watchdog: all fall back, like text does.
  if (!std::isfinite(ms) || ms / 1000.0 > kMaxWaitSeconds) return fallback;
  return ms <= 0.0 ? 0.0 : ms / 1000.0;
}

exec::RunStats run(exec::Backend backend, int nranks, const exec::Machine& machine,
                   const Options& opt, const std::function<exec::Task(exec::Channel&)>& body,
                   sim::TraceLog* trace) {
  trace::Span span(std::string("exec.") + exec::to_string(backend), trace::Kind::Phase);
  if (backend == exec::Backend::Sim) {
    const auto t0 = SteadyClock::now();
    sim::Engine engine(nranks, machine, trace != nullptr);
    engine.run([&](sim::Process& p) { return body(p); });
    exec::RunStats stats = engine.stats();
    stats.wall_seconds = seconds_between(t0, SteadyClock::now());
    if (trace != nullptr) *trace = engine.trace();
    return stats;
  }
  Options effective = opt;
  effective.watchdog_period_s = watchdog_period_from_env(opt.watchdog_period_s);
  Runtime rt(backend, nranks, machine, effective, body);
  return rt.run();
}

}  // namespace dhpf::mp
