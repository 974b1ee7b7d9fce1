#include "sim/engine.hpp"

#include <algorithm>
#include <sstream>

#include "support/diagnostics.hpp"

namespace dhpf::sim {

namespace {
constexpr std::size_t kNpos = std::numeric_limits<std::size_t>::max();

bool matches(const Message& m, int src, int tag) {
  return (src == exec::kAnySource || m.src == src) && m.tag == tag;
}
}  // namespace

// ---------------------------------------------------------------- Process

int Process::nprocs() const { return engine_->nprocs(); }
const exec::Machine& Process::machine() const { return engine_->machine_; }

void Process::record(double start, double end, IntervalKind kind, int peer) {
  if (end <= start) return;
  switch (kind) {
    case IntervalKind::Compute: stats_.compute_seconds += end - start; break;
    case IntervalKind::Send:
    case IntervalKind::Recv: stats_.comm_seconds += end - start; break;
    case IntervalKind::Idle: stats_.wait_seconds += end - start; break;
  }
  if (engine_->record_trace_)
    engine_->trace_.ranks[static_cast<std::size_t>(rank_)].intervals.push_back(
        Interval{start, end, kind, phase_, peer});
}

void Process::compute(double flops) { elapse(flops * engine_->machine_.flop_time); }

void Process::elapse(double seconds) {
  require(seconds >= 0.0, "sim", "negative compute time");
  record(clock_, clock_ + seconds, IntervalKind::Compute);
  clock_ += seconds;
}

void Process::send(int dst, int tag, std::vector<double> data) {
  require(dst >= 0 && dst < nprocs(), "sim", "send: destination rank out of range");
  const exec::Machine& m = engine_->machine_;
  const std::size_t bytes = data.size() * sizeof(double);
  const double busy = m.send_overhead + static_cast<double>(bytes) * m.byte_time;
  const double arrival = clock_ + m.send_overhead + m.latency +
                         static_cast<double>(bytes) * m.byte_time;
  record(clock_, clock_ + busy, IntervalKind::Send, dst);
  if (engine_->record_trace_)
    engine_->trace_.messages.push_back(MessageRecord{rank_, dst, tag, bytes, clock_, arrival});
  clock_ += busy;
  ++stats_.sends;
  stats_.bytes_sent += bytes;
  engine_->deliver(dst, Message{rank_, tag, std::move(data), arrival});
}

std::size_t Process::find_match(int src, int tag) const {
  // Deterministic matching: among present messages pick the earliest arrival,
  // tie-broken by source rank then mailbox (send) order.
  std::size_t best = kNpos;
  for (std::size_t i = 0; i < mailbox_.size(); ++i) {
    if (!matches(mailbox_[i], src, tag)) continue;
    if (best == kNpos || mailbox_[i].arrival < mailbox_[best].arrival ||
        (mailbox_[i].arrival == mailbox_[best].arrival && mailbox_[i].src < mailbox_[best].src))
      best = i;
  }
  return best;
}

bool Process::has_message(int src, int tag) const { return find_match(src, tag) != kNpos; }

void Process::recv_suspend(int src, int tag, std::coroutine_handle<> h) {
  blocked_ = true;
  want_src_ = src;
  want_tag_ = tag;
  resume_point_ = h;
}

std::vector<double> Process::recv_complete(int src, int tag) {
  const std::size_t idx = find_match(src, tag);
  require(idx != kNpos, "sim", "recv resumed without a matching message");
  Message msg = std::move(mailbox_[static_cast<std::size_t>(idx)]);
  mailbox_.erase(mailbox_.begin() + static_cast<std::ptrdiff_t>(idx));

  ++stats_.recvs;
  stats_.bytes_received += msg.data.size() * sizeof(double);
  const exec::Machine& m = engine_->machine_;
  const double ready = std::max(clock_, msg.arrival);
  record(clock_, ready, IntervalKind::Idle, msg.src);
  record(ready, ready + m.recv_overhead, IntervalKind::Recv, msg.src);
  clock_ = ready + m.recv_overhead;
  return std::move(msg.data);
}

// ----------------------------------------------------------------- Engine

Engine::Engine(int nprocs, exec::Machine machine, bool record_trace)
    : machine_(machine), record_trace_(record_trace) {
  require(nprocs > 0, "sim", "need at least one process");
  procs_.resize(static_cast<std::size_t>(nprocs));
  for (int r = 0; r < nprocs; ++r) {
    procs_[static_cast<std::size_t>(r)].engine_ = this;
    procs_[static_cast<std::size_t>(r)].rank_ = r;
  }
  if (record_trace_) trace_.ranks.resize(static_cast<std::size_t>(nprocs));
}

void Engine::deliver(int dst, Message msg) {
  Process& p = procs_[static_cast<std::size_t>(dst)];
  p.mailbox_.push_back(std::move(msg));
  if (p.blocked_ && p.find_match(p.want_src_, p.want_tag_) != kNpos) p.blocked_ = false;
}

void Engine::run(const std::function<exec::Task(Process&)>& body) {
  const int n = nprocs();
  std::vector<exec::Task> roots;
  roots.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    Process& p = procs_[static_cast<std::size_t>(r)];
    p.clock_ = 0.0;
    p.blocked_ = false;
    p.done_ = false;
    p.stats_ = exec::RankStats{};
    p.mailbox_.clear();
    roots.push_back(body(p));
    p.resume_point_ = roots.back().handle();
  }
  stats_ = exec::RunStats{};

  while (true) {
    // Pick the runnable (not done, not blocked) rank with the lowest clock.
    int pick = -1;
    for (int r = 0; r < n; ++r) {
      const Process& p = procs_[static_cast<std::size_t>(r)];
      if (p.done_ || p.blocked_) continue;
      if (pick < 0 || p.clock_ < procs_[static_cast<std::size_t>(pick)].clock_) pick = r;
    }
    if (pick < 0) break;

    Process& p = procs_[static_cast<std::size_t>(pick)];
    auto handle = p.resume_point_;
    p.resume_point_ = nullptr;
    handle.resume();
    // Control returns when the rank blocked again or its root completed.
    if (!p.blocked_) {
      const exec::Task& root = roots[static_cast<std::size_t>(pick)];
      require(root.done(), "sim", "rank returned control while neither blocked nor done");
      p.done_ = true;
      try {
        root.rethrow_if_failed();
      } catch (const std::exception& e) {
        fail("sim", "rank " + std::to_string(pick) + " failed: " + e.what());
      }
    }
  }

  // All ranks either done or blocked; any blocked rank means deadlock.
  std::ostringstream dead;
  bool deadlock = false;
  for (int r = 0; r < n; ++r) {
    const Process& p = procs_[static_cast<std::size_t>(r)];
    if (p.done_) continue;
    deadlock = true;
    dead << " rank " << r << " waiting on (src=" << p.want_src_ << ", tag=" << p.want_tag_
         << ")";
  }
  if (deadlock) fail("sim", "deadlock:" + dead.str());

  stats_.ranks.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    const Process& p = procs_[static_cast<std::size_t>(r)];
    stats_.elapsed = std::max(stats_.elapsed, p.clock_);
    stats_.messages += p.stats_.sends;
    stats_.bytes += p.stats_.bytes_sent;
    stats_.total_compute += p.stats_.compute_seconds;
    stats_.total_comm += p.stats_.comm_seconds;
    stats_.total_idle += p.stats_.wait_seconds;
    stats_.ranks.push_back(p.stats_);
  }
}

}  // namespace dhpf::sim
