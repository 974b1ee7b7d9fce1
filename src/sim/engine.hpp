// Deterministic discrete-event simulator of a distributed-memory machine.
//
// Each simulated rank runs a coroutine (`exec::Task`) against a `Process`
// handle implementing the abstract `exec::Channel` interface (compute /
// send / recv primitives). Ranks interact *only* through messages, so the
// engine may execute any runnable rank greedily until it blocks on a
// receive; this is causality-correct and, with the fixed
// lowest-clock-first policy used here, fully deterministic.
//
// Virtual time: each rank carries its own clock, advanced by the Machine
// cost model (see exec/machine.hpp). A receive completes at
//   max(receiver clock, message arrival) + recv_overhead.
// Deadlock (all unfinished ranks blocked) raises dhpf::Error with a
// description of every blocked rank.
//
// Runs are normally started through mp::run(exec::Backend::Sim, ...), the
// one entry point for every backend; node programs written against
// exec::Channel run unmodified on sim, mp and shm.
#pragma once

#include <coroutine>
#include <cstddef>
#include <deque>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "exec/channel.hpp"
#include "exec/machine.hpp"
#include "exec/stats.hpp"
#include "exec/task.hpp"
#include "sim/trace.hpp"

namespace dhpf::sim {

/// An in-flight or delivered message.
struct Message {
  int src = 0;
  int tag = 0;
  std::vector<double> data;
  double arrival = 0.0;
};

class Engine;

/// Per-rank handle exposed to simulated code.
class Process final : public exec::Channel {
 public:
  [[nodiscard]] int rank() const override { return rank_; }
  [[nodiscard]] int nprocs() const override;
  [[nodiscard]] double now() const override { return clock_; }
  [[nodiscard]] const exec::Machine& machine() const override;

  /// Advance the local clock by `flops` floating-point operations.
  void compute(double flops) override;
  /// Advance the local clock by raw seconds (e.g. modelled memory traffic).
  void elapse(double seconds) override;

  /// Label subsequent trace intervals (e.g. "y_solve"); empty clears it.
  void set_phase(std::string phase) override { phase_ = std::move(phase); }
  [[nodiscard]] const std::string& phase() const override { return phase_; }

  /// Buffered, non-blocking send (the paper's codes use non-blocking MPI).
  void send(int dst, int tag, std::vector<double> data) override;

  /// True iff a matching message is already in the mailbox.
  [[nodiscard]] bool has_message(int src, int tag) const override;

 protected:
  // exec::Channel receive protocol: ready iff a matching message is in the
  // mailbox; otherwise park the coroutine until the engine delivers one.
  bool recv_ready(int src, int tag) override { return has_message(src, tag); }
  void recv_suspend(int src, int tag, std::coroutine_handle<> h) override;
  std::vector<double> recv_complete(int src, int tag) override;

 private:
  friend class Engine;

  /// Index into mailbox_ of the best match, or npos.
  [[nodiscard]] std::size_t find_match(int src, int tag) const;
  /// `peer`: sender rank for Recv and its preceding Idle wait; -1 otherwise.
  void record(double start, double end, IntervalKind kind, int peer = -1);

  Engine* engine_ = nullptr;
  int rank_ = 0;
  double clock_ = 0.0;
  std::string phase_;
  std::deque<Message> mailbox_;

  // scheduling state
  bool blocked_ = false;
  int want_src_ = 0;
  int want_tag_ = 0;
  std::coroutine_handle<> resume_point_;
  bool done_ = false;

  // accumulators (kept even when interval tracing is off)
  exec::RankStats stats_;
};

class Engine {
 public:
  /// `record_trace` enables full interval/message logs (space-time diagrams).
  Engine(int nprocs, exec::Machine machine, bool record_trace = false);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] int nprocs() const { return static_cast<int>(procs_.size()); }

  /// Run `body(proc)` on every rank to completion. Throws dhpf::Error on
  /// deadlock or if any rank's coroutine throws.
  void run(const std::function<exec::Task(Process&)>& body);

  /// The last run's counts, virtual-time totals and simulated wall time
  /// (`elapsed`, the max final clock over ranks); wall_seconds is left to
  /// the caller, mp::run, which times the whole run.
  [[nodiscard]] const exec::RunStats& stats() const { return stats_; }
  [[nodiscard]] const TraceLog& trace() const { return trace_; }

 private:
  friend class Process;

  void deliver(int dst, Message msg);

  exec::Machine machine_;
  bool record_trace_;
  std::deque<Process> procs_;  // deque: stable addresses
  TraceLog trace_;
  exec::RunStats stats_;
};

}  // namespace dhpf::sim
