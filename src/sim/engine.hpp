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
// The real-hardware counterpart of this backend is the threaded runtime,
// mp::run in its mp and shm modes; node programs written against
// exec::Channel run unmodified on any of them.
#pragma once

#include <coroutine>
#include <cstddef>
#include <deque>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "exec/channel.hpp"
#include "sim/machine.hpp"
#include "sim/task.hpp"
#include "sim/trace.hpp"

namespace dhpf::sim {

/// Wildcard source for Process::recv (same value as exec::kAnySource).
inline constexpr int kAnySource = exec::kAnySource;

using Request = exec::Request;

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
  [[nodiscard]] const Machine& machine() const override;

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
  double acc_compute_ = 0.0;
  double acc_comm_ = 0.0;
  double acc_idle_ = 0.0;
};

class Engine {
 public:
  /// `record_trace` enables full interval/message logs (space-time diagrams).
  Engine(int nprocs, Machine machine, bool record_trace = false);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] int nprocs() const { return static_cast<int>(procs_.size()); }
  [[nodiscard]] Process& proc(int rank);
  [[nodiscard]] const Machine& machine() const { return machine_; }

  /// Run `body(proc)` on every rank to completion. Throws dhpf::Error on
  /// deadlock or if any rank's coroutine throws.
  void run(const std::function<Task(Process&)>& body);

  /// Simulated wall time of the last run (max final clock over ranks).
  [[nodiscard]] double elapsed() const { return stats_.elapsed; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const TraceLog& trace() const { return trace_; }
  [[nodiscard]] bool tracing() const { return record_trace_; }

 private:
  friend class Process;

  void deliver(int dst, Message msg);

  Machine machine_;
  bool record_trace_;
  std::deque<Process> procs_;  // deque: stable addresses
  TraceLog trace_;
  Stats stats_;
};

/// Convenience one-shot runner. Returns simulated elapsed seconds.
double run_spmd(int nprocs, const Machine& machine,
                const std::function<Task(Process&)>& body, Stats* stats_out = nullptr,
                TraceLog* trace_out = nullptr);

}  // namespace dhpf::sim
