// In-memory span ledger for traced benchmark runs.
//
// The benchmark records a span around every call it makes into a dhpf layer
// (name, start, end, parent, op id). Spans live in memory until the run
// ends; then they are written out as Chrome trace-event JSON and a flat
// per-name table, and the per-layer metrics are read off them as self time
// (a span's duration minus the part of it its children cover).
//
// Untraced runs construct no spans at all: Ledger::span() returns an inert
// guard when the ledger is disabled, so end-to-end numbers carry no tracing
// cost.
#pragma once

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct SpanRecord {
  std::string name;
  double start = 0.0;  ///< seconds since the ledger's origin
  double end = 0.0;
  int parent = -1;     ///< index of the enclosing span, -1 for a root
  long op = -1;        ///< op the span belongs to
  int thread = 0;      ///< recording thread's ledger-local index
};

class Ledger {
 public:
  explicit Ledger(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// RAII span: opens on construction, closes on destruction (or close()).
  /// Nested guards on one thread become parent and child.
  class Span {
   public:
    Span() = default;
    Span(Ledger* ledger, int index) : ledger_(ledger), index_(index) {}
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    Span(Span&& o) noexcept : ledger_(o.ledger_), index_(o.index_) { o.ledger_ = nullptr; }
    Span& operator=(Span&&) = delete;
    ~Span() { close(); }

    void close();
    /// Index of this span in the ledger (-1 when tracing is off).
    [[nodiscard]] int index() const { return ledger_ ? index_ : -1; }

   private:
    Ledger* ledger_ = nullptr;
    int index_ = -1;
  };

  /// Open a span under the calling thread's innermost open span.
  Span span(const std::string& name, long op);

  /// Record a finished span with explicit bounds, for stages whose timing
  /// arrives as data (compile-report passes, service queue/service seconds)
  /// or that overlap on one thread (svc requests in flight). A span with
  /// parent -1 is a root of op `op` on the calling thread; a child inherits
  /// its parent's op and thread. Returns its index (-1 when tracing is off).
  int add(int parent, const std::string& name, double start, double end, long op = -1);

  /// Seconds since the ledger was made, for a time point.
  [[nodiscard]] double at(Clock::time_point t) const { return seconds_between(origin_, t); }

  /// Self seconds summed per span name.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  /// Seconds of [begin, end] covered by spans that are not roots (the
  /// layers), merged per recording thread and summed over threads.
  [[nodiscard]] double covered_by_layers(double begin, double end) const;

  /// Chrome trace-event JSON ("X" events; tid = recording thread).
  [[nodiscard]] std::string chrome_json() const;
  /// One line per span name: count, total ms, self ms.
  [[nodiscard]] std::string table() const;

 private:
  int thread_index();

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
  int next_thread_ = 0;            // guarded by mu_
};

}  // namespace perfbench
