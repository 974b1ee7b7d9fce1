// Execution traces of the simulated machine.
//
// The simulator records, per rank, a sequence of labelled time intervals
// (compute / send / recv / idle) plus a global message log. From these we
// render ASCII space-time diagrams in the style of the paper's Figures
// 8.1-8.4 and export structured artifacts: CSV interval/message dumps, a
// src x dst message matrix, per-phase critical-path estimates, idle-time
// attribution by blocking sender, and Chrome trace-event JSON loadable in
// chrome://tracing or Perfetto. The run's summary statistics (busy
// fraction, message counts and volumes) are exec::RunStats.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dhpf::sim {

enum class IntervalKind : std::uint8_t { Compute, Send, Recv, Idle };

/// One labelled activity interval on one rank.
struct Interval {
  double start = 0.0;
  double end = 0.0;
  IntervalKind kind = IntervalKind::Compute;
  /// Phase label active when the interval was recorded ("z_solve", ...).
  std::string phase;
  /// Partner rank: for Recv (and the Idle wait preceding it) the sender
  /// whose message resolved the wait; for Send the destination; -1 for
  /// Compute intervals.
  int peer = -1;
};

/// One point-to-point message.
struct MessageRecord {
  int src = 0;
  int dst = 0;
  int tag = 0;
  std::size_t bytes = 0;
  double send_time = 0.0;  ///< time the send was issued
  double arrival = 0.0;    ///< time the payload is available at dst
};

struct RankTrace {
  std::vector<Interval> intervals;
};

/// Full trace of a run (present when the engine was created with tracing on).
struct TraceLog {
  std::vector<RankTrace> ranks;
  std::vector<MessageRecord> messages;

  /// Render an ASCII space-time diagram: one row per rank, `width` time
  /// buckets; '#' compute, '-' send, '=' recv, '.' idle (majority per
  /// bucket). A phase ruler is printed underneath when phases were recorded.
  [[nodiscard]] std::string ascii_space_time(int width = 100) const;

  /// CSV dump of intervals: rank,start,end,kind,phase,peer (phase escaped).
  [[nodiscard]] std::string intervals_csv() const;

  /// CSV dump of messages: src,dst,tag,bytes,send_time,arrival
  [[nodiscard]] std::string messages_csv() const;

  /// Per-phase aggregate seconds across ranks: phase -> (compute, comm, idle).
  struct PhaseBreakdownRow {
    std::string phase;
    double compute = 0.0;
    double comm = 0.0;
    double idle = 0.0;
  };
  [[nodiscard]] std::vector<PhaseBreakdownRow> phase_breakdown() const;

  /// src x dst point-to-point traffic summary (row-major nranks x nranks).
  struct MessageMatrix {
    int nranks = 0;
    std::vector<std::size_t> count;  ///< count[src * nranks + dst]
    std::vector<std::size_t> bytes;  ///< bytes[src * nranks + dst]

    [[nodiscard]] std::size_t count_at(int src, int dst) const {
      return count[static_cast<std::size_t>(src * nranks + dst)];
    }
    [[nodiscard]] std::size_t bytes_at(int src, int dst) const {
      return bytes[static_cast<std::size_t>(src * nranks + dst)];
    }
    /// Aligned text rendering of the count matrix (message counts).
    [[nodiscard]] std::string to_string() const;
  };
  [[nodiscard]] MessageMatrix message_matrix() const;

  /// Per-phase critical-path estimate. `span` is the wall-clock extent of
  /// the phase (max end - min start over every rank's non-idle intervals
  /// labelled with it); `max_rank_busy` is the largest single-rank busy
  /// (compute+send+recv) time inside the phase — a lower bound on the
  /// phase's serial critical path. span >> max_rank_busy signals pipeline
  /// fill/drain or load imbalance (the paper's Figures 8.2/8.4 triangles).
  struct PhaseCriticalPath {
    std::string phase;
    double start = 0.0;          ///< earliest non-idle activity
    double end = 0.0;            ///< latest non-idle activity
    double span = 0.0;           ///< end - start
    double max_rank_busy = 0.0;  ///< busiest rank's work inside the phase
    int bottleneck_rank = -1;    ///< rank achieving max_rank_busy
  };
  [[nodiscard]] std::vector<PhaseCriticalPath> critical_path() const;

  /// Idle-time attribution: seconds rank r spent blocked waiting on each
  /// sender. Row r has nranks+1 entries; column s (< nranks) is time blocked
  /// on messages from rank s, and the final column is idle time with no
  /// recorded sender (e.g. traces from before peer recording).
  [[nodiscard]] std::vector<std::vector<double>> idle_attribution() const;

  /// Chrome trace-event JSON (the `{"traceEvents": [...]}` envelope): one
  /// track per rank, complete ("X") slices named by phase (falling back to
  /// the interval kind), and flow arrows ("s"/"f") for every message.
  /// Load in chrome://tracing or https://ui.perfetto.dev.
  [[nodiscard]] std::string chrome_trace_json() const;
};

const char* to_string(IntervalKind kind);

}  // namespace dhpf::sim
