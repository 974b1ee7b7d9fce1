// Shared types of the four benchmark workloads.
//
// A workload is a fixed, seeded list of ops. Its size is a function of the
// requested seconds and a nominal rate per workload (not of how fast this
// machine happens to be), so two runs at one seed do identical work and
// differ only in how long it took. Every op's output is checked against a
// known answer; an op that throws or fails its check counts as failed.
// Between ops (or rounds of concurrent ops) a workload runs a yardstick
// slice, outside every measured time, so the run's times can be reported
// in reference seconds (yardstick.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ledger.hpp"
#include "yardstick.hpp"
#include "support/metrics.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string root = ".";  ///< repository root (examples/ is read from here)
};

/// Count of ops in a run: `seconds` at a workload's nominal rate, at least 1.
long scaled_ops(int seconds, double per_second);


/// Outcome tally of the measured ops. record() is the one place an op is
/// judged, so a check that returns a reason counts the op as failed.
struct OpTally {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;  ///< first few reasons, for the log

  /// `why` empty = the op passed.
  void record(const std::string& why);
  /// Fail an op already recorded (a check made after timing stopped).
  void fail_recorded(const std::string& why);
};

/// One op's latency and completion time, with a label for the slowest-ops
/// log.
struct OpTime {
  std::string label;
  double ms = 0.0;
  double done_s = 0.0;  ///< completion, seconds after the measured phase began
};

/// What a workload run hands back to main.
struct RunReport {
  std::vector<double> setup_seconds;  ///< one entry per set-up repetition
  double setup_slowdown = 1.0;        ///< yardstick slowdown over the set-up
  double slowdown = 1.0;              ///< yardstick slowdown over the measured phase
  double phase_start = 0.0;           ///< measured phase start, ledger seconds
  double phase_end = 0.0;             ///< measured phase end, ledger seconds
  double wall_seconds = 0.0;          ///< measured phase, yardstick slices left out
  int callers = 1;                    ///< threads issuing ops
  double cpu_seconds = 0.0;           ///< process CPU over the measured phase, slices left out
  std::vector<OpTime> ops;            ///< every measured op
  OpTally tally;
  std::string input_digest;  ///< FNV-1a over the generated inputs, hex
  /// Per-layer metrics this workload measured (traced runs). run.py reports
  /// every name BENCHMARK.json declares, reading 0 for a layer not reached.
  std::map<std::string, double> layer;
  /// Per-layer metric -> why its source was absent in this run.
  std::map<std::string, std::string> absent;
};

/// Activity of the process-wide obs registry over an interval, read by the
/// documented metric names (docs/observability.md). A name the registry
/// does not hold reads 0 and marks the metric absent, so a renamed or
/// removed counter shows in the run report instead of breaking the build.
class ObsInterval {
 public:
  void begin() { before_ = dhpf::obs::Registry::global().snapshot(); }
  void end() { after_ = dhpf::obs::Registry::global().snapshot(); }

  double counter(const std::string& name, const std::string& metric, RunReport& report) const;
  double timer_seconds(const std::string& name, const std::string& metric,
                       RunReport& report) const;

 private:
  dhpf::obs::MetricsSnapshot before_;
  dhpf::obs::MetricsSnapshot after_;
};

/// Per-op counts read off the obs registry over the measured phase: iset
/// set-algebra work, verifier checks, communication events, and backend
/// messages, bytes, barriers and shared reads.
void obs_counts(const ObsInterval& obs, long ops, RunReport& report);

/// Per-op mean self milliseconds of each traced span name that is a layer
/// ("<module>.<stage>" -> "<module>.<stage>_ms").
void layer_times(const Ledger& ledger, long ops, RunReport& report);

/// Process CPU seconds (user + system, all threads).
double process_cpu_seconds();

/// Time `fn` `reps` times, with a yardstick slice after each repetition
/// (outside its time); returns each repetition's seconds. Workloads repeat
/// their set-up for about a second in all, and the median is reported.
std::vector<double> repeat_setup(int reps, Yardstick& yardstick, const std::function<void()>& fn);

/// Read a whole file; throws std::runtime_error when unreadable.
std::string read_file(const std::string& path);

/// Incremental FNV-1a 64-bit digest.
class Digest {
 public:
  void add(const std::string& bytes);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// The four workloads.
RunReport run_compile_fresh(const RunOptions& opt, Ledger& ledger, Yardstick& yardstick);
RunReport run_fuzz_campaign(const RunOptions& opt, Ledger& ledger, Yardstick& yardstick);
RunReport run_spmd_run(const RunOptions& opt, Ledger& ledger, Yardstick& yardstick);
RunReport run_svc_mixed(const RunOptions& opt, Ledger& ledger, Yardstick& yardstick);

}  // namespace perfbench
