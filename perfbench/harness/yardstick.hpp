// The machine-speed yardstick.
//
// The benchmark's host changes speed in phases that last minutes: the same
// fixed list of compiles ran at 42-64 programs/s from run to run, and a
// fixed hash-map loop took twice as long in some 5 s windows as in others,
// with thread CPU time equal to wall time throughout. Longer runs do not
// average such phases out, and a slow phase hits memory-bound work hardest.
// So a run also times a fixed reference kernel that shares no code with
// dhpf (integer arithmetic, random reads over a table twice the L2 cache,
// hash-map and vector churn on the process heap) in short slices between
// the measured ops, where it meets the caches and the heap as the ops
// leave them, and the run reports its times in reference seconds:
// measured seconds divided by the run's slowdown, the kernel's mean slice
// time over its nominal time. A change to dhpf moves the ops and not the
// kernel, so it shows; a slow phase of the host moves both, and cancels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class Yardstick {
 public:
  /// Nominal seconds of one slice. It sets only the unit of the reported
  /// times: one reference second is the time this many slices take, over
  /// nominal.
  static constexpr double kNominalSliceSeconds = 1.0e-3;

  Yardstick();

  /// Run one slice of the kernel and record its seconds. Throws
  /// std::logic_error if the kernel's checksum changes.
  double slice();

  /// Slices run and their seconds, up to some point of the run.
  struct Mark {
    std::size_t count = 0;
    double seconds = 0.0;
  };
  [[nodiscard]] Mark mark() const { return {count_, total_}; }

  /// Mean seconds of the slices run since `from` (or ever) ÷
  /// kNominalSliceSeconds; 1 when none ran.
  [[nodiscard]] double slowdown(const Mark& from) const;
  [[nodiscard]] double slowdown() const { return slowdown(Mark{}); }
  /// Seconds spent in slices since `from`.
  [[nodiscard]] double seconds_since(const Mark& from) const { return total_ - from.seconds; }

 private:
  std::vector<std::uint64_t> table_;  // random-read target
  std::uint64_t expected_ = 0;        // the kernel's checksum
  double total_ = 0.0;
  std::size_t count_ = 0;
};

}  // namespace perfbench
