// Seeded inputs of the benchmark workloads. The program under test only
// ever sees the generated inputs; the workload seed stays here.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// SplitMix64: the benchmark's own seeded stream (independent of the
/// fuzzer's internal generator, so a change there shows as an input change
/// in the digest, not as a different op list).
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n) for n >= 1.
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Independent sub-seed `stream` of a workload seed.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream);

struct Source {
  std::string label;  ///< "gen:<fuzz seed>" or the example's file name
  std::string text;
};

/// fuzz::generate's programs for generator seeds 1..count, in order.
///
/// The generator's cost is unbounded: among plain draws from its whole
/// seed space, one program in about a thousand compiles for seconds, and
/// some never finish in bounded memory (generator seed
/// 7262382532146335171 passed 8 GB after 100 s). So the benchmark draws
/// from the low seed range whose cost distribution is on record
/// (README.md) rather than from fresh 64-bit seeds, which could pin a run.
std::vector<Source> generated_programs(long count);

/// Shuffle `v` in place with the benchmark's seeded stream.
template <typename T>
void seeded_shuffle(std::vector<T>& v, std::uint64_t seed) {
  SplitMix r(seed);
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[r.below(i)]);
}

/// examples/sample.hpf followed by examples/nas/*.hpf (sorted by name).
std::vector<Source> example_programs(const std::string& root);

}  // namespace perfbench
