#include "yardstick.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

#include "ledger.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kTableWords = std::size_t{1} << 19;  // 4 MiB
constexpr int kAluSteps = 100000;
constexpr int kReads = 10000;
constexpr int kMapEntries = 1500;

std::uint64_t lcg(std::uint64_t x) { return x * 6364136223846793005ull + 1442695040888963407ull; }

/// One slice's work; the result depends on every step, so none is elided.
/// The map and vectors come from the process heap, which the kernel meets
/// as the last op left it, as the next op does.
std::uint64_t kernel(const std::vector<std::uint64_t>& table) {
  std::uint64_t x = 1;
  for (int i = 0; i < kAluSteps; ++i) {
    x = lcg(x);
    x ^= x >> 17;
  }
  std::uint64_t at = x;
  for (int i = 0; i < kReads; ++i) {
    at = lcg(at);
    x += table[(at >> 20) & (kTableWords - 1)];
  }
  std::unordered_map<std::uint64_t, std::vector<long>> map;
  for (int i = 0; i < kMapEntries; ++i)
    map[static_cast<std::uint64_t>(i) * 2654435761ull].assign(static_cast<std::size_t>(1 + i % 9),
                                                              i);
  std::vector<std::uint64_t> keys;
  keys.reserve(map.size());
  for (const auto& [k, v] : map) keys.push_back(k ^ v.size());
  std::sort(keys.begin(), keys.end());
  return x + keys[keys.size() / 2];
}

}  // namespace

Yardstick::Yardstick() : table_(kTableWords) {
  std::iota(table_.begin(), table_.end(), std::uint64_t{0});
  expected_ = kernel(table_);
}

double Yardstick::slice() {
  const Clock::time_point a = Clock::now();
  const std::uint64_t got = kernel(table_);
  const double secs = seconds_between(a, Clock::now());
  if (got != expected_) throw std::logic_error("yardstick kernel checksum changed");
  total_ += secs;
  ++count_;
  return secs;
}

double Yardstick::slowdown(const Mark& from) const {
  if (count_ == from.count) return 1.0;
  return (total_ - from.seconds) / static_cast<double>(count_ - from.count) / kNominalSliceSeconds;
}

}  // namespace perfbench
