#include "inputs.hpp"

#include <algorithm>
#include <filesystem>

#include "fuzz/generator.hpp"
#include "workloads.hpp"

namespace perfbench {

std::uint64_t SplitMix::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  SplitMix r(seed * 0x100000001b3ull + stream);
  r.next();
  return r.next();
}

std::vector<Source> generated_programs(long count) {
  std::vector<Source> out;
  out.reserve(static_cast<std::size_t>(count));
  for (long s = 1; s <= count; ++s) {
    const auto gs = static_cast<std::uint64_t>(s);
    out.push_back({"gen:" + std::to_string(gs), dhpf::fuzz::generate(gs).source});
  }
  return out;
}

std::vector<Source> example_programs(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<Source> out;
  out.push_back({"sample.hpf", read_file(root + "/examples/sample.hpf")});
  std::vector<std::string> nas;
  for (const auto& e : fs::directory_iterator(root + "/examples/nas"))
    if (e.path().extension() == ".hpf") nas.push_back(e.path().string());
  std::sort(nas.begin(), nas.end());
  for (const auto& p : nas) out.push_back({fs::path(p).filename().string(), read_file(p)});
  return out;
}

}  // namespace perfbench
