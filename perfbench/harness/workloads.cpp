#include "workloads.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

long scaled_ops(int seconds, double per_second) {
  const long n = std::lround(seconds * per_second);
  return n < 1 ? 1 : n;
}

void OpTally::record(const std::string& why) {
  ++attempted;
  if (!why.empty()) fail_recorded(why);
}

void OpTally::fail_recorded(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

std::vector<double> repeat_setup(int reps, Yardstick& yardstick, const std::function<void()>& fn) {
  std::vector<double> out;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    out.push_back(seconds_between(t0, Clock::now()));
    yardstick.slice();
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void Digest::add(const std::string& bytes) {
  for (unsigned char c : bytes) {
    h_ ^= c;
    h_ *= 1099511628211ull;
  }
  // Separator so ("ab","c") and ("a","bc") differ.
  h_ ^= 0xff;
  h_ *= 1099511628211ull;
}

std::string Digest::hex() const {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

double ObsInterval::counter(const std::string& name, const std::string& metric,
                            RunReport& report) const {
  auto a = after_.counters.find(name);
  if (a == after_.counters.end()) {
    report.absent.emplace(metric, "obs counter " + name + " not in the registry");
    return 0.0;
  }
  auto b = before_.counters.find(name);
  const std::uint64_t base = b == before_.counters.end() ? 0 : b->second;
  return static_cast<double>(a->second - base);
}

double ObsInterval::timer_seconds(const std::string& name, const std::string& metric,
                                  RunReport& report) const {
  auto a = after_.timers.find(name);
  if (a == after_.timers.end()) {
    report.absent.emplace(metric, "obs timer " + name + " not in the registry");
    return 0.0;
  }
  auto b = before_.timers.find(name);
  const double base = b == before_.timers.end() ? 0.0 : b->second.seconds;
  return a->second.seconds - base;
}

void obs_counts(const ObsInterval& obs, long ops, RunReport& report) {
  const double n = static_cast<double>(ops);
  auto sum = [&](const char* metric, std::initializer_list<const char*> names) {
    double total = 0.0;
    for (const char* name : names) total += obs.counter(name, metric, report);
    return total;
  };
  auto per_op = [&](const char* metric, std::initializer_list<const char*> names) {
    report.layer[metric] = sum(metric, names) / n;
  };
  per_op("verify.checks_run", {"verify.checks"});
  per_op("iset.enumerations", {"iset.enumerations"});
  per_op("iset.memo_misses", {"iset.cache.misses"});
  per_op("iset.intern_nodes", {"iset.intern.nodes"});
  per_op("iset.evictions", {"iset.cache.evictions"});
  per_op("iset.fm_projections", {"iset.fm_projections"});
  per_op("iset.emptiness_tests", {"iset.emptiness_tests"});
  const double hits = sum("iset.memo_hit_ratio", {"iset.cache.hits"});
  const double misses = sum("iset.memo_hit_ratio", {"iset.cache.misses"});
  report.layer["iset.memo_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  per_op("comm.events", {"comm.fetch_events", "comm.writeback_events"});
  per_op("comm.eliminated", {"comm.availability_eliminated"});
  per_op("exec.messages", {"mp.messages", "shm.messages"});
  per_op("exec.bytes", {"mp.bytes", "shm.bytes"});
  per_op("shm.barriers", {"shm.barriers"});
  report.layer["shm.shared_kb"] = sum("shm.shared_kb", {"shm.shared_bytes"}) / 1024.0 / n;
}

void layer_times(const Ledger& ledger, long ops, RunReport& report) {
  for (const auto& [name, secs] : ledger.self_seconds()) {
    if (name.find('.') == std::string::npos) continue;  // "op" roots, harness work
    report.layer[name + "_ms"] = secs * 1e3 / static_cast<double>(ops);
  }
}

}  // namespace perfbench
