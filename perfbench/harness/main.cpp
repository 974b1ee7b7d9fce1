// perfbench: runs one benchmark workload and prints one JSON document on
// stdout with its end-to-end metrics, its per-layer ledger (traced runs),
// op counts, failures, input digest and provenance. perfbench/run.py builds
// and drives it; see perfbench/README.md. Times are reported in reference
// seconds (yardstick.hpp); the record keeps the wall-clock figures too.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --root REPO_ROOT [--out DIR]
//
// --out DIR receives every op's latency and completion time, and for a
// traced run the Chrome trace and the flat span table.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "support/buildinfo.hpp"
#include "workloads.hpp"

namespace {

using perfbench::RunReport;

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string esc(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename Map, typename Fmt>
std::string object(const Map& m, Fmt fmt) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ",";
    first = false;
    out += esc(k) + ":" + fmt(v);
  }
  return out + "}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload compile_fresh|fuzz_campaign|spmd_run|"
               "svc_mixed --seed N --seconds S --trace 0|1 --root DIR [--out DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  std::string out_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") opt.workload = v;
      else if (a == "--seed") opt.seed = std::stoull(v);
      else if (a == "--seconds") opt.seconds = std::stoi(v);
      else if (a == "--trace") opt.trace = std::stoi(v) != 0;
      else if (a == "--root") opt.root = v;
      else if (a == "--out") out_dir = v;
      else return usage(("unknown flag " + a).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  if (opt.seconds < 1) return usage("--seconds must be >= 1");

  perfbench::Ledger ledger(opt.trace);
  RunReport rep;
  try {
    perfbench::Yardstick ys;
    if (opt.workload == "compile_fresh") rep = perfbench::run_compile_fresh(opt, ledger, ys);
    else if (opt.workload == "fuzz_campaign") rep = perfbench::run_fuzz_campaign(opt, ledger, ys);
    else if (opt.workload == "spmd_run") rep = perfbench::run_spmd_run(opt, ledger, ys);
    else if (opt.workload == "svc_mixed") rep = perfbench::run_svc_mixed(opt, ledger, ys);
    else return usage(("unknown workload " + opt.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }

  std::vector<double> ms;
  for (const auto& o : rep.ops) ms.push_back(o.ms);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double wall = rep.wall_seconds > 0 ? rep.wall_seconds : 1e-9;
  std::map<std::string, double> measured;  // wall-clock figures
  measured["setup_s"] = percentile(rep.setup_seconds, 0.5);
  measured["ops_per_s"] = static_cast<double>(rep.ops.size()) / wall;
  measured["lat_p50_ms"] = percentile(ms, 0.50);
  // The tail: p99, or on a run of fewer than 1000 ops the highest
  // percentile that leaves ten ops beyond it (fuzz_campaign's 96 cases at
  // 16 s: p89.6; never below p50), so it does not rest on one or two ops.
  const double tail_q = ms.empty() ? 0.99 : 1.0 - 10.0 / static_cast<double>(ms.size());
  measured["lat_tail_ms"] = percentile(ms, std::clamp(tail_q, 0.5, 0.99));
  // The reported figures: times in reference seconds, i.e. wall seconds
  // divided by the yardstick's slowdown over the same phase.
  std::map<std::string, double> e2e;
  e2e["setup_s"] = measured["setup_s"] / rep.setup_slowdown;
  e2e["ops_per_s"] = measured["ops_per_s"] * rep.slowdown;
  e2e["lat_p50_ms"] = measured["lat_p50_ms"] / rep.slowdown;
  e2e["lat_tail_ms"] = measured["lat_tail_ms"] / rep.slowdown;
  e2e["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;

  if (!out_dir.empty()) {
    std::ofstream ops(out_dir + "/" + opt.workload + "-seed" + std::to_string(opt.seed) + "-trace" +
                      std::to_string(opt.trace ? 1 : 0) + ".ops.tsv");
    ops << "label\tms\tdone_s\n";
    for (const auto& o : rep.ops) ops << o.label << "\t" << num(o.ms) << "\t" << num(o.done_s) << "\n";
  }
  if (opt.trace) {
    // Layer times in reference milliseconds, like the end-to-end times.
    for (auto& [name, value] : rep.layer)
      if (name.size() > 3 && name.compare(name.size() - 3, 3, "_ms") == 0) value /= rep.slowdown;
    rep.layer["proc.cpu_util"] = rep.cpu_seconds / wall;
    rep.layer["machine.slowdown"] = rep.slowdown;
    rep.layer["wall.ops_per_s"] = measured["ops_per_s"];
    const double covered = ledger.covered_by_layers(rep.phase_start, rep.phase_end);
    rep.layer["ledger.unattributed_share"] =
        std::max(0.0, 1.0 - covered / (wall * std::max(1, rep.callers)));
    if (!out_dir.empty()) {
      const std::string stem = out_dir + "/" + opt.workload + "-seed" + std::to_string(opt.seed);
      std::ofstream(stem + ".trace.json") << ledger.chrome_json();
      std::ofstream(stem + ".ledger.tsv") << ledger.table();
    }
  }

  std::vector<perfbench::OpTime> slow = rep.ops;
  std::sort(slow.begin(), slow.end(),
            [](const perfbench::OpTime& a, const perfbench::OpTime& b) { return a.ms > b.ms; });
  if (slow.size() > 5) slow.resize(5);
  std::string slowest = "[";
  for (std::size_t i = 0; i < slow.size(); ++i)
    slowest += (i ? "," : "") + std::string("[") + esc(slow[i].label) + "," + num(slow[i].ms) + "]";
  slowest += "]";
  std::string failures = "[";
  for (std::size_t i = 0; i < rep.tally.failures.size(); ++i)
    failures += (i ? "," : "") + esc(rep.tally.failures[i]);
  failures += "]";
  std::string setups = "[";
  for (std::size_t i = 0; i < rep.setup_seconds.size(); ++i)
    setups += (i ? "," : "") + num(rep.setup_seconds[i]);
  setups += "]";

  std::ostringstream os;
  os << "{\"workload\":" << esc(opt.workload) << ",\"seed\":" << opt.seed
     << ",\"seconds\":" << opt.seconds
     << ",\"trace\":" << (opt.trace ? 1 : 0) << ",\"attempted\":" << rep.tally.attempted
     << ",\"failed\":" << rep.tally.failed << ",\"failures\":" << failures
     << ",\"ops\":" << rep.ops.size() << ",\"wall_s\":" << num(rep.wall_seconds)
     << ",\"setup_reps_s\":" << setups << ",\"input_digest\":" << esc(rep.input_digest)
     << ",\"slowest_ops_ms\":" << slowest << ",\"e2e\":" << object(e2e, num)
     << ",\"wall\":" << object(measured, num) << ",\"slowdown\":" << num(rep.slowdown)
     << ",\"setup_slowdown\":" << num(rep.setup_slowdown)
     << ",\"layer\":" << object(rep.layer, num) << ",\"absent\":" << object(rep.absent, esc)
     << ",\"provenance\":{\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"build_type\":" << esc(dhpf::buildinfo::build_type())
     << ",\"compiler\":" << esc(dhpf::buildinfo::compiler()) << "}}";
  std::printf("%s\n", os.str().c_str());
  return 0;
}
