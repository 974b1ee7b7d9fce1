// Reproduction of paper Figures 8.1-8.4: 16-processor space-time diagrams of
// one timestep of SP and BT, hand-written MPI vs dHPF-generated.
//
// The paper renders Paragraph-style trace visualizations; we render ASCII
// space-time diagrams from the simulator's interval logs plus the per-phase
// compute/comm/idle breakdown. The qualitative signatures to look for:
//   * hand-written MPI (Figs 8.1, 8.3): dense compute bands, near-perfect
//     load balance, thin communication stripes;
//   * dHPF-generated (Figs 8.2, 8.4): skewed pipeline wavefronts in
//     y_solve/z_solve with visible idle (fill/drain) triangles; BT's heavier
//     per-point work makes its diagram denser than SP's (the paper's
//     observation that dHPF BT is "much more efficient ... than for SP").
//
// Structured artifacts:
//   --json <path>           per-figure stats, message matrix, per-phase
//                           breakdown and critical-path estimates, idle-time
//                           attribution
//   --chrome-trace <stem>   write <stem>.<figure>.json Chrome trace-event
//                           files (load in chrome://tracing or Perfetto)
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "nas/driver.hpp"
#include "support/buildinfo.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"

using namespace dhpf;
using nas::App;
using nas::Problem;
using nas::Variant;

namespace {

constexpr int kProcs = 16;

struct FigureRun {
  std::string figure;   // "8.1" ...
  std::string caption;
  nas::RunResult result;
};

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
  out.flush();
  if (!out) {  // open or write failure (e.g. bad directory, full device)
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

FigureRun show(const char* figure, const char* caption, Variant v, App app) {
  Problem pb = Problem::make(app, nas::ProblemClass::A, 1);
  nas::DriverOptions opt;
  opt.record_trace = true;
  opt.verify = false;
  nas::RunResult r = nas::run_variant(v, pb, kProcs, exec::Machine::sp2(), opt);

  std::printf("--- Figure %s: %s ---\n", figure, caption);
  std::printf("  simulated time: %.4f s   messages: %zu   volume: %.2f MB   busy: %.1f%%\n",
              r.elapsed, r.messages, r.bytes / 1.0e6, 100.0 * r.busy_fraction());
  std::printf("%s", r.trace.ascii_space_time(110).c_str());
  std::printf("  per-phase totals over all ranks (seconds):\n");
  std::printf("  %-14s %10s %10s %10s\n", "phase", "compute", "comm", "idle");
  for (const auto& row : r.trace.phase_breakdown())
    std::printf("  %-14s %10.4f %10.4f %10.4f\n", row.phase.c_str(), row.compute, row.comm,
                row.idle);
  std::printf("\n");
  return FigureRun{figure, caption, std::move(r)};
}

void figure_json(json::Writer& w, const FigureRun& f) {
  const auto& r = f.result;
  w.begin_object();
  w.member("figure", f.figure);
  w.member("caption", f.caption);
  w.member("nprocs", kProcs);
  w.member("elapsed", r.elapsed);
  w.member("messages", r.messages);
  w.member("bytes", r.bytes);
  w.member("busy_fraction", r.busy_fraction());
  w.member("comm_fraction", r.comm_fraction());
  w.member("idle_fraction", r.idle_fraction());

  w.key("phases");
  w.begin_array();
  for (const auto& row : f.result.trace.phase_breakdown()) {
    w.begin_object();
    w.member("phase", row.phase);
    w.member("compute", row.compute);
    w.member("comm", row.comm);
    w.member("idle", row.idle);
    w.end_object();
  }
  w.end_array();

  w.key("critical_path");
  w.begin_array();
  for (const auto& cp : f.result.trace.critical_path()) {
    w.begin_object();
    w.member("phase", cp.phase);
    w.member("start", cp.start);
    w.member("end", cp.end);
    w.member("span", cp.span);
    w.member("max_rank_busy", cp.max_rank_busy);
    w.member("bottleneck_rank", cp.bottleneck_rank);
    w.end_object();
  }
  w.end_array();

  const auto mm = f.result.trace.message_matrix();
  w.key("message_matrix");
  w.begin_object();
  w.member("nranks", mm.nranks);
  w.key("count");
  w.begin_array();
  for (auto c : mm.count) w.value(c);
  w.end_array();
  w.key("bytes");
  w.begin_array();
  for (auto b : mm.bytes) w.value(b);
  w.end_array();
  w.end_object();

  w.key("idle_attribution");
  w.begin_array();
  for (const auto& row : f.result.trace.idle_attribution()) {
    w.begin_array();
    for (double v : row) w.value(v);
    w.end_array();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path, chrome_stem;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc)
      json_path = argv[++i];
    else if (arg == "--chrome-trace" && i + 1 < argc)
      chrome_stem = argv[++i];
    else {
      std::fprintf(stderr, "usage: %s [--json <path>] [--chrome-trace <stem>]\n", argv[0]);
      return 2;
    }
  }

  std::printf("=== Figures 8.1-8.4 reproduction: 16-processor space-time diagrams ===\n");
  std::printf("(one timestep, class A scaled grid; '#'=compute '-'=send '='=recv '.'=idle)\n\n");
  std::vector<FigureRun> figs;
  figs.push_back(show("8.1", "hand-coded MPI, SP", Variant::HandMPI, App::SP));
  figs.push_back(show("8.2", "dHPF-generated, SP", Variant::DhpfStyle, App::SP));
  figs.push_back(show("8.3", "hand-coded MPI, BT", Variant::HandMPI, App::BT));
  figs.push_back(show("8.4", "dHPF-generated, BT", Variant::DhpfStyle, App::BT));

  bool ok = true;
  if (!chrome_stem.empty()) {
    for (const auto& f : figs) {
      const std::string path = chrome_stem + "." + f.figure + ".json";
      ok = write_file(path, f.result.trace.chrome_trace_json()) && ok;
      std::printf("wrote Chrome trace %s\n", path.c_str());
    }
  }
  if (!json_path.empty()) {
    json::Writer w;
    w.begin_object();
    w.member("bench", "figures 8.1-8.4: space-time traces");
    w.key("build");
    w.raw(buildinfo::to_json());
    w.member("peak_rss_bytes", obs::peak_rss_bytes());
    w.key("figures");
    w.begin_array();
    for (const auto& f : figs) figure_json(w, f);
    w.end_array();
    w.end_object();
    ok = write_file(json_path, w.str()) && ok;
  }
  return ok ? 0 : 1;
}
