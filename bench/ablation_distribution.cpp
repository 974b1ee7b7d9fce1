// Ablation (paper §3/§8 discussion): why multi-partitioning wins.
// Per-variant communication accounting — message counts, volumes, idle
// fractions — for SP and BT at 16 processors, plus the dHPF optimization
// toggles (§4.2 LOCALIZE and §7 data availability), quantifying how much of
// the hand-coded code's advantage each mechanism recovers.
#include <cstdio>
#include <vector>

#include "nas_table_common.hpp"

using namespace dhpf;
using nas::App;
using nas::Problem;
using nas::Variant;

namespace {

struct Sample {
  const char* app = nullptr;
  const char* config = nullptr;
  nas::RunResult r;
};

std::vector<Sample>* g_samples = nullptr;

void row(const char* app, const char* label, nas::RunResult r) {
  std::printf("  %-34s %10.4f %9zu %10.2f %9.1f%%\n", label, r.elapsed, r.messages,
              r.bytes / 1.0e6, 100.0 * r.busy_fraction());
  if (g_samples) g_samples->push_back(Sample{app, label, std::move(r)});
}

void app_section(App app, nas::ProblemClass cls) {
  const int nprocs = 16;
  const char* app_name = app == App::SP ? "SP" : "BT";
  Problem pb = Problem::make(app, cls, 2);
  std::printf("\n--- %s, P=%d, n=%d, %d steps ---\n", app_name, nprocs, pb.n, pb.niter);
  std::printf("  %-34s %10s %9s %10s %9s\n", "configuration", "time (s)", "msgs", "MB",
              "busy");

  nas::DriverOptions base;
  base.verify = false;

  row(app_name, "hand-written MPI (multi-part.)",
      nas::run_variant(Variant::HandMPI, pb, nprocs, exec::Machine::sp2(), base));
  row(app_name, "dHPF-style (all optimizations)",
      nas::run_variant(Variant::DhpfStyle, pb, nprocs, exec::Machine::sp2(), base));

  nas::DriverOptions no_loc = base;
  no_loc.dhpf.localize = false;
  row(app_name, "dHPF-style, no LOCALIZE (sec 4.2)",
      nas::run_variant(Variant::DhpfStyle, pb, nprocs, exec::Machine::sp2(), no_loc));

  nas::DriverOptions no_avail = base;
  no_avail.dhpf.data_availability = false;
  row(app_name, "dHPF-style, no data avail (sec 7)",
      nas::run_variant(Variant::DhpfStyle, pb, nprocs, exec::Machine::sp2(), no_avail));

  nas::DriverOptions neither = base;
  neither.dhpf.localize = false;
  neither.dhpf.data_availability = false;
  row(app_name, "dHPF-style, neither",
      nas::run_variant(Variant::DhpfStyle, pb, nprocs, exec::Machine::sp2(), neither));

  nas::DriverOptions cubic = base;
  cubic.dhpf.grid3d = true;
  row(app_name, "dHPF-style, 3D BLOCK (BT option)",
      nas::run_variant(Variant::DhpfStyle, pb, nprocs, exec::Machine::sp2(), cubic));

  row(app_name, "PGI-style (1D + transposes)",
      nas::run_variant(Variant::PgiStyle, pb, nprocs, exec::Machine::sp2(), base));
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  std::vector<Sample> samples;
  g_samples = &samples;
  std::printf("=== Ablation: data distribution & dHPF optimizations (per-variant "
              "communication accounting) ===\n");
  const auto cls = args.cls.value_or(nas::ProblemClass::A);
  app_section(App::SP, cls);
  app_section(App::BT, cls);

  if (!args.json_path.empty()) {
    const int nprocs = 16;
    json::Writer w;
    w.begin_object();
    w.member("bench", "ablation: data distribution & dHPF optimizations");
    w.member("nprocs", nprocs);
    w.key("machine");
    bench::machine_json(w, exec::Machine::sp2());
    w.key("rows");
    w.begin_array();
    for (const auto& s : samples) {
      w.begin_object();
      w.member("app", s.app);
      w.member("configuration", s.config);
      w.member("elapsed", s.r.elapsed);
      w.member("messages", s.r.messages);
      w.member("bytes", s.r.bytes);
      w.member("busy_fraction", s.r.busy_fraction());
      w.member("comm_fraction", s.r.comm_fraction());
      w.member("idle_fraction", s.r.idle_fraction());
      w.end_object();
    }
    w.end_array();
    bench::provenance_json(w);
    w.key("metrics");
    bench::snapshot_json(w, obs::Registry::global().snapshot());
    w.end_object();
    if (!bench::write_text_file(args.json_path, w.str())) return 1;
  }
  return 0;
}
