// Extension ablation (E15): how the paper's headline comparison depends on
// the machine's network. The paper measured one platform (IBM SP2); here we
// rerun the SP comparison on three calibrations — the SP2, a commodity
// Ethernet cluster (10x worse network), and a later fast-switch machine
// (4x flops, 10x better network) — to show which conclusions are
// platform-robust.
//
// Expected: the *ordering* (hand multi-partitioning >= dHPF >= PGI) holds on
// every machine; the gaps widen as the network gets relatively slower
// (pipeline latency and transpose volume both hurt more), and narrow on the
// fast switch.
#include <cstdio>
#include <vector>

#include "nas_table_common.hpp"

using namespace dhpf;
using nas::App;
using nas::Problem;
using nas::Variant;

namespace {

struct Sample {
  const char* machine = nullptr;
  const char* variant = nullptr;
  exec::Machine m;
  nas::RunResult r;
  double efficiency_vs_hand = 0.0;
};

std::vector<Sample> machine_section(const char* name, const exec::Machine& m,
                                    nas::ProblemClass cls) {
  Problem pb = Problem::make(App::SP, cls, 2);
  const int nprocs = 16;
  nas::DriverOptions opt;
  opt.verify = false;
  std::printf("\n--- %s (latency %.0f us, %.0f MB/s, %.0f MF/s) ---\n", name,
              m.latency * 1e6, 1.0 / m.byte_time / 1e6, 1.0 / m.flop_time / 1e6);
  std::printf("  %-12s %12s %10s   %s\n", "variant", "time (s)", "busy %",
              "efficiency vs hand");
  std::vector<Sample> out;
  double hand_time = 0.0;
  for (Variant v : {Variant::HandMPI, Variant::DhpfStyle, Variant::PgiStyle}) {
    auto r = nas::run_variant(v, pb, nprocs, m, opt);
    if (v == Variant::HandMPI) hand_time = r.elapsed;
    const double eff = hand_time / r.elapsed;
    std::printf("  %-12s %12.4f %9.1f%%   %.2f\n", nas::to_string(v), r.elapsed,
                100.0 * r.busy_fraction(), eff);
    out.push_back(Sample{name, nas::to_string(v), m, std::move(r), eff});
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  std::printf("=== Ablation: network sensitivity of the SP comparison (P=16, class A) ===\n");
  const auto cls = args.cls.value_or(nas::ProblemClass::A);
  std::vector<Sample> samples;
  for (auto& s : machine_section("IBM SP2 (the paper's platform)", exec::Machine::sp2(), cls))
    samples.push_back(std::move(s));
  for (auto& s : machine_section("Ethernet cluster", exec::Machine::ethernet_cluster(), cls))
    samples.push_back(std::move(s));
  for (auto& s : machine_section("fast switch", exec::Machine::fast_switch(), cls))
    samples.push_back(std::move(s));

  if (!args.json_path.empty()) {
    const int nprocs = 16;
    json::Writer w;
    w.begin_object();
    w.member("bench", "ablation: network sensitivity (SP, P=16)");
    w.member("nprocs", nprocs);
    w.key("rows");
    w.begin_array();
    for (const auto& s : samples) {
      w.begin_object();
      w.member("machine", s.machine);
      w.key("machine_model");
      bench::machine_json(w, s.m);
      w.member("variant", s.variant);
      w.member("elapsed", s.r.elapsed);
      w.member("messages", s.r.messages);
      w.member("bytes", s.r.bytes);
      w.member("busy_fraction", s.r.busy_fraction());
      w.member("efficiency_vs_hand", s.efficiency_vs_hand);
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
