// Ablation (paper §8.1 discussion): the effect of the coarse-grain pipelining
// granularity on the dHPF-style SP code. The paper observes that dHPF's
// single uniform granularity is too coarse for some loop nests ("processor 0
// finishes its work before processor 2 begins") and that per-loop selection
// would do better; this bench sweeps the tile width and reports the
// resulting simulated time, exposing the fill/drain vs per-message-overhead
// tradeoff that drives that observation.
#include <cstdio>
#include <vector>

#include "nas_table_common.hpp"

using namespace dhpf;
using nas::App;
using nas::Problem;
using nas::Variant;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  std::printf("=== Ablation: coarse-grain pipelining granularity (dHPF-style SP) ===\n");
  Problem pb = Problem::make(App::SP, args.cls.value_or(nas::ProblemClass::A), 2);

  struct Sample {
    int nprocs = 0;
    int tile = 0;  // 0 = automatic per-loop selection
    nas::RunResult r;
  };
  std::vector<Sample> samples;

  for (int nprocs : {9, 16, 25}) {
    std::printf("\nP = %d (grid n=%d, %d steps)\n", nprocs, pb.n, pb.niter);
    std::printf("  %8s %12s %10s %10s\n", "tile", "time (s)", "messages", "busy %");
    double best = 1e300;
    int best_tile = 0;
    for (int tile : {1, 2, 4, 8, 16, 38, 0}) {
      nas::DriverOptions opt;
      opt.verify = false;
      opt.dhpf.pipeline_tile = tile;
      auto r = nas::run_variant(Variant::DhpfStyle, pb, nprocs, exec::Machine::sp2(), opt);
      if (tile == 0)
        std::printf("  %8s %12.4f %10zu %9.1f%%\n", "auto", r.elapsed, r.messages,
                    100.0 * r.busy_fraction());
      else
        std::printf("  %8d %12.4f %10zu %9.1f%%\n", tile, r.elapsed, r.messages,
                    100.0 * r.busy_fraction());
      if (tile != 0 && r.elapsed < best) {
        best = r.elapsed;
        best_tile = tile;
      }
      samples.push_back(Sample{nprocs, tile, std::move(r)});
    }
    std::printf("  best fixed tile: %d  (tile=38 is one whole-slab message: maximal "
                "granularity, full serialization of the wavefront)\n",
                best_tile);
  }

  if (!args.json_path.empty()) {
    json::Writer w;
    w.begin_object();
    w.member("bench", "ablation: pipeline granularity (dHPF-style SP)");
    w.key("machine");
    bench::machine_json(w, exec::Machine::sp2());
    w.member("n", pb.n);
    w.member("niter", pb.niter);
    w.key("rows");
    w.begin_array();
    for (const auto& s : samples) {
      w.begin_object();
      w.member("nprocs", s.nprocs);
      if (s.tile == 0)
        w.member("tile", "auto");
      else
        w.member("tile", s.tile);
      w.member("elapsed", s.r.elapsed);
      w.member("messages", s.r.messages);
      w.member("bytes", s.r.bytes);
      w.member("busy_fraction", s.r.busy_fraction());
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
