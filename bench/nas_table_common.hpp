// Shared helpers for the Table 8.1 / 8.2 reproduction benches.
//
// Every bench binary accepts:
//   --json <path>   write a machine-readable artifact alongside the human
//                   tables (per-cell times/speedups/efficiencies, message
//                   statistics, machine cost-model constants, and a metrics
//                   snapshot) — the format scripts/bench_smoke.sh validates;
//   --class <C>     override the problem classes (S|W|A|B), e.g. `--class S`
//                   for a seconds-long smoke run;
//   --backend <B>   execution backend: `sim` (default; virtual-time SP2
//                   simulator, times are *modelled* seconds), `mp` (real
//                   multi-threaded message-passing runtime) or `shm` (real
//                   threads over one shared address space) — on both real
//                   backends times are *measured* wall-clock seconds from
//                   the monotonic clock; see docs/runtime.md.
//
// The JSON artifact records which backend produced it: the top-level
// "backend" member is "sim", "mp" or "shm", every cell carries both
// "elapsed" (modelled seconds; 0 on mp/shm) and "wall_seconds" (real
// seconds), and on the real backends the speedup/efficiency columns are
// computed from wall_seconds. There compute(flops) is realized as a real
// sleep of the modelled duration (ComputeMode::Sleep, dilated by
// kMpTimeScale) so rank overlap — and therefore measured speedup — is
// observable even on a single-core CI host.
#pragma once

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "nas/driver.hpp"
#include "rt/block.hpp"
#include "support/buildinfo.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"

namespace dhpf::bench {

using nas::App;
using nas::Problem;
using nas::RunResult;
using nas::Variant;

struct Row {
  int nprocs = 0;
  std::optional<double> hand, dhpf, pgi;  // simulated seconds
};

// ------------------------------------------------------------ CLI helpers

struct BenchArgs {
  std::string json_path;                 ///< --json <path>; empty = off
  std::optional<nas::ProblemClass> cls;  ///< --class S|W|A|B override
  exec::Backend backend = exec::Backend::Sim;  ///< --backend sim|mp|shm
};

/// Dilation applied to modelled compute time when benches run on a real
/// backend (ComputeMode::Sleep): class-S modelled times are ~10 ms, which
/// real thread-spawn/wakeup overhead would swamp; stretching them keeps the
/// measured scaling signal well above the noise floor while a full smoke
/// sweep still finishes in seconds.
inline constexpr double kMpTimeScale = 25.0;

inline const char* class_name(nas::ProblemClass c) {
  switch (c) {
    case nas::ProblemClass::S: return "S";
    case nas::ProblemClass::W: return "W";
    case nas::ProblemClass::A: return "A";
    case nas::ProblemClass::B: return "B";
  }
  return "?";
}

inline std::optional<nas::ProblemClass> parse_class(const std::string& s) {
  if (s == "S") return nas::ProblemClass::S;
  if (s == "W") return nas::ProblemClass::W;
  if (s == "A") return nas::ProblemClass::A;
  if (s == "B") return nas::ProblemClass::B;
  return std::nullopt;
}

/// Parse the shared bench flags; exits with code 2 on a malformed command
/// line so CI catches bad invocations.
inline BenchArgs parse_bench_args(int argc, char** argv) {
  BenchArgs a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      a.json_path = argv[++i];
    } else if (arg == "--class" && i + 1 < argc) {
      a.cls = parse_class(argv[++i]);
      if (!a.cls) {
        std::fprintf(stderr, "%s: bad --class (want S|W|A|B)\n", argv[0]);
        std::exit(2);
      }
    } else if (arg == "--backend" && i + 1 < argc) {
      if (!exec::parse_backend(argv[++i], a.backend)) {
        std::fprintf(stderr, "%s: bad --backend (want sim|mp|shm)\n", argv[0]);
        std::exit(2);
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json <path>] [--class S|W|A|B] [--backend sim|mp|shm]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  return a;
}

/// Write `content` to `path`; returns false (with a message) on failure.
inline bool write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
  out.flush();
  if (!out) {  // open or write failure (e.g. bad directory, full device)
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

// ----------------------------------------------------------- JSON helpers

/// Emit the machine cost-model constants as a JSON object value.
inline void machine_json(json::Writer& w, const exec::Machine& m) {
  w.begin_object();
  w.member("flop_time", m.flop_time);
  w.member("latency", m.latency);
  w.member("byte_time", m.byte_time);
  w.member("send_overhead", m.send_overhead);
  w.member("recv_overhead", m.recv_overhead);
  w.end_object();
}

/// Emit a metrics snapshot as a JSON object value (counters + timers).
/// Emit provenance members into the currently-open artifact object: the
/// build description (git describe, compiler, flags, build type) and the
/// process peak RSS, so checked-in baselines are attributable and
/// comparable across machines. Call with a '{' open on `w`.
inline void provenance_json(json::Writer& w) {
  w.key("build");
  w.raw(buildinfo::to_json());
  w.member("peak_rss_bytes", obs::peak_rss_bytes());
}

inline void snapshot_json(json::Writer& w, const obs::MetricsSnapshot& snap) {
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, v] : snap.counters) w.member(name, v);
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, v] : snap.gauges) w.member(name, v);
  w.end_object();
  w.key("timers");
  w.begin_object();
  for (const auto& [name, t] : snap.timers) {
    w.key(name);
    w.begin_object();
    w.member("seconds", t.seconds);
    w.member("calls", t.calls);
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

// -------------------------------------------------------------- run cells

/// Run one (variant, P) cell if supported by the variant and the problem
/// size; verification is done in the test suite, so benches run fast.
inline std::optional<RunResult> run_cell(Variant v, const Problem& pb, int nprocs,
                                         exec::Backend backend = exec::Backend::Sim) {
  if (!nas::variant_supports(v, nprocs)) return std::nullopt;
  // Sweeps need at least two planes of the distributed dim per processor.
  if (v == Variant::PgiStyle && pb.n < 2 * nprocs) return std::nullopt;
  if (v == Variant::HandMPI) {
    const int q = static_cast<int>(std::lround(std::sqrt(static_cast<double>(nprocs))));
    if (pb.n < 2 * q) return std::nullopt;
  }
  if (v == Variant::DhpfStyle) {
    const auto g = rt::ProcGrid2D::squarest(nprocs);
    if (pb.n < 2 * std::max(g.py(), g.pz())) return std::nullopt;
  }
  nas::DriverOptions opt;
  opt.verify = false;  // correctness is covered by tests/nas_variants_test
  opt.backend = backend;
  // On the threaded backends, realize modelled compute as real sleeps so
  // rank overlap (and thus measured wall-clock speedup) is observable even
  // on one host core. The sim backend ignores these options.
  opt.runtime.compute_mode = mp::ComputeMode::Sleep;
  opt.runtime.time_scale = kMpTimeScale;
  obs::ScopedTimer timer("bench.run_variant");
  auto r = nas::run_variant(v, pb, nprocs, exec::Machine::sp2(), opt);
  DHPF_COUNTER("bench.cells_run");
  DHPF_COUNTER_ADD("bench.sim_messages", r.messages);
  DHPF_COUNTER_ADD("bench.sim_bytes", r.bytes);
  return r;
}

/// Paper reference efficiencies (relative to hand-written MPI) at square P.
struct PaperEff {
  std::map<int, double> dhpf_a, dhpf_b, pgi_a, pgi_b;
};

inline void print_table(const char* title, const Problem& pa, const Problem& pb_cls,
                        const std::vector<int>& procs, int speedup_base_procs_a,
                        int speedup_base_procs_b, const PaperEff& paper,
                        const BenchArgs& args = {}, const char* label_a = "A",
                        const char* label_b = "B") {
  std::printf("%s\n", title);
  if (args.backend == exec::Backend::Sim)
    std::printf("problem sizes: class %s n=%d, class %s n=%d, %d timestep(s); machine: simulated "
                "IBM SP2 (see exec/machine.hpp)\n",
                label_a, pa.n, label_b, pb_cls.n, pa.niter);
  else
    std::printf("problem sizes: class %s n=%d, class %s n=%d, %d timestep(s); backend: %s (real "
                "threads, measured wall-clock, compute slept at %gx model time)\n",
                label_a, pa.n, label_b, pb_cls.n, pa.niter,
                exec::to_string(args.backend), kMpTimeScale);
  std::printf("speedups are relative to the %d-processor hand-written code (class %s) / "
              "%d-processor (class %s), assumed perfect, as in the paper\n\n",
              speedup_base_procs_a, label_a, speedup_base_procs_b, label_b);

  struct Cells {
    std::optional<RunResult> hand_a, dhpf_a, pgi_a, hand_b, dhpf_b, pgi_b;
  };
  std::map<int, Cells> grid;
  for (int np : procs) {
    Cells& c = grid[np];
    c.hand_a = run_cell(Variant::HandMPI, pa, np, args.backend);
    c.dhpf_a = run_cell(Variant::DhpfStyle, pa, np, args.backend);
    c.pgi_a = run_cell(Variant::PgiStyle, pa, np, args.backend);
    c.hand_b = run_cell(Variant::HandMPI, pb_cls, np, args.backend);
    c.dhpf_b = run_cell(Variant::DhpfStyle, pb_cls, np, args.backend);
    c.pgi_b = run_cell(Variant::PgiStyle, pb_cls, np, args.backend);
  }
  auto elapsed = [](const std::optional<RunResult>& r) {
    return r ? std::optional<double>(r->seconds()) : std::nullopt;
  };
  const double base_a = grid[speedup_base_procs_a].hand_a.value().seconds();
  const double base_b = grid[speedup_base_procs_b].hand_b.value().seconds();
  auto speedup_a = [&](std::optional<double> t) {
    return t ? std::optional<double>(speedup_base_procs_a * base_a / *t) : std::nullopt;
  };
  auto speedup_b = [&](std::optional<double> t) {
    return t ? std::optional<double>(speedup_base_procs_b * base_b / *t) : std::nullopt;
  };
  auto cell = [](std::optional<double> v, const char* fmt) {
    char buf[32];
    if (!v) return std::string("     -");
    std::snprintf(buf, sizeof buf, fmt, *v);
    return std::string(buf);
  };

  std::printf("%4s | %-27s | %-27s | %-20s | %-20s\n", "P",
              "exec time class A (hand/dhpf/pgi)", "exec time class B",
              "rel speedup A (h/d/p)", "rel speedup B (h/d/p)");
  for (int np : procs) {
    const Cells& c = grid[np];
    std::printf("%4d | %s %s %s | %s %s %s | %s %s %s | %s %s %s\n", np,
                cell(elapsed(c.hand_a), "%9.3f").c_str(),
                cell(elapsed(c.dhpf_a), "%9.3f").c_str(),
                cell(elapsed(c.pgi_a), "%9.3f").c_str(),
                cell(elapsed(c.hand_b), "%9.3f").c_str(),
                cell(elapsed(c.dhpf_b), "%9.3f").c_str(),
                cell(elapsed(c.pgi_b), "%9.3f").c_str(),
                cell(speedup_a(elapsed(c.hand_a)), "%6.2f").c_str(),
                cell(speedup_a(elapsed(c.dhpf_a)), "%6.2f").c_str(),
                cell(speedup_a(elapsed(c.pgi_a)), "%6.2f").c_str(),
                cell(speedup_b(elapsed(c.hand_b)), "%6.2f").c_str(),
                cell(speedup_b(elapsed(c.dhpf_b)), "%6.2f").c_str(),
                cell(speedup_b(elapsed(c.pgi_b)), "%6.2f").c_str());
  }

  std::printf("\nrelative efficiency (variant speedup / hand speedup), measured vs paper:\n");
  std::printf("%4s | %-23s | %-23s | %-23s | %-23s\n", "P", "dHPF class A (meas/paper)",
              "dHPF class B", "PGI class A", "PGI class B");
  auto eff = [](std::optional<double> v, std::optional<double> h) -> std::optional<double> {
    if (!v || !h) return std::nullopt;
    return *h / *v;  // efficiency = speedup ratio = T_hand / T_variant
  };
  auto paper_cell = [](const std::map<int, double>& m, int np) {
    auto it = m.find(np);
    char buf[32];
    if (it == m.end()) return std::string("  -  ");
    std::snprintf(buf, sizeof buf, "%5.2f", it->second);
    return std::string(buf);
  };
  for (int np : procs) {
    const Cells& c = grid[np];
    std::printf("%4d | %s / %s | %s / %s | %s / %s | %s / %s\n", np,
                cell(eff(elapsed(c.dhpf_a), elapsed(c.hand_a)), "%5.2f").c_str(),
                paper_cell(paper.dhpf_a, np).c_str(),
                cell(eff(elapsed(c.dhpf_b), elapsed(c.hand_b)), "%5.2f").c_str(),
                paper_cell(paper.dhpf_b, np).c_str(),
                cell(eff(elapsed(c.pgi_a), elapsed(c.hand_a)), "%5.2f").c_str(),
                paper_cell(paper.pgi_a, np).c_str(),
                cell(eff(elapsed(c.pgi_b), elapsed(c.hand_b)), "%5.2f").c_str(),
                paper_cell(paper.pgi_b, np).c_str());
  }
  std::printf("\n");

  // ---- machine-readable artifact ----------------------------------------
  if (args.json_path.empty()) return;
  json::Writer w;
  w.begin_object();
  w.member("bench", title);
  w.member("backend", exec::to_string(args.backend));
  provenance_json(w);
  if (args.backend == exec::Backend::Mp) w.member("mp_time_scale", kMpTimeScale);
  if (args.backend == exec::Backend::Shm) w.member("shm_time_scale", kMpTimeScale);
  w.key("machine");
  machine_json(w, exec::Machine::sp2());
  w.key("classes");
  w.begin_array();
  for (const auto* p : {&pa, &pb_cls}) {
    w.begin_object();
    w.member("label", p == &pa ? label_a : label_b);
    w.member("name", p->name());
    w.member("n", p->n);
    w.member("niter", p->niter);
    w.end_object();
  }
  w.end_array();
  w.member("speedup_base_procs_a", speedup_base_procs_a);
  w.member("speedup_base_procs_b", speedup_base_procs_b);
  w.key("rows");
  w.begin_array();
  auto emit_cell = [&](const char* key, const std::optional<RunResult>& r,
                       const std::optional<RunResult>& hand,
                       std::optional<double> speedup) {
    w.key(key);
    if (!r) {
      w.null();
      return;
    }
    w.begin_object();
    w.member("elapsed", r->elapsed);
    w.member("wall_seconds", r->wall_seconds);
    w.member("messages", r->messages);
    w.member("bytes", r->bytes);
    w.member("total_compute", r->total_compute);
    w.member("total_comm", r->total_comm);
    w.member("total_idle", r->total_idle);
    if (speedup) w.member("speedup", *speedup);
    if (hand) w.member("efficiency_vs_hand", hand->seconds() / r->seconds());
    w.end_object();
  };
  for (int np : procs) {
    const Cells& c = grid[np];
    w.begin_object();
    w.member("nprocs", np);
    emit_cell("hand_a", c.hand_a, c.hand_a, speedup_a(elapsed(c.hand_a)));
    emit_cell("dhpf_a", c.dhpf_a, c.hand_a, speedup_a(elapsed(c.dhpf_a)));
    emit_cell("pgi_a", c.pgi_a, c.hand_a, speedup_a(elapsed(c.pgi_a)));
    emit_cell("hand_b", c.hand_b, c.hand_b, speedup_b(elapsed(c.hand_b)));
    emit_cell("dhpf_b", c.dhpf_b, c.hand_b, speedup_b(elapsed(c.dhpf_b)));
    emit_cell("pgi_b", c.pgi_b, c.hand_b, speedup_b(elapsed(c.pgi_b)));
    w.end_object();
  }
  w.end_array();
  w.key("metrics");
  snapshot_json(w, obs::Registry::global().snapshot());
  w.end_object();
  if (!write_text_file(args.json_path, w.str())) std::exit(1);
}

}  // namespace dhpf::bench
