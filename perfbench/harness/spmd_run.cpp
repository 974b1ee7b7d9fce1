// spmd_run: runs of pre-compiled SPMD plans on the real threaded backends.
// Compiles, serial oracles and model predictions sit in set-up, so most of
// each op is inside the backend. The programs span pipelined plans
// (sp_dhpf_style, sp_hand_mpi: many messages on mp, many barrier episodes
// on shm) and bulk ones (sample.hpf, sp_pgi_style: a handful of messages),
// so a transport change that helps one message profile and hurts the other
// shows here. Set-up logs each plan's exact message and barrier-episode
// counts (the model's, which equal the runtimes' own) for the ranks run.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>

#include "checks.hpp"
#include "codegen/driver.hpp"
#include "codegen/spmd.hpp"
#include "exec/machine.hpp"
#include "hpf/parser.hpp"
#include "inputs.hpp"
#include "iset/intern.hpp"
#include "model/model.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr double kOpsPerSecond = 64.0;
// Ranks per run: each program's grid is overridden to (kRanks, 1, ...).
// The examples declare 4 ranks, but 4 rank threads on a 4-vCPU machine
// leave no headroom: with two CPU-bound neighbours, 4-rank runs fell from
// about 67 to 35-44 ops/s with p99 doubling, while 2-rank runs held 58-61
// ops/s (README.md). The cost: a grid's second dimension is no longer
// distributed, so the plans lose the traffic along it (sp_dhpf_style's
// z-halo exchange and z_solve wavefront among it); README.md lists the
// counts the 2-rank plans keep.
constexpr int kRanks = 2;
constexpr int kSetupReps = 11;

/// One example program on kRanks ranks, compiled once, with its serial
/// oracle and the model's predicted walls at the default SP2 parameters.
struct Prepared {
  std::string label;
  std::unique_ptr<dhpf::hpf::Program> prog;  // plans point into it: keep its address
  dhpf::codegen::CompileResult compiled;
  dhpf::codegen::Store oracle;
  int nprocs = 1;
  std::size_t messages = 0;          // per mp run (model, exact)
  std::size_t barrier_episodes = 0;  // per shm run (model, exact)
  double predicted_mp = 0.0;
  double predicted_shm = 0.0;
};

std::vector<Prepared> prepare(const std::string& root, Digest& digest) {
  const dhpf::exec::Machine machine = dhpf::exec::Machine::sp2();
  const dhpf::model::ModelParams params = dhpf::model::ModelParams::from_machine(machine);
  std::vector<Prepared> out;
  for (Source& src : example_programs(root)) {
    digest.add(src.text);
    Prepared p;
    p.label = src.label;
    p.prog = std::make_unique<dhpf::hpf::Program>(dhpf::hpf::parse(src.text));
    for (const auto& grid : p.prog->grids()) {
      std::vector<int> extents(grid->extents.size(), 1);
      extents.front() = kRanks;
      grid->extents = extents;
    }
    p.compiled = dhpf::codegen::compile(*p.prog);
    p.oracle = dhpf::codegen::interpret_serial(*p.prog);
    const dhpf::model::Prediction pred =
        dhpf::model::predict(*p.prog, p.compiled.cps, p.compiled.plan, machine);
    p.nprocs = pred.nprocs;
    p.messages = pred.messages;
    p.barrier_episodes = pred.barrier_episodes;
    p.predicted_mp = pred.wall(params);
    p.predicted_shm = pred.wall_shm(params);
    out.push_back(std::move(p));
  }
  return out;
}

/// Sum of the documented per-rank wait gauges of the last run on `backend`.
double rank_wait_seconds(const char* backend, int nprocs) {
  const dhpf::obs::MetricsSnapshot snap = dhpf::obs::Registry::global().snapshot();
  double total = 0.0;
  for (int r = 0; r < nprocs; ++r) {
    auto it = snap.gauges.find(std::string(backend) + ".rank" + std::to_string(r) + ".wait_seconds");
    if (it != snap.gauges.end()) total += it->second;
  }
  return total;
}

}  // namespace

RunReport run_spmd_run(const RunOptions& opt, Ledger& ledger, Yardstick& yardstick) {
  namespace cg = dhpf::codegen;
  using dhpf::exec::Backend;
  RunReport rep;
  std::vector<Prepared> progs;
  rep.setup_seconds = repeat_setup(kSetupReps, yardstick, [&] {
    // Every repetition compiles cold: the set-algebra memo would otherwise
    // answer repetitions 2..n from the first one's entries.
    dhpf::iset::memo::clear_caches();
    Digest d;
    progs = prepare(opt.root, d);
    rep.input_digest = d.hex();
  });
  for (const Prepared& p : progs)
    std::fprintf(stderr, "perfbench: spmd_run plan %s: %d ranks, %zu messages, %zu barrier episodes\n",
                 p.label.c_str(), p.nprocs, p.messages, p.barrier_episodes);

  // The op list: blocks holding every (program, backend) pair once, each
  // block in a seeded order, so every run has the same mix.
  struct Op {
    std::size_t prog;
    Backend backend;
  };
  std::vector<Op> pairs;
  for (std::size_t i = 0; i < progs.size(); ++i)
    for (Backend b : {Backend::Mp, Backend::Shm}) pairs.push_back({i, b});
  const long blocks = (scaled_ops(opt.seconds, kOpsPerSecond) + static_cast<long>(pairs.size()) - 1) /
                      static_cast<long>(pairs.size());
  std::vector<Op> ops;
  for (long b = 0; b < blocks; ++b) {
    std::vector<Op> block = pairs;
    seeded_shuffle(block, sub_seed(opt.seed, 3 + static_cast<std::uint64_t>(b)));
    ops.insert(ops.end(), block.begin(), block.end());
  }

  std::vector<double> gap_mp;
  std::vector<double> gap_shm;
  double backend_wall = 0.0;
  double wait_mp = 0.0;
  double wait_shm = 0.0;
  double rank_wall_mp = 0.0;
  double rank_wall_shm = 0.0;
  ObsInterval obs;
  obs.begin();
  rep.setup_slowdown = yardstick.slowdown();
  const Yardstick::Mark slices = yardstick.mark();
  rep.cpu_seconds = process_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  rep.phase_start = ledger.at(t0);
  const dhpf::exec::Machine machine = dhpf::exec::Machine::sp2();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    yardstick.slice();  // outside the op's time and the wall
    const Prepared& p = progs[ops[i].prog];
    const bool mp = ops[i].backend == Backend::Mp;
    const std::string label = p.label + (mp ? " mp" : " shm");
    const Clock::time_point a = Clock::now();
    std::string why;
    {
      Ledger::Span root = ledger.span("op", static_cast<long>(i));
      try {
        cg::SpmdOptions so;
        so.backend = ops[i].backend;
        so.verify = false;
        so.collect_result = true;
        Ledger::Span run = ledger.span(mp ? "run.mp" : "run.shm", static_cast<long>(i));
        const cg::SpmdResult res =
            cg::run_spmd(*p.prog, p.compiled.cps, p.compiled.plan, machine, so);
        run.close();
        Ledger::Span chk = ledger.span("check", static_cast<long>(i));
        why = check_gathered(res.gathered, p.oracle);
        if (ledger.enabled()) {
          backend_wall += res.wall_seconds;
          const double wait = rank_wait_seconds(mp ? "mp" : "shm", p.nprocs);
          (mp ? wait_mp : wait_shm) += wait;
          (mp ? rank_wall_mp : rank_wall_shm) += res.wall_seconds * p.nprocs;
          const double predicted = mp ? p.predicted_mp : p.predicted_shm;
          if (predicted > 0) (mp ? gap_mp : gap_shm).push_back(res.wall_seconds / predicted);
        }
      } catch (const std::exception& e) {
        why = std::string("threw: ") + e.what();
      }
    }
    const Clock::time_point b = Clock::now();
    rep.ops.push_back({label, seconds_between(a, b) * 1e3, seconds_between(t0, b)});
    rep.tally.record(why.empty() ? why : label + ": " + why);
  }
  const Clock::time_point t1 = Clock::now();
  rep.phase_end = ledger.at(t1);
  rep.wall_seconds = seconds_between(t0, t1) - yardstick.seconds_since(slices);
  // The slices run on this thread, CPU-bound, so CPU time drops them too.
  rep.cpu_seconds = process_cpu_seconds() - rep.cpu_seconds - yardstick.seconds_since(slices);
  rep.slowdown = yardstick.slowdown(slices);
  obs.end();

  if (ledger.enabled()) {
    const long n = static_cast<long>(ops.size());
    layer_times(ledger, n, rep);
    obs_counts(obs, n, rep);
    double op_total = 0.0;
    for (const OpTime& o : rep.ops) op_total += o.ms * 1e-3;
    rep.layer["run.backend_share"] = op_total > 0 ? backend_wall / op_total : 0.0;
    rep.layer["mp.wait_share"] = rank_wall_mp > 0 ? wait_mp / rank_wall_mp : 0.0;
    rep.layer["shm.wait_share"] = rank_wall_shm > 0 ? wait_shm / rank_wall_shm : 0.0;
    auto median = [](std::vector<double> v) {
      if (v.empty()) return 0.0;
      std::sort(v.begin(), v.end());
      const std::size_t m = v.size() / 2;
      return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
    };
    rep.layer["model.gap_mp"] = median(gap_mp);
    rep.layer["model.gap_shm"] = median(gap_shm);
  }
  return rep;
}

}  // namespace perfbench
