// Backend head-to-head: the same programs tuned and executed on mp (real
// threads, message passing) and on shm (real threads, one shared address
// space with barrier-fenced direct reads) — which backend wins, and does
// the tuner's backend-aware ranking (wall vs wall_shm) pick sensibly?
//
// Two sections per program:
//   * tuner winners — tune::tune() measured on each backend (compute slept
//     at kTimeScale× model time so overlap is observable), reporting the
//     selected variant and its measured wall;
//   * default-variant head-to-head — one run per backend of the default
//     flags, reporting measured wall, message traffic (mp) and barrier /
//     shared-byte traffic (shm).
//
// Artifact discipline (scripts/bench_diff): measured times are emitted
// under "wall_seconds" keys, which the differ skips by default — the
// deterministic leaves are the model's predictions and traffic counters,
// so a checked-in baseline stays machine-independent.
#include <cstdio>
#include <string>
#include <vector>

#include "codegen/spmd.hpp"
#include "comm/comm.hpp"
#include "compiler_bench_common.hpp"
#include "cp/select.hpp"
#include "hpf/parser.hpp"
#include "model/model.hpp"
#include "tune/tune.hpp"

using namespace dhpf;

namespace {

/// Same role as nas_table_common's kMpTimeScale: stretch modelled compute
/// (realized as real sleeps) above the thread-overhead noise floor.
constexpr double kTimeScale = 25.0;

struct Program {
  const char* name;
  std::string source;
};

std::vector<Program> programs() {
  // A pipelined 1D stencil (halo traffic every timestep) and a 2D
  // relaxation (larger per-prefix payloads): the shapes where message
  // overheads and barrier overheads pull in different directions.
  const std::string stencil = R"(
    processors P(4)
    array a(256) distribute (block:0) onto P
    array b(256) distribute (block:0) onto P
    procedure main()
      do t = 1, 4
        do i = 1, 254
          a(i) = b(i-1) + b(i+1)
        enddo
        do i = 1, 254
          b(i) = a(i)
        enddo
      enddo
    end
  )";
  const std::string relax = R"(
    processors P(2, 2)
    array u(32, 32) distribute (block:0, block:1) onto P
    array v(32, 32) distribute (block:0, block:1) onto P
    procedure main()
      do t = 1, 3
        do j = 1, 30
          do i = 1, 30
            u(i, j) = v(i-1, j) + v(i+1, j) + v(i, j-1) + v(i, j+1)
          enddo
        enddo
        do j = 1, 30
          do i = 1, 30
            v(i, j) = u(i, j)
          enddo
        enddo
      enddo
    end
  )";
  return {{"stencil_1d_p4", stencil}, {"relax_2d_p2x2", relax}};
}

codegen::SpmdOptions real_backend_options(exec::Backend backend) {
  codegen::SpmdOptions xopt;
  xopt.backend = backend;
  xopt.runtime.compute_mode = mp::ComputeMode::Sleep;
  xopt.runtime.time_scale = kTimeScale;
  return xopt;
}

struct TuneRow {
  std::string winner;        ///< measured-best variant (nondeterministic)
  std::string predicted_best;///< rank-0 by prediction (deterministic)
  double predicted_wall = 0.0;  ///< of the predicted-best variant
  double measured_wall = 0.0;   ///< of the measured winner
};

TuneRow tune_on(const hpf::Program& prog, exec::Backend backend) {
  tune::TuneOptions topt;
  topt.xopt = real_backend_options(backend);
  topt.measure_top_k = 2;
  const tune::TuneReport rep = tune::tune(prog, topt);
  TuneRow row;
  row.winner = rep.best().spec.name;
  row.predicted_best = rep.ranked.front().spec.name;
  row.predicted_wall = rep.ranked.front().predicted_wall;
  row.measured_wall = rep.best().measured_seconds;
  return row;
}

struct HeadToHead {
  model::Prediction pred;
  double wall_mp = 0.0;
  double wall_shm = 0.0;
  codegen::SpmdResult shm_run;
};

HeadToHead default_head_to_head(const hpf::Program& prog) {
  cp::CpResult cps = cp::select_cps(prog);
  comm::CommPlan plan = comm::generate_comm(prog, cps);
  HeadToHead h;
  h.pred = model::predict(prog, cps, plan, exec::Machine::sp2());
  codegen::SpmdOptions mopt = real_backend_options(exec::Backend::Mp);
  mopt.verify = false;
  h.wall_mp = codegen::run_spmd(prog, cps, plan, exec::Machine::sp2(), mopt).wall_seconds;
  codegen::SpmdOptions sopt = real_backend_options(exec::Backend::Shm);
  sopt.verify = false;
  h.shm_run = codegen::run_spmd(prog, cps, plan, exec::Machine::sp2(), sopt);
  h.wall_shm = h.shm_run.wall_seconds;
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::parse_json_flag(argc, argv);
  std::printf("=== backend head-to-head: mp (messages) vs shm (barriers + shared reads) ===\n");
  std::printf("compute slept at %gx model time on both backends\n\n", kTimeScale);

  json::Writer w;
  w.begin_object();
  w.member("bench", "backend head-to-head: mp vs shm");
  w.member("time_scale", kTimeScale);
  w.key("rows");
  w.begin_array();

  const model::ModelParams params = model::ModelParams::from_machine(exec::Machine::sp2());
  for (const Program& p : programs()) {
    hpf::Program prog = hpf::parse(p.source);
    const TuneRow mp_row = tune_on(prog, exec::Backend::Mp);
    const TuneRow shm_row = tune_on(prog, exec::Backend::Shm);
    const HeadToHead h = default_head_to_head(prog);

    std::printf("%s\n", p.name);
    std::printf("  tuner winner on mp : %-55s wall %9.6f s\n", mp_row.winner.c_str(),
                mp_row.measured_wall);
    std::printf("  tuner winner on shm: %-55s wall %9.6f s\n", shm_row.winner.c_str(),
                shm_row.measured_wall);
    std::printf("  default variant    : mp %9.6f s (%zu msgs, %zu bytes)  "
                "shm %9.6f s (%zu barriers, %zu shared bytes)  shm/mp %.2fx\n",
                h.wall_mp, h.pred.messages, h.pred.bytes, h.wall_shm, h.shm_run.barriers,
                h.shm_run.shared_read_bytes, h.wall_mp > 0.0 ? h.wall_mp / h.wall_shm : 0.0);
    std::printf("  model: wall %9.6f s  wall_shm %9.6f s (%zu episodes, %.0f critical shared B)\n\n",
                h.pred.wall(params), h.pred.wall_shm(params), h.pred.barrier_episodes,
                h.pred.critical_shared_bytes);

    w.begin_object();
    w.member("program", p.name);
    // Deterministic: model aggregates of the default variant and the
    // predicted-best variants per backend.
    w.member("messages", h.pred.messages);
    w.member("bytes", h.pred.bytes);
    w.member("barrier_episodes", static_cast<std::uint64_t>(h.pred.barrier_episodes));
    w.member("critical_shared_bytes", h.pred.critical_shared_bytes);
    w.member("predicted_wall_mp", h.pred.wall(params));
    w.member("predicted_wall_shm", h.pred.wall_shm(params));
    w.member("predicted_best_mp", mp_row.predicted_best);
    w.member("predicted_best_shm", shm_row.predicted_best);
    w.member("predicted_best_wall_mp", mp_row.predicted_wall);
    w.member("predicted_best_wall_shm", shm_row.predicted_wall);
    // Runtime counters: exact on shm by the model contract.
    w.member("shm_barriers", h.shm_run.barriers);
    w.member("shm_shared_read_bytes", h.shm_run.shared_read_bytes);
    // Measured (machine-dependent, skipped by the differ): nested so each
    // leaf's basename is wall_seconds.
    auto wall = [&](const char* key, double v) {
      w.key(key);
      w.begin_object();
      w.member("wall_seconds", v);
      w.end_object();
    };
    wall("mp_default", h.wall_mp);
    wall("shm_default", h.wall_shm);
    wall("mp_winner", mp_row.measured_wall);
    wall("shm_winner", shm_row.measured_wall);
    // Stdout-only context; strings are invisible to the differ.
    w.member("winner_mp", mp_row.winner);
    w.member("winner_shm", shm_row.winner);
    w.end_object();
  }
  w.end_array();
  bench::provenance_json(w);
  w.key("metrics");
  bench::global_metrics_json(w);
  w.end_object();

  if (!json_path.empty() && !bench::write_text_file(json_path, w.str())) return 1;
  return 0;
}
