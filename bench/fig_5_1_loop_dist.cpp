// Paper §5 / Figure 5.1: communication-sensitive loop distribution — the
// y_solve fragment from NAS SP.
//
// Two inputs: the paper's actual loop (all loop-independent dependences can
// be localized by restricting the statements' CP choices — no distribution,
// no inner-loop communication) and the paper's discussed variant (statement
// 8 references lhs(i,j+1,k,n+4), creating an irreconcilable pair that forces
// a *selective* two-way distribution rather than a maximal one).
#include <cstdio>
#include <vector>

#include "codegen/spmd.hpp"
#include "comm/comm.hpp"
#include "compiler_bench_common.hpp"
#include "cp/select.hpp"
#include "hpf/parser.hpp"

using namespace dhpf;

namespace {

struct Sample {
  const char* input = nullptr;
  std::size_t stmts = 0, groups = 0, separated = 0, partitions = 0;
  double elapsed = 0.0;
  std::size_t messages = 0, bytes = 0;
};

std::vector<Sample> g_samples;

// A condensed y_solve: statements chained by loop-independent dependences on
// lhs/rhs, all alignable to the ON_HOME lhs(.., j, ..) class.
const char* kYSolve = R"(
  processors P(2, 2)
  array lhs(18, 18, 18, 9) distribute (*, block:0, block:1, *) onto P
  array rhs(18, 18, 18, 5) distribute (*, block:0, block:1, *) onto P
  procedure main()
    do k = 1, 16
      do j = 1, 14
        do i = 1, 16
          lhs(i, j, k, 4) = lhs(i, j+1, k, 3)
          lhs(i, j, k, 5) = lhs(i, j, k, 4)
          lhs(i, j, k, 6) = lhs(i, j, k, 4) + lhs(i, j, k, 5)
          rhs(i, j, k, 1) = rhs(i, j+1, k, 1) + lhs(i, j, k, 4)
          rhs(i, j, k, 2) = rhs(i, j, k, 1) + lhs(i, j, k, 5)
        enddo
      enddo
    enddo
  end
)";

// The "if statement 8 referenced lhs(i,j+1,k,n+4)" variant: statements 1 and
// 2 can no longer share a CP choice with statement 3.
const char* kYSolveConflict = R"(
  processors P(2, 2)
  array lhs(18, 18, 18, 9) distribute (*, block:0, block:1, *) onto P
  array rhs(18, 18, 18, 5) distribute (*, block:0, block:1, *) onto P
  procedure main()
    do k = 1, 16
      do j = 1, 14
        do i = 1, 16
          lhs(i, j, k, 4) = lhs(i, j, k, 3)
          lhs(i, j+1, k, 5) = lhs(i, j+1, k, 4)
          lhs(i, j, k, 6) = lhs(i, j+1, k, 5) + lhs(i, j, k, 4)
          rhs(i, j, k, 1) = rhs(i, j, k, 2) + lhs(i, j, k, 6)
        enddo
      enddo
    enddo
  end
)";

void analyze(const char* label, const char* src) {
  hpf::Program prog = hpf::parse(src);
  const auto& lk = prog.main()->body[0]->loop();
  const auto& lj = lk.body[0]->loop();
  const auto& li = lj.body[0]->loop();
  cp::LoopDistInfo info = cp::comm_sensitive_distribution(li, {&lk, &lj});
  std::printf("  %-28s %8zu %8zu %10zu %12zu\n", label, info.num_stmts, info.num_groups,
              info.separated.size(), info.num_partitions);
  for (std::size_t p = 0; p < info.partitions.size(); ++p) {
    std::printf("      new loop %zu: statements {", p);
    for (std::size_t s = 0; s < info.partitions[p].size(); ++s)
      std::printf("%sS%d", s ? ", " : "", info.partitions[p][s]);
    std::printf("}\n");
  }

  // Full pipeline: compile, run, verify.
  cp::CpResult cps = cp::select_cps(prog);
  comm::CommPlan plan = comm::generate_comm(prog, cps);
  codegen::SpmdResult r = codegen::run_spmd(prog, cps, plan, exec::Machine::sp2());
  std::printf("      executed: time %.5f s, %zu msgs, %zu bytes, verified (max err %.1e)\n",
              r.elapsed, r.messages, r.bytes, r.max_err);
  g_samples.push_back(Sample{label, info.num_stmts, info.num_groups, info.separated.size(),
                             info.num_partitions, r.elapsed, r.messages, r.bytes});
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::parse_json_flag(argc, argv);
  std::printf("=== Figure 5.1 reproduction: communication-sensitive loop distribution "
              "(SP y_solve fragment, 4 processors) ===\n");
  std::printf("  %-28s %8s %8s %10s %12s\n", "input", "stmts", "groups", "separated",
              "new loops");
  analyze("paper Figure 5.1", kYSolve);
  analyze("conflicting variant", kYSolveConflict);
  std::printf("\nExpected shape (paper): the original loop groups all statements into one\n"
              "CP class (no distribution); the variant forces exactly TWO new loops —\n"
              "selective distribution, not the maximal one-loop-per-statement split.\n");

  if (!json_path.empty()) {
    json::Writer w;
    w.begin_object();
    w.member("bench", "figure 5.1: communication-sensitive loop distribution");
    w.key("rows");
    w.begin_array();
    for (const auto& s : g_samples) {
      w.begin_object();
      w.member("input", s.input);
      w.member("stmts", s.stmts);
      w.member("groups", s.groups);
      w.member("separated", s.separated);
      w.member("partitions", s.partitions);
      w.member("elapsed", s.elapsed);
      w.member("messages", s.messages);
      w.member("bytes", s.bytes);
      w.end_object();
    }
    w.end_array();
    bench::provenance_json(w);
    w.key("metrics");
    bench::global_metrics_json(w);
    w.end_object();
    if (!bench::write_text_file(json_path, w.str())) return 1;
  }
  return 0;
}
