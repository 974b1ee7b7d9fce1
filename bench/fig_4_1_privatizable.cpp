// Paper §4.1 / Figure 4.1: computation partitioning for loop nests that use
// privatizable (NEW) arrays — the lhsy fragment from NAS SP.
//
// Compares three strategies for the definitions of the privatizable arrays
// cv and rhoq:
//   * dHPF (§4.1): CPs translated back from the uses — each processor
//     computes exactly the private elements it will use, boundary values
//     partially replicated; zero communication of the private arrays;
//   * full replication: every processor computes every private element;
//   * owner-computes on a *distributed* private array: boundary elements of
//     cv/rhoq must be communicated inside the outer loop — "a large number
//     of small messages" (the paper's second rejected alternative).
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
  const char* strategy = nullptr;
  double elapsed = 0.0;
  std::size_t messages = 0, bytes = 0, instances = 0, priv_events = 0;
  std::string cv_def_cp;
};

std::vector<Sample> g_samples;

// The Figure 4.1 shape: privatizable 1D temporaries defined over a j-range,
// then used at j-1/j/j+1 when building lhs, all inside a parallel i/k nest.
const char* kLhsy = R"(
  processors P(2, 2)
  array lhs(20, 20, 20, 5) distribute (*, block:0, block:1, *) onto P
  array u(20, 20, 20) distribute (*, block:0, block:1) onto P
  array cv(20)
  array rhoq(20)
  procedure main()
    do k = 1, 18
      do[independent, new(cv, rhoq)] i = 1, 18
        do j = 0, 19
          cv(j) = u(i, j, k)
          rhoq(j) = u(i, j, k) + 1
        enddo
        do j = 1, 18
          lhs(i, j, k, 1) = cv(j-1) + rhoq(j-1)
          lhs(i, j, k, 2) = cv(j) + rhoq(j)
          lhs(i, j, k, 3) = cv(j+1) + rhoq(j+1)
        enddo
      enddo
    enddo
  end
)";

// Same computation with cv/rhoq distributed (for the owner-computes
// baseline, which then *must* communicate their boundaries).
const char* kLhsyDistPriv = R"(
  processors P(2, 2)
  array lhs(20, 20, 20, 5) distribute (*, block:0, block:1, *) onto P
  array u(20, 20, 20) distribute (*, block:0, block:1) onto P
  array cv(20) distribute (block:0) onto P
  array rhoq(20) distribute (block:0) onto P
  procedure main()
    do k = 1, 18
      do[independent, new(cv, rhoq)] i = 1, 18
        do j = 0, 19
          cv(j) = u(i, j, k)
          rhoq(j) = u(i, j, k) + 1
        enddo
        do j = 1, 18
          lhs(i, j, k, 1) = cv(j-1) + rhoq(j-1)
          lhs(i, j, k, 2) = cv(j) + rhoq(j)
          lhs(i, j, k, 3) = cv(j+1) + rhoq(j+1)
        enddo
      enddo
    enddo
  end
)";

void run_case(const char* label, const char* source, cp::PrivMode mode) {
  hpf::Program prog = hpf::parse(source);
  cp::SelectOptions sopt;
  sopt.priv_mode = mode;
  cp::CpResult cps = cp::select_cps(prog, sopt);
  comm::CommPlan plan = comm::generate_comm(prog, cps);
  codegen::SpmdResult r =
      codegen::run_spmd(prog, cps, plan, exec::Machine::sp2());
  std::size_t priv_fetch_msgs = 0;
  for (const auto& ev : plan.events)
    if (!ev.eliminated && (ev.array->name == "cv" || ev.array->name == "rhoq"))
      ++priv_fetch_msgs;
  std::printf("  %-36s %10.5f %9zu %10zu %12zu %10zu\n", label, r.elapsed, r.messages,
              r.bytes, r.total_instances(), priv_fetch_msgs);
  std::printf("      cv-def CP: %s\n", cps.cp_of(0).to_string().c_str());
  g_samples.push_back(Sample{label, r.elapsed, r.messages, r.bytes, r.total_instances(),
                             priv_fetch_msgs, cps.cp_of(0).to_string()});
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::parse_json_flag(argc, argv);
  std::printf("=== Figure 4.1 reproduction: privatizable-array computation partitioning "
              "(SP lhsy fragment, 4 processors) ===\n");
  std::printf("  %-36s %10s %9s %10s %12s %10s\n", "strategy", "sim time", "msgs", "bytes",
              "instances", "priv-events");
  run_case("dHPF sec 4.1 (translate from uses)", kLhsy, cp::PrivMode::Propagate);
  run_case("full replication of cv/rhoq", kLhsy, cp::PrivMode::Replicate);
  run_case("distributed + owner-computes", kLhsyDistPriv, cp::PrivMode::OwnerComputes);
  std::printf("\nExpected shape (paper): the sec 4.1 strategy avoids both the needless\n"
              "replicated computation (instances) and any communication of the private\n"
              "arrays (priv-events), while owner-computes on a partitioned private array\n"
              "generates per-outer-iteration boundary messages.\n");

  if (!json_path.empty()) {
    json::Writer w;
    w.begin_object();
    w.member("bench", "figure 4.1: privatizable-array computation partitioning");
    w.key("rows");
    w.begin_array();
    for (const auto& s : g_samples) {
      w.begin_object();
      w.member("strategy", s.strategy);
      w.member("elapsed", s.elapsed);
      w.member("messages", s.messages);
      w.member("bytes", s.bytes);
      w.member("instances", s.instances);
      w.member("priv_events", s.priv_events);
      w.member("cv_def_cp", s.cv_def_cp);
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
