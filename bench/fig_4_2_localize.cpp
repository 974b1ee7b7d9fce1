// Paper §4.2 / Figure 4.2: partial replication of computation via LOCALIZE —
// the compute_rhs fragment from NAS BT. Six "reciprocal" arrays are computed
// pointwise from u, then read at +/-1 offsets along both distributed
// dimensions. With LOCALIZE, each processor also computes the boundary
// values it needs (after one coalesced overlap fetch of u); without it, all
// six arrays' boundaries are communicated.
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
  const char* config = nullptr;
  double elapsed = 0.0;
  std::size_t messages = 0, bytes = 0, instances = 0, u_events = 0, recip_events = 0;
};

std::vector<Sample> g_samples;

const char* kComputeRhs = R"(
  processors P(2, 2)
  array rhs(20, 20, 7) distribute (block:0, block:1, *) onto P
  array rho_i(20, 20) distribute (block:0, block:1) onto P
  array us(20, 20) distribute (block:0, block:1) onto P
  array vs(20, 20) distribute (block:0, block:1) onto P
  array ws(20, 20) distribute (block:0, block:1) onto P
  array square(20, 20) distribute (block:0, block:1) onto P
  array qs(20, 20) distribute (block:0, block:1) onto P
  array u(20, 20) distribute (block:0, block:1) onto P
  procedure main()
    do[independent, localize(rho_i, us, vs, ws, square, qs)] onetrip = 1, 1
      do j = 0, 19
        do i = 0, 19
          rho_i(i, j) = u(i, j)
          us(i, j) = u(i, j) + 1
          vs(i, j) = u(i, j) + 2
          ws(i, j) = u(i, j) + 3
          square(i, j) = u(i, j) + 4
          qs(i, j) = u(i, j) + 5
        enddo
      enddo
      do j = 1, 18
        do i = 1, 18
          rhs(i, j, 1) = square(i-1, j) + square(i+1, j) + square(i, j-1) + square(i, j+1)
          rhs(i, j, 2) = vs(i-1, j) + vs(i+1, j) + vs(i, j-1) + vs(i, j+1)
          rhs(i, j, 3) = ws(i-1, j) + ws(i+1, j) + ws(i, j-1) + ws(i, j+1)
          rhs(i, j, 4) = qs(i-1, j) + qs(i+1, j) + qs(i, j-1) + qs(i, j+1)
          rhs(i, j, 5) = rho_i(i-1, j) + rho_i(i+1, j) + rho_i(i, j-1) + rho_i(i, j+1)
          rhs(i, j, 6) = us(i-1, j) + us(i+1, j) + us(i, j-1) + us(i, j+1)
        enddo
      enddo
    enddo
  end
)";

void run_case(const char* label, bool localize) {
  hpf::Program prog = hpf::parse(kComputeRhs);
  cp::SelectOptions sopt;
  sopt.localize = localize;
  cp::CpResult cps = cp::select_cps(prog, sopt);
  comm::CommPlan plan = comm::generate_comm(prog, cps);
  codegen::SpmdResult r = codegen::run_spmd(prog, cps, plan, exec::Machine::sp2());
  std::size_t recip_events = 0, u_events = 0;
  for (const auto& ev : plan.events) {
    if (ev.eliminated) continue;
    if (ev.array->name == "u")
      ++u_events;
    else if (ev.array->name != "rhs")
      ++recip_events;
  }
  std::printf("  %-28s %10.5f %9zu %10zu %12zu %8zu %8zu\n", label, r.elapsed, r.messages,
              r.bytes, r.total_instances(), u_events, recip_events);
  g_samples.push_back(
      Sample{label, r.elapsed, r.messages, r.bytes, r.total_instances(), u_events, recip_events});
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::parse_json_flag(argc, argv);
  std::printf("=== Figure 4.2 reproduction: LOCALIZE partial replication (BT compute_rhs "
              "fragment, 4 processors) ===\n");
  std::printf("  %-28s %10s %9s %10s %12s %8s %8s\n", "configuration", "sim time", "msgs",
              "bytes", "instances", "u-evts", "recip-evts");
  run_case("LOCALIZE (sec 4.2)", true);
  run_case("owner-computes baseline", false);
  std::printf("\nExpected shape (paper): LOCALIZE trades one coalesced overlap exchange of\n"
              "u plus a sliver of replicated computation for the boundary communication of\n"
              "all six reciprocal arrays — fewer messages and fewer bytes.\n");

  if (!json_path.empty()) {
    json::Writer w;
    w.begin_object();
    w.member("bench", "figure 4.2: LOCALIZE partial replication");
    w.key("rows");
    w.begin_array();
    for (const auto& s : g_samples) {
      w.begin_object();
      w.member("configuration", s.config);
      w.member("elapsed", s.elapsed);
      w.member("messages", s.messages);
      w.member("bytes", s.bytes);
      w.member("instances", s.instances);
      w.member("u_events", s.u_events);
      w.member("recip_events", s.recip_events);
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
