// Paper §7: data availability analysis — eliminating communication for
// non-local reads whose values the reading processor itself computed (as a
// non-owner) in the last preceding write.
//
// The input reproduces the situation of the paper's y_solve discussion: all
// statements share the CP ON_HOME lhs(j, ...), so the assignments to rows
// j+1 and j+2 are non-local writes, and the read of row j+1 in the next
// statement would — without the analysis — fetch from the owner, flowing
// *against* the forward pipeline.
//
// The bench also checks the paper's actual set computation: the non-local
// read data [1:G1-2, Mj*Bj+Bj+1, ...] is a subset of the non-local write
// data [1:G1-2, Mj*Bj+Bj+1 : Mj*Bj+Bj+2, ...] (symbolically, for every
// block bound).
#include <cstdio>
#include <vector>

#include "analysis/sets.hpp"
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
  std::size_t messages = 0, bytes = 0, active_fetches = 0, eliminated_fetches = 0;
};

std::vector<Sample> g_samples;

const char* kPipeline = R"(
  processors P(4)
  array lhs(24, 16, 9) distribute (block:0, *, *) onto P
  procedure main()
    do k = 1, 14
      do j = 1, 20
        lhs(j+1, k, 3) = lhs(j, k, 4)
        lhs(j+2, k, 3) = lhs(j+1, k, 3) + lhs(j, k, 4)
        lhs(j, k, 4) = lhs(j, k, 5) + 1
      enddo
    enddo
  end
)";

void run_case(const char* label, bool availability) {
  hpf::Program prog = hpf::parse(kPipeline);
  cp::CpResult cps = cp::select_cps(prog);
  comm::CommOptions copt;
  copt.data_availability = availability;
  comm::CommPlan plan = comm::generate_comm(prog, cps, copt);
  codegen::SpmdResult r = codegen::run_spmd(prog, cps, plan, exec::Machine::sp2());
  std::printf("  %-24s %10.5f %9zu %10zu %8zu %10zu\n", label, r.elapsed, r.messages,
              r.bytes, plan.active_fetches(), plan.eliminated_fetches());
  g_samples.push_back(Sample{label, r.elapsed, r.messages, r.bytes, plan.active_fetches(),
                             plan.eliminated_fetches()});
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::parse_json_flag(argc, argv);
  std::printf("=== Section 7 reproduction: data availability analysis (pipelined SP-style "
              "sweep, 4 processors) ===\n\n");

  bool subset_holds = false;

  // --- the paper's symbolic subset computation ----------------------------
  {
    iset::Params ps({"ub", "G1"});  // ub = Mj*Bj + Bj (derived parameter)
    auto band = [&](long lo_off, long hi_off) {
      iset::BasicSet bs(2, ps);
      bs.add_bounds(0, bs.expr_const(1), bs.expr_param("G1") - bs.expr_const(2));
      bs.add_bounds(1, bs.expr_param("ub") + bs.expr_const(lo_off),
                    bs.expr_param("ub") + bs.expr_const(hi_off));
      return iset::Set(bs);
    };
    iset::Set nonlocal_read = band(1, 1);
    iset::Set nonlocal_write = band(1, 2);
    subset_holds = nonlocal_read.subset_of(nonlocal_write);
    std::printf("paper's set check:\n  nonLocalReadData  = %s\n  nonLocalWriteData = %s\n"
                "  read subset of write: %s  -> communication eliminated\n\n",
                nonlocal_read.to_string({"i", "j"}).c_str(),
                nonlocal_write.to_string({"i", "j"}).c_str(), subset_holds ? "YES" : "NO");
  }

  std::printf("  %-24s %10s %9s %10s %8s %10s\n", "configuration", "sim time", "msgs",
              "bytes", "fetches", "eliminated");
  run_case("sec 7 ON", true);
  run_case("sec 7 OFF", false);
  std::printf("\nExpected shape (paper): the analysis 'directly eliminates about half the\n"
              "communication that would otherwise arise in the main pipelined\n"
              "computations' — here the against-the-pipeline fetch disappears while both\n"
              "versions produce identical (verified) results.\n");

  if (!json_path.empty()) {
    json::Writer w;
    w.begin_object();
    w.member("bench", "section 7: data availability analysis");
    w.member("read_subset_of_write", subset_holds);
    w.key("rows");
    w.begin_array();
    for (const auto& s : g_samples) {
      w.begin_object();
      w.member("configuration", s.config);
      w.member("elapsed", s.elapsed);
      w.member("messages", s.messages);
      w.member("bytes", s.bytes);
      w.member("active_fetches", s.active_fetches);
      w.member("eliminated_fetches", s.eliminated_fetches);
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
