// End-to-end compiler tests: parse HPF-lite -> select CPs -> derive
// communication -> execute the generated SPMD program on the simulated
// machine -> verify bit-level agreement with serial interpretation.
//
// The NaN-poisoning of non-owned storage (codegen/spmd.hpp) makes these
// strong tests: any missing or misplaced message produces NaN (or a stale
// initial value) in an owner copy and fails verification.
#include <gtest/gtest.h>

#include "codegen/spmd.hpp"
#include "comm/comm.hpp"
#include "cp/select.hpp"
#include "hpf/parser.hpp"

namespace dhpf {
namespace {

using codegen::run_spmd;
using codegen::SpmdOptions;
using codegen::SpmdResult;
using comm::CommOptions;
using comm::CommPlan;
using cp::CpResult;
using cp::SelectOptions;
using hpf::parse;
using hpf::Program;

SpmdResult compile_and_run(Program& prog, const SelectOptions& sopt = {},
                           const CommOptions& copt = {}) {
  CpResult cps = cp::select_cps(prog, sopt);
  CommPlan plan = comm::generate_comm(prog, cps, copt);
  return run_spmd(prog, cps, plan, exec::Machine::sp2());
}

// ------------------------------------------------------ basic stencils

TEST(E2E, Stencil1DVerifies) {
  Program prog = parse(R"(
    processors P(4)
    array a(32) distribute (block:0) onto P
    array b(32) distribute (block:0) onto P
    procedure main()
      do i = 1, 30
        a(i) = b(i-1) + b(i+1)
      enddo
    end
  )");
  SpmdResult r = compile_and_run(prog);
  EXPECT_LT(r.max_err, 1e-12);
  EXPECT_GT(r.messages, 0u);  // boundary exchange happened
  // Owner-computes: iterations partitioned, not replicated.
  EXPECT_EQ(r.total_instances(), 30u);
}

TEST(E2E, Stencil2DBlockBlockVerifies) {
  Program prog = parse(R"(
    processors P(2, 2)
    array u(12, 12) distribute (block:0, block:1) onto P
    array v(12, 12) distribute (block:0, block:1) onto P
    procedure main()
      do j = 1, 10
        do i = 1, 10
          u(i, j) = v(i-1, j) + v(i+1, j) + v(i, j-1) + v(i, j+1)
        enddo
      enddo
    end
  )");
  SpmdResult r = compile_and_run(prog);
  EXPECT_LT(r.max_err, 1e-12);
  EXPECT_EQ(r.total_instances(), 100u);
}

TEST(E2E, AlignedCopyNeedsNoCommunication) {
  Program prog = parse(R"(
    processors P(4)
    array a(32) distribute (block:0) onto P
    array b(32) distribute (block:0) onto P
    procedure main()
      do i = 0, 31
        a(i) = b(i)
      enddo
    end
  )");
  CpResult cps = cp::select_cps(prog);
  CommPlan plan = comm::generate_comm(prog, cps);
  EXPECT_EQ(plan.active_fetches(), 0u);
  SpmdResult r = run_spmd(prog, cps, plan, exec::Machine::sp2());
  EXPECT_EQ(r.messages, 0u);
  EXPECT_LT(r.max_err, 1e-12);
}

TEST(E2E, PipelinedRecurrenceVerifies) {
  // Cross-processor carried dependence: a true pipeline. Placement must put
  // both the write-back and the fetch inside the loop.
  Program prog = parse(R"(
    processors P(4)
    array a(24) distribute (block:0) onto P
    procedure main()
      do i = 1, 23
        a(i) = a(i-1)
      enddo
    end
  )");
  SpmdResult r = compile_and_run(prog);
  EXPECT_LT(r.max_err, 1e-12);
  EXPECT_GT(r.messages, 0u);
}

TEST(E2E, TwoStageProducerConsumerHoistsToMiddle) {
  // b produced in one nest, consumed in the next: the fetch must be placed
  // between the nests (depth 0) and carry the whole boundary in one message
  // per neighbor (vectorization).
  Program prog = parse(R"(
    processors P(4)
    array a(32) distribute (block:0) onto P
    array b(32) distribute (block:0) onto P
    array c(32) distribute (block:0) onto P
    procedure main()
      do i = 1, 30
        b(i) = c(i)
      enddo
      do i = 1, 30
        a(i) = b(i-1) + b(i+1)
      enddo
    end
  )");
  CpResult cps = cp::select_cps(prog);
  CommPlan plan = comm::generate_comm(prog, cps);
  for (const auto& ev : plan.events)
    if (ev.kind == comm::EventKind::Fetch && ev.array->name == "b") {
      EXPECT_EQ(ev.placement_depth, 0);
    }
  SpmdResult r = run_spmd(prog, cps, plan, exec::Machine::sp2());
  EXPECT_LT(r.max_err, 1e-12);
  // 2 interior boundaries x 2 directions x 1 vectorized message... plus no
  // per-iteration traffic: messages must be small in count.
  EXPECT_LE(r.messages, 8u);
}

// --------------------------------------------- §4.1 privatizable arrays

const char* kFig41 = R"(
  processors P(2, 2)
  array lhs(12, 12, 5) distribute (block:0, block:1, *) onto P
  array u(12, 12) distribute (block:0, block:1) onto P
  array cv(12)
  procedure main()
    do[independent, new(cv)] k = 1, 10
      do j = 0, 11
        cv(j) = u(j, k)
      enddo
      do j = 1, 10
        lhs(j, k, 2) = cv(j-1) + cv(j) + cv(j+1)
      enddo
    enddo
  end
)";

TEST(E2E, Fig41PrivatizablePropagationEliminatesCvComm) {
  Program prog = parse(kFig41);
  CpResult cps = cp::select_cps(prog);
  CommPlan plan = comm::generate_comm(prog, cps);
  // cv is never communicated (computed exactly where used, boundary
  // computation partially replicated).
  for (const auto& ev : plan.events) EXPECT_NE(ev.array->name, "cv");
  SpmdResult r = run_spmd(prog, cps, plan, exec::Machine::sp2());
  EXPECT_LT(r.max_err, 1e-12);
  // Partial replication: the cv defs run on slightly more than 1/P of the
  // points, but far less than full replication.
  // Full replication would be 4 * (10*12 + 10*10) = 880; propagation stays
  // well under 2x the serial instance count (220).
  EXPECT_LT(r.total_instances(), 440u);
  EXPECT_GE(r.total_instances(), 220u);
}

TEST(E2E, Fig41ReplicateModeCostsMoreWork) {
  Program prog = parse(kFig41);
  SelectOptions rep;
  rep.priv_mode = cp::PrivMode::Replicate;
  CpResult cps_rep = cp::select_cps(prog, rep);
  CommPlan plan_rep = comm::generate_comm(prog, cps_rep);
  SpmdResult r_rep = run_spmd(prog, cps_rep, plan_rep, exec::Machine::sp2());
  EXPECT_LT(r_rep.max_err, 1e-12);

  CpResult cps = cp::select_cps(prog);
  CommPlan plan = comm::generate_comm(prog, cps);
  SpmdResult r = run_spmd(prog, cps, plan, exec::Machine::sp2());
  // §4.1 point 1: propagation avoids the needless replicated computation.
  EXPECT_LT(r.total_instances(), r_rep.total_instances());
}

// ------------------------------------------------------- §4.2 LOCALIZE

// Faithful to the paper's compute_rhs pattern: several "reciprocal" arrays
// (rho_i, us, vs, qs) are computed pointwise from one input array u, then
// read at +/-1 offsets. LOCALIZE replicates the boundary computation — the
// input u's overlap is fetched once (coalesced across the definitions)
// instead of communicating every reciprocal array's boundary.
const char* kFig42 = R"(
  processors P(2, 2)
  array rhs(12, 12, 5) distribute (block:0, block:1, *) onto P
  array rho_i(12, 12) distribute (block:0, block:1) onto P
  array us(12, 12) distribute (block:0, block:1) onto P
  array vs(12, 12) distribute (block:0, block:1) onto P
  array qs(12, 12) distribute (block:0, block:1) onto P
  array u(12, 12) distribute (block:0, block:1) onto P
  procedure main()
    do[independent, localize(rho_i, us, vs, qs)] onetrip = 1, 1
      do j = 0, 11
        do i = 0, 11
          rho_i(i, j) = u(i, j)
          us(i, j) = u(i, j) + 1
          vs(i, j) = u(i, j) + 2
          qs(i, j) = u(i, j) + 3
        enddo
      enddo
      do j = 1, 10
        do i = 1, 10
          rhs(i, j, 1) = rho_i(i-1, j) + rho_i(i+1, j) + rho_i(i, j-1) + rho_i(i, j+1)
          rhs(i, j, 2) = us(i-1, j) + us(i+1, j) + us(i, j-1) + us(i, j+1)
          rhs(i, j, 3) = vs(i-1, j) + vs(i+1, j) + vs(i, j-1) + vs(i, j+1)
          rhs(i, j, 4) = qs(i-1, j) + qs(i+1, j) + qs(i, j-1) + qs(i, j+1)
        enddo
      enddo
    enddo
  end
)";

TEST(E2E, Fig42LocalizeEliminatesReciprocalComm) {
  Program prog = parse(kFig42);
  CpResult cps = cp::select_cps(prog);
  CommPlan plan = comm::generate_comm(prog, cps);
  std::size_t recip_fetches = 0, u_fetches = 0;
  for (const auto& ev : plan.events) {
    if (ev.kind != comm::EventKind::Fetch || ev.eliminated) continue;
    if (ev.array->name == "u") ++u_fetches;
    if (ev.array->name == "rho_i" || ev.array->name == "us" || ev.array->name == "vs" ||
        ev.array->name == "qs")
      ++recip_fetches;
  }
  EXPECT_EQ(recip_fetches, 0u);  // boundary computation replicated instead
  EXPECT_EQ(u_fetches, 1u);      // one coalesced overlap fetch of the input
  SpmdResult r = run_spmd(prog, cps, plan, exec::Machine::sp2());
  EXPECT_LT(r.max_err, 1e-12);
}

TEST(E2E, Fig42WithoutLocalizeCommunicatesBoundaries) {
  Program prog = parse(kFig42);
  SelectOptions off;
  off.localize = false;
  CpResult cps = cp::select_cps(prog, off);
  CommPlan plan = comm::generate_comm(prog, cps);
  std::size_t rho_fetches = 0;
  for (const auto& ev : plan.events)
    if (ev.kind == comm::EventKind::Fetch && !ev.eliminated && ev.array->name == "rho_i")
      ++rho_fetches;
  EXPECT_GT(rho_fetches, 0u);
  SpmdResult r = run_spmd(prog, cps, plan, exec::Machine::sp2());
  EXPECT_LT(r.max_err, 1e-12);

  // And the optimized version moves fewer bytes.
  CpResult cps_on = cp::select_cps(prog);
  CommPlan plan_on = comm::generate_comm(prog, cps_on);
  SpmdResult r_on = run_spmd(prog, cps_on, plan_on, exec::Machine::sp2());
  EXPECT_LT(r_on.bytes, r.bytes);
  EXPECT_LT(r_on.messages, r.messages);
}

// ----------------------------------------------- §7 data availability

const char* kSec7 = R"(
  processors P(4)
  array lhs(16, 16, 9) distribute (block:0, *, *) onto P
  procedure main()
    do k = 1, 14
      do j = 1, 12
        lhs(j+1, k, 3) = lhs(j, k, 4)
        lhs(j+2, k, 3) = lhs(j+1, k, 3) + lhs(j, k, 4)
        lhs(j, k, 4) = lhs(j, k, 5) + 1
      enddo
    enddo
  end
)";

TEST(E2E, Sec7EliminatesLocallyAvailableRead) {
  Program prog = parse(kSec7);
  CpResult cps = cp::select_cps(prog);
  // All three statements must group to the ON_HOME lhs(j,...) partition.
  for (int id : {0, 1, 2}) {
    ASSERT_EQ(cps.cp_of(id).terms.size(), 1u) << "S" << id;
  }
  CommPlan plan = comm::generate_comm(prog, cps);
  EXPECT_GE(plan.eliminated_fetches(), 1u);
  SpmdResult r = run_spmd(prog, cps, plan, exec::Machine::sp2());
  EXPECT_LT(r.max_err, 1e-12);
}

TEST(E2E, Sec7OffKeepsTheRedundantMessages) {
  Program prog = parse(kSec7);
  CpResult cps = cp::select_cps(prog);
  CommOptions off;
  off.data_availability = false;
  CommPlan plan_off = comm::generate_comm(prog, cps, off);
  CommPlan plan_on = comm::generate_comm(prog, cps);
  EXPECT_GT(plan_off.active_fetches(), plan_on.active_fetches());

  SpmdResult r_off = run_spmd(prog, cps, plan_off, exec::Machine::sp2());
  SpmdResult r_on = run_spmd(prog, cps, plan_on, exec::Machine::sp2());
  EXPECT_LT(r_off.max_err, 1e-12);
  EXPECT_LT(r_on.max_err, 1e-12);
  EXPECT_LT(r_on.messages, r_off.messages);
}

// ----------------------------------------------- §6 interprocedural

TEST(E2E, Sec6CallPartitionedAndVerifies) {
  Program prog = parse(R"(
    processors P(2, 2)
    array rhs(5, 12, 12) distribute (*, block:0, block:1) onto P
    array lhs(5, 12, 12) distribute (*, block:0, block:1) onto P
    array frhs(5, 12, 12) distribute (*, block:0, block:1) onto P
    array flhs(5, 12, 12) distribute (*, block:0, block:1) onto P
    procedure matvec(flhs, frhs)
      do m = 0, 4
        frhs(m, 0, 0) = flhs(m, 0, 0) + frhs(m, 0, 0)
      enddo
    end
    procedure main()
      do j = 1, 10
        do i = 1, 10
          call matvec(lhs(0, i, j), rhs(0, i, j))
        enddo
      enddo
    end
  )");
  CpResult cps = cp::select_cps(prog);
  CommPlan plan = comm::generate_comm(prog, cps);
  SpmdResult r = run_spmd(prog, cps, plan, exec::Machine::sp2());
  EXPECT_LT(r.max_err, 1e-12);
  // Partitioned execution: 100 call instances x 5 callee assigns, not 4x.
  EXPECT_EQ(r.total_instances(), 500u);
  // Each rank did a quarter (10x10 interior on a 2x2 grid with 12^2 blocks
  // of 6: interior split 5/5).
  for (auto n : r.instances_per_rank) EXPECT_EQ(n, 125u);
}

// -------------------------------------------------------------- emitter

TEST(E2E, EmitterShowsGuardsAndComm) {
  Program prog = parse(kSec7);
  CpResult cps = cp::select_cps(prog);
  CommPlan plan = comm::generate_comm(prog, cps);
  const std::string code = codegen::emit_spmd(prog, cps, plan);
  EXPECT_NE(code.find("ON_HOME"), std::string::npos);
  EXPECT_NE(code.find("SEND"), std::string::npos);
  EXPECT_NE(code.find("data availability"), std::string::npos);
}

TEST(E2E, SerialInterpreterDeterministic) {
  Program prog = parse(kFig41);
  auto a = codegen::interpret_serial(prog);
  auto b = codegen::interpret_serial(prog);
  const auto* lhs = prog.find_array("lhs");
  ASSERT_EQ(a.at(lhs).size(), b.at(lhs).size());
  for (std::size_t i = 0; i < a.at(lhs).size(); ++i)
    EXPECT_DOUBLE_EQ(a.at(lhs)[i], b.at(lhs)[i]);
}

TEST(E2E, VolumeReportCountsBoundaryElements) {
  Program prog = parse(R"(
    processors P(4)
    array a(32) distribute (block:0) onto P
    array b(32) distribute (block:0) onto P
    procedure main()
      do i = 1, 30
        a(i) = b(i-1) + b(i+1)
      enddo
    end
  )");
  CpResult cps = cp::select_cps(prog);
  CommPlan plan = comm::generate_comm(prog, cps);
  // Rank 1 (interior): needs one element from each side.
  auto rep = comm::count_volume(prog, plan, 1);
  EXPECT_EQ(rep.fetch_elems, 2u);
  // Rank 0 (edge): only the right neighbor.
  auto rep0 = comm::count_volume(prog, plan, 0);
  EXPECT_EQ(rep0.fetch_elems, 1u);
}

}  // namespace
}  // namespace dhpf
