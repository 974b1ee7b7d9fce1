// Additional communication-generation and codegen coverage: placement
// depths, coalescing, write-back suppression, §7 negative cases, larger
// grids, and failure injection (a sabotaged plan must be caught by the
// NaN-poisoning verification oracle).
#include <gtest/gtest.h>

#include "codegen/driver.hpp"
#include "hpf/parser.hpp"

namespace dhpf {
namespace {

using codegen::run_spmd;
using comm::CommPlan;
using comm::EventKind;
using hpf::parse;
using hpf::Program;

// ------------------------------------------------------------- placement

TEST(CommPlacement, IndependentInputsHoistFully) {
  Program prog = parse(R"(
    processors P(4)
    array a(24) distribute (block:0) onto P
    array b(24) distribute (block:0) onto P
    procedure main()
      do k = 1, 10
        do i = 1, 22
          a(i) = b(i-1) + b(i+1)
        enddo
      enddo
    end
  )");
  auto c = codegen::compile(prog);
  for (const auto& ev : c.plan.events)
    if (ev.kind == EventKind::Fetch) {
      EXPECT_EQ(ev.placement_depth, 0);
    }
  auto r = run_spmd(prog, c.cps, c.plan, exec::Machine::sp2());
  EXPECT_LT(r.max_err, 1e-12);
  // One hoisted exchange total, even though the loop runs 10 times.
  EXPECT_LE(r.messages, 6u);
}

TEST(CommPlacement, ProducerInOuterLoopForcesPerIterationExchange) {
  Program prog = parse(R"(
    processors P(4)
    array a(24) distribute (block:0) onto P
    array b(24) distribute (block:0) onto P
    procedure main()
      do k = 1, 10
        do i = 1, 22
          b(i) = a(i) + 1
        enddo
        do i = 1, 22
          a(i) = b(i-1) + b(i+1)
        enddo
      enddo
    end
  )");
  auto c = codegen::compile(prog);
  int fetch_depth = -1;
  for (const auto& ev : c.plan.events)
    if (ev.kind == EventKind::Fetch && ev.array->name == "b")
      fetch_depth = ev.placement_depth;
  EXPECT_EQ(fetch_depth, 1);  // inside k, between the two i nests
  auto r = run_spmd(prog, c.cps, c.plan, exec::Machine::sp2());
  EXPECT_LT(r.max_err, 1e-12);
}

TEST(CommPlacement, DisjointComponentPlanesDoNotPinPlacement) {
  // The write to plane 5 must not force the read of plane 3 to stay inside
  // the loop (overlap-sensitive placement).
  Program prog = parse(R"(
    processors P(4)
    array a(24, 9) distribute (block:0, *) onto P
    array src(24, 9) distribute (block:0, *) onto P
    procedure main()
      do i = 1, 22
        a(i, 5) = src(i-1, 3) + src(i+1, 3)
      enddo
    end
  )");
  auto c = codegen::compile(prog);
  for (const auto& ev : c.plan.events)
    if (ev.kind == EventKind::Fetch && ev.array->name == "src") {
      EXPECT_EQ(ev.placement_depth, 0);
    }
  auto r = run_spmd(prog, c.cps, c.plan, exec::Machine::sp2());
  EXPECT_LT(r.max_err, 1e-12);
}

// ------------------------------------------------------------ coalescing

TEST(CommCoalescing, MultipleOffsetsOneArrayOneEvent) {
  Program prog = parse(R"(
    processors P(4)
    array a(32) distribute (block:0) onto P
    array b(32) distribute (block:0) onto P
    procedure main()
      do i = 2, 29
        a(i) = b(i-2) + b(i-1) + b(i+1) + b(i+2)
      enddo
    end
  )");
  auto c = codegen::compile(prog);
  std::size_t b_events = 0;
  for (const auto& ev : c.plan.events)
    if (ev.kind == EventKind::Fetch && ev.array->name == "b") ++b_events;
  EXPECT_EQ(b_events, 1u);  // all four offsets coalesce
  auto r = run_spmd(prog, c.cps, c.plan, exec::Machine::sp2());
  EXPECT_LT(r.max_err, 1e-12);
  // Depth-2 halo: interior rank receives 2 elems from each side in ONE
  // message per side.
  auto rep = comm::count_volume(prog, c.plan, 1);
  EXPECT_EQ(rep.fetch_elems, 4u);
}

TEST(CommCoalescing, DisabledKeepsPerRefEvents) {
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
  cp::CpResult cps = cp::select_cps(prog);
  comm::CommOptions off;
  off.coalesce = false;
  CommPlan plan = comm::generate_comm(prog, cps, off);
  std::size_t b_events = 0;
  for (const auto& ev : plan.events)
    if (ev.kind == EventKind::Fetch && ev.array->name == "b") ++b_events;
  EXPECT_EQ(b_events, 2u);
  auto r = run_spmd(prog, cps, plan, exec::Machine::sp2());
  EXPECT_LT(r.max_err, 1e-12);
}

// ------------------------------------------------------------ write-back

TEST(WriteBack, SuppressedWhenOwnerComputesTermPresent) {
  // LOCALIZE-shaped CP (owner term included): no write-back events.
  Program prog = parse(R"(
    processors P(4)
    array w(24) distribute (block:0) onto P
    array r(24) distribute (block:0) onto P
    procedure main()
      do[independent, localize(w)] t = 1, 1
        do i = 0, 23
          w(i) = r(i)
        enddo
        do i = 1, 22
          r(i) = w(i-1) + w(i+1)
        enddo
      enddo
    end
  )");
  auto c = codegen::compile(prog);
  for (const auto& ev : c.plan.events) EXPECT_NE(ev.kind, EventKind::WriteBack);
  auto res = run_spmd(prog, c.cps, c.plan, exec::Machine::sp2());
  EXPECT_LT(res.max_err, 1e-12);
}

TEST(WriteBack, EmittedForPureNonOwnerWrites) {
  // Force the non-owner CP (anchor b(i), writing a(i+1)) directly — the
  // communication layer must write the boundary value back to a's owner.
  Program prog = parse(R"(
    processors P(4)
    array a(24) distribute (block:0) onto P
    array b(24) distribute (block:0) onto P
    procedure main()
      do i = 1, 22
        a(i+1) = b(i)
      enddo
    end
  )");
  auto cps = cp::select_cps(prog);
  const auto& stmt = prog.main()->body[0]->loop().body[0]->assign();
  cps.stmts.at(stmt.id).cp = cp::CP::on_home(stmt.rhs[0]);
  auto plan = comm::generate_comm(prog, cps);
  std::size_t wb = 0;
  for (const auto& ev : plan.events)
    if (ev.kind == EventKind::WriteBack && ev.array->name == "a") ++wb;
  EXPECT_EQ(wb, 1u);
  auto r = run_spmd(prog, cps, plan, exec::Machine::sp2());
  EXPECT_LT(r.max_err, 1e-12);
}

// --------------------------------------------------------------- §7 edges

TEST(Sec7, NotEliminatedWhenReadExceedsWritten) {
  // The read needs rows the processor never wrote (j+3 vs writes at j+1):
  // subset fails, fetch must stay, and execution must still verify.
  Program prog = parse(R"(
    processors P(4)
    array lhs(24, 8, 9) distribute (block:0, *, *) onto P
    procedure main()
      do k = 1, 6
        do j = 1, 19
          lhs(j+1, k, 3) = lhs(j, k, 4)
          lhs(j+2, k, 5) = lhs(j+3, k, 3) + lhs(j, k, 4)
          lhs(j, k, 4) = lhs(j, k, 6) + 1
        enddo
      enddo
    end
  )");
  auto cps = cp::select_cps(prog);
  auto plan = comm::generate_comm(prog, cps);
  // No fetch of lhs may be eliminated via availability (j+3 not covered).
  for (const auto& ev : plan.events)
    if (ev.kind == EventKind::Fetch && ev.note.find("sec 7") != std::string::npos)
      FAIL() << "unsound elimination: " << ev.to_string();
  auto r = run_spmd(prog, cps, plan, exec::Machine::sp2());
  EXPECT_LT(r.max_err, 1e-12);
}

// --------------------------------------------------------- bigger shapes

TEST(CodegenShapes, EightWayOneDimensionalGrid) {
  Program prog = parse(R"(
    processors P(8)
    array a(48) distribute (block:0) onto P
    array b(48) distribute (block:0) onto P
    procedure main()
      do i = 1, 46
        a(i) = b(i-1) + b(i+1)
      enddo
      do i = 1, 46
        b(i) = a(i-1) + a(i+1)
      enddo
    end
  )");
  auto c = codegen::compile(prog);
  auto r = run_spmd(prog, c.cps, c.plan, exec::Machine::sp2());
  EXPECT_LT(r.max_err, 1e-12);
}

TEST(CodegenShapes, ThreeDimensionalBlockBlockBlock) {
  Program prog = parse(R"(
    processors P(2, 2, 2)
    array u(10, 10, 10) distribute (block:0, block:1, block:2) onto P
    array v(10, 10, 10) distribute (block:0, block:1, block:2) onto P
    procedure main()
      do k = 1, 8
        do j = 1, 8
          do i = 1, 8
            u(i, j, k) = v(i-1, j, k) + v(i+1, j, k) + v(i, j-1, k) + v(i, j+1, k) + v(i, j, k-1) + v(i, j, k+1)
          enddo
        enddo
      enddo
    end
  )");
  auto c = codegen::compile(prog);
  auto r = run_spmd(prog, c.cps, c.plan, exec::Machine::sp2());
  EXPECT_LT(r.max_err, 1e-12);
  EXPECT_GT(r.messages, 0u);
}

TEST(CodegenShapes, ReplicatedArraysNeedNoCommunication) {
  Program prog = parse(R"(
    processors P(4)
    array coeff(16)
    array a(16) distribute (block:0) onto P
    procedure main()
      do i = 0, 15
        a(i) = coeff(i)
      enddo
    end
  )");
  auto c = codegen::compile(prog);
  EXPECT_TRUE(c.plan.events.empty());
  auto r = run_spmd(prog, c.cps, c.plan, exec::Machine::sp2());
  EXPECT_LT(r.max_err, 1e-12);
}

// ------------------------------------------------------ failure injection

TEST(FailureInjection, DroppedEventIsCaughtByVerification) {
  Program prog = parse(R"(
    processors P(4)
    array a(24) distribute (block:0) onto P
    array b(24) distribute (block:0) onto P
    procedure main()
      do i = 1, 22
        a(i) = b(i-1) + b(i+1)
      enddo
    end
  )");
  auto cps = cp::select_cps(prog);
  auto plan = comm::generate_comm(prog, cps);
  ASSERT_FALSE(plan.events.empty());
  // Sabotage: pretend the fetch was "eliminated".
  for (auto& ev : plan.events) ev.eliminated = true;
  EXPECT_THROW(run_spmd(prog, cps, plan, exec::Machine::sp2()), dhpf::Error);
}

TEST(FailureInjection, WrongCpIsCaughtByVerification) {
  Program prog = parse(R"(
    processors P(4)
    array a(24) distribute (block:0) onto P
    array b(24) distribute (block:0) onto P
    procedure main()
      do i = 1, 22
        a(i) = b(i)
      enddo
    end
  )");
  auto cps = cp::select_cps(prog);
  // Sabotage the CP: shift the guard so some owners never compute their
  // elements (and no communication plan compensates).
  for (auto& [id, sc] : cps.stmts)
    for (auto& t : sc.cp.terms)
      for (auto& sr : t.subs) {
        sr.lo = sr.lo.plus(6);
        sr.hi = sr.hi.plus(6);
      }
  auto plan = comm::generate_comm(prog, cps);
  EXPECT_THROW(run_spmd(prog, cps, plan, exec::Machine::sp2()), dhpf::Error);
}

TEST(FailureInjection, CorruptCarryBundleSizeDetected) {
  // comm-module unpack must reject mis-sized bundles (exercised via the
  // public packing helpers in the nas variants indirectly; here: the spmd
  // fetch path checks sizes, so a plan whose data set disagrees between
  // sender and receiver is impossible by construction — assert the
  // deterministic cache instead).
  Program prog = parse(R"(
    processors P(2)
    array a(8) distribute (block:0) onto P
    array b(8) distribute (block:0) onto P
    procedure main()
      do i = 1, 6
        a(i) = b(i-1)
      enddo
    end
  )");
  auto c1 = codegen::compile(prog);
  auto c2 = codegen::compile(prog);
  // Determinism of the whole pipeline: identical plans, identical results.
  EXPECT_EQ(c1.plan.to_string(), c2.plan.to_string());
  auto r1 = run_spmd(prog, c1.cps, c1.plan, exec::Machine::sp2());
  auto r2 = run_spmd(prog, c2.cps, c2.plan, exec::Machine::sp2());
  EXPECT_DOUBLE_EQ(r1.elapsed, r2.elapsed);
  EXPECT_EQ(r1.messages, r2.messages);
}

// --------------------------------------------------------------- facade

TEST(Facade, CompileSourceProducesListing) {
  hpf::Program prog;
  auto c = codegen::compile_source(R"(
    processors P(2)
    array a(8) distribute (block:0) onto P
    procedure main()
      do i = 1, 6
        a(i) = a(i) + 1
      enddo
    end
  )",
                                   &prog);
  EXPECT_NE(c.listing.find("SPMD node program"), std::string::npos);
  EXPECT_NE(c.listing.find("ON_HOME a(i)"), std::string::npos);
  EXPECT_NE(c.listing.find("a(i) = a(i) + 1"), std::string::npos);
}

}  // namespace
}  // namespace dhpf
