// Additional mini-NAS coverage: awkward grid sizes, per-dimension segment
// equality sweeps, dissipation boundary stencils checked against the paper's
// formulas, collective norms, and phase accounting.
#include <gtest/gtest.h>

#include <cmath>

#include "nas/driver.hpp"
#include "nas/kernels.hpp"
#include "nas/serial.hpp"
#include "rt/decomp.hpp"

#include <algorithm>

namespace dhpf::nas {
namespace {

using exec::Machine;

// ---- awkward sizes -------------------------------------------------------

struct OddCase {
  Variant variant;
  App app;
  int n;
  int nprocs;
};

class OddSizesP : public ::testing::TestWithParam<OddCase> {};

TEST_P(OddSizesP, VerifiesOnNonDivisibleGrids) {
  const OddCase c = GetParam();
  RunResult r = run_variant(c.variant, Problem{c.app, c.n, 2, 0.0}, c.nprocs, Machine::sp2());
  EXPECT_LT(r.max_err, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Odd, OddSizesP,
    ::testing::Values(OddCase{Variant::HandMPI, App::SP, 13, 9},     // 13 over q=3
                      OddCase{Variant::HandMPI, App::BT, 17, 4},     // 17 over q=2
                      OddCase{Variant::DhpfStyle, App::SP, 13, 6},   // 2x3 grid
                      OddCase{Variant::DhpfStyle, App::BT, 15, 12},  // 3x4 grid
                      OddCase{Variant::PgiStyle, App::SP, 15, 7},    // 15 over 7
                      OddCase{Variant::PgiStyle, App::BT, 13, 5}));

TEST(OddSizes, TooManyProcessorsRejectedCleanly) {
  // n=12, P=49 -> q=7 needs >= 14 planes: must throw, not corrupt.
  EXPECT_THROW(
      run_variant(Variant::HandMPI, Problem{App::SP, 12, 1, 0.0}, 49, Machine::sp2()),
      dhpf::Error);
  EXPECT_THROW(
      run_variant(Variant::PgiStyle, Problem{App::SP, 12, 1, 0.0}, 7, Machine::sp2()),
      dhpf::Error);
}

// ---- dissipation boundary stencils (paper's NAS one-sided forms) ---------

TEST(Dissipation, BoundaryCasesMatchClosedForm) {
  // Evaluate compute_rhs on a field where u is nonzero at exactly one point
  // along x and everything else (forcing, other dims' contributions) is
  // arranged to isolate the x-dissipation term for component 0... simpler:
  // compare rhs at mirrored points of a symmetric field: the one-sided
  // boundary stencils must preserve the symmetry.
  Problem pb{App::SP, 14, 1, 0.0};
  rt::Field u(kNumComp, pb.domain(), 0), recips(kNumRecip, pb.domain(), 0),
      rhs(kNumComp, pb.domain(), 0), forcing(kNumComp, pb.domain(), 0);
  const int n = pb.n;
  // Symmetric density under i -> n-1-i, zero momenta (so the only x-varying
  // contribution to component 0 is the symmetric dissipation stencil,
  // including its one-sided boundary forms).
  for (int k = 0; k < n; ++k)
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i) {
        const double xi = std::min(i, n - 1 - i);
        u(0, i, j, k) = 1.5 + 0.01 * xi;
        u(1, i, j, k) = u(2, i, j, k) = u(3, i, j, k) = 0.0;
        u(4, i, j, k) = 2.0;
      }
  compute_reciprocals(u, recips, pb.domain());
  compute_rhs(pb, u, recips, forcing, rhs, pb.interior());
  // rhs(0) must satisfy rhs(0, i) == rhs(0, n-1-i) on the centerline — this
  // exercises exactly the paper's one-sided dissipation cases at
  // i in {1, 2, n-3, n-2}.
  const int j = n / 2, k = n / 2;
  for (int i = 1; i < n - 1; ++i)
    EXPECT_NEAR(rhs(0, i, j, k), rhs(0, n - 1 - i, j, k), 1e-13) << "i=" << i;
}

TEST(Dissipation, InteriorStencilIsFivePoint) {
  // A unit bump at x=i0 must influence rhs exactly at i0-2..i0+2 through the
  // x-dissipation (for the density component with zero velocities).
  Problem pb{App::SP, 16, 1, 0.0};
  rt::Field u(kNumComp, pb.domain(), 0), recips(kNumRecip, pb.domain(), 0),
      rhs_base(kNumComp, pb.domain(), 0), rhs_bump(kNumComp, pb.domain(), 0),
      forcing(kNumComp, pb.domain(), 0);
  u.fill(0.0);
  for (int k = 0; k < pb.n; ++k)
    for (int j = 0; j < pb.n; ++j)
      for (int i = 0; i < pb.n; ++i) u(0, i, j, k) = 2.0;
  compute_reciprocals(u, recips, pb.domain());
  compute_rhs(pb, u, recips, forcing, rhs_base, pb.interior());

  const int i0 = 8, j0 = 8, k0 = 8;
  u(0, i0, j0, k0) = 2.5;  // bump density only
  compute_reciprocals(u, recips, pb.domain());
  compute_rhs(pb, u, recips, forcing, rhs_bump, pb.interior());

  for (int i = 1; i < pb.n - 1; ++i) {
    const double delta = std::fabs(rhs_bump(0, i, j0, k0) - rhs_base(0, i, j0, k0));
    if (std::abs(i - i0) <= 2)
      EXPECT_GT(delta, 1e-12) << "i=" << i;
    else
      EXPECT_LT(delta, 1e-13) << "i=" << i;
  }
}

// ---- per-dimension segment equality sweeps --------------------------------

class DimSweepP : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DimSweepP, SpAndBtSegmentedMatchWholeLineEveryDim) {
  auto [dim, cut] = GetParam();
  Problem sp{App::SP, 14, 1, 0.0}, bt{App::BT, 14, 1, 0.0};
  for (const Problem& pb : {sp, bt}) {
    rt::Field u(kNumComp, pb.domain(), 0), recips(kNumRecip, pb.domain(), 0),
        rhs(kNumComp, pb.domain(), 0), forcing(kNumComp, pb.domain(), 0);
    init_u(pb, u, pb.domain());
    init_forcing(pb, forcing, pb.domain());
    compute_reciprocals(u, recips, pb.domain());
    compute_rhs(pb, u, recips, forcing, rhs, pb.interior());
    const int c1 = 5, c2 = 9, n = pb.n;
    if (pb.app == App::SP) {
      SpSegment whole, a, b;
      sp_build_segment(pb, recips, rhs, dim, c1, c2, 0, n - 1, whole);
      sp_forward(whole, nullptr, nullptr);
      sp_backward(whole, nullptr, nullptr);
      sp_build_segment(pb, recips, rhs, dim, c1, c2, 0, cut - 1, a);
      sp_build_segment(pb, recips, rhs, dim, c1, c2, cut, n - 1, b);
      SpCarry fc;
      sp_forward(a, nullptr, &fc);
      sp_forward(b, &fc, nullptr);
      SpBackCarry bc;
      sp_backward(b, nullptr, &bc);
      sp_backward(a, &bc, nullptr);
      for (int m = 0; m < kNumComp; ++m) {
        for (int t = 0; t < cut; ++t) EXPECT_DOUBLE_EQ(a.r[m][t], whole.r[m][t]);
        for (int t = cut; t < n; ++t) EXPECT_DOUBLE_EQ(b.r[m][t - cut], whole.r[m][t]);
      }
    } else {
      BtSegment whole, a, b;
      bt_build_segment(pb, u, recips, rhs, dim, c1, c2, 0, n - 1, whole);
      bt_forward(whole, nullptr, nullptr);
      bt_backward(whole, nullptr, nullptr);
      bt_build_segment(pb, u, recips, rhs, dim, c1, c2, 0, cut - 1, a);
      bt_build_segment(pb, u, recips, rhs, dim, c1, c2, cut, n - 1, b);
      BtCarry fc;
      bt_forward(a, nullptr, &fc);
      bt_forward(b, &fc, nullptr);
      BtBackCarry bc;
      bt_backward(b, nullptr, &bc);
      bt_backward(a, &bc, nullptr);
      for (int t = 0; t < cut; ++t)
        for (int m = 0; m < kNumComp; ++m)
          EXPECT_DOUBLE_EQ(a.r[static_cast<std::size_t>(t)][m],
                           whole.r[static_cast<std::size_t>(t)][m]);
      for (int t = cut; t < n; ++t)
        for (int m = 0; m < kNumComp; ++m)
          EXPECT_DOUBLE_EQ(b.r[static_cast<std::size_t>(t - cut)][m],
                           whole.r[static_cast<std::size_t>(t)][m]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DimsAndCuts, DimSweepP,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(3, 7, 11)));

// ---- 3D BLOCK distribution (the paper's BT option) ------------------------

TEST(Grid3D, DhpfStyle3DVerifiesBothApps) {
  for (App app : {App::SP, App::BT}) {
    DriverOptions opt;
    opt.dhpf.grid3d = true;
    RunResult r = run_variant(Variant::DhpfStyle, Problem{app, 12, 2, 0.0}, 8,
                              Machine::sp2(), opt);
    EXPECT_LT(r.max_err, 1e-10) << (app == App::SP ? "SP" : "BT");
  }
}

TEST(Grid3D, NonCubicCountsStillVerify) {
  DriverOptions opt;
  opt.dhpf.grid3d = true;
  for (int nprocs : {2, 6, 12}) {
    RunResult r = run_variant(Variant::DhpfStyle, Problem{App::BT, 12, 1, 0.0}, nprocs,
                              Machine::sp2(), opt);
    EXPECT_LT(r.max_err, 1e-10) << "P=" << nprocs;
  }
}

TEST(Grid3D, XSolveBecomesPipelined) {
  // With the 3D layout, x_solve must generate communication (it is local
  // under the 2D layout).
  DriverOptions flat, cubic;
  cubic.dhpf.grid3d = true;
  flat.verify = cubic.verify = false;
  flat.record_trace = cubic.record_trace = true;
  Problem pb{App::BT, 16, 1, 0.0};
  auto r2 = run_variant(Variant::DhpfStyle, pb, 8, Machine::sp2(), flat);
  auto r3 = run_variant(Variant::DhpfStyle, pb, 8, Machine::sp2(), cubic);
  auto comm_of = [](const RunResult& r, const char* phase) {
    for (const auto& row : r.trace.phase_breakdown())
      if (row.phase == phase) return row.comm;
    return 0.0;
  };
  EXPECT_DOUBLE_EQ(comm_of(r2, "x_solve"), 0.0);
  EXPECT_GT(comm_of(r3, "x_solve"), 0.0);
}

TEST(Grid3D, CubicFactorization) {
  auto d8 = rt::Decomp3D::cubic(12, 12, 12, 8);
  EXPECT_EQ(d8.p[0] * d8.p[1] * d8.p[2], 8);
  EXPECT_EQ(std::max({d8.p[0], d8.p[1], d8.p[2]}), 2);
  auto d27 = rt::Decomp3D::cubic(12, 12, 12, 27);
  EXPECT_EQ(std::max({d27.p[0], d27.p[1], d27.p[2]}), 3);
  auto d12 = rt::Decomp3D::cubic(12, 12, 12, 12);
  EXPECT_EQ(d12.p[0] * d12.p[1] * d12.p[2], 12);
}

// ---- exact_rhs forcing -----------------------------------------------------

TEST(ExactRhs, ForcingIsDecompositionIndependent) {
  // Any sub-box must reproduce the serial whole-domain values exactly —
  // this is what lets every rank fill its own section without communication.
  Problem pb{App::SP, 14, 1, 0.0};
  rt::Field whole(kNumComp, pb.domain(), 0);
  compute_forcing_exact_rhs(pb, whole, pb.domain());
  rt::Box sub{{3, 5, 2}, {9, 11, 8}};
  rt::Field part(kNumComp, sub, 0);
  compute_forcing_exact_rhs(pb, part, sub);
  EXPECT_DOUBLE_EQ(part.max_abs_diff(whole, sub.intersect(pb.interior())), 0.0);
}

TEST(ExactRhs, ForcingDampsTheEvolution) {
  // The exact_rhs forcing partially balances the discrete operator on the
  // initial (exact) state: the first-step update must be smaller than with
  // the plain analytic forcing.
  Problem pb{App::SP, 14, 1, 0.0};
  SerialApp app(pb);  // uses compute_forcing_exact_rhs
  rt::Field u0(kNumComp, pb.domain(), 0);
  u0.copy_from(app.u(), pb.domain());
  app.step();
  const double moved = app.u().max_abs_diff(u0, pb.interior());
  EXPECT_GT(moved, 0.0);
  EXPECT_LT(moved, 1.0);  // bounded first step
}

// ---- collective norms ------------------------------------------------------

TEST(Norms, AllVariantsAgreeWithSerial) {
  Problem pb{App::SP, 12, 2, 0.0};
  SerialApp ref(pb);
  ref.run();
  const double want = ref.interior_rms();
  for (Variant v : {Variant::HandMPI, Variant::DhpfStyle, Variant::PgiStyle}) {
    const int nprocs = (v == Variant::HandMPI) ? 4 : 3;
    RunResult r = run_variant(v, pb, nprocs, Machine::sp2());
    EXPECT_NEAR(r.norm, want, 1e-12) << to_string(v);
  }
}

TEST(Norms, NormsPhaseAppearsInTrace) {
  DriverOptions opt;
  opt.record_trace = true;
  opt.verify = false;
  RunResult r = run_variant(Variant::DhpfStyle, Problem{App::SP, 12, 1, 0.0}, 4,
                            Machine::sp2(), opt);
  bool found = false;
  for (const auto& row : r.trace.phase_breakdown())
    if (row.phase == "norms") found = true;
  EXPECT_TRUE(found);
}

// ---- accounting ------------------------------------------------------------

TEST(Accounting, HandMessagesScaleWithSweepStages) {
  // Per timestep along each dim: forward q-1 + backward q-1 messages per
  // rank, plus copy_faces. Message totals must grow with q.
  DriverOptions opt;
  opt.verify = false;
  Problem pb{App::SP, 24, 1, 0.0};
  auto r4 = run_variant(Variant::HandMPI, pb, 4, Machine::sp2(), opt);
  auto r16 = run_variant(Variant::HandMPI, pb, 16, Machine::sp2(), opt);
  EXPECT_GT(r16.messages, r4.messages);
}

TEST(Accounting, PgiVolumeDominatedByTransposes) {
  DriverOptions opt;
  opt.verify = false;
  Problem pb{App::SP, 24, 2, 0.0};
  auto pgi = run_variant(Variant::PgiStyle, pb, 4, Machine::sp2(), opt);
  auto dhpf = run_variant(Variant::DhpfStyle, pb, 4, Machine::sp2(), opt);
  EXPECT_GT(pgi.bytes, 2 * dhpf.bytes);
}

TEST(Accounting, SingleProcessorRunsHaveNoPointToPointTraffic) {
  DriverOptions opt;
  opt.verify = false;
  for (Variant v : {Variant::HandMPI, Variant::DhpfStyle, Variant::PgiStyle}) {
    auto r = run_variant(v, Problem{App::SP, 12, 1, 0.0}, 1, Machine::sp2(), opt);
    EXPECT_EQ(r.messages, 0u) << to_string(v);
  }
}

TEST(Accounting, ElapsedShrinksWithMoreProcessors) {
  DriverOptions opt;
  opt.verify = false;
  Problem pb = Problem::make(App::BT, ProblemClass::W, 1);
  auto r1 = run_variant(Variant::DhpfStyle, pb, 1, Machine::sp2(), opt);
  auto r4 = run_variant(Variant::DhpfStyle, pb, 4, Machine::sp2(), opt);
  auto r9 = run_variant(Variant::DhpfStyle, pb, 9, Machine::sp2(), opt);
  EXPECT_LT(r4.elapsed, r1.elapsed);
  EXPECT_LT(r9.elapsed, r4.elapsed);
}

}  // namespace
}  // namespace dhpf::nas
