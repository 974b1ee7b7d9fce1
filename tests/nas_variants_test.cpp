// Integration tests: every parallel variant of mini-SP / mini-BT must
// reproduce the serial reference fields (the driver enforces max|err| < 1e-9;
// in practice the sweeps are bit-identical by construction).
#include <gtest/gtest.h>

#include "nas/driver.hpp"
#include "nas/serial.hpp"

namespace dhpf::nas {
namespace {

using exec::Machine;

Problem tiny(App app) { return Problem{app, 12, 2, 0.0}; }

struct Case {
  Variant variant;
  App app;
  int nprocs;
};

class VariantP : public ::testing::TestWithParam<Case> {};

TEST_P(VariantP, MatchesSerialReference) {
  const Case c = GetParam();
  RunResult r = run_variant(c.variant, tiny(c.app), c.nprocs, Machine::sp2());
  EXPECT_TRUE(r.verified);
  EXPECT_LT(r.max_err, 1e-10);
  EXPECT_GT(r.elapsed, 0.0);
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  std::string s = to_string(c.variant);
  for (auto& ch : s)
    if (ch == '-') ch = '_';
  return s + "_" + (c.app == App::SP ? "SP" : "BT") + "_P" + std::to_string(c.nprocs);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, VariantP,
    ::testing::Values(
        // hand multi-partitioning: square processor counts
        Case{Variant::HandMPI, App::SP, 1}, Case{Variant::HandMPI, App::SP, 4},
        Case{Variant::HandMPI, App::SP, 9}, Case{Variant::HandMPI, App::SP, 16},
        Case{Variant::HandMPI, App::BT, 1}, Case{Variant::HandMPI, App::BT, 4},
        Case{Variant::HandMPI, App::BT, 9}, Case{Variant::HandMPI, App::BT, 16},
        // dHPF-style: any processor count
        Case{Variant::DhpfStyle, App::SP, 1}, Case{Variant::DhpfStyle, App::SP, 2},
        Case{Variant::DhpfStyle, App::SP, 4}, Case{Variant::DhpfStyle, App::SP, 6},
        Case{Variant::DhpfStyle, App::SP, 9}, Case{Variant::DhpfStyle, App::SP, 16},
        Case{Variant::DhpfStyle, App::BT, 1}, Case{Variant::DhpfStyle, App::BT, 2},
        Case{Variant::DhpfStyle, App::BT, 4}, Case{Variant::DhpfStyle, App::BT, 8},
        Case{Variant::DhpfStyle, App::BT, 9}, Case{Variant::DhpfStyle, App::BT, 16},
        // PGI-style: 1D distribution limits P to n/2
        Case{Variant::PgiStyle, App::SP, 1}, Case{Variant::PgiStyle, App::SP, 2},
        Case{Variant::PgiStyle, App::SP, 4}, Case{Variant::PgiStyle, App::SP, 5},
        Case{Variant::PgiStyle, App::SP, 6}, Case{Variant::PgiStyle, App::BT, 1},
        Case{Variant::PgiStyle, App::BT, 3}, Case{Variant::PgiStyle, App::BT, 4},
        Case{Variant::PgiStyle, App::BT, 6}),
    case_name);

TEST(VariantSupport, HandRequiresSquare) {
  EXPECT_TRUE(variant_supports(Variant::HandMPI, 25));
  EXPECT_FALSE(variant_supports(Variant::HandMPI, 8));
  EXPECT_TRUE(variant_supports(Variant::DhpfStyle, 8));
  EXPECT_FALSE(variant_supports(Variant::PgiStyle, 0));
}

TEST(DhpfOptions, LocalizeOffStillVerifies) {
  DriverOptions opt;
  opt.dhpf.localize = false;
  RunResult r = run_variant(Variant::DhpfStyle, tiny(App::SP), 4, Machine::sp2(), opt);
  EXPECT_LT(r.max_err, 1e-10);
}

TEST(DhpfOptions, LocalizeReducesMessagesAndBytes) {
  DriverOptions on, off;
  off.dhpf.localize = false;
  on.verify = off.verify = false;
  RunResult ron = run_variant(Variant::DhpfStyle, tiny(App::SP), 9, Machine::sp2(), on);
  RunResult roff = run_variant(Variant::DhpfStyle, tiny(App::SP), 9, Machine::sp2(), off);
  EXPECT_LT(ron.messages, roff.messages);
  EXPECT_LT(ron.bytes, roff.bytes);
}

TEST(DhpfOptions, DataAvailabilityOffStillVerifies) {
  DriverOptions opt;
  opt.dhpf.data_availability = false;
  RunResult r = run_variant(Variant::DhpfStyle, tiny(App::SP), 9, Machine::sp2(), opt);
  EXPECT_LT(r.max_err, 1e-10);
}

TEST(DhpfOptions, DataAvailabilityEliminatesPipelineTraffic) {
  DriverOptions on, off;
  off.dhpf.data_availability = false;
  on.verify = off.verify = false;
  RunResult ron = run_variant(Variant::DhpfStyle, tiny(App::SP), 9, Machine::sp2(), on);
  RunResult roff = run_variant(Variant::DhpfStyle, tiny(App::SP), 9, Machine::sp2(), off);
  EXPECT_LT(ron.messages, roff.messages);
  EXPECT_LE(ron.elapsed, roff.elapsed);
}

TEST(DhpfOptions, PipelineTileGranularityStillVerifies) {
  for (int tile : {1, 2, 5, 100}) {
    DriverOptions opt;
    opt.dhpf.pipeline_tile = tile;
    RunResult r = run_variant(Variant::DhpfStyle, tiny(App::SP), 4, Machine::sp2(), opt);
    EXPECT_LT(r.max_err, 1e-10) << "tile=" << tile;
  }
}


TEST(DhpfOptions, AutoPipelineTileVerifiesAndCompetes) {
  Problem pb{App::SP, 16, 2, 0.0};
  DriverOptions auto_opt;
  auto_opt.dhpf.pipeline_tile = 0;  // the paper's per-loop selection extension
  RunResult r_auto = run_variant(Variant::DhpfStyle, pb, 9, Machine::sp2(), auto_opt);
  EXPECT_LT(r_auto.max_err, 1e-10);

  DriverOptions fixed;
  fixed.verify = false;
  fixed.dhpf.pipeline_tile = 14;  // deliberately coarse
  RunResult r_fixed = run_variant(Variant::DhpfStyle, pb, 9, Machine::sp2(), fixed);
  EXPECT_LE(r_auto.elapsed, r_fixed.elapsed * 1.05);
}

TEST(Driver, TraceRecordsPhases) {
  DriverOptions opt;
  opt.record_trace = true;
  opt.verify = false;
  RunResult r = run_variant(Variant::HandMPI, tiny(App::SP), 4, Machine::sp2(), opt);
  bool has_zsolve = false;
  for (const auto& row : r.trace.phase_breakdown())
    if (row.phase == "z_solve") has_zsolve = true;
  EXPECT_TRUE(has_zsolve);
  EXPECT_FALSE(r.trace.ranks.empty());
}

TEST(Driver, HandBeatsNothingButIsBalanced) {
  // Multi-partitioning's signature: high busy fraction even at P=9.
  DriverOptions opt;
  opt.verify = false;
  RunResult r = run_variant(Variant::HandMPI, Problem{App::BT, 18, 2, 0.0}, 9,
                            Machine::sp2(), opt);
  EXPECT_GT(r.busy_fraction(), 0.5);
}

}  // namespace
}  // namespace dhpf::nas
