// The benchmark's output checks must be able to fail: each test pushes one
// seeded wrong output through a workload's check and expects the op to be
// counted as failed. The last tests perturb the fields that legitimately
// change from run to run (timings, cache flags, service counters, backend
// statistics) and expect every check to still pass, and pin the yardstick's
// slowdown, which every reported time is divided by.
//
//   cmake --build .bench_build/perfbench --target perfbench_tests
//   .bench_build/perfbench/perfbench_tests
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "checks.hpp"
#include "codegen/driver.hpp"
#include "fuzz/generator.hpp"
#include "lint/lint.hpp"
#include "verify/mutate.hpp"
#include "verify/plan.hpp"
#include "workloads.hpp"
#include "yardstick.hpp"

namespace perfbench {
namespace {

namespace cg = dhpf::codegen;

/// A generated program that compiles to a plan with communication.
struct Compiled {
  dhpf::hpf::Program prog;
  cg::CompileResult result;
};

std::unique_ptr<Compiled> compile_generated(std::uint64_t seed) {
  auto c = std::make_unique<Compiled>();
  c->result = cg::compile_source(dhpf::fuzz::generate(seed).source, &c->prog);
  return c;
}

TEST(CompileFreshCheck, MutatedPlanCountsAsFailed) {
  for (std::uint64_t seed = 1; seed < 40; ++seed) {
    auto c = compile_generated(seed);
    const dhpf::verify::CompiledPlan bound =
        dhpf::verify::bind(c->prog, c->result.cps, c->result.plan);
    const dhpf::lint::Report lint = dhpf::lint::run(c->prog);
    ASSERT_EQ(check_compile(dhpf::verify::check(bound), lint), "") << "seed " << seed;
    for (const auto& site : dhpf::verify::all_mutation_sites(bound)) {
      if (site.expected_severity() != dhpf::verify::Severity::Error) continue;
      const dhpf::verify::CompiledPlan bad = dhpf::verify::mutate(bound, site);
      OpTally tally;
      tally.record(check_compile(dhpf::verify::check(bad), lint));
      EXPECT_EQ(tally.attempted, 1);
      EXPECT_EQ(tally.failed, 1) << site.describe;
      return;
    }
  }
  FAIL() << "no generated plan offered an error-class mutation site";
}

TEST(CompileFreshCheck, LintErrorCountsAsFailed) {
  dhpf::lint::Report lint;
  dhpf::lint::Diagnostic d;
  d.severity = dhpf::lint::Severity::Error;
  lint.diagnostics.push_back(d);
  EXPECT_NE(check_compile(dhpf::verify::Report{}, lint), "");
}

TEST(SpmdRunCheck, FlippedGatheredElementCountsAsFailed) {
  auto c = compile_generated(3);
  const cg::Store oracle = cg::interpret_serial(c->prog);
  cg::SpmdOptions so;
  so.verify = false;
  so.collect_result = true;
  const cg::SpmdResult res = cg::run_spmd(c->prog, c->result.cps, c->result.plan,
                                          dhpf::exec::Machine::sp2(), so);
  ASSERT_EQ(check_gathered(res.gathered, oracle), "");

  cg::Store wrong = res.gathered;
  std::vector<double>& arr = wrong.begin()->second;
  ASSERT_FALSE(arr.empty());
  std::uint64_t bits = 0;
  std::memcpy(&bits, &arr[arr.size() / 2], sizeof bits);
  bits ^= 1;  // the lowest mantissa bit: equal to within any tolerance, not bitwise
  std::memcpy(&arr[arr.size() / 2], &bits, sizeof bits);
  OpTally tally;
  tally.record(check_gathered(wrong, oracle));
  EXPECT_EQ(tally.failed, 1);
  EXPECT_NE(check_gathered({}, oracle), "");
}

dhpf::svc::Response compile_response(const std::string& listing, bool cached) {
  dhpf::svc::Response r;
  r.kind = dhpf::svc::Kind::Compile;
  r.ok = true;
  r.code = dhpf::svc::ErrorCode::None;
  r.cached = cached;
  r.listing = listing;
  return r;
}

TEST(SvcMixedCheck, AlteredHitByteCountsAsFailed) {
  ResponseChecker checker;
  OpTally tally;
  const std::string fill = "      DO I = 1, N\n        A(I) = B(I)\n";
  tally.record(checker.check("compile/3/0", compile_response(fill, false)));
  tally.record(checker.check("compile/3/0", compile_response(fill, true)));
  EXPECT_EQ(tally.failed, 0);
  std::string altered = fill;
  altered[altered.size() / 2] ^= 0x01;
  tally.record(checker.check("compile/3/0", compile_response(altered, true)));
  EXPECT_EQ(tally.attempted, 3);
  EXPECT_EQ(tally.failed, 1);
}

TEST(SvcMixedCheck, ErrorsAndBrokenGuaranteesCountAsFailed) {
  ResponseChecker checker;
  dhpf::svc::Response err = compile_response("x", false);
  err.ok = false;
  err.code = dhpf::svc::ErrorCode::CompileError;
  EXPECT_NE(checker.check("compile/1/0", err), "");

  dhpf::svc::Response v = compile_response("", false);
  v.kind = dhpf::svc::Kind::Verify;
  v.verify_json = R"({"checks_run":4,"clean":false,"diagnostics":[],"errors":1,"warnings":0})";
  EXPECT_NE(checker.check("verify/1/0", v), "");

  dhpf::svc::Response t = compile_response("", false);
  t.kind = dhpf::svc::Kind::Tune;
  t.tune_json = R"({"selected":1,"default_index":0,"selected_variant":"b","variants":[)"
                R"({"name":"a","measured_seconds":1.0},{"name":"b","measured_seconds":2.0}]})";
  EXPECT_NE(checker.check("tune/1/0", t), "");
}

TEST(FuzzCampaignCheck, ReportedFailureCountsAsFailed) {
  dhpf::fuzz::CampaignReport report;
  report.cases = 5;
  dhpf::fuzz::CaseFailure f;
  f.index = 3;
  f.failure.kind = dhpf::fuzz::FailKind::SimMismatch;
  report.failures.push_back(f);
  OpTally tally;
  for (const std::string& why : case_verdicts(report, 5)) tally.record(why);
  EXPECT_EQ(tally.attempted, 5);
  EXPECT_EQ(tally.failed, 1);

  report.failures.clear();
  report.cases = 4;  // a case the campaign never ran
  OpTally short_run;
  for (const std::string& why : case_verdicts(report, 5)) short_run.record(why);
  EXPECT_EQ(short_run.failed, 1);
}

// Timings, cache flags, queue and service seconds, report_json's pass
// timings, service/iset counters and backend wall/wait statistics change
// from run to run on a correct program; no check may read them. (The
// per-backend stats fields are not touched here: a ROADMAP item removes
// them, and this test must keep compiling.)
TEST(NondeterministicFields, PerturbingThemFailsNoCheck) {
  ResponseChecker checker;
  dhpf::svc::Response a = compile_response("listing", false);
  a.report_json = R"({"passes":[{"name":"cp.select","seconds":0.001}]})";
  a.queue_seconds = 0.001;
  a.service_seconds = 0.002;
  dhpf::svc::Response b = a;
  b.cached = true;
  b.report_json = R"({"passes":[{"name":"cp.select","seconds":0.9}]})";
  b.queue_seconds = 0.5;
  b.service_seconds = 0.0;
  EXPECT_EQ(checker.check("compile/7/2", a), "");
  EXPECT_EQ(checker.check("compile/7/2", b), "");

  auto c = compile_generated(3);
  const cg::Store oracle = cg::interpret_serial(c->prog);
  for (auto backend : {dhpf::exec::Backend::Mp, dhpf::exec::Backend::Shm}) {
    cg::SpmdOptions so;
    so.backend = backend;
    so.verify = false;
    so.collect_result = true;
    cg::SpmdResult res = cg::run_spmd(c->prog, c->result.cps, c->result.plan,
                                      dhpf::exec::Machine::sp2(), so);
    res.wall_seconds *= 7.0;
    EXPECT_EQ(check_gathered(res.gathered, oracle), "");
  }

  dhpf::fuzz::CampaignReport report;
  report.cases = 3;
  report.plans_checked = 1;  // plan and run counts are not part of the verdict
  report.mp_runs = 99;
  for (const std::string& why : case_verdicts(report, 3)) EXPECT_EQ(why, "");

  // The compile check reads only the verifier's and lint's verdicts, never
  // the compile report's pass timings.
  const dhpf::verify::CompiledPlan bound =
      dhpf::verify::bind(c->prog, c->result.cps, c->result.plan);
  dhpf::verify::Report vr = dhpf::verify::check(bound);
  vr.checks_run += 1000;
  EXPECT_EQ(check_compile(vr, dhpf::lint::run(c->prog)), "");
}

TEST(Yardstick, SlowdownIsMeanSliceTimeOverNominal) {
  Yardstick y;
  EXPECT_EQ(y.slowdown(), 1.0);  // no slice yet
  const double first = y.slice();
  const Yardstick::Mark m = y.mark();
  EXPECT_EQ(y.slowdown(m), 1.0);  // no slice since the mark
  const double a = y.slice();
  const double b = y.slice();
  EXPECT_GT(a, 0.0);
  EXPECT_NEAR(y.seconds_since(m), a + b, 1e-12);
  EXPECT_NEAR(y.slowdown(m), (a + b) / 2 / Yardstick::kNominalSliceSeconds, 1e-9);
  EXPECT_NEAR(y.slowdown(), (first + a + b) / 3 / Yardstick::kNominalSliceSeconds, 1e-9);
}

}  // namespace
}  // namespace perfbench
