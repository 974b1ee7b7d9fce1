// Tests for dhpf::fuzz — the differential conformance harness.
//
// These pin the properties the harness itself depends on: the generator is
// deterministic and only emits valid programs (parse + printer round-trip +
// compile + serial interpretation all succeed), campaigns are reproducible
// byte-for-byte, the minimizer preserves failure signatures and never grows
// a program, the verifier catches every seeded defect on fuzz-generated
// plans, the checked-in regression corpus replays clean under the
// exhaustive per-reproducer settings, and the known heavy programs stay
// within a budget of set-algebra work.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "codegen/driver.hpp"
#include "exec/machine.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/diff.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/minimize.hpp"
#include "hpf/parser.hpp"
#include "hpf/printer.hpp"
#include "iset/intern.hpp"
#include "lint/lint.hpp"
#include "model/model.hpp"
#include "support/diagnostics.hpp"
#include "support/metrics.hpp"
#include "verify/mutate.hpp"
#include "verify/plan.hpp"
#include "verify/verify.hpp"

namespace dhpf {
namespace {

// Fast differential settings for tests that only need "some checking done",
// not the full cross product.
fuzz::DiffOptions quick_diff() {
  fuzz::DiffOptions d;
  d.shapes = 2;
  d.variants_per_extra_shape = 2;
  d.mp_variants = 1;
  d.shm_variants = 1;
  return d;
}

TEST(FuzzGenerator, SameSeedSameProgram) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull, 1234567ull}) {
    const fuzz::GeneratedCase a = fuzz::generate(seed);
    const fuzz::GeneratedCase b = fuzz::generate(seed);
    EXPECT_EQ(a.source, b.source) << "seed " << seed;
    EXPECT_EQ(a.seed, seed);
  }
}

TEST(FuzzGenerator, DifferentSeedsDiverge) {
  // Not a hard guarantee for any single pair, but across a batch the
  // generator must not collapse to a handful of programs.
  std::set<std::string> sources;
  for (std::uint64_t seed = 1; seed <= 40; ++seed)
    sources.insert(fuzz::generate(seed).source);
  EXPECT_GT(sources.size(), 30u);
}

TEST(FuzzGenerator, EveryProgramIsValid) {
  // Validity by construction: parse, print round-trip, compile under the
  // default pipeline, and run the serial oracle — for a spread of seeds.
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const fuzz::GeneratedCase c = fuzz::generate(seed);
    hpf::Program prog;
    ASSERT_NO_THROW(prog = hpf::parse(c.source)) << "seed " << seed << "\n" << c.source;

    // Printer fixed point: to_source(parse(to_source(P))) == to_source(P).
    const std::string printed = hpf::to_source(prog);
    EXPECT_EQ(hpf::to_source(hpf::parse(printed)), printed) << "seed " << seed;

    hpf::Program compiled_prog;
    ASSERT_NO_THROW(codegen::compile_source(c.source, &compiled_prog))
        << "seed " << seed << "\n" << c.source;
    ASSERT_NO_THROW(codegen::interpret_serial(prog)) << "seed " << seed;
  }
}

TEST(FuzzGenerator, HeavyProgramsStayWithinEmptinessBudget) {
  // Programs whose set unions once fragmented into thousands of parts: 395,
  // 1157 and 1299 ran 132,067 / 235,410 / 1,999,490 emptiness tests, and the
  // last one exhausted memory. Each gets `dhpfc --lint --verify
  // --model-report`'s work from cold set caches; a count of emptiness tests,
  // not a clock, pins the cost.
  for (const std::uint64_t seed : {395ull, 1157ull, 1299ull, 7262382532146335171ull}) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    const fuzz::GeneratedCase c = fuzz::generate(seed);
    iset::memo::clear_caches();
    obs::Registry reg;
    {
      obs::ScopedRegistry scope(reg);
      ASSERT_NO_THROW({
        hpf::Program prog;
        const codegen::CompileResult compiled = codegen::compile_source(c.source, &prog);
        (void)lint::run(prog);
        (void)verify::check(verify::bind(prog, compiled.cps, compiled.plan));
        (void)model::predict(prog, compiled.cps, compiled.plan, exec::Machine::sp2());
      });
    }
    // Stop at the first program over budget, before the memory-hungry one.
    ASSERT_LE(reg.snapshot().counters["iset.emptiness_tests"], 60000u);
  }
}

TEST(FuzzGenerator, CandidateGridShapesAreSmallAndWellFormed) {
  for (int rank = 1; rank <= 2; ++rank) {
    const auto shapes = fuzz::candidate_grid_shapes(rank);
    ASSERT_GE(shapes.size(), 3u) << "rank " << rank;
    for (const auto& s : shapes) {
      EXPECT_EQ(static_cast<int>(s.size()), rank);
      int product = 1;
      for (int e : s) {
        EXPECT_GE(e, 1);
        product *= e;
      }
      EXPECT_LE(product, 6) << "mp backend needs small rank counts";
    }
  }
}

TEST(FuzzCampaign, CaseSeedsAreDistinct) {
  std::set<std::uint64_t> seeds;
  for (int i = 0; i < 1000; ++i) seeds.insert(fuzz::case_seed(42, i));
  EXPECT_EQ(seeds.size(), 1000u);
  EXPECT_NE(fuzz::case_seed(1, 0), fuzz::case_seed(2, 0));
}

TEST(FuzzCampaign, SameSeedSameReportByteForByte) {
  fuzz::CampaignOptions opt;
  opt.seed = 7;
  opt.count = 4;
  opt.diff = quick_diff();
  opt.minimize_failures = false;
  const fuzz::CampaignReport a = fuzz::run_campaign(opt);
  const fuzz::CampaignReport b = fuzz::run_campaign(opt);
  EXPECT_EQ(a.to_string(), b.to_string());
  EXPECT_TRUE(a.ok()) << a.to_string();
  EXPECT_GT(a.plans_checked, 0);
  EXPECT_GT(a.sim_runs, 0);
  EXPECT_GT(a.mp_runs, 0);
  EXPECT_GT(a.shm_runs, 0);
}

TEST(FuzzDiff, CleanProgramPasses) {
  const fuzz::GeneratedCase c = fuzz::generate(3);
  const fuzz::DiffResult r = fuzz::run_differential(c.source, c.seed, quick_diff());
  EXPECT_TRUE(r.ok) << r.failure.to_string();
  EXPECT_EQ(r.failure.kind, fuzz::FailKind::None);
  EXPECT_GT(r.plans_checked, 0);
}

TEST(FuzzDiff, ParseErrorIsStructured) {
  const fuzz::DiffResult r = fuzz::run_differential("this is not hpf", 1, quick_diff());
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.failure.kind, fuzz::FailKind::ParseError);
  EXPECT_FALSE(r.failure.detail.empty());
  EXPECT_EQ(r.failure.signature(), "parse-error");
}

// A program with an out-of-bounds read — the serial oracle itself rejects
// it, giving a failure signature that is stable under every optimization
// variant. This is the seeded failure the minimizer tests shrink. (A lying
// INDEPENDENT directive would NOT work here: communication generation is
// dependence-analysis-based, so the compiled code stays correct anyway.)
const char* const kOutOfBounds = R"(processors P(2)
array a(8) distribute (block:0) onto P
array b(8) distribute (block:0) onto P

procedure main()
  do i0 = 0, 7
    a(i0) = b(i0) + a(i0)
    b(i0) = a(i0)
  enddo
  do i1 = 0, 7
    a(i1) = b(i1+4)
  enddo
end
)";

TEST(FuzzMinimize, PreservesSignatureAndShrinks) {
  fuzz::DiffOptions d = quick_diff();
  const fuzz::DiffResult before = fuzz::run_differential(kOutOfBounds, 5, d);
  ASSERT_FALSE(before.ok) << "vehicle program must fail for this test to bite";
  ASSERT_EQ(before.failure.kind, fuzz::FailKind::SerialError);

  fuzz::MinimizeOptions mopt;
  mopt.diff = d;
  mopt.max_attempts = 120;
  const fuzz::MinimizeResult m = fuzz::minimize(kOutOfBounds, 5, mopt);
  EXPECT_EQ(m.signature, before.failure.signature());
  EXPECT_LT(m.source.size(), std::string(kOutOfBounds).size());
  EXPECT_GT(m.attempts, 0);

  // The minimizer's contract: its output still fails with the signature it
  // reports.
  const fuzz::DiffResult after = fuzz::run_differential(m.source, 5, d);
  ASSERT_FALSE(after.ok);
  EXPECT_EQ(after.failure.signature(), m.signature);
}

TEST(FuzzMinimize, ThrowsOnPassingInput) {
  const fuzz::GeneratedCase c = fuzz::generate(3);
  fuzz::MinimizeOptions mopt;
  mopt.diff = quick_diff();
  EXPECT_THROW(fuzz::minimize(c.source, c.seed, mopt), dhpf::Error);
}

TEST(FuzzVerifierSensitivity, AllSeededDefectsCaughtOnGeneratedPlans) {
  // Satellite (b): compile fuzz-generated programs, seed every applicable
  // verifier defect into each plan, and demand 100% detection. This ties
  // the fault-injection harness to inputs it did not hand-pick.
  std::size_t total_seeded = 0;
  for (std::uint64_t seed : {2ull, 9ull, 17ull, 28ull, 41ull}) {
    const fuzz::GeneratedCase c = fuzz::generate(seed);
    hpf::Program prog;
    codegen::CompileResult r = codegen::compile_source(c.source, &prog);
    const verify::CompiledPlan bound =
        verify::bind(prog, std::move(r.cps), std::move(r.plan));
    const verify::HarnessResult h = verify::run_harness(bound);
    total_seeded += h.seeded;
    EXPECT_TRUE(h.all_caught()) << "seed " << seed << ": " << h.caught << "/"
                                << h.seeded << " caught\n"
                                << c.source;
  }
  EXPECT_GT(total_seeded, 0u) << "harness found nothing to mutate — vacuous test";
}

TEST(FuzzCorpus, CheckedInReproducersReplayClean) {
  // Every minimized reproducer in tests/corpus must pass under the
  // exhaustive replay settings (full variant cross product on every shape).
  // A regression in any of the fixed bugs re-fails its reproducer here.
  const auto results = fuzz::replay_corpus(DHPF_SOURCE_DIR "/tests/corpus");
  ASSERT_GE(results.size(), 10u) << "corpus went missing?";
  for (const auto& r : results)
    EXPECT_TRUE(r.diff.ok) << r.path << ": " << r.diff.failure.to_string();
}

}  // namespace
}  // namespace dhpf
