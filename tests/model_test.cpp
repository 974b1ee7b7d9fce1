// Tests for dhpf::model: the analytic cost model (predict) and its
// least-squares calibration (fit / save / load_params).
//
// The calibration tests are deliberately synthetic: samples generated from a
// known (gamma, alpha, beta) must be recovered by the fit, which pins down
// the normal-equation assembly, the relative-error weighting, and the
// parameter ordering all at once. The prediction tests compare the model's
// exact static aggregates against what the simulator actually executes.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "codegen/driver.hpp"
#include "codegen/spmd.hpp"
#include "model/calibrate.hpp"
#include "model/model.hpp"
#include "support/diagnostics.hpp"

namespace dhpf::model {
namespace {

ModelParams known() {
  ModelParams p;
  p.alpha = 5.0e-5;
  p.beta = 2.0e-8;
  p.gamma = 0.9;
  return p;
}

// Samples whose (C, M, B) mixes are independent enough to separate the
// three parameters, with targets computed exactly from `truth`.
std::vector<Sample> synthetic_samples(const ModelParams& truth) {
  const double mixes[][3] = {
      {1.0e-3, 10.0, 8000.0},  {2.0e-3, 40.0, 1000.0},  {5.0e-4, 100.0, 64000.0},
      {4.0e-3, 5.0, 32000.0},  {1.5e-3, 200.0, 4000.0}, {8.0e-4, 60.0, 120000.0},
  };
  std::vector<Sample> samples;
  for (const auto& m : mixes) {
    Sample s;
    s.compute_seconds = m[0];
    s.messages = m[1];
    s.bytes = m[2];
    s.measured_seconds = truth.gamma * m[0] + truth.alpha * m[1] + truth.beta * m[2];
    samples.push_back(s);
  }
  return samples;
}

TEST(Calibrate, FitRecoversKnownParameters) {
  const ModelParams truth = known();
  const ModelParams defaults = ModelParams::from_machine(exec::Machine::sp2());
  const Calibration cal = fit(synthetic_samples(truth), defaults);
  EXPECT_NEAR(cal.params.gamma, truth.gamma, 1e-3 * truth.gamma);
  EXPECT_NEAR(cal.params.alpha, truth.alpha, 1e-3 * truth.alpha);
  EXPECT_NEAR(cal.params.beta, truth.beta, 1e-3 * truth.beta);
  // Consistent samples: the fitted model reproduces them essentially exactly.
  EXPECT_LT(cal.median_error_fitted, 1e-6);
  EXPECT_LE(cal.median_error_fitted, cal.median_error_default);
  EXPECT_EQ(cal.samples, 6u);
}

TEST(Calibrate, DegenerateCommColumnsStayAtDefaults) {
  // Pure-compute samples: M = B = 0 everywhere, so alpha and beta are
  // unidentifiable. The ridge must pin them to the defaults while gamma
  // still fits the compute scale.
  const ModelParams defaults = ModelParams::from_machine(exec::Machine::sp2());
  std::vector<Sample> samples;
  for (double c : {1.0e-3, 2.0e-3, 4.0e-3}) {
    Sample s;
    s.compute_seconds = c;
    s.measured_seconds = 1.5 * c;  // true gamma = 1.5
    samples.push_back(s);
  }
  const Calibration cal = fit(samples, defaults);
  EXPECT_NEAR(cal.params.gamma, 1.5, 1e-3);
  EXPECT_DOUBLE_EQ(cal.params.alpha, defaults.alpha);
  EXPECT_DOUBLE_EQ(cal.params.beta, defaults.beta);
}

TEST(Calibrate, NeverWorseThanDefaults) {
  // A single wildly inconsistent sample cannot produce a fit whose median
  // error exceeds the default parameters' own.
  const ModelParams defaults = ModelParams::from_machine(exec::Machine::sp2());
  std::vector<Sample> samples;
  Sample s;
  s.compute_seconds = 1.0e-3;
  s.messages = 10.0;
  s.bytes = 100.0;
  s.measured_seconds = 1.0e-3;
  samples.push_back(s);
  const Calibration cal = fit(samples, defaults);
  EXPECT_LE(cal.median_error_fitted, cal.median_error_default + 1e-12);
  EXPECT_GE(cal.params.alpha, 0.0);
  EXPECT_GE(cal.params.beta, 0.0);
  EXPECT_GE(cal.params.gamma, 0.0);
}

TEST(Calibrate, MedianAbsRelError) {
  std::vector<Sample> samples = synthetic_samples(known());
  // Exact parameters: zero error. Doubled gamma-only model: nonzero.
  EXPECT_LT(median_abs_rel_error(samples, known()), 1e-12);
  ModelParams off = known();
  off.gamma *= 2.0;
  EXPECT_GT(median_abs_rel_error(samples, off), 0.0);
}

TEST(Calibrate, SaveLoadRoundTrip) {
  const ModelParams truth = known();
  const ModelParams defaults = ModelParams::from_machine(exec::Machine::sp2());
  const Calibration cal = fit(synthetic_samples(truth), defaults);
  const std::string path = ::testing::TempDir() + "dhpf_calibration_roundtrip.json";
  save(cal, path);
  const ModelParams loaded = load_params(path);
  EXPECT_DOUBLE_EQ(loaded.alpha, cal.params.alpha);
  EXPECT_DOUBLE_EQ(loaded.beta, cal.params.beta);
  EXPECT_DOUBLE_EQ(loaded.gamma, cal.params.gamma);
  std::remove(path.c_str());
}

TEST(Calibrate, LoadFromMissingFileThrows) {
  EXPECT_THROW(load_params("/nonexistent/dhpf/calibration.json"), dhpf::Error);
}

TEST(Calibrate, SamplesFromBenchArtifact) {
  // Hand-built artifact in the shape print_table writes: rows of cells
  // keyed by variant name, each cell carrying the executed Stats fields.
  const std::string doc = R"({
    "bench": "x", "backend": "sim",
    "rows": [
      {"nprocs": 4,
       "dhpf": {"elapsed": 0.25, "total_compute": 0.4, "messages": 80, "bytes": 6400},
       "pgi":  {"elapsed": 0.50, "total_compute": 0.4, "messages": 20, "bytes": 9600},
       "skipped": null},
      {"nprocs": 9,
       "dhpf": {"elapsed": 0.125, "total_compute": 0.4, "messages": 180, "bytes": 14400}}
    ]
  })";
  const std::vector<Sample> samples = samples_from_bench_artifact(doc);
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].label, "dhpf@P4");
  EXPECT_DOUBLE_EQ(samples[0].compute_seconds, 0.1);  // total / nprocs
  EXPECT_DOUBLE_EQ(samples[0].messages, 20.0);
  EXPECT_DOUBLE_EQ(samples[0].bytes, 1600.0);
  EXPECT_DOUBLE_EQ(samples[0].measured_seconds, 0.25);
  EXPECT_EQ(samples[1].label, "pgi@P4");
  EXPECT_EQ(samples[2].label, "dhpf@P9");
  EXPECT_DOUBLE_EQ(samples[2].messages, 20.0);
}

TEST(Calibrate, MpArtifactUsesWallSeconds) {
  const std::string doc = R"({
    "backend": "mp",
    "rows": [{"nprocs": 2,
              "v": {"elapsed": 0.5, "wall_seconds": 0.01,
                    "total_compute": 0.2, "messages": 4, "bytes": 32}}]
  })";
  const std::vector<Sample> samples = samples_from_bench_artifact(doc);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_DOUBLE_EQ(samples[0].measured_seconds, 0.01);
}

// ------------------------------------------------------------- predict

TEST(Predict, MatchesExecutedTrafficOnStencil) {
  const std::string src = R"(
    processors P(4)
    array a(32) distribute (block:0) onto P
    array b(32) distribute (block:0) onto P
    procedure main()
      do i = 1, 30
        a(i) = b(i-1) + b(i+1)
      enddo
    end
  )";
  hpf::Program prog;
  codegen::CompileResult compiled = codegen::compile_source(src, &prog);
  const exec::Machine machine = exec::Machine::sp2();
  const Prediction pred = model::predict(prog, compiled.cps, compiled.plan, machine);

  codegen::SpmdOptions xopt;
  xopt.verify = false;
  const codegen::SpmdResult run =
      codegen::run_spmd(prog, compiled.cps, compiled.plan, machine, xopt);

  // The model's static aggregates are exact: they equal the executed counts.
  EXPECT_EQ(pred.nprocs, 4);
  EXPECT_EQ(pred.total_instances, run.total_instances());
  EXPECT_EQ(pred.messages, run.messages);
  EXPECT_EQ(pred.bytes, run.bytes);
  EXPECT_NEAR(pred.compute_seconds_total, run.total_compute, 1e-12 * run.total_compute);
  // Critical-path aggregates are bounded by totals but nonzero here.
  EXPECT_GT(pred.critical_messages, 0.0);
  EXPECT_LE(pred.critical_messages, static_cast<double>(pred.messages));
  EXPECT_GT(pred.compute_seconds_critical, 0.0);
  EXPECT_LE(pred.compute_seconds_critical, pred.compute_seconds_total);

  // Predicted wall with default parameters lands within a factor of the
  // simulated elapsed time (same machine constants drive both).
  const ModelParams defaults = ModelParams::from_machine(machine);
  EXPECT_GT(pred.wall(defaults), 0.0);
  EXPECT_LT(pred.wall(defaults), 10.0 * run.elapsed);
  EXPECT_GT(pred.wall(defaults), 0.1 * run.elapsed);
}

TEST(Predict, NoCommMeansNoPredictedMessages) {
  const std::string src = R"(
    processors P(4)
    array a(16) distribute (block:0) onto P
    procedure main()
      do i = 0, 15
        a(i) = a(i) + 1
      enddo
    end
  )";
  hpf::Program prog;
  codegen::CompileResult compiled = codegen::compile_source(src, &prog);
  const Prediction pred = model::predict(prog, compiled.cps, compiled.plan);
  EXPECT_EQ(pred.messages, 0u);
  EXPECT_EQ(pred.bytes, 0u);
  EXPECT_DOUBLE_EQ(pred.critical_messages, 0.0);
  EXPECT_EQ(pred.total_instances, 16u);
  // 16 iterations over 4 ranks, perfectly balanced: critical rank runs 4.
  const exec::Machine machine = exec::Machine::sp2();
  EXPECT_NEAR(pred.compute_seconds_critical,
              4.0 * pred.flops_per_instance * machine.flop_time, 1e-12);
}

TEST(Predict, WallIsLinearInParams) {
  const std::string src = R"(
    processors P(2)
    array a(16) distribute (block:0) onto P
    array b(16) distribute (block:0) onto P
    procedure main()
      do i = 1, 14
        a(i) = b(i+1)
      enddo
    end
  )";
  hpf::Program prog;
  codegen::CompileResult compiled = codegen::compile_source(src, &prog);
  const Prediction pred = model::predict(prog, compiled.cps, compiled.plan);
  ModelParams p;
  p.alpha = 1.0;
  p.beta = 0.0;
  p.gamma = 0.0;
  EXPECT_DOUBLE_EQ(pred.wall(p), pred.critical_messages);
  p.alpha = 0.0;
  p.beta = 1.0;
  EXPECT_DOUBLE_EQ(pred.wall(p), pred.critical_bytes);
  p.beta = 0.0;
  p.gamma = 2.0;
  EXPECT_DOUBLE_EQ(pred.wall(p), 2.0 * pred.compute_seconds_critical);
  EXPECT_DOUBLE_EQ(pred.comm_seconds(p), 0.0);
}

TEST(Predict, ReportRendersAndSerializes) {
  const std::string src = R"(
    processors P(2)
    array a(8) distribute (block:0) onto P
    array b(8) distribute (block:0) onto P
    procedure main()
      do i = 1, 6
        a(i) = b(i-1)
      enddo
    end
  )";
  hpf::Program prog;
  codegen::CompileResult compiled = codegen::compile_source(src, &prog);
  const Prediction pred = model::predict(prog, compiled.cps, compiled.plan);
  const ModelParams p = ModelParams::from_machine(exec::Machine::sp2());
  const std::string text = pred.to_string(p);
  EXPECT_NE(text.find("predicted wall"), std::string::npos);
  const std::string js = pred.to_json(p);
  EXPECT_NE(js.find("\"critical_messages\""), std::string::npos);
  EXPECT_NE(js.find("\"predicted_wall_seconds\""), std::string::npos);
}

}  // namespace
}  // namespace dhpf::model
