// dhpfc — command-line driver for the dHPF-reproduction compiler.
//
// The flag set lives in src/cli/cli.hpp as a single options table that
// drives both parsing and --help; run `dhpfc --help` for the list. Beyond
// compiling and printing the CPs / communication plan / SPMD program, the
// driver can execute the program (--run, --backend=sim|mp|shm) and statically
// verify the lowered plan (--verify, docs/verifier.md) — read coverage,
// replicated-write consistency, halo sufficiency, schedule safety and a
// dead-communication lint, with concrete witnesses on violations.
//
// Exit codes: 0 success, 1 compile/run error or verification violation
// (diagnostics on stderr), 2 usage error.
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include <iostream>

#include "cli/cli.hpp"
#include "codegen/driver.hpp"
#include "fuzz/campaign.hpp"
#include "lint/lint.hpp"
#include "lint/mutate.hpp"
#include "model/calibrate.hpp"
#include "model/model.hpp"
#include "support/buildinfo.hpp"
#include "support/json.hpp"
#include "svc/server.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"
#include "tune/tune.hpp"
#include "verify/mutate.hpp"
#include "verify/verify.hpp"

namespace {

/// Write `doc` to `path` ('-' is stdout) and flush it. A file that cannot
/// be opened or written (a full disk, /dev/full) prints "cannot write" and
/// returns false.
bool write_output(const std::string& path, const std::string& doc) {
  bool ok = false;
  if (path == "-") {
    ok = std::fputs(doc.c_str(), stdout) >= 0 && std::fflush(stdout) == 0;
  } else {
    std::ofstream out(path);
    ok = static_cast<bool>(out << doc << std::flush);
  }
  if (!ok) std::fprintf(stderr, "dhpfc: cannot write %s\n", path.c_str());
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dhpf;

  std::vector<std::string> args(argv + 1, argv + argc);
  cli::ParseResult parsed = cli::parse_args(args);
  if (!parsed.ok()) {
    std::fprintf(stderr, "dhpfc: %s\n%s", parsed.error.c_str(), cli::usage_text().c_str());
    return 2;
  }
  const cli::Options& o = parsed.opts;
  if (o.help) {
    std::fputs(cli::usage_text().c_str(), stdout);
    return 0;
  }

  const bool tracing = o.profile || !o.trace_out.empty();
  if (tracing) {
    trace::Recorder::global().set_enabled(true);
    trace::Recorder::global().set_thread_label("compiler");
  }
  // Every exit after this point drains the recorder exactly once, after the
  // mode's traced work has finished: the same snapshot feeds the trace
  // file, the printed profile and the report-json "profile" section. A
  // trace file that cannot be written turns the exit code into 1.
  std::string profile_json_doc;
  bool drained = false;
  auto finish_trace = [&]() -> bool {
    if (!tracing || drained) return true;
    drained = true;
    const trace::TraceDump dump = trace::Recorder::global().drain();
    if (!o.trace_out.empty() &&
        !write_output(o.trace_out, trace::chrome_trace_json(dump) + "\n"))
      return false;
    if (o.profile) {
      const std::vector<trace::ProfileRow> rows = trace::profile(dump);
      profile_json_doc = trace::profile_json(rows);
      std::printf("\n---- span profile ----\n%s", trace::profile_text(rows).c_str());
    }
    return true;
  };
  auto finish = [&](int rc) { return finish_trace() ? rc : 1; };

  if (!o.serve_socket.empty()) {
    // Daemon mode: dhpfc --serve=SOCK *is* dhpfd (same loop, same flags).
    svc::ServerOptions sopt;
    sopt.socket_path = o.serve_socket;
    sopt.service.workers = o.svc_workers;
    sopt.service.cache_entries = static_cast<std::size_t>(o.svc_cache);
    sopt.service.enable_cache = o.svc_cache > 0;
    return finish(svc::run_daemon(sopt, o.quiet));
  }

  if (!o.server_socket.empty()) {
    // Pass-through mode: ship this invocation's request to a running daemon
    // and print the responses; nothing is compiled in this process.
    try {
      svc::Client client(o.server_socket);
      std::ifstream in(o.input);
      if (!in) {
        std::fprintf(stderr, "dhpfc: cannot open %s\n", o.input.c_str());
        return finish(1);
      }
      std::ostringstream src;
      src << in.rdbuf();

      std::vector<svc::Request> batch;
      svc::Request base;
      base.source = src.str();
      base.flags.sopt = o.sopt;
      base.flags.copt = o.copt;
      if (o.lint) {
        // Lint-only pass-through: the analyzer reads the source, so no
        // compile request rides along.
        base.kind = svc::Kind::Lint;
        base.id = 1;
        const svc::Response resp = client.roundtrip(base);
        if (!resp.ok) {
          std::fprintf(stderr, "dhpfc: server: [%s] %s\n", svc::to_string(resp.code),
                       resp.error.c_str());
          return finish(1);
        }
        std::printf("---- lint (%s) ----\n%s\n", resp.cached ? "cached" : "analyzed",
                    resp.lint_json.c_str());
        // The frame codec re-emits JSON compactly, so match both spacings.
        const bool errs =
            resp.lint_json.find("\"severity\":\"error\"") != std::string::npos ||
            resp.lint_json.find("\"severity\": \"error\"") != std::string::npos;
        return finish(errs ? 2 : 0);
      }
      base.kind = svc::Kind::Compile;
      base.id = batch.size() + 1;
      batch.push_back(base);
      if (o.verify) {
        base.kind = svc::Kind::Verify;
        base.id = batch.size() + 1;
        batch.push_back(base);
      }
      if (o.model_report) {
        base.kind = svc::Kind::Model;
        base.id = batch.size() + 1;
        batch.push_back(base);
      }
      if (o.tune) {
        base.kind = svc::Kind::Tune;
        base.tune_measure = o.tune_measure;
        base.backend = o.xopt.backend;
        base.id = batch.size() + 1;
        batch.push_back(base);
      }
      bool failed = false;
      for (const svc::Response& resp : client.batch(std::move(batch))) {
        if (!resp.ok) {
          failed = true;
          std::fprintf(stderr, "dhpfc: server: [%s] %s\n", svc::to_string(resp.code),
                       resp.error.c_str());
          continue;
        }
        switch (resp.kind) {
          case svc::Kind::Compile:
            if (!o.quiet)
              std::printf("---- SPMD node program (%s) ----\n%s",
                          resp.cached ? "cached" : "compiled", resp.listing.c_str());
            if (o.report) std::printf("\n---- compile report ----\n%s\n",
                                      resp.report_json.c_str());
            break;
          case svc::Kind::Verify:
            std::printf("\n---- static verification ----\n%s\n", resp.verify_json.c_str());
            break;
          case svc::Kind::Model:
            std::printf("\n---- performance model ----\n%s\n", resp.model_json.c_str());
            break;
          case svc::Kind::Tune:
            std::printf("\n---- autotuner ----\n%s\n", resp.tune_json.c_str());
            break;
          case svc::Kind::Stats:
          case svc::Kind::Lint:
            break;
        }
      }
      return finish(failed ? 1 : 0);
    } catch (const dhpf::Error& e) {
      std::fprintf(stderr, "dhpfc: %s\n", e.what());
      return finish(1);
    }
  }

  if (o.fuzz_count > 0 || !o.fuzz_corpus.empty()) {
    try {
      bool failed = false;
      fuzz::DiffOptions diff;
      if (o.fuzz_quick) {
        diff.shapes = 2;
        diff.variants_per_extra_shape = 4;
        diff.mp_variants = 1;
        diff.shm_variants = 1;
      }
      if (!o.fuzz_corpus.empty()) {
        // Corpus replay is always exhaustive — reproducers are tiny, and a
        // regression must re-fail under the exact variant that exposed it.
        const auto results = fuzz::replay_corpus(o.fuzz_corpus, fuzz::corpus_options());
        for (const auto& r : results) {
          if (r.diff.ok) {
            if (!o.quiet)
              std::printf("corpus ok:   %s (%d plans)\n", r.path.c_str(),
                          r.diff.plans_checked);
          } else {
            failed = true;
            std::fprintf(stderr, "corpus FAIL: %s\n  %s\n", r.path.c_str(),
                         r.diff.failure.to_string().c_str());
          }
        }
        std::printf("corpus: %zu reproducer(s) replayed\n", results.size());
      }
      if (o.fuzz_count > 0) {
        fuzz::CampaignOptions copt;
        copt.seed = o.fuzz_seed;
        copt.count = o.fuzz_count;
        copt.diff = diff;
        copt.minimize_failures = o.fuzz_minimize;
        copt.out_dir = o.fuzz_out;
        if (!o.quiet) {
          copt.log = &std::cerr;
          copt.log_every = std::max(1, o.fuzz_count / 10);
        }
        const fuzz::CampaignReport rep = fuzz::run_campaign(copt);
        std::fputs(rep.to_string().c_str(), stdout);
        for (const auto& f : rep.failures)
          if (!f.minimized.empty())
            std::printf("minimized reproducer (case %d):\n%s\n", f.index,
                        f.minimized.c_str());
        failed = failed || !rep.ok();
      }
      return finish(failed ? 1 : 0);
    } catch (const dhpf::Error& e) {
      std::fprintf(stderr, "dhpfc: %s\n", e.what());
      return finish(1);
    }
  }

  std::ifstream in(o.input);
  if (!in) {
    std::fprintf(stderr, "dhpfc: cannot open %s\n", o.input.c_str());
    return finish(1);
  }
  std::ostringstream src;
  src << in.rdbuf();

  if (o.lint || o.lint_selftest) {
    // Lint mode analyzes the source program; nothing is compiled or run.
    // Exit codes: 0 clean (warnings allowed), 1 parse error or escaped
    // self-test defect, 2 error-severity findings.
    try {
      int rc = 0;
      if (o.lint) {
        const lint::Report rep = lint::run_source(src.str());
        if (!o.quiet || !rep.clean())
          std::printf("---- lint ----\n%s", rep.to_string().c_str());
        if (!o.report_json.empty()) {
          json::Writer w(/*pretty=*/true);
          w.begin_object();
          w.member("input", o.input);
          w.key("build");
          w.raw(buildinfo::to_json());
          w.key("lint");
          w.raw(rep.to_json());
          w.end_object();
          if (!write_output(o.report_json, w.str() + "\n")) return finish(1);
        }
        if (!rep.clean()) rc = 2;
      }
      if (o.lint_selftest) {
        const lint::HarnessResult h = lint::run_harness(src.str());
        std::printf("\n---- lint self-test (fault injection) ----\n");
        for (const auto& line : h.lines) std::printf("  %s\n", line.c_str());
        std::printf("  %zu/%zu seeded defects caught\n", h.caught, h.seeded);
        if (!h.all_caught()) {
          std::fprintf(stderr, "dhpfc: lint-selftest: %zu seeded defect(s) escaped\n",
                       h.seeded - h.caught);
          rc = 1;
        }
      }
      return finish(rc);
    } catch (const dhpf::Error& e) {
      std::fprintf(stderr, "dhpfc: %s\n", e.what());
      return finish(1);
    }
  }

  try {
    hpf::Program prog;
    codegen::CompileResult compiled =
        codegen::compile_source(src.str(), &prog, o.sopt, o.copt);

    if (!o.quiet) {
      std::printf("---- program ----\n%s\n", prog.to_string().c_str());
      std::printf("---- computation partitionings ----\n");
      for (const auto& [id, sc] : compiled.cps.stmts)
        std::printf("  S%d: %s\n", id, sc.cp.to_string().c_str());
      for (const auto& info : compiled.cps.loop_dist)
        if (info.num_partitions > 1)
          std::printf("  loop over %s: selectively distributed into %zu loops\n",
                      info.loop->var.c_str(), info.num_partitions);
      std::printf("\n---- communication plan ----\n%s",
                  compiled.plan.to_string().c_str());
      std::printf("\n---- SPMD node program ----\n%s", compiled.listing.c_str());
    }

    bool violations = false;
    std::string verify_json;
    if (o.verify || o.verify_selftest) {
      const verify::CompiledPlan bound =
          verify::bind(prog, compiled.cps, compiled.plan);
      if (o.verify) {
        const verify::Report rep = verify::check(bound);
        verify_json = rep.to_json();
        if (!o.quiet || !rep.clean())
          std::printf("\n---- static verification ----\n%s", rep.to_string().c_str());
        if (!rep.clean()) {
          violations = true;
          for (const auto& d : rep.diagnostics)
            if (d.severity == verify::Severity::Error)
              std::fprintf(stderr, "dhpfc: verify: %s\n", d.to_string().c_str());
        }
      }
      if (o.verify_selftest) {
        const verify::HarnessResult h = verify::run_harness(bound);
        std::printf("\n---- verification self-test (fault injection) ----\n");
        for (const auto& line : h.lines) std::printf("  %s\n", line.c_str());
        std::printf("  %zu/%zu seeded defects caught\n", h.caught, h.seeded);
        if (!h.all_caught()) {
          std::fprintf(stderr, "dhpfc: verify-selftest: %zu seeded defect(s) escaped\n",
                       h.seeded - h.caught);
          violations = true;
        }
      }
    }

    // Model parameters: machine defaults unless a calibration file is given.
    model::ModelParams mparams = model::ModelParams::from_machine(exec::Machine::sp2());
    if (!o.calibration_in.empty()) mparams = model::load_params(o.calibration_in);

    std::string model_json;
    if (o.model_report || !o.report_json.empty()) {
      const model::Prediction pred = model::predict(prog, compiled.cps, compiled.plan,
                                                    exec::Machine::sp2(),
                                                    o.xopt.flops_per_instance);
      model_json = pred.to_json(mparams);
      if (o.model_report)
        std::printf("\n---- performance model ----\n%s", pred.to_string(mparams).c_str());
    }

    std::string calibration_json;
    if (!o.calibrate_out.empty()) {
      tune::TuneOptions topt;
      topt.xopt = o.xopt;
      const model::Calibration cal = tune::calibrate_program(prog, topt);
      model::save(cal, o.calibrate_out);
      calibration_json = cal.to_json();
      std::printf("\n---- calibration ----\n  %zu samples, median error %.1f%% -> %.1f%%\n"
                  "  fitted: %s\n  written: %s\n",
                  cal.samples, 100.0 * cal.median_error_default,
                  100.0 * cal.median_error_fitted, cal.params.to_string().c_str(),
                  o.calibrate_out.c_str());
    }

    std::string tune_json;
    if (o.tune) {
      tune::TuneOptions topt;
      topt.measure_top_k = o.tune_measure;
      topt.xopt = o.xopt;
      topt.params = mparams;
      const tune::TuneReport rep = tune::tune(prog, topt);
      tune_json = rep.to_json();
      std::printf("\n---- autotuner ----\n%s", rep.to_string().c_str());
    }

    if (o.run) {
      auto r =
          codegen::run_spmd(prog, compiled.cps, compiled.plan, exec::Machine::sp2(), o.xopt);
      if (r.backend == exec::Backend::Sim) {
        std::printf("\n---- execution (simulated SP2) ----\n");
        std::printf("  time %.6f s, %zu messages, %zu bytes\n", r.elapsed, r.messages, r.bytes);
      } else if (r.backend == exec::Backend::Mp) {
        std::printf("\n---- execution (mp: real threads) ----\n");
        std::printf("  wall %.6f s, %zu messages, %zu bytes\n", r.wall_seconds, r.messages,
                    r.bytes);
      } else {
        std::printf("\n---- execution (shm: shared-memory threads) ----\n");
        std::printf("  wall %.6f s, %zu barriers, %zu shared bytes\n", r.wall_seconds, r.barriers,
                    r.shared_read_bytes);
      }
      std::printf("  instances per rank:");
      for (auto n : r.instances_per_rank) std::printf(" %zu", n);
      std::printf("\n  verified: max |err| = %.2e\n", r.max_err);
    }

    if (o.report)
      std::printf("\n---- compile report ----\n%s", compiled.report.to_string().c_str());

    // Every traced producer (compile, verify, model, run) has finished.
    if (!finish_trace()) return 1;

    if (!o.report_json.empty()) {
      json::Writer w(/*pretty=*/true);
      w.begin_object();
      w.member("input", o.input);
      w.key("build");
      w.raw(buildinfo::to_json());
      w.key("compile");
      w.raw(compiled.report.to_json());
      if (!verify_json.empty()) {
        w.key("verify");
        w.raw(verify_json);
      }
      if (!model_json.empty()) {
        w.key("model");
        w.raw(model_json);
      }
      if (!calibration_json.empty()) {
        w.key("calibration");
        w.raw(calibration_json);
      }
      if (!tune_json.empty()) {
        w.key("tune");
        w.raw(tune_json);
      }
      if (!profile_json_doc.empty()) {
        w.key("profile");
        w.raw(profile_json_doc);
      }
      w.end_object();
      if (!write_output(o.report_json, w.str() + "\n")) return 1;
    }

    if (violations) return 1;
  } catch (const dhpf::Error& e) {
    std::fprintf(stderr, "dhpfc: %s\n", e.what());
    return finish(1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dhpfc: internal error: %s\n", e.what());
    return finish(1);
  }
  return 0;
}
