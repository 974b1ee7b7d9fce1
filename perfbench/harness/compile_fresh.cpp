// compile_fresh: one-shot checked compiles of programs the process has never
// seen — `dhpfc --lint --verify --model-report`'s work per program. Every
// program is new, so the set algebra runs its memo-miss path and the
// verifier carries about half of each op. Runtime and service layers are
// not touched.
//
// Each op starts from empty set-algebra memo tables, as a one-shot dhpfc
// process does. Left warm, the tables would carry entries from earlier
// programs and be cleared whole shard by shard, so an op's cost and the
// process's peak RSS would depend on the compile order.
#include <exception>

#include "checks.hpp"
#include "codegen/driver.hpp"
#include "exec/machine.hpp"
#include "inputs.hpp"
#include "iset/intern.hpp"
#include "lint/lint.hpp"
#include "model/model.hpp"
#include "verify/plan.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Generated programs per requested second (about the reference machine's
/// rate, so the measured phase lasts about the requested seconds). At 16 s
/// the list ends at generator seed 880, below the 2.6 s compile of seed
/// 1157 (README.md).
constexpr double kProgramsPerSecond = 55.0;
constexpr int kSetupReps = 31;

}  // namespace

RunReport run_compile_fresh(const RunOptions& opt, Ledger& ledger, Yardstick& yardstick) {
  namespace cg = dhpf::codegen;
  RunReport rep;
  std::vector<Source> programs;
  rep.setup_seconds = repeat_setup(kSetupReps, yardstick, [&] {
    // Every run compiles the same programs in the same order, so runs
    // differ only in time; --seed does not change this workload's inputs.
    // The representation-id table survives clear_caches and is cleared a
    // whole shard at a time at its cap, so with the order shuffled by the
    // seed the peak RSS still moved 188-238 MB from seed to seed.
    programs = generated_programs(scaled_ops(opt.seconds, kProgramsPerSecond));
    for (Source& ex : example_programs(opt.root)) programs.push_back(std::move(ex));
    Digest d;
    for (const Source& s : programs) d.add(s.text);
    rep.input_digest = d.hex();
  });

  const dhpf::exec::Machine machine = dhpf::exec::Machine::sp2();
  double lint_warnings = 0.0;
  double replicated = 0.0;
  ObsInterval obs;
  obs.begin();
  rep.setup_slowdown = yardstick.slowdown();
  const Yardstick::Mark slices = yardstick.mark();
  rep.cpu_seconds = process_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  rep.phase_start = ledger.at(t0);
  long op = 0;
  double between = 0.0;  // seconds spent between ops, left out of the wall
  for (const Source& src : programs) {
    const Clock::time_point c = Clock::now();
    yardstick.slice();
    dhpf::iset::memo::clear_caches();  // a cold memo for every op, outside its time
    between += seconds_between(c, Clock::now());
    const Clock::time_point a = Clock::now();
    std::string why;
    {
      Ledger::Span root = ledger.span("op", op);
      try {
        dhpf::hpf::Program prog;
        cg::CompileResult compiled;
        {
          Ledger::Span s = ledger.span("codegen.compile", op);
          const double start = ledger.enabled() ? ledger.at(Clock::now()) : 0.0;
          compiled = cg::compile_source(src.text, &prog);
          // The compile report's passes become children of the compile span,
          // laid back to back: their durations are the compiler's own.
          double at = start;
          for (const cg::PassStats& p : compiled.report.passes) {
            ledger.add(s.index(), p.name, at, at + p.seconds);
            at += p.seconds;
          }
        }
        dhpf::lint::Report lr;
        {
          Ledger::Span s = ledger.span("lint.run", op);
          lr = dhpf::lint::run(prog);
        }
        dhpf::verify::Report vr;
        {
          Ledger::Span s = ledger.span("verify.bind", op);
          const dhpf::verify::CompiledPlan bound =
              dhpf::verify::bind(prog, compiled.cps, compiled.plan);
          s.close();
          Ledger::Span c = ledger.span("verify.check", op);
          vr = dhpf::verify::check(bound);
        }
        {
          Ledger::Span s = ledger.span("model.predict", op);
          (void)dhpf::model::predict(prog, compiled.cps, compiled.plan, machine);
        }
        why = check_compile(vr, lr);
        lint_warnings += static_cast<double>(lr.warnings());
        for (const auto& p : compiled.report.procedures)
          replicated += static_cast<double>(p.replicated_cps);
      } catch (const std::exception& e) {
        why = std::string("threw: ") + e.what();
      }
    }
    const Clock::time_point b = Clock::now();
    rep.ops.push_back({src.label, seconds_between(a, b) * 1e3, seconds_between(t0, b)});
    rep.tally.record(why.empty() ? why : src.label + ": " + why);
    ++op;
  }
  const Clock::time_point t1 = Clock::now();
  rep.phase_end = ledger.at(t1);
  rep.wall_seconds = seconds_between(t0, t1) - between;
  // The slices run on this thread, CPU-bound, so CPU time drops them too.
  rep.cpu_seconds = process_cpu_seconds() - rep.cpu_seconds - yardstick.seconds_since(slices);
  rep.slowdown = yardstick.slowdown(slices);
  obs.end();

  if (ledger.enabled()) {
    const double n = static_cast<double>(op);
    layer_times(ledger, op, rep);
    rep.layer["lint.warnings"] = lint_warnings / n;
    rep.layer["cp.replicated"] = replicated / n;
    obs_counts(obs, op, rep);
  }
  return rep;
}

}  // namespace perfbench
