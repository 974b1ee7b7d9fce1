// fuzz_campaign: one fuzz::run_campaign call with `dhpfc --fuzz`'s default
// differential options; an op is one case. Each case recompiles its program
// under the whole flag cross product on three grid shapes and runs it on
// sim, mp and shm, so the set algebra's memo-hit path, verify.bind and
// model.predict dominate instead of the miss path. It is the one workload
// where case-level parallelism inside run_campaign can show, which is why
// the campaign is one call and not a loop over run_differential.
#include <exception>
#include <ostream>
#include <streambuf>

#include "checks.hpp"
#include "fuzz/campaign.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr double kCasesPerSecond = 6.0;
constexpr int kSetupReps = 301;

/// Stamps the time each progress line completes, then runs a yardstick
/// slice and stamps its end. With log_every = 1 the campaign writes one
/// line per finished case, so the time from one slice's end to the next
/// line is a case's latency while cases run one at a time. The slices run
/// on the thread that writes the progress lines.
class LineStamps : public std::streambuf {
 public:
  explicit LineStamps(Yardstick& yardstick) : yardstick_(yardstick) {}

  std::vector<Clock::time_point> stamps;   ///< line written
  std::vector<Clock::time_point> resumed;  ///< slice after it done

 protected:
  int overflow(int c) override {
    if (c == '\n') {
      stamps.push_back(Clock::now());
      yardstick_.slice();
      resumed.push_back(Clock::now());
    }
    return c == traits_type::eof() ? traits_type::not_eof(c) : c;
  }

 private:
  Yardstick& yardstick_;
};

/// Obs pass timers that run inside a campaign; each becomes a span name.
constexpr const char* kPassTimers[] = {"hpf.parse",    "cp.select",    "comm.generate",
                                       "codegen.emit", "verify.check", "model.predict"};

}  // namespace

RunReport run_fuzz_campaign(const RunOptions& opt, Ledger& ledger, Yardstick& yardstick) {
  RunReport rep;
  const int count = static_cast<int>(scaled_ops(opt.seconds, kCasesPerSecond));
  // The campaign is `dhpfc --fuzz`'s default one (campaign seed 1), the
  // same every run: a campaign seed picks case programs from the
  // generator's whole seed space, where a program can exhaust memory
  // (inputs.hpp), and the default campaign's cases are the ones measured
  // (README.md). --seed does not change this workload's inputs.
  dhpf::fuzz::CampaignOptions copt;
  copt.seed = 1;
  copt.count = count;
  copt.minimize_failures = false;  // a failure is reported, not shrunk, inside the timing
  copt.log_every = 1;
  // Set-up: the digest of the programs the campaign will generate, so a
  // change to the generator shows as an input change.
  rep.setup_seconds = repeat_setup(kSetupReps, yardstick, [&] {
    Digest d;
    d.add(std::to_string(copt.seed) + "/" + std::to_string(count));
    for (int i = 0; i < count; ++i)
      d.add(dhpf::fuzz::generate(dhpf::fuzz::case_seed(copt.seed, i), copt.gen).source);
    rep.input_digest = d.hex();
  });

  LineStamps stamps(yardstick);
  std::ostream log(&stamps);
  copt.log = &log;
  ObsInterval obs;
  obs.begin();
  rep.setup_slowdown = yardstick.slowdown();
  const Yardstick::Mark slices = yardstick.mark();
  rep.cpu_seconds = process_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  rep.phase_start = ledger.at(t0);
  std::vector<std::string> verdicts;
  dhpf::fuzz::CampaignReport report;
  int root_index = -1;
  {
    Ledger::Span root = ledger.span("op", 0);
    root_index = root.index();
    try {
      report = dhpf::fuzz::run_campaign(copt);
      verdicts = case_verdicts(report, count);
    } catch (const std::exception& e) {
      verdicts.assign(static_cast<std::size_t>(count), std::string("campaign threw: ") + e.what());
    }
  }
  const Clock::time_point t1 = Clock::now();
  rep.phase_end = ledger.at(t1);
  rep.wall_seconds = seconds_between(t0, t1) - yardstick.seconds_since(slices);
  // The slices run on the campaign's thread, CPU-bound, so CPU time drops
  // them too.
  rep.cpu_seconds = process_cpu_seconds() - rep.cpu_seconds - yardstick.seconds_since(slices);
  rep.slowdown = yardstick.slowdown(slices);
  obs.end();

  Clock::time_point prev = t0;
  for (int i = 0; i < count; ++i) {
    const auto k = static_cast<std::size_t>(i);
    const bool stamped = k < stamps.stamps.size();
    const Clock::time_point at = stamped ? stamps.stamps[k] : t1;
    rep.ops.push_back({"case " + std::to_string(i) + " seed " +
                           std::to_string(dhpf::fuzz::case_seed(copt.seed, i)),
                       seconds_between(prev, at) * 1e3, seconds_between(t0, at)});
    prev = stamped ? stamps.resumed[k] : t1;
    rep.tally.record(verdicts[k]);
  }

  if (ledger.enabled()) {
    const double n = static_cast<double>(count);
    // The campaign's internal split comes from the obs pass timers: one
    // child span per timer, laid back to back inside the campaign span.
    double at = rep.phase_start;
    for (const char* timer : kPassTimers) {
      const double secs = obs.timer_seconds(timer, std::string(timer) + "_ms", rep);
      ledger.add(root_index, timer, at, at + secs);
      at += secs;
    }
    layer_times(ledger, count, rep);
    obs_counts(obs, count, rep);
    rep.layer["fuzz.plans"] = static_cast<double>(report.plans_checked) / n;
    rep.layer["fuzz.sim_runs"] = static_cast<double>(report.sim_runs) / n;
    rep.layer["fuzz.mp_runs"] = static_cast<double>(report.mp_runs) / n;
    rep.layer["fuzz.shm_runs"] = static_cast<double>(report.shm_runs) / n;
    rep.layer["fuzz.failures"] = static_cast<double>(report.failures.size()) / n;
    for (const char* m : {"verify.bind_ms", "lint.run_ms", "cp.replicated", "lint.warnings"})
      rep.absent.emplace(m, "not visible from outside run_campaign");
  }
  return rep;
}

}  // namespace perfbench
