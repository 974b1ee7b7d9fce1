#include "cli/cli.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

namespace dhpf::cli {

namespace {

constexpr int kMaxInt = std::numeric_limits<int>::max();
constexpr std::uint64_t kMaxSeed = std::numeric_limits<std::uint64_t>::max();

OptionSpec flag(std::string name, std::string help, std::function<void(Options&)> set) {
  OptionSpec s;
  s.display = name;
  s.name = std::move(name);
  s.takes_value = false;
  s.help = std::move(help);
  s.apply = [set = std::move(set)](Options& o, const std::string&) {
    set(o);
    return true;
  };
  return s;
}

OptionSpec valued(std::string display, std::string name, std::string help,
                  std::function<bool(Options&, const std::string&)> apply) {
  OptionSpec s;
  s.display = std::move(display);
  s.name = std::move(name);
  s.takes_value = true;
  s.help = std::move(help);
  s.apply = std::move(apply);
  return s;
}

std::vector<OptionSpec> make_table() {
  std::vector<OptionSpec> t;
  t.push_back(flag("--no-localize", "disable the §4.2 LOCALIZE partial replication",
                   [](Options& o) { o.sopt.localize = false; }));
  t.push_back(flag("--no-comm-sensitive", "disable the §5 communication-sensitive CP grouping",
                   [](Options& o) { o.sopt.comm_sensitive = false; }));
  t.push_back(flag("--no-interproc", "disable the §6 interprocedural CP selection",
                   [](Options& o) { o.sopt.interprocedural = false; }));
  t.push_back(flag("--no-availability", "disable the §7 data availability analysis",
                   [](Options& o) { o.copt.data_availability = false; }));
  t.push_back(valued("--priv=propagate|replicate|owner", "--priv",
                     "CP mode for privatizable (NEW) array definitions",
                     [](Options& o, const std::string& v) {
                       if (v == "propagate")
                         o.sopt.priv_mode = cp::PrivMode::Propagate;
                       else if (v == "replicate")
                         o.sopt.priv_mode = cp::PrivMode::Replicate;
                       else if (v == "owner")
                         o.sopt.priv_mode = cp::PrivMode::OwnerComputes;
                       else
                         return false;
                       return true;
                     }));
  t.push_back(flag("--run", "execute the SPMD program and check it against the serial result",
                   [](Options& o) { o.run = true; }));
  t.push_back(valued("--backend=sim|mp|shm", "--backend",
                     "execution backend for --run: virtual-time SP2 simulator, the real "
                     "multi-threaded message-passing runtime, or the shared-memory "
                     "threaded runtime",
                     [](Options& o, const std::string& v) {
                       return exec::parse_backend(v, o.xopt.backend);
                     }));
  t.push_back(flag("--verify",
                   "statically verify the compiled plan (read coverage, replica "
                   "consistency, halos, schedule, dead comm); violations exit 1",
                   [](Options& o) { o.verify = true; }));
  t.push_back(flag("--verify-selftest",
                   "run the fault-injection harness: seed defects into the plan and "
                   "require the verifier to catch every one",
                   [](Options& o) { o.verify_selftest = true; }));
  t.push_back(flag("--lint",
                   "run the source-level static analyzer (static races in INDEPENDENT "
                   "loops, uninitialized reads of local arrays, subscript bounds, dead "
                   "stores, distribution conformance) instead of compiling; "
                   "error-severity findings exit 2",
                   [](Options& o) { o.lint = true; }));
  t.push_back(flag("--lint-selftest",
                   "run the lint fault-injection harness: seed source-level defects "
                   "(dropped inits, widened subscripts, false INDEPENDENT, "
                   "misalignments, killed stores) and require the linter to catch "
                   "every one",
                   [](Options& o) { o.lint_selftest = true; }));
  t.push_back(flag("--model-report",
                   "print the analytic cost-model prediction for the compiled plan "
                   "(predicted wall time, per-statement and per-event costs)",
                   [](Options& o) { o.model_report = true; }));
  t.push_back(valued("--calibrate=FILE", "--calibrate",
                     "fit the cost model's alpha/beta/gamma from measured runs of "
                     "option-variants of the input (on --backend) and write the "
                     "calibration JSON to FILE",
                     [](Options& o, const std::string& v) {
                       if (v.empty()) return false;
                       o.calibrate_out = v;
                       return true;
                     }));
  t.push_back(valued("--calibration=FILE", "--calibration",
                     "load fitted model parameters from a calibration JSON (written "
                     "by --calibrate) instead of the machine defaults",
                     [](Options& o, const std::string& v) {
                       if (v.empty()) return false;
                       o.calibration_in = v;
                       return true;
                     }));
  t.push_back(flag("--tune",
                   "enumerate optimization-flag variants, prune with the verifier, "
                   "rank by the cost model, measure the top candidates (on "
                   "--backend) and report the best plan",
                   [](Options& o) { o.tune = true; }));
  t.push_back(valued("--tune-backend=sim|mp|shm", "--tune-backend",
                     "execution backend for --tune's (and --calibrate's) measured "
                     "runs; same as --backend",
                     [](Options& o, const std::string& v) {
                       return exec::parse_backend(v, o.xopt.backend);
                     }));
  t.push_back(valued("--tune-measure=K", "--tune-measure",
                     "measured confirmations for --tune beyond the default variant "
                     "(default 3; 0 ranks purely by prediction)",
                     [](Options& o, const std::string& v) {
                       return parse_int(v, 0, kMaxInt, o.tune_measure);
                     }));
  t.push_back(flag("--report", "print the structured compile report (pass times, metrics)",
                   [](Options& o) { o.report = true; }));
  t.push_back(valued("--report-json=FILE", "--report-json",
                     "write the compile (and, with --verify, verification) report as "
                     "JSON to FILE ('-' for stdout)",
                     [](Options& o, const std::string& v) {
                       if (v.empty()) return false;
                       o.report_json = v;
                       return true;
                     }));
  t.push_back(valued("--trace-out=FILE", "--trace-out",
                     "enable span tracing and write the merged Chrome-trace JSON "
                     "(compile passes plus, with --run --backend=mp|shm, per-rank "
                     "runtime spans) to FILE ('-' for stdout)",
                     [](Options& o, const std::string& v) {
                       if (v.empty()) return false;
                       o.trace_out = v;
                       return true;
                     }));
  t.push_back(flag("--profile",
                   "enable span tracing and print the aggregated self-time / "
                   "total-time profile; with --report-json the rows are embedded "
                   "under \"profile\"",
                   [](Options& o) { o.profile = true; }));
  t.push_back(valued("--fuzz=N", "--fuzz",
                     "run a differential fuzz campaign of N generated programs "
                     "(serial oracle vs sim, mp and shm backends, all optimization "
                     "variants, static verifier and cost-model cross-checks) "
                     "instead of compiling an input file",
                     [](Options& o, const std::string& v) {
                       return parse_int(v, 1, kMaxInt, o.fuzz_count);
                     }));
  t.push_back(valued("--fuzz-seed=S", "--fuzz-seed",
                     "campaign seed (default 1); the same seed reproduces the "
                     "same programs and the same report, byte for byte",
                     [](Options& o, const std::string& v) {
                       return parse_int(v, std::uint64_t{0}, kMaxSeed, o.fuzz_seed);
                     }));
  t.push_back(flag("--fuzz-minimize",
                   "delta-debug failing cases down to minimal reproducers "
                   "before reporting them",
                   [](Options& o) { o.fuzz_minimize = true; }));
  t.push_back(valued("--fuzz-out=DIR", "--fuzz-out",
                     "write failing reproducers (.hpf plus a .txt failure "
                     "report) into DIR",
                     [](Options& o, const std::string& v) {
                       if (v.empty()) return false;
                       o.fuzz_out = v;
                       return true;
                     }));
  t.push_back(valued("--fuzz-corpus=DIR", "--fuzz-corpus",
                     "replay every .hpf reproducer in DIR through the "
                     "differential check (the regression-corpus gate)",
                     [](Options& o, const std::string& v) {
                       if (v.empty()) return false;
                       o.fuzz_corpus = v;
                       return true;
                     }));
  t.push_back(flag("--fuzz-quick",
                   "CI smoke settings: 2 grid shapes, a variant subset per "
                   "case and fewer mp runs",
                   [](Options& o) { o.fuzz_quick = true; }));
  t.push_back(valued("--serve=SOCK", "--serve",
                     "run as the compile daemon (dhpfd) on this Unix socket; "
                     "drains gracefully on SIGTERM/SIGINT",
                     [](Options& o, const std::string& v) {
                       if (v.empty()) return false;
                       o.serve_socket = v;
                       return true;
                     }));
  t.push_back(valued("--server=SOCK", "--server",
                     "send the request to a running daemon instead of "
                     "compiling in-process",
                     [](Options& o, const std::string& v) {
                       if (v.empty()) return false;
                       o.server_socket = v;
                       return true;
                     }));
  t.push_back(valued("--svc-workers=N", "--svc-workers",
                     "daemon worker threads (0 = hardware concurrency)",
                     [](Options& o, const std::string& v) {
                       return parse_int(v, 0, 256, o.svc_workers);
                     }));
  t.push_back(valued("--svc-cache=N", "--svc-cache",
                     "daemon result-cache capacity in entries (0 disables)",
                     [](Options& o, const std::string& v) {
                       return parse_int(v, 0, 1 << 20, o.svc_cache);
                     }));
  t.push_back(flag("--quiet", "suppress the program / CP / plan / SPMD listings",
                   [](Options& o) { o.quiet = true; }));
  t.push_back(flag("--help", "print this help and exit", [](Options& o) { o.help = true; }));
  return t;
}

}  // namespace

const std::vector<OptionSpec>& option_table() {
  static const std::vector<OptionSpec> table = make_table();
  return table;
}

std::string usage_text() {
  std::size_t width = 0;
  for (const auto& s : option_table()) width = std::max(width, s.display.size());
  std::ostringstream out;
  out << "usage: dhpfc [options] file.hpf\n\n"
         "Compile an HPF-lite program with the dHPF pipeline and print the\n"
         "selected computation partitionings, the communication plan, and the\n"
         "SPMD node program.\n\noptions:\n";
  for (const auto& s : option_table()) {
    out << "  " << s.display << std::string(width - s.display.size() + 2, ' ');
    // Wrap help text at ~72 columns, continuation lines aligned.
    const std::string pad(width + 4, ' ');
    std::istringstream words(s.help);
    std::string word;
    std::size_t col = width + 4;
    bool first = true;
    while (words >> word) {
      if (!first && col + 1 + word.size() > 78) {
        out << "\n" << pad;
        col = pad.size();
      } else if (!first) {
        out << " ";
        ++col;
      }
      out << word;
      col += word.size();
      first = false;
    }
    out << "\n";
  }
  out << "\nexit codes: 0 success, 1 compile/run/verification failure, 2 usage error\n"
         "            (--lint also exits 2 when error-severity findings exist)\n";
  return out.str();
}

ParseResult parse_args(const std::vector<std::string>& args) {
  ParseResult r;
  for (const std::string& arg : args) {
    if (arg.empty()) continue;
    if (arg[0] != '-') {
      if (!r.opts.input.empty()) {
        r.error = "unexpected extra argument: " + arg;
        return r;
      }
      r.opts.input = arg;
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    const OptionSpec* spec = nullptr;
    for (const auto& s : option_table())
      if (s.name == name) spec = &s;
    if (!spec) {
      r.error = "unknown option: " + arg;
      return r;
    }
    if (spec->takes_value != (eq != std::string::npos)) {
      r.error = spec->takes_value ? "option requires a value: " + arg
                                  : "option takes no value: " + arg;
      return r;
    }
    if (!spec->apply(r.opts, value)) {
      r.error = "bad value for " + name + ": " + value;
      return r;
    }
  }
  if (r.opts.input.empty() && !r.opts.help && r.opts.fuzz_count == 0 &&
      r.opts.fuzz_corpus.empty() && r.opts.serve_socket.empty())
    r.error = "missing input: file.hpf";
  return r;
}

}  // namespace dhpf::cli
