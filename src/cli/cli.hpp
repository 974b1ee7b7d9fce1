// dhpfc's command-line surface as a library, so the flag set is testable.
//
// A single options table drives BOTH parsing and --help generation: each
// OptionSpec carries its display form, help text and the apply function the
// parser calls, and usage_text() is rendered from the same table. There is
// no second list to drift out of sync — a flag the parser accepts is, by
// construction, a flag --help documents (tests/cli_test.cpp asserts it).
#pragma once

#include <charconv>
#include <cstdint>
#include <functional>
#include <string>
#include <system_error>
#include <vector>

#include "codegen/driver.hpp"
#include "codegen/spmd.hpp"

namespace dhpf::cli {

/// Everything dhpfc's flags can set.
struct Options {
  cp::SelectOptions sopt;
  comm::CommOptions copt;
  codegen::SpmdOptions xopt;
  bool run = false;
  bool quiet = false;
  bool report = false;
  bool help = false;
  bool verify = false;           ///< run the static verifier over the plan
  bool verify_selftest = false;  ///< run the fault-injection harness
  bool lint = false;             ///< run the source linter instead of compiling
  bool lint_selftest = false;    ///< run the lint fault-injection harness
  bool model_report = false;     ///< print the analytic cost-model prediction
  bool tune = false;             ///< run the variant autotuner
  int tune_measure = 3;          ///< measured confirmations beyond the default
  std::string calibrate_out;     ///< --calibrate FILE: fit + write calibration
  std::string calibration_in;    ///< --calibration FILE: load fitted params
  std::string report_json;       ///< write machine-readable report here ("-" = stdout)
  std::string trace_out;         ///< --trace-out FILE: write merged Chrome trace JSON
  bool profile = false;          ///< print the aggregated self-time span profile
  int fuzz_count = 0;            ///< --fuzz=N: run a differential fuzz campaign
  std::uint64_t fuzz_seed = 1;   ///< --fuzz-seed=S
  bool fuzz_minimize = false;    ///< shrink failing cases before reporting
  std::string fuzz_out;          ///< --fuzz-out=DIR: write failing reproducers
  std::string fuzz_corpus;       ///< --fuzz-corpus=DIR: replay a reproducer corpus
  bool fuzz_quick = false;       ///< smoke settings: fewer shapes/variants/mp runs
  std::string serve_socket;      ///< --serve=SOCK: run as the dhpfd compile daemon
  std::string server_socket;     ///< --server=SOCK: send the request to a daemon
  int svc_workers = 0;           ///< --svc-workers=N: daemon pool size (0 = auto)
  int svc_cache = 1024;          ///< --svc-cache=N: daemon cache entries (0 = off)
  std::string input;             ///< positional file.hpf
};

/// One row of the options table.
struct OptionSpec {
  std::string display;  ///< e.g. "--priv=propagate|replicate|owner"
  std::string name;     ///< match key, e.g. "--priv" (value options match "--priv=")
  bool takes_value = false;
  std::string help;
  /// Applies the (possibly empty) value; returns false on a bad value.
  std::function<bool(Options&, const std::string&)> apply;
};

/// Parse all of `v` as a base-10 integer in [lo, hi] into `out`. Rejects
/// an empty string, whitespace, a '+', trailing characters ("10x", "1e3"),
/// overflow and a '-' on unsigned types; `out` is untouched on failure.
template <typename T>
bool parse_int(const std::string& v, T lo, T hi, T& out) {
  T x{};
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, x);
  if (ec != std::errc() || ptr != end || x < lo || x > hi) return false;
  out = x;
  return true;
}

/// The table. Order is the order --help lists the flags in.
const std::vector<OptionSpec>& option_table();

/// Usage text rendered from the table (what --help prints and what usage
/// errors point at).
std::string usage_text();

struct ParseResult {
  Options opts;
  std::string error;  ///< empty on success

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Parse argv (without argv[0]). A missing input file is an error unless
/// --help was given. Unknown options, bad values and extra positionals are
/// errors with the offending argument in `error`.
ParseResult parse_args(const std::vector<std::string>& args);

}  // namespace dhpf::cli
