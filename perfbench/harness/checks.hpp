// Output checks of the benchmark workloads.
//
// Every check compares a deterministic product against a known answer and
// returns "" when it passes or a one-line reason when it fails. None of
// them reads timings, cache-hit flags, service counters, scheduling-
// dependent iset counters or backend wall/wait seconds: those change from
// run to run on a correct program (checks_test.cpp perturbs the ones a
// check is handed).
#pragma once

#include <map>
#include <mutex>
#include <string>

#include "codegen/spmd.hpp"
#include "fuzz/campaign.hpp"
#include "lint/diag.hpp"
#include "svc/request.hpp"
#include "verify/verify.hpp"

namespace perfbench {

/// compile_fresh: inputs are valid by construction, so the verifier must
/// be clean and lint must raise no error-severity finding.
std::string check_compile(const dhpf::verify::Report& verify, const dhpf::lint::Report& lint);

/// spmd_run: every gathered owner copy must be bitwise equal to the serial
/// oracle's array, and there must be at least one.
std::string check_gathered(const dhpf::codegen::Store& gathered,
                           const dhpf::codegen::Store& oracle);

/// fuzz_campaign: one verdict per requested case. A case fails when the
/// report lists it as a failure (CampaignReport::ok() is false) or when the
/// report covers fewer cases than requested.
std::vector<std::string> case_verdicts(const dhpf::fuzz::CampaignReport& report, int requested);

/// The deterministic product a response of its kind carries (report_json
/// is excluded: it embeds pass timings).
std::string response_payload(const dhpf::svc::Response& resp);

/// A verify_json / lint_json document must parse and carry "errors": 0.
std::string check_zero_errors(const std::string& doc, const char* what);

/// A tune_json selection must be measured and never slower than the
/// default variant's measured time.
std::string check_tune(const std::string& doc);

/// svc_mixed: every response must be ok; every response for one request
/// key must carry the byte-identical payload of the first one seen (so a
/// cache hit equals its fill); verify/lint payloads carry zero errors and
/// tune selections keep their guarantee. Thread-safe.
class ResponseChecker {
 public:
  std::string check(const std::string& key, const dhpf::svc::Response& resp);

  /// Reference payload per request key (the first response seen for it).
  [[nodiscard]] std::map<std::string, std::string> references() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::string> ref_;  // guarded by mu_
};

}  // namespace perfbench
