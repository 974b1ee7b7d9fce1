#include "checks.hpp"

#include <cstring>

#include "support/json.hpp"

namespace perfbench {

std::string check_compile(const dhpf::verify::Report& verify, const dhpf::lint::Report& lint) {
  if (!verify.clean())
    return "verifier reported " + std::to_string(verify.errors()) + " error(s)";
  if (lint.errors() != 0) return "lint reported " + std::to_string(lint.errors()) + " error(s)";
  return "";
}

std::string check_gathered(const dhpf::codegen::Store& gathered,
                           const dhpf::codegen::Store& oracle) {
  if (gathered.empty()) return "no gathered arrays";
  for (const auto& [arr, got] : gathered) {
    auto it = oracle.find(arr);
    if (it == oracle.end()) return "gathered array missing from the serial oracle";
    const std::vector<double>& want = it->second;
    if (got.size() != want.size())
      return "gathered array size " + std::to_string(got.size()) + " != oracle " +
             std::to_string(want.size());
    if (std::memcmp(got.data(), want.data(), got.size() * sizeof(double)) != 0) {
      for (std::size_t i = 0; i < got.size(); ++i)
        if (std::memcmp(&got[i], &want[i], sizeof(double)) != 0)
          return "gathered element " + std::to_string(i) + " differs from the serial oracle";
    }
  }
  return "";
}

std::vector<std::string> case_verdicts(const dhpf::fuzz::CampaignReport& report, int requested) {
  std::vector<std::string> out(static_cast<std::size_t>(requested));
  for (int i = report.cases; i < requested; ++i)
    out[static_cast<std::size_t>(i)] = "case not run: the campaign reported " +
                                       std::to_string(report.cases) + " of " +
                                       std::to_string(requested);
  for (const auto& f : report.failures) {
    const std::string why = "case " + std::to_string(f.index) + ": " + f.failure.to_string();
    if (f.index >= 0 && f.index < requested) out[static_cast<std::size_t>(f.index)] = why;
    else if (!out.empty()) out.front() = why;  // a failure the report cannot place
  }
  return out;
}

std::string response_payload(const dhpf::svc::Response& resp) {
  using dhpf::svc::Kind;
  switch (resp.kind) {
    case Kind::Compile: return resp.listing;
    case Kind::Verify: return resp.verify_json;
    case Kind::Model: return resp.model_json;
    case Kind::Tune: return resp.tune_json;
    case Kind::Lint: return resp.lint_json;
    case Kind::Stats: return "";
  }
  return "";
}

std::string check_zero_errors(const std::string& doc, const char* what) {
  try {
    const dhpf::json::Value v = dhpf::json::parse(doc);
    const dhpf::json::Value* e = v.find("errors");
    if (!e) return std::string(what) + " document has no errors field";
    if (e->number() != 0.0)
      return std::string(what) + " reported " + std::to_string(static_cast<long>(e->number())) +
             " error(s)";
  } catch (const std::exception& ex) {
    return std::string(what) + " document unreadable: " + ex.what();
  }
  return "";
}

std::string check_tune(const std::string& doc) {
  try {
    const dhpf::json::Value v = dhpf::json::parse(doc);
    const auto& variants = v.at("variants").items;
    const auto sel = static_cast<std::size_t>(v.at("selected").number());
    const auto def = static_cast<std::size_t>(v.at("default_index").number());
    if (sel >= variants.size() || def >= variants.size()) return "tune index out of range";
    const dhpf::json::Value* ms = variants[sel].find("measured_seconds");
    const dhpf::json::Value* md = variants[def].find("measured_seconds");
    if (!ms || !md) return "tune selection or default not measured";
    if (ms->number() > md->number()) return "tune selection slower than the default variant";
  } catch (const std::exception& ex) {
    return std::string("tune document unreadable: ") + ex.what();
  }
  return "";
}

std::string ResponseChecker::check(const std::string& key, const dhpf::svc::Response& resp) {
  using dhpf::svc::Kind;
  if (!resp.ok)
    return std::string("response error ") + dhpf::svc::to_string(resp.code) + ": " + resp.error;
  const std::string payload = response_payload(resp);
  if (payload.empty()) return "response carries no payload";
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto [it, fresh] = ref_.emplace(key, payload);
    if (!fresh && it->second != payload) return "payload differs from the first response for " + key;
  }
  if (resp.kind == Kind::Verify) return check_zero_errors(payload, "verify");
  if (resp.kind == Kind::Lint) return check_zero_errors(payload, "lint");
  if (resp.kind == Kind::Tune) return check_tune(payload);
  return "";
}

std::map<std::string, std::string> ResponseChecker::references() const {
  std::lock_guard<std::mutex> lk(mu_);
  return ref_;
}

}  // namespace perfbench
