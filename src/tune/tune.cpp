#include "tune/tune.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "support/diagnostics.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "verify/verify.hpp"

namespace dhpf::tune {

namespace {

/// Predicted wall for the tuner's execution backend: the shm formula
/// (barriers + shared reads) when measuring on shm, the message-passing
/// formula otherwise.
double predicted_wall_for(const model::Prediction& pred, const model::ModelParams& params,
                          exec::Backend backend) {
  return backend == exec::Backend::Shm ? pred.wall_shm(params) : pred.wall(params);
}

}  // namespace

std::vector<VariantSpec> enumerate_variants() {
  const std::pair<cp::PrivMode, const char*> priv_modes[] = {
      {cp::PrivMode::Propagate, "propagate"},
      {cp::PrivMode::Replicate, "replicate"},
      {cp::PrivMode::OwnerComputes, "owner"},
  };
  const cp::SelectOptions def_s;
  const comm::CommOptions def_c;
  std::vector<VariantSpec> out;
  for (const auto& [pm, pm_name] : priv_modes)
    for (bool localize : {true, false})
      for (bool cs : {true, false})
        for (bool avail : {true, false})
          for (bool coalesce : {true, false}) {
            VariantSpec v;
            v.sopt.priv_mode = pm;
            v.sopt.localize = localize;
            v.sopt.comm_sensitive = cs;
            v.copt.data_availability = avail;
            v.copt.coalesce = coalesce;
            std::ostringstream name;
            name << "priv=" << pm_name << " localize=" << (localize ? "on" : "off")
                 << " cs=" << (cs ? "on" : "off") << " avail=" << (avail ? "on" : "off")
                 << " coalesce=" << (coalesce ? "on" : "off");
            v.name = name.str();
            v.is_default = pm == def_s.priv_mode && localize == def_s.localize &&
                           cs == def_s.comm_sensitive && avail == def_c.data_availability &&
                           coalesce == def_c.coalesce;
            out.push_back(std::move(v));
          }
  return out;
}

const VariantResult& TuneReport::best() const {
  require(selected >= 0 && static_cast<std::size_t>(selected) < ranked.size(), "tune",
          "no variant selected");
  return ranked[static_cast<std::size_t>(selected)];
}

TuneReport tune(const hpf::Program& prog, const TuneOptions& opt) {
  obs::ScopedTimer timer("tune.run");

  std::vector<VariantResult> usable, pruned;
  for (const VariantSpec& spec : enumerate_variants()) {
    DHPF_COUNTER("tune.variants_enumerated");
    VariantResult r;
    r.spec = spec;
    try {
      codegen::CompileResult compiled = codegen::compile(prog, spec.sopt, spec.copt);
      if (opt.verify) {
        const verify::CompiledPlan bound = verify::bind(prog, compiled.cps, compiled.plan);
        const verify::Report rep = verify::check(bound);
        if (!rep.clean()) {
          r.verified_clean = false;
          std::ostringstream os;
          os << rep.errors() << " verifier error(s)";
          r.note = os.str();
        }
      }
      r.prediction = model::predict(prog, compiled.cps, compiled.plan, opt.machine,
                                    opt.xopt.flops_per_instance);
      r.predicted_wall = predicted_wall_for(r.prediction, opt.params, opt.xopt.backend);
    } catch (const dhpf::Error& e) {
      r.compiled = false;
      r.note = e.what();
    }
    if (r.usable()) {
      usable.push_back(std::move(r));
    } else {
      DHPF_COUNTER("tune.variants_pruned");
      pruned.push_back(std::move(r));
    }
  }
  require(!usable.empty() || !pruned.empty(), "tune", "no variants enumerated");
  require(!usable.empty(), "tune", "every variant was pruned");

  std::stable_sort(usable.begin(), usable.end(),
                   [](const VariantResult& a, const VariantResult& b) {
                     return a.predicted_wall < b.predicted_wall;
                   });

  TuneReport report;
  report.ranked = std::move(usable);
  for (std::size_t i = 0; i < report.ranked.size(); ++i)
    if (report.ranked[i].spec.is_default) report.default_index = static_cast<int>(i);

  // Measure the top-k predicted variants plus, always, the default flags:
  // selecting by best measured time over a set containing the default makes
  // "selected <= default" hold by construction.
  std::set<std::size_t> to_measure;
  for (std::size_t i = 0; i < report.ranked.size() &&
                          to_measure.size() < static_cast<std::size_t>(std::max(0, opt.measure_top_k));
       ++i)
    to_measure.insert(i);
  if (report.default_index >= 0)
    to_measure.insert(static_cast<std::size_t>(report.default_index));

  codegen::SpmdOptions xopt = opt.xopt;
  xopt.verify = false;  // measured confirmations time the plan, not the data
  for (std::size_t i : to_measure) {
    VariantResult& r = report.ranked[i];
    DHPF_COUNTER("tune.variants_measured");
    codegen::CompileResult compiled = codegen::compile(prog, r.spec.sopt, r.spec.copt);
    const codegen::SpmdResult run =
        codegen::run_spmd(prog, compiled.cps, compiled.plan, opt.machine, xopt);
    r.measured_seconds = run.seconds();
    if (r.measured_seconds > 0.0)
      r.rel_error = std::fabs(r.predicted_wall - r.measured_seconds) / r.measured_seconds;
  }

  for (std::size_t i = 0; i < report.ranked.size(); ++i) {
    const VariantResult& r = report.ranked[i];
    if (r.measured_seconds < 0.0) continue;
    if (report.selected < 0 ||
        r.measured_seconds <
            report.ranked[static_cast<std::size_t>(report.selected)].measured_seconds)
      report.selected = static_cast<int>(i);
  }
  if (report.selected < 0) report.selected = 0;  // nothing measured: best predicted

  for (auto& r : pruned) report.ranked.push_back(std::move(r));
  // Appending pruned variants cannot invalidate the indices above, but the
  // default may itself have been pruned; keep default_index meaningful.
  if (report.default_index < 0)
    for (std::size_t i = 0; i < report.ranked.size(); ++i)
      if (report.ranked[i].spec.is_default) report.default_index = static_cast<int>(i);

  return report;
}

model::Calibration calibrate_program(const hpf::Program& prog, const TuneOptions& opt) {
  obs::ScopedTimer timer("tune.calibrate");
  // One variant per axis flipped off the default, plus the default itself:
  // enough spread to separate the three parameters without measuring the
  // whole cross product.
  std::vector<VariantSpec> variants;
  for (const VariantSpec& v : enumerate_variants()) {
    int off_axes = 0;
    const cp::SelectOptions ds;
    const comm::CommOptions dc;
    if (v.sopt.priv_mode != ds.priv_mode) ++off_axes;
    if (v.sopt.localize != ds.localize) ++off_axes;
    if (v.sopt.comm_sensitive != ds.comm_sensitive) ++off_axes;
    if (v.copt.data_availability != dc.data_availability) ++off_axes;
    if (v.copt.coalesce != dc.coalesce) ++off_axes;
    if (off_axes <= 1) variants.push_back(v);
  }

  codegen::SpmdOptions xopt = opt.xopt;
  xopt.verify = false;
  const bool shm_backend = opt.xopt.backend == exec::Backend::Shm;
  std::vector<model::Sample> samples;
  for (const VariantSpec& v : variants) {
    try {
      codegen::CompileResult compiled = codegen::compile(prog, v.sopt, v.copt);
      const model::Prediction pred = model::predict(prog, compiled.cps, compiled.plan,
                                                    opt.machine, xopt.flops_per_instance);
      const codegen::SpmdResult run =
          codegen::run_spmd(prog, compiled.cps, compiled.plan, opt.machine, xopt);
      model::Sample s;
      s.label = v.name;
      s.compute_seconds = pred.compute_seconds_critical;
      // The generic 3-column fit prices (C, count, bytes); on shm the count
      // column holds barrier episodes and the bytes column critical shared
      // bytes, matching the wall_shm formula term for term.
      s.messages = shm_backend ? static_cast<double>(pred.barrier_episodes)
                               : pred.critical_messages;
      s.bytes = shm_backend ? pred.critical_shared_bytes : pred.critical_bytes;
      s.measured_seconds = run.seconds();
      if (s.measured_seconds > 0.0) samples.push_back(std::move(s));
    } catch (const dhpf::Error&) {
      // A variant that fails to compile or run contributes no equation.
    }
  }
  model::Calibration cal =
      model::fit(samples, model::ModelParams::from_machine(opt.machine));
  if (shm_backend) {
    // fit() solved for (gamma, per-count, per-byte) over the shm columns:
    // what it calls alpha/beta are really delta/sigma. Move them over and
    // restore the message-passing prices to defaults — this run carries no
    // evidence about those.
    cal.params.delta = cal.params.alpha;
    cal.params.sigma = cal.params.beta;
    cal.params.alpha = cal.defaults.alpha;
    cal.params.beta = cal.defaults.beta;
  }
  return cal;
}

std::string TuneReport::to_string() const {
  std::ostringstream os;
  std::size_t usable = 0;
  for (const auto& r : ranked)
    if (r.usable()) ++usable;
  os << "autotuner: " << ranked.size() << " variants, " << usable << " usable, selected ["
     << selected << "] " << best().spec.name << "\n";
  os << "  rank | predicted s | measured s | rel.err | variant\n";
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    const VariantResult& r = ranked[i];
    char pred[32], meas[32], err[32];
    std::snprintf(pred, sizeof pred, "%11.6f", r.predicted_wall);
    if (r.measured_seconds >= 0.0)
      std::snprintf(meas, sizeof meas, "%10.6f", r.measured_seconds);
    else
      std::snprintf(meas, sizeof meas, "%10s", "-");
    if (r.rel_error >= 0.0)
      std::snprintf(err, sizeof err, "%6.1f%%", 100.0 * r.rel_error);
    else
      std::snprintf(err, sizeof err, "%7s", "-");
    os << "  " << (static_cast<int>(i) == selected ? "*" : " ");
    char idx[24];
    std::snprintf(idx, sizeof idx, "%3zu", i);
    os << idx << " | " << pred << " | " << meas << " | " << err << " | " << r.spec.name
       << (r.spec.is_default ? " [default]" : "");
    if (!r.usable()) os << "  (pruned: " << r.note << ")";
    os << "\n";
  }
  return os.str();
}

std::string TuneReport::to_json() const {
  json::Writer w(false);
  w.begin_object();
  w.member("selected", selected);
  w.member("default_index", default_index);
  w.member("selected_variant", best().spec.name);
  w.key("variants");
  w.begin_array();
  for (const auto& r : ranked) {
    w.begin_object();
    w.member("name", r.spec.name);
    w.member("default", r.spec.is_default);
    w.member("usable", r.usable());
    if (!r.note.empty()) w.member("note", r.note);
    w.member("predicted_wall_seconds", r.predicted_wall);
    w.member("predicted_comm_bytes", static_cast<std::uint64_t>(r.prediction.bytes));
    w.member("predicted_messages", static_cast<std::uint64_t>(r.prediction.messages));
    if (r.measured_seconds >= 0.0) {
      w.member("measured_seconds", r.measured_seconds);
      w.member("rel_error", r.rel_error);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace dhpf::tune
