#include "fuzz/diff.hpp"

#include "lint/lint.hpp"

#include <algorithm>
#include <cstring>
#include <set>
#include <sstream>
#include <vector>

#include "codegen/spmd.hpp"
#include "comm/comm.hpp"
#include "cp/select.hpp"
#include "fuzz/rng.hpp"
#include "hpf/parser.hpp"
#include "model/model.hpp"
#include "exec/machine.hpp"
#include "support/diagnostics.hpp"
#include "tune/tune.hpp"
#include "verify/plan.hpp"
#include "verify/verify.hpp"

namespace dhpf::fuzz {

const char* to_string(FailKind k) {
  switch (k) {
    case FailKind::None: return "none";
    case FailKind::ParseError: return "parse-error";
    case FailKind::SerialError: return "serial-error";
    case FailKind::CompileError: return "compile-error";
    case FailKind::VerifyFail: return "verify-fail";
    case FailKind::RunError: return "run-error";
    case FailKind::SimMismatch: return "sim-mismatch";
    case FailKind::MpMismatch: return "mp-mismatch";
    case FailKind::ShmMismatch: return "shm-mismatch";
    case FailKind::ModelCommMismatch: return "model-comm-mismatch";
    case FailKind::LintFalsePositive: return "lint-false-positive";
  }
  return "?";
}

std::string Failure::signature() const {
  std::string s = fuzz::to_string(kind);
  if (!variant.empty()) s += " | " + variant;
  if (!shape.empty()) s += " | " + shape;
  return s;
}

std::string Failure::to_string() const {
  std::string s = signature();
  if (!detail.empty()) s += "\n  " + detail;
  return s;
}

namespace {

bool bit_equal(double a, double b) {
  std::uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof a);
  std::memcpy(&ub, &b, sizeof b);
  return ua == ub;
}

std::string shape_string(const hpf::ProcGrid& g) {
  std::string s = g.name + "(";
  for (std::size_t i = 0; i < g.extents.size(); ++i) {
    if (i) s += ", ";
    s += std::to_string(g.extents[i]);
  }
  return s + ")";
}

/// First bitwise difference between the SPMD owner copies and the serial
/// oracle over the distributed arrays, rendered as a witness ("" if none).
std::string first_difference(const hpf::Program& prog, const codegen::Store& serial,
                             const codegen::Store& gathered) {
  for (const auto& a : prog.arrays()) {
    if (!a->distributed()) continue;
    const auto si = serial.find(a.get());
    const auto gi = gathered.find(a.get());
    if (si == serial.end() || gi == gathered.end()) return a->name + ": missing store";
    for (std::size_t f = 0; f < si->second.size(); ++f) {
      if (bit_equal(si->second[f], gi->second[f])) continue;
      std::ostringstream os;
      os.precision(17);
      os << a->name << "[flat " << f << "]: serial=" << si->second[f]
         << " spmd=" << gi->second[f];
      return os.str();
    }
  }
  return "";
}

/// Deterministic pick of `n` distinct variant indices (always containing the
/// default variant).
std::vector<std::size_t> pick_variants(const std::vector<tune::VariantSpec>& variants,
                                       std::size_t n, Rng& rng) {
  std::set<std::size_t> chosen;
  for (std::size_t i = 0; i < variants.size(); ++i)
    if (variants[i].is_default) chosen.insert(i);
  while (chosen.size() < n && chosen.size() < variants.size())
    chosen.insert(static_cast<std::size_t>(
        rng.pick(0, static_cast<int>(variants.size()) - 1)));
  return {chosen.begin(), chosen.end()};
}

}  // namespace

DiffOptions corpus_options() {
  DiffOptions opt;
  opt.variants_per_extra_shape = 1 << 20;  // everything
  opt.mp_variants = 3;
  opt.shm_variants = 3;
  return opt;
}

DiffResult run_differential(const std::string& source, std::uint64_t seed,
                            const DiffOptions& opt) {
  DiffResult res;
  auto fail = [&](FailKind kind, std::string variant, std::string shape,
                  std::string detail) {
    res.ok = false;
    res.failure = Failure{kind, std::move(variant), std::move(shape), std::move(detail)};
    return res;
  };

  // Shape list: the program's own grid shape first, then distinct candidates.
  std::vector<std::vector<int>> shapes;
  {
    hpf::Program probe;
    try {
      probe = hpf::parse(source);
    } catch (const dhpf::Error& e) {
      return fail(FailKind::ParseError, "", "", e.what());
    }
    require(!probe.grids().empty(), "fuzz", "program has no processor grid");
    const auto& own = probe.grids().front()->extents;
    shapes.push_back(own);
    for (const auto& cand : candidate_grid_shapes(static_cast<int>(own.size()))) {
      if (static_cast<int>(shapes.size()) >= opt.shapes) break;
      if (cand != own) shapes.push_back(cand);
    }
  }

  const std::vector<tune::VariantSpec> variants = tune::enumerate_variants();
  const exec::Machine machine = exec::Machine::sp2();

  for (std::size_t si = 0; si < shapes.size(); ++si) {
    // Fresh parse per shape: result stores are keyed by Array*, so the
    // serial oracle and every SPMD run of a shape must share one Program.
    hpf::Program prog = hpf::parse(source);
    prog.grids().front()->extents = shapes[si];
    const std::string shape = shape_string(*prog.grids().front());

    codegen::Store serial;
    try {
      serial = codegen::interpret_serial(prog);
    } catch (const dhpf::Error& e) {
      return fail(FailKind::SerialError, "", shape, e.what());
    }

    if (opt.check_lint) {
      // Error-severity lint findings carry exact witnesses, so any error on
      // a program the serial oracle just executed is a lint false positive.
      const lint::Report lrep = lint::run(prog);
      if (lrep.errors() > 0) {
        std::string detail;
        for (const auto& d : lrep.diagnostics) {
          if (d.severity != lint::Severity::Error) continue;
          detail = d.to_string();
          break;
        }
        return fail(FailKind::LintFalsePositive, "", shape, detail);
      }
    }

    // Variant sub-sampling is seeded per (case, shape) — deterministic, and
    // rotating with the case seed so a campaign covers the full cross
    // product on every shape.
    Rng shape_rng(seed ^ (0x9e3779b97f4a7c15ull * (si + 1)));
    std::vector<std::size_t> indices;
    if (si == 0) {
      for (std::size_t v = 0; v < variants.size(); ++v) indices.push_back(v);
    } else {
      indices = pick_variants(variants,
                              static_cast<std::size_t>(opt.variants_per_extra_shape),
                              shape_rng);
    }
    const std::vector<std::size_t> mp_picks =
        opt.run_mp
            ? pick_variants(variants, static_cast<std::size_t>(opt.mp_variants), shape_rng)
            : std::vector<std::size_t>{};
    // Drawn after mp_picks from the same stream: an independent rotation, so
    // shm coverage drifts across different variants than mp over a campaign.
    const std::vector<std::size_t> shm_picks =
        opt.run_shm
            ? pick_variants(variants, static_cast<std::size_t>(opt.shm_variants), shape_rng)
            : std::vector<std::size_t>{};

    for (std::size_t vi : indices) {
      const tune::VariantSpec& variant = variants[vi];
      ++res.plans_checked;

      cp::CpResult cps;
      comm::CommPlan plan;
      try {
        cps = cp::select_cps(prog, variant.sopt);
        plan = comm::generate_comm(prog, cps, variant.copt);
      } catch (const dhpf::Error& e) {
        return fail(FailKind::CompileError, variant.name, shape, e.what());
      }

      // Static verification of every compiled plan.
      {
        verify::CompiledPlan bound = verify::bind(prog, cps, plan);
        const verify::Report report = verify::check(bound);
        if (!report.clean()) {
          std::string detail;
          for (const auto& d : report.diagnostics)
            if (d.severity == verify::Severity::Error) {
              detail = d.to_string();
              break;
            }
          return fail(FailKind::VerifyFail, variant.name, shape, detail);
        }
      }

      // Simulator run, bit-for-bit against the serial oracle.
      codegen::SpmdOptions xopt;
      xopt.backend = exec::Backend::Sim;
      xopt.verify = false;  // the bitwise comparison below subsumes it
      xopt.collect_result = true;
      codegen::SpmdResult sim_run;
      try {
        sim_run = codegen::run_spmd(prog, cps, plan, machine, xopt);
      } catch (const dhpf::Error& e) {
        return fail(FailKind::RunError, variant.name, shape, e.what());
      }
      ++res.sim_runs;
      if (std::string diff = first_difference(prog, serial, sim_run.gathered);
          !diff.empty())
        return fail(FailKind::SimMismatch, variant.name, shape, diff);

      // Model cross-check: predicted comm volume must equal the simulator's
      // measured volume exactly.
      if (opt.check_model) {
        const model::Prediction pred =
            model::predict(prog, cps, plan, machine, xopt.flops_per_instance);
        if (pred.messages != sim_run.messages || pred.bytes != sim_run.bytes) {
          std::ostringstream os;
          os << "model messages=" << pred.messages << " bytes=" << pred.bytes
             << " vs sim messages=" << sim_run.messages << " bytes=" << sim_run.bytes;
          return fail(FailKind::ModelCommMismatch, variant.name, shape, os.str());
        }
      }

      // mp backend on the seeded rotation.
      if (opt.run_mp &&
          std::find(mp_picks.begin(), mp_picks.end(), vi) != mp_picks.end()) {
        codegen::SpmdOptions mopt = xopt;
        mopt.backend = exec::Backend::Mp;
        codegen::SpmdResult mp_run;
        try {
          mp_run = codegen::run_spmd(prog, cps, plan, machine, mopt);
        } catch (const dhpf::Error& e) {
          return fail(FailKind::RunError, variant.name + " [mp]", shape, e.what());
        }
        ++res.mp_runs;
        if (std::string diff = first_difference(prog, serial, mp_run.gathered);
            !diff.empty())
          return fail(FailKind::MpMismatch, variant.name, shape, diff);
      }

      // shm backend on its own seeded rotation: real threads over one shared
      // address space, still bit-for-bit against the serial oracle.
      if (opt.run_shm &&
          std::find(shm_picks.begin(), shm_picks.end(), vi) != shm_picks.end()) {
        codegen::SpmdOptions sopt_ = xopt;
        sopt_.backend = exec::Backend::Shm;
        codegen::SpmdResult shm_run;
        try {
          shm_run = codegen::run_spmd(prog, cps, plan, machine, sopt_);
        } catch (const dhpf::Error& e) {
          return fail(FailKind::RunError, variant.name + " [shm]", shape, e.what());
        }
        ++res.shm_runs;
        if (std::string diff = first_difference(prog, serial, shm_run.gathered);
            !diff.empty())
          return fail(FailKind::ShmMismatch, variant.name, shape, diff);
        // The model's shm aggregates are exact by construction: barrier
        // episodes and shared-read bytes must match the runtime's counters.
        if (opt.check_model) {
          const model::Prediction pred =
              model::predict(prog, cps, plan, machine, xopt.flops_per_instance);
          if (pred.barrier_episodes != shm_run.barriers ||
              static_cast<std::size_t>(pred.bytes) != shm_run.shared_read_bytes) {
            std::ostringstream os;
            os << "model barriers=" << pred.barrier_episodes
               << " shared bytes=" << pred.bytes
               << " vs shm barriers=" << shm_run.barriers
               << " shared bytes=" << shm_run.shared_read_bytes;
            return fail(FailKind::ModelCommMismatch, variant.name + " [shm]", shape,
                        os.str());
          }
        }
      }
    }
  }
  return res;
}

}  // namespace dhpf::fuzz
