#include "lint/lint.hpp"

#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "analysis/dependence.hpp"
#include "analysis/sets.hpp"
#include "hpf/parser.hpp"
#include "support/diagnostics.hpp"
#include "support/metrics.hpp"
#include "trace/trace.hpp"

namespace dhpf::lint {

using analysis::IterSpace;
using analysis::iteration_space;
using analysis::subscript_expr;
using analysis::subscript_map;
using hpf::Loop;
using hpf::Ref;
using hpf::Stmt;
using hpf::StmtPtr;
using iset::BasicSet;
using iset::Constraint;
using iset::i64;
using iset::LinExpr;
using iset::Params;
using iset::Set;

namespace {

/// One array reference with the loop nest enclosing it (outermost first).
struct RefUse {
  const Ref* ref = nullptr;
  std::vector<const Loop*> path;
  bool write = false;
};

/// All assignment references lexically inside one statement subtree.
/// `base` is prepended to every path (loops enclosing `top`).
void collect_refs(const Stmt& top, const std::vector<const Loop*>& base,
                  std::vector<RefUse>& out) {
  if (top.is_assign()) {
    const auto& a = top.assign();
    out.push_back(RefUse{&a.lhs, base, true});
    for (const auto& r : a.rhs) out.push_back(RefUse{&r, base, false});
    return;
  }
  if (!top.is_loop()) return;
  std::vector<const Loop*> inner = base;
  inner.push_back(&top.loop());
  hpf::walk(top.loop().body, [&](Stmt& s, const std::vector<const Loop*>& rel) {
    if (!s.is_assign()) return;
    std::vector<const Loop*> full = inner;
    full.insert(full.end(), rel.begin(), rel.end());
    const auto& a = s.assign();
    out.push_back(RefUse{&a.lhs, full, true});
    for (const auto& r : a.rhs) out.push_back(RefUse{&r, full, false});
  });
}

/// Every subscript variable of `ref` bound by the enclosing loops?
bool subscripts_bound(const IterSpace& is, const Ref& ref) {
  for (const auto& sub : ref.subs)
    for (const auto& [name, c] : sub.coef) {
      if (c == 0) continue;
      bool found = false;
      for (const auto& v : is.var_names) found = found || v == name;
      if (!found) return false;
    }
  return true;
}

/// Element set of a reference: image of its iteration space under the
/// subscript map (exact).
Set elem_set(const RefUse& u, const Params& params) {
  const IterSpace is = iteration_space(u.path, params);
  return Set(is.bounds).apply(subscript_map(is, u.ref->subs, params));
}

std::map<std::string, long> env_of(const std::vector<std::string>& names,
                                   const std::vector<i64>& vals) {
  std::map<std::string, long> env;
  for (std::size_t i = 0; i < names.size() && i < vals.size(); ++i)
    env[names[i]] = static_cast<long>(vals[i]);
  return env;
}

// ------------------------------------------------------- DHPF-L001 races

void check_races(const hpf::Procedure& proc, Report& rep) {
  hpf::walk(proc.body, [&](Stmt& s, const std::vector<const Loop*>& path) {
    if (!s.is_loop() || !s.loop().independent) return;
    const Loop& loop = s.loop();
    ++rep.checks_run;
    std::vector<analysis::RefDep> deps;
    try {
      deps = analysis::ref_dependences_in_loop(loop, path);
    } catch (const dhpf::Error&) {
      return;  // malformed nest; the compiler proper reports it
    }
    std::set<std::string> declared(loop.new_vars.begin(), loop.new_vars.end());
    declared.insert(loop.localize_vars.begin(), loop.localize_vars.end());
    // One finding per unordered reference pair per array.
    std::set<std::tuple<const Ref*, const Ref*, const hpf::Array*>> seen;
    for (const auto& d : deps) {
      if (d.loop_independent || d.carried_level != 0) continue;
      if (declared.count(d.array->name)) continue;
      const Ref* lo = d.src_ref < d.dst_ref ? d.src_ref : d.dst_ref;
      const Ref* hi = d.src_ref < d.dst_ref ? d.dst_ref : d.src_ref;
      if (!seen.insert({lo, hi, d.array}).second) continue;
      DHPF_COUNTER("lint.race_candidates");
      Diagnostic diag;
      diag.code = Code::StaticRace;
      diag.loc = loop.loc;
      diag.array = d.array->name;
      std::ostringstream msg;
      msg << "loop '" << loop.var << "' is marked INDEPENDENT but carries a "
          << analysis::to_string(d.kind) << " dependence on '" << d.array->name << "' between "
          << d.src_ref->to_string() << " (" << d.src_ref->loc.to_string() << ") and "
          << d.dst_ref->to_string() << " (" << d.dst_ref->loc.to_string() << ")";
      const auto pt = d.system.sample({});
      if (pt) {
        const std::size_t na = d.src_vars.size();
        diag.severity = Severity::Error;
        diag.witness.iter_names = d.src_vars;
        diag.witness.iter.assign(pt->begin(), pt->begin() + static_cast<long>(na));
        diag.witness.iter2.assign(pt->begin() + static_cast<long>(na), pt->end());
        diag.witness.has_iter = diag.witness.has_iter2 = true;
        const auto env = env_of(d.src_vars, diag.witness.iter);
        for (const auto& sub : d.src_ref->subs) diag.witness.element.push_back(sub.eval(env));
        diag.witness.has_element = true;
      } else {
        diag.severity = Severity::Warning;
        msg << " (dependence system non-empty rationally; no integer witness found)";
      }
      diag.message = msg.str();
      rep.diagnostics.push_back(std::move(diag));
    }
  });
}

// ----------------------------------------------- DHPF-L002 uninit reads

void check_uninit_reads(const hpf::Program& prog, const hpf::Procedure& proc, Report& rep) {
  const Params params;
  std::set<const hpf::Array*> called;  // arrays passed to calls: unknown writes
  hpf::walk(proc.body, [&](Stmt& s, const std::vector<const Loop*>&) {
    if (s.is_call())
      for (const auto& a : s.call().args) called.insert(a.array);
  });
  for (const auto& arr : prog.arrays()) {
    if (!arr->local_scratch || called.count(arr.get())) continue;
    ++rep.checks_run;
    const std::size_t rank = arr->extents.size();
    Set written = Set::empty(rank, params);
    bool gave_up = false;
    for (const auto& sp : proc.body) {
      if (gave_up) break;
      std::vector<RefUse> uses;
      collect_refs(*sp, {}, uses);
      // Temporal collapse within one top-level subtree: assume every write
      // in the subtree may precede every read in it. Unsound toward missed
      // reports, never toward false positives (lint.hpp header).
      Set subtree_writes = Set::empty(rank, params);
      std::vector<std::pair<const Ref*, Set>> reads;
      try {
        for (const auto& u : uses) {
          if (u.ref->array != arr.get()) continue;
          const IterSpace is = iteration_space(u.path, params);
          if (!subscripts_bound(is, *u.ref)) throw dhpf::Error("lint", "unbound subscript");
          Set es = elem_set(u, params);
          if (u.write)
            subtree_writes = subtree_writes.unite(es);
          else
            reads.emplace_back(u.ref, std::move(es));
        }
      } catch (const dhpf::Error&) {
        gave_up = true;  // malformed subtree; stay silent for this array
        break;
      }
      const Set covered = written.unite(subtree_writes);
      for (const auto& [ref, es] : reads) {
        const Set uninit = es.subtract(covered);
        if (uninit.is_empty()) continue;
        DHPF_COUNTER("lint.uninit_candidates");
        Diagnostic diag;
        diag.code = Code::UninitRead;
        diag.loc = ref->loc;
        diag.array = arr->name;
        std::ostringstream msg;
        msg << "read of local array '" << arr->name << "' at " << ref->to_string()
            << " before any statement writes it";
        const auto pt = uninit.sample({});
        if (pt) {
          diag.severity = Severity::Error;
          diag.witness.element = *pt;
          diag.witness.has_element = true;
        } else {
          diag.severity = Severity::Warning;
          msg << " (uncovered read set non-empty rationally; no integer witness found)";
        }
        diag.message = msg.str();
        rep.diagnostics.push_back(std::move(diag));
      }
      written = covered;
    }
  }
}

// ------------------------------------------------ DHPF-L003 out of bounds

void check_bounds(const hpf::Procedure& proc, Report& rep) {
  const Params params;
  auto check_ref = [&](const Ref& ref, const std::vector<const Loop*>& path) {
    if (!ref.array) return;
    std::optional<IterSpace> iso;
    try {
      iso.emplace(iteration_space(path, params));
    } catch (const dhpf::Error&) {
      return;
    }
    const IterSpace& is = *iso;
    if (!subscripts_bound(is, ref)) return;
    for (std::size_t d = 0; d < ref.subs.size() && d < ref.array->extents.size(); ++d) {
      ++rep.checks_run;
      const LinExpr e = subscript_expr(is, ref.subs[d], params);
      const int ext = ref.array->extents[d];
      // Two one-sided systems: sub <= -1 and sub >= extent, intersected
      // with the iteration bounds.
      for (int side = 0; side < 2; ++side) {
        BasicSet bad = is.bounds;
        if (side == 0)
          bad.add(Constraint::ge0(bad.expr_const(-1) - e));
        else
          bad.add(Constraint::ge0(e - bad.expr_const(ext)));
        if (bad.is_empty()) continue;
        DHPF_COUNTER("lint.bounds_candidates");
        Diagnostic diag;
        diag.code = Code::OutOfBounds;
        diag.loc = ref.loc;
        diag.array = ref.array->name;
        std::ostringstream msg;
        msg << "subscript " << d + 1 << " of " << ref.to_string() << " is out of bounds "
            << (side == 0 ? "(below 0)" : "(at or above the extent)") << " for array '"
            << ref.array->name << "' of extent " << ext;
        const auto pt = Set(bad).sample({});
        if (pt) {
          diag.severity = Severity::Error;
          diag.witness.iter_names = is.var_names;
          diag.witness.iter = *pt;
          diag.witness.has_iter = !pt->empty();
          const auto env = env_of(is.var_names, *pt);
          for (const auto& sub : ref.subs) diag.witness.element.push_back(sub.eval(env));
          diag.witness.has_element = true;
        } else {
          diag.severity = Severity::Warning;
          msg << " (bounds system non-empty rationally; no integer witness found)";
        }
        diag.message = msg.str();
        rep.diagnostics.push_back(std::move(diag));
      }
    }
  };
  hpf::walk(proc.body, [&](Stmt& s, const std::vector<const Loop*>& path) {
    if (s.is_assign()) {
      check_ref(s.assign().lhs, path);
      for (const auto& r : s.assign().rhs) check_ref(r, path);
    } else if (s.is_call()) {
      for (const auto& r : s.call().args) check_ref(r, path);
    }
  });
}

// -------------------------------------------------- DHPF-L004 dead stores

void check_dead_stores(const hpf::Program& prog, const hpf::Procedure& proc, Report& rep) {
  const Params params;
  std::set<const hpf::Array*> called;
  hpf::walk(proc.body, [&](Stmt& s, const std::vector<const Loop*>&) {
    if (s.is_call())
      for (const auto& a : s.call().args) called.insert(a.array);
  });
  // Per-subtree read/write element sets per array (kill granularity is the
  // top-level statement subtree).
  struct SubtreeSets {
    std::map<const hpf::Array*, Set> reads, writes;
    std::map<const hpf::Array*, const Ref*> first_write;
    bool ok = true;
  };
  std::vector<SubtreeSets> subs;
  for (const auto& sp : proc.body) {
    SubtreeSets ss;
    std::vector<RefUse> uses;
    collect_refs(*sp, {}, uses);
    try {
      for (const auto& u : uses) {
        const hpf::Array* a = u.ref->array;
        const IterSpace is = iteration_space(u.path, params);
        if (!subscripts_bound(is, *u.ref)) throw dhpf::Error("lint", "unbound subscript");
        Set es = elem_set(u, params);
        auto& slot = (u.write ? ss.writes : ss.reads);
        auto it = slot.find(a);
        if (it == slot.end())
          slot.emplace(a, std::move(es));
        else
          it->second = it->second.unite(es);
        if (u.write && !ss.first_write.count(a)) ss.first_write[a] = u.ref;
      }
    } catch (const dhpf::Error&) {
      ss.ok = false;
    }
    subs.push_back(std::move(ss));
  }
  for (const auto& arr : prog.arrays()) {
    if (called.count(arr.get())) continue;
    for (std::size_t i = 0; i < subs.size(); ++i) {
      if (!subs[i].ok) break;  // order matters; stop at the first bad subtree
      auto wi = subs[i].writes.find(arr.get());
      if (wi == subs[i].writes.end()) continue;
      if (subs[i].reads.count(arr.get())) continue;  // reads its own stores
      ++rep.checks_run;
      Set remaining = wi->second;
      bool live = false, killed = false;
      for (std::size_t j = i + 1; j < subs.size() && !live && !killed; ++j) {
        if (!subs[j].ok) {
          live = true;  // unknown accesses downstream: assume live
          break;
        }
        auto rj = subs[j].reads.find(arr.get());
        if (rj != subs[j].reads.end() && !rj->second.intersect(remaining).is_empty()) {
          live = true;
          break;
        }
        auto wj = subs[j].writes.find(arr.get());
        if (wj != subs[j].writes.end()) {
          remaining = remaining.subtract(wj->second);
          killed = remaining.is_empty();
        }
      }
      // A non-local array is live-out, so only a full overwrite kills it; a
      // local array's unread stores are dead by declaration.
      const bool dead = killed || (!live && arr->local_scratch);
      if (!dead) continue;
      DHPF_COUNTER("lint.dead_stores");
      Diagnostic diag;
      diag.code = Code::DeadStore;
      diag.severity = Severity::Warning;
      diag.loc = subs[i].first_write.at(arr.get())->loc;
      diag.array = arr->name;
      std::ostringstream msg;
      msg << "stores to '" << arr->name << "' are "
          << (killed ? "completely overwritten before any read"
                     : "never read (and the array is declared local)");
      diag.message = msg.str();
      const auto pt = wi->second.sample({});
      if (pt) {
        diag.witness.element = *pt;
        diag.witness.has_element = true;
      }
      rep.diagnostics.push_back(std::move(diag));
    }
  }
}

// ------------------------------------- DHPF-L005 / L006 distribution lints

void check_distribution(const hpf::Program& prog, Report& rep) {
  // L005: arrays BLOCK-distributed on one grid dimension must imply the
  // same template extent (extent + alignment offset) — analysis/sets.cpp
  // enforces this with a hard error; the lint reports it with locations.
  std::map<int, std::pair<const hpf::Array*, int>> extent_on_dim;  // grid dim -> (first, e)
  for (const auto& a : prog.arrays()) {
    if (!a->dist.grid) continue;
    for (std::size_t d = 0; d < a->dist.dims.size() && d < a->extents.size(); ++d) {
      const auto& dim = a->dist.dims[d];
      if (dim.kind != hpf::DistKind::Block) continue;
      ++rep.checks_run;
      const int e = a->extents[d] + a->dist.offset(d);
      auto [it, fresh] = extent_on_dim.try_emplace(dim.proc_dim, a.get(), e);
      if (!fresh && it->second.second != e) {
        Diagnostic diag;
        diag.code = Code::AlignConformance;
        diag.severity = Severity::Error;
        diag.loc = a->loc;
        diag.array = a->name;
        std::ostringstream msg;
        msg << "array '" << a->name << "' implies template extent " << e
            << " on grid dimension " << dim.proc_dim << ", but array '"
            << it->second.first->name << "' (" << it->second.first->loc.to_string()
            << ") implies " << it->second.second;
        diag.message = msg.str();
        rep.diagnostics.push_back(std::move(diag));
      }
      // L006: HPF BLOCK gives every rank ceil(e/p) elements; trailing ranks
      // may own nothing, which is legal but usually a mis-sized grid.
      const int p = a->dist.grid->extents[static_cast<std::size_t>(dim.proc_dim)];
      if (p > 1) {
        const int b = (e + p - 1) / p;
        const int used = (e + b - 1) / b;
        if (used < p) {
          Diagnostic diag;
          diag.code = Code::EmptyBlock;
          diag.severity = Severity::Warning;
          diag.loc = a->loc;
          diag.array = a->name;
          std::ostringstream msg;
          msg << "BLOCK distribution of '" << a->name << "' leaves " << p - used << " of " << p
              << " ranks empty on grid dimension " << dim.proc_dim << " (block size " << b
              << ", template extent " << e << ")";
          diag.message = msg.str();
          rep.diagnostics.push_back(std::move(diag));
        }
      }
    }
  }
}

// --------------------------------------- DHPF-L007 NEW/LOCALIZE conformance

void check_privatizable(const hpf::Program& prog, const hpf::Procedure& proc, Report& rep) {
  const Params params;
  hpf::walk(proc.body, [&](Stmt& s, const std::vector<const Loop*>& path) {
    if (!s.is_loop()) return;
    const Loop& loop = s.loop();
    auto unknown = [&](const std::string& n, const char* attr) {
      ++rep.checks_run;
      const hpf::Array* a = prog.find_array(n);
      if (a) return a;
      Diagnostic diag;
      diag.code = Code::NonPrivatizable;
      diag.severity = Severity::Error;
      diag.loc = loop.loc;
      diag.array = n;
      diag.message = std::string(attr) + " names unknown array '" + n + "'";
      rep.diagnostics.push_back(std::move(diag));
      return static_cast<const hpf::Array*>(nullptr);
    };
    for (const auto& n : loop.localize_vars) unknown(n, "LOCALIZE");
    for (const auto& n : loop.new_vars) {
      const hpf::Array* arr = unknown(n, "NEW");
      if (!arr) continue;
      // Per-iteration use/def gap, mirroring analysis::check_privatizable
      // but keeping the gap set for a witness. The def relation may be an
      // over-approximation for non-unit subscript coefficients, which only
      // shrinks the gap — a sampled gap point is always a true positive.
      const std::size_t keep = path.size() + 1;
      const std::size_t out_dims = keep + arr->extents.size();
      Set defs = Set::empty(out_dims, params);
      Set uses = Set::empty(out_dims, params);
      std::vector<const Loop*> base = path;
      base.push_back(&loop);
      bool ok = true;
      try {
        hpf::walk(loop.body, [&](Stmt& inner, const std::vector<const Loop*>& rel) {
          if (!inner.is_assign()) return;
          std::vector<const Loop*> full = base;
          full.insert(full.end(), rel.begin(), rel.end());
          const auto& a = inner.assign();
          auto relation = [&](const Ref& ref) {
            const IterSpace is = iteration_space(full, params);
            if (!subscripts_bound(is, ref)) throw dhpf::Error("lint", "unbound subscript");
            iset::AffineMap m(is.depth(), keep + ref.subs.size(), params);
            for (std::size_t d = 0; d < keep; ++d) m.out(d) = m.expr_var(d);
            for (std::size_t d = 0; d < ref.subs.size(); ++d)
              m.out(keep + d) = subscript_expr(is, ref.subs[d], params);
            return Set(is.bounds).apply(m);
          };
          if (a.lhs.array == arr) defs = defs.unite(relation(a.lhs));
          for (const auto& r : a.rhs)
            if (r.array == arr) uses = uses.unite(relation(r));
        });
      } catch (const dhpf::Error&) {
        ok = false;
      }
      if (!ok) continue;
      const Set gap = uses.subtract(defs);
      if (gap.is_empty()) continue;
      DHPF_COUNTER("lint.privatizable_gaps");
      Diagnostic diag;
      diag.code = Code::NonPrivatizable;
      diag.loc = loop.loc;
      diag.array = arr->name;
      std::ostringstream msg;
      msg << "NEW array '" << arr->name
          << "' is not privatizable in loop '" << loop.var
          << "': an iteration reads an element it did not first write";
      const auto pt = gap.sample({});
      if (pt) {
        diag.severity = Severity::Error;
        std::vector<std::string> names;
        for (const auto* l : base) names.push_back(l->var);
        diag.witness.iter_names = std::move(names);
        diag.witness.iter.assign(pt->begin(), pt->begin() + static_cast<long>(keep));
        diag.witness.has_iter = true;
        diag.witness.element.assign(pt->begin() + static_cast<long>(keep), pt->end());
        diag.witness.has_element = true;
      } else {
        diag.severity = Severity::Warning;
        msg << " (gap set non-empty rationally; no integer witness found)";
      }
      diag.message = msg.str();
      rep.diagnostics.push_back(std::move(diag));
    }
  });
}

}  // namespace

Report run(const hpf::Program& prog, const LintOptions& opt) {
  obs::ScopedTimer timer("lint.run");
  DHPF_TRACE_SPAN("lint.run", trace::Kind::Phase);
  Report rep;
  for (const auto& proc : prog.procedures()) {
    if (opt.check_race) check_races(*proc, rep);
    if (opt.check_uninit) check_uninit_reads(prog, *proc, rep);
    if (opt.check_bounds) check_bounds(*proc, rep);
    if (opt.check_dead_store) check_dead_stores(prog, *proc, rep);
    if (opt.check_privatizable) check_privatizable(prog, *proc, rep);
  }
  if (opt.check_distribution) check_distribution(prog, rep);
  rep.sort();
  return rep;
}

Report run_source(const std::string& source, const LintOptions& opt) {
  hpf::Program prog = hpf::parse(source);
  Report rep = run(prog, opt);
  add_snippets(rep, source);
  return rep;
}

}  // namespace dhpf::lint
