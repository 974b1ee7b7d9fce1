#include "comm/comm.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>

#include "analysis/sets.hpp"
#include "support/diagnostics.hpp"
#include "support/metrics.hpp"
#include "trace/trace.hpp"

namespace dhpf::comm {

using analysis::IterSpace;
using cp::CP;
using hpf::Array;
using hpf::Assign;
using hpf::Loop;
using hpf::Ref;
using iset::Params;
using iset::Set;

namespace {

std::size_t common_prefix(const std::vector<const Loop*>& a,
                          const std::vector<const Loop*>& b) {
  std::size_t d = 0;
  while (d < a.size() && d < b.size() && a[d] == b[d]) ++d;
  return d;
}

/// Relation { (outer_0..depth-1, element) : element touched through `ref`
/// on myid's iterations } minus ownership.
Set nonlocal_relation(const IterSpace& is, const Set& iters, const Ref& ref,
                      std::size_t depth, const Params& params) {
  iset::AffineMap m(is.depth(), depth + ref.subs.size(), params);
  for (std::size_t d = 0; d < depth; ++d) m.out(d) = m.expr_var(d);
  for (std::size_t d = 0; d < ref.subs.size(); ++d)
    m.out(depth + d) = analysis::subscript_expr(is, ref.subs[d], params);
  Set rel = iters.apply(m);

  // Extend the owned set with unconstrained outer dims, then subtract.
  const Set owned = analysis::owned_set(*ref.array, params);
  Set owned_ext(depth + ref.subs.size(), params);
  for (const auto& part : owned.parts()) {
    iset::BasicSet ext(depth + ref.subs.size(), params);
    for (const auto& c : part.constraints()) {
      iset::LinExpr e = iset::LinExpr::zero(depth + ref.subs.size(), params.size());
      for (std::size_t i = 0; i < ref.subs.size(); ++i) e.var[depth + i] = c.e.var[i];
      e.param = c.e.param;
      e.cst = c.e.cst;
      ext.add(iset::Constraint{std::move(e), c.is_eq});
    }
    owned_ext.add_part(std::move(ext));
  }
  return rel.subtract(owned_ext);
}

/// Non-local data over array dims only (fully vectorized) — the §7 sets.
Set nonlocal_global(const IterSpace& is, const Set& iters, const Ref& ref,
                    const Params& params) {
  return nonlocal_relation(is, iters, ref, 0, params);
}

/// All elements a reference can touch over its full iteration space,
/// regardless of processor — used to decide whether a writer is relevant to
/// a read's placement (disjoint component planes of the same array, e.g.
/// lhs(..,5) vs lhs(..,6), do not interact).
Set touched_data(const std::vector<const Loop*>& path, const Ref& ref,
                 const Params& params) {
  const IterSpace is = analysis::iteration_space(path, params);
  return Set(is.bounds).apply(analysis::subscript_map(is, ref.subs, params));
}

}  // namespace

std::string CommEvent::to_string() const {
  std::ostringstream out;
  out << (kind == EventKind::Fetch ? "fetch " : "writeback ") << array->name << " @S"
      << stmt_id << " depth=" << placement_depth;
  if (eliminated) out << " [ELIMINATED: " << note << "]";
  if (!eliminated && !note.empty()) out << " (" << note << ")";
  return out.str();
}

std::size_t CommPlan::active_fetches() const {
  std::size_t n = 0;
  for (const auto& e : events)
    if (e.kind == EventKind::Fetch && !e.eliminated) ++n;
  return n;
}

std::size_t CommPlan::eliminated_fetches() const {
  std::size_t n = 0;
  for (const auto& e : events)
    if (e.kind == EventKind::Fetch && e.eliminated) ++n;
  return n;
}

std::string CommPlan::to_string() const {
  std::ostringstream out;
  for (const auto& e : events) out << e.to_string() << "\n";
  return out.str();
}

CommPlan generate_comm(const hpf::Program& prog, const cp::CpResult& cps,
                       const CommOptions& opt) {
  obs::ScopedTimer timer("comm.generate");
  const Params params = analysis::make_params(prog);
  CommPlan plan;

  // Gather assign statements (in id order for stable output).
  std::vector<const cp::StmtCp*> assigns;
  for (const auto& [id, sc] : cps.stmts)
    if (sc.stmt->is_assign()) assigns.push_back(&sc);

  // Writers per array, for placement and for §7.
  std::map<const Array*, std::vector<const cp::StmtCp*>> writers;
  for (const auto* sc : assigns) writers[sc->stmt->assign().lhs.array].push_back(sc);

  // Sub-phase span: this section runs sequentially before the §7 and
  // coalescing phases, so an optional span (reset at the end) marks it
  // without introducing a scope around the existing loop.
  std::optional<trace::Span> phase;
  phase.emplace(std::string_view("comm.events"), trace::Kind::Phase);
  for (const cp::StmtCp* sc : assigns) {
    const Assign& a = sc->stmt->assign();
    const IterSpace is = analysis::iteration_space(sc->path, params);
    const Set iters = cp::iterations_on_home(is, sc->cp, params);

    // ---- fetches for the reads ------------------------------------------
    // Placement: outside every loop not shared with a writer of the array
    // (the values are available there), i.e. at the deepest common level
    // with any same-procedure writer.
    // Keyed by (array, placement depth): refs of one array can legitimately
    // land at different depths (a plane overlapping an in-nest writer needs
    // per-iteration placement, a read-only plane vectorizes fully), and a
    // per-array key would overwrite — i.e. silently drop — the first event
    // (found by the fuzz harness: tests/corpus/coalesce-depth-split.hpf).
    // Events flush in first-appearance (rhs) order, NOT map-key order: the
    // key holds a pointer, and pointer order is allocation order — compiling
    // the same program twice in one process would emit the same events in
    // different order (caught by the compile service's byte-equivalence
    // tests; the plan must be a pure function of source and options).
    std::map<std::pair<const Array*, int>, CommEvent> coalesced;
    std::vector<std::pair<const Array*, int>> coalesced_order;
    for (const auto& r : a.rhs) {
      if (!r.array->distributed()) continue;
      std::size_t depth = 0;
      const Set read_data = touched_data(sc->path, r, params);
      for (const auto* w : writers[r.array]) {
        // Only writers whose touched elements can overlap this read matter
        // (disjoint planes of a shared array don't interact). Self-writes
        // count too: a statement reading values its own loop produces in
        // earlier iterations needs per-iteration (pipelined) placement.
        const Set write_data =
            touched_data(w->path, w->stmt->assign().lhs, params);
        if (read_data.intersect(write_data).is_empty()) continue;
        depth = std::max(depth, common_prefix(w->path, sc->path));
        if (w == sc) depth = std::max(depth, sc->path.size());
      }
      depth = std::min(depth, sc->path.size());
      Set nl = nonlocal_relation(is, iters, r, depth, params);
      if (nl.is_empty()) continue;

      const std::pair<const Array*, int> key{r.array, static_cast<int>(depth)};
      if (opt.coalesce && coalesced.count(key)) {
        DHPF_COUNTER("comm.fetches_coalesced");
        coalesced[key].data = coalesced[key].data.unite(nl);
        coalesced[key].note += ", " + r.to_string();
        continue;
      }
      DHPF_COUNTER("comm.fetch_events");
      if (depth < sc->path.size()) DHPF_COUNTER("comm.messages_vectorized");
      CommEvent ev;
      ev.kind = EventKind::Fetch;
      ev.array = r.array;
      ev.stmt_id = a.id;
      ev.consumers = {a.id};
      ev.placement_depth = static_cast<int>(depth);
      ev.data = std::move(nl);
      ev.note = r.to_string();
      ev.path = sc->path;
      if (opt.coalesce) {
        coalesced[key] = std::move(ev);
        coalesced_order.push_back(key);
      } else {
        plan.events.push_back(std::move(ev));
      }
    }
    for (const auto& key : coalesced_order)
      plan.events.push_back(std::move(coalesced[key]));

    // ---- write-back for a non-owner write --------------------------------
    // Exception: when the statement's CP contains the owner-computes term
    // for its own left-hand side (the §4.2 partial-replication shape), the
    // owner executes every instance itself, so replicated boundary values
    // never need to be written back.
    bool owner_computes_included = false;
    {
      const cp::OnHomeTerm own = cp::OnHomeTerm::from_ref(a.lhs);
      for (const auto& t : sc->cp.terms)
        if (t == own) owner_computes_included = true;
    }
    if (a.lhs.array->distributed() && !owner_computes_included) {
      std::size_t depth = 0;
      const Set write_data = touched_data(sc->path, a.lhs, params);
      for (const auto* other : assigns) {
        const Assign& oa = other->stmt->assign();
        bool conflicts = false;
        for (const auto& r : oa.rhs)
          if (r.array == a.lhs.array &&
              !write_data.intersect(touched_data(other->path, r, params)).is_empty())
            conflicts = true;
        // Another statement overwriting elements this write-back carries is a
        // kill: the written-back value must arrive at the owner *before* the
        // overwrite, or a stale value clobbers the newer one. Keeping the
        // write-back inside every loop shared with the conflicting writer
        // preserves the serial store order (found by the fuzz harness:
        // tests/corpus/writeback-kill-order.hpf).
        if (other != sc && oa.lhs.array == a.lhs.array &&
            !write_data.intersect(touched_data(other->path, oa.lhs, params)).is_empty())
          conflicts = true;
        if (!conflicts) continue;
        depth = std::max(depth, common_prefix(other->path, sc->path));
        if (other == sc) depth = std::max(depth, sc->path.size());
      }
      depth = std::min(depth, sc->path.size());
      Set nlw = nonlocal_relation(is, iters, a.lhs, depth, params);
      if (!nlw.is_empty()) {
        DHPF_COUNTER("comm.writeback_events");
        CommEvent ev;
        ev.kind = EventKind::WriteBack;
        ev.array = a.lhs.array;
        ev.stmt_id = a.id;
        ev.consumers = {a.id};
        ev.placement_depth = static_cast<int>(depth);
        ev.data = std::move(nlw);
        ev.note = a.lhs.to_string();
        ev.path = sc->path;
        plan.events.push_back(std::move(ev));
      }
    }
  }
  phase.reset();

  // ---- §7 data availability --------------------------------------------
  if (opt.data_availability) {
    DHPF_TRACE_SPAN("comm.availability", trace::Kind::Phase);
    for (auto& ev : plan.events) {
      if (ev.kind != EventKind::Fetch) continue;
      // Last preceding write to this array (conservatively: the writer with
      // the greatest statement id not after the consumer; else the greatest
      // overall, for reads at the top of an iterative region).
      const cp::StmtCp* last = nullptr;
      for (const auto* w : writers[ev.array]) {
        const int wid = w->stmt->assign().id;
        if (wid == ev.stmt_id) continue;
        if (!last)
          last = w;
        else {
          const int lid = last->stmt->assign().id;
          const bool w_before = wid < ev.stmt_id, l_before = lid < ev.stmt_id;
          if ((w_before && (!l_before || wid > lid)) || (!w_before && !l_before && wid > lid))
            last = w;
        }
      }
      if (!last) continue;
      const Assign& la = last->stmt->assign();
      // The wrap-around case (writer later in program order than the read)
      // only describes a steady state: it needs an enclosing loop around
      // both statements to carry the written values into the next
      // iteration. Without one the read executes before the write ever
      // does, and eliminating its fetch drops communication of the initial
      // values (found by the fuzz harness: tests/corpus/avail-no-wrap.hpf).
      if (la.id > ev.stmt_id &&
          common_prefix(last->path, cps.stmts.at(ev.stmt_id).path) == 0)
        continue;
      const IterSpace lis = analysis::iteration_space(last->path, params);
      const Set liters = cp::iterations_on_home(lis, last->cp, params);
      const Set written = nonlocal_global(lis, liters, la.lhs, params);

      // The fetch's set over array dims only.
      const auto& csc = cps.stmts.at(ev.stmt_id);
      const IterSpace cis = analysis::iteration_space(csc.path, params);
      const Set citers = cp::iterations_on_home(cis, csc.cp, params);
      Set need(ev.array->extents.size(), params);
      {
        // Project the event's relation down to array dims by recomputing at
        // depth 0 from the consumer's own refs for this array.
        for (const auto& r : csc.stmt->assign().rhs)
          if (r.array == ev.array)
            need = need.unite(nonlocal_global(cis, citers, r, params));
      }
      if (!need.is_empty() && need.subset_of(written)) {
        DHPF_COUNTER("comm.availability_eliminated");
        ev.eliminated = true;
        ev.note = "nonlocal read ⊆ nonlocal data written locally by S" +
                  std::to_string(la.id) + " (sec 7)";
      }
    }
  }
  // ---- cross-statement message coalescing --------------------------------
  // Fetches of the same array by sibling statements at the same placement
  // point become one message per peer (the paper's message coalescing; this
  // is what makes §4.2 pay off when several LOCALIZE'd arrays are computed
  // from one input array). Events merge when they share the array, the
  // placement depth, the enclosing loops up to that depth, and the subtree
  // (the loop at the placement level) they anchor to.
  if (opt.coalesce) {
    DHPF_TRACE_SPAN("comm.coalesce", trace::Kind::Phase);
    std::vector<CommEvent> merged;
    for (auto& ev : plan.events) {
      if (ev.kind != EventKind::Fetch || ev.eliminated) {
        merged.push_back(std::move(ev));
        continue;
      }
      bool absorbed = false;
      for (auto& m : merged) {
        if (m.kind != EventKind::Fetch || m.eliminated) continue;
        if (m.array != ev.array || m.placement_depth != ev.placement_depth) continue;
        const auto d = static_cast<std::size_t>(ev.placement_depth);
        if (m.path.size() <= d || ev.path.size() <= d) continue;  // anchored at a stmt
        bool same_prefix = true;
        for (std::size_t i = 0; i <= d; ++i)
          if (m.path[i] != ev.path[i]) same_prefix = false;
        if (!same_prefix) continue;
        DHPF_COUNTER("comm.fetches_coalesced");
        m.data = m.data.unite(ev.data);
        m.note += "; S" + std::to_string(ev.stmt_id) + ": " + ev.note;
        for (int c : ev.consumers)
          if (std::find(m.consumers.begin(), m.consumers.end(), c) == m.consumers.end())
            m.consumers.push_back(c);
        absorbed = true;
        break;
      }
      if (!absorbed) merged.push_back(std::move(ev));
    }
    plan.events = std::move(merged);
  }
  // Stable plan-unique event ids (the verifier's message ids refer to these).
  for (std::size_t i = 0; i < plan.events.size(); ++i)
    plan.events[i].id = static_cast<int>(i);
  return plan;
}

VolumeReport count_volume(const hpf::Program& prog, const CommPlan& plan, int rank) {
  VolumeReport rep;
  const auto vals = analysis::param_values_for_rank(prog, rank);
  for (const auto& e : plan.events) {
    if (e.eliminated) continue;
    const std::size_t n = e.data.count(vals);
    if (e.kind == EventKind::Fetch) {
      rep.fetch_elems += n;
      if (n > 0) ++rep.fetch_events_nonempty;
    } else {
      rep.writeback_elems += n;
    }
  }
  return rep;
}

}  // namespace dhpf::comm
