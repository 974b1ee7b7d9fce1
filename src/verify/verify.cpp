#include "verify/verify.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>
#include <utility>

#include "analysis/sets.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/scc.hpp"

namespace dhpf::verify {

using analysis::IterSpace;
using comm::CommEvent;
using comm::EventKind;
using hpf::Array;
using iset::i64;
using iset::Params;
using iset::Set;

const char* to_string(Check c) {
  switch (c) {
    case Check::ReadCoverage: return "read-coverage";
    case Check::ReplicaConsistency: return "replica-consistency";
    case Check::HaloSufficiency: return "halo-sufficiency";
    case Check::ScheduleSafety: return "schedule-safety";
    case Check::DeadComm: return "dead-comm";
  }
  return "?";
}

const char* to_string(Severity s) { return s == Severity::Error ? "error" : "warning"; }

std::string Witness::to_string() const {
  std::ostringstream out;
  bool any = false;
  auto sep = [&] { out << (any ? ", " : ""); any = true; };
  if (array) {
    sep();
    out << array->name;
    if (!element.empty()) {
      out << "(";
      for (std::size_t i = 0; i < element.size(); ++i) out << (i ? "," : "") << element[i];
      out << ")";
    }
  }
  if (rank >= 0) {
    sep();
    out << "rank " << rank;
  }
  if (stmt_id >= 0) {
    sep();
    out << "S" << stmt_id;
  }
  if (event_id >= 0) {
    sep();
    out << "ev#" << event_id;
  }
  if (message_id >= 0) {
    sep();
    out << "msg#" << message_id;
  }
  if (!cycle.empty()) {
    sep();
    out << "cycle [";
    for (std::size_t i = 0; i < cycle.size(); ++i) out << (i ? " " : "") << "msg#" << cycle[i];
    out << "]";
  }
  if (bytes > 0) {
    sep();
    out << bytes << " bytes";
  }
  return out.str();
}

std::string Diagnostic::to_string() const {
  std::string s = std::string(verify::to_string(severity)) + " [" +
                  verify::to_string(check) + "] " + message;
  const std::string w = witness.to_string();
  if (!w.empty()) s += " — witness: " + w;
  return s;
}

std::size_t Report::errors() const {
  std::size_t n = 0;
  for (const auto& d : diagnostics)
    if (d.severity == Severity::Error) ++n;
  return n;
}

std::size_t Report::warnings() const {
  std::size_t n = 0;
  for (const auto& d : diagnostics)
    if (d.severity == Severity::Warning) ++n;
  return n;
}

std::vector<const Diagnostic*> Report::by_check(Check c) const {
  std::vector<const Diagnostic*> out;
  for (const auto& d : diagnostics)
    if (d.check == c) out.push_back(&d);
  return out;
}

std::string Report::to_string() const {
  std::ostringstream out;
  out << "verify: " << checks_run << " checks, " << errors() << " errors, " << warnings()
      << " warnings" << (clean() ? " — plan OK" : "") << "\n";
  for (const auto& d : diagnostics) out << "  " << d.to_string() << "\n";
  return out.str();
}

std::string Report::to_json() const {
  json::Writer w(/*pretty=*/false);
  w.begin_object();
  w.member("clean", clean());
  w.member("checks_run", static_cast<std::uint64_t>(checks_run));
  w.member("errors", static_cast<std::uint64_t>(errors()));
  w.member("warnings", static_cast<std::uint64_t>(warnings()));
  w.key("diagnostics");
  w.begin_array();
  for (const auto& d : diagnostics) {
    w.begin_object();
    w.member("check", verify::to_string(d.check));
    w.member("severity", verify::to_string(d.severity));
    w.member("message", d.message);
    w.key("witness");
    w.begin_object();
    if (d.witness.array) w.member("array", d.witness.array->name);
    if (!d.witness.element.empty()) {
      w.key("element");
      w.begin_array();
      for (i64 v : d.witness.element) w.value(static_cast<std::int64_t>(v));
      w.end_array();
    }
    if (d.witness.rank >= 0) w.member("rank", d.witness.rank);
    if (d.witness.stmt_id >= 0) w.member("stmt", d.witness.stmt_id);
    if (d.witness.event_id >= 0) w.member("event", d.witness.event_id);
    if (d.witness.message_id >= 0) w.member("message", d.witness.message_id);
    if (!d.witness.cycle.empty()) {
      w.key("cycle");
      w.begin_array();
      for (int m : d.witness.cycle) w.value(m);
      w.end_array();
    }
    if (d.witness.bytes > 0) w.member("bytes", static_cast<std::uint64_t>(d.witness.bytes));
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

namespace {

struct Ctx {
  const CompiledPlan& plan;
  const VerifyOptions& opt;
  Params params;
  int nprocs = 1;
  std::vector<std::vector<i64>> vals;  ///< per-rank parameter values
  /// Cache of per-(statement, array) non-local read sets, shared between
  /// the coverage check and the dead-communication lint.
  std::map<std::pair<int, const Array*>, Set> need_cache;
  Report report;

  void diag(Check c, Severity s, std::string message, Witness w) {
    Diagnostic d;
    d.check = c;
    d.severity = s;
    d.message = std::move(message);
    d.witness = std::move(w);
    report.diagnostics.push_back(std::move(d));
  }
};

/// Project an event's data relation down to array dimensions (drop the
/// outer-loop prefix it is vectorized over).
Set event_array_set(const CommEvent& e) {
  Set s = e.data;
  for (int d = 0; d < e.placement_depth; ++d) s = s.project_out(0);
  return s;
}

/// First concrete point of `s` over the ranks, with the rank it appears on.
std::optional<std::pair<int, std::vector<i64>>> concrete_witness(const Ctx& ctx, const Set& s) {
  for (int q = 0; q < ctx.nprocs; ++q) {
    auto pt = s.sample(ctx.vals[static_cast<std::size_t>(q)]);
    if (pt) return std::make_pair(q, std::move(*pt));
  }
  return std::nullopt;
}

/// Union-part budget above which the coverage test switches from the
/// symbolic set difference to exact per-rank enumeration. Subtracting a
/// heavily fragmented union multiplies complement parts combinatorially;
/// the enumeration path is exact and exhaustive for the configured grid
/// (every rank's parameter values are checked), just not symbolic.
constexpr std::size_t kMaxSymbolicParts = 24;

/// Intermediate-fragmentation cap for the symbolic path: each subtraction
/// can split every remaining part, so even a small cover union can blow the
/// difference up combinatorially (time *and* memory). When the running
/// difference crosses this, the symbolic attempt is abandoned mid-way and
/// the enumeration path decides instead.
constexpr std::size_t kMaxIntermediateParts = 256;

struct CoverResult {
  bool covered = false;
  std::optional<std::pair<int, std::vector<i64>>> witness;  ///< set iff provably uncovered
  bool conservative = false;  ///< symbolically uncovered but no concrete witness
};

/// Is need ⊆ ∪ covers? Symbolic difference when the covers are compact,
/// exact per-rank point enumeration otherwise.
CoverResult is_covered(const Ctx& ctx, const Set& need, const std::vector<const Set*>& covers) {
  std::size_t parts = 0;
  for (const Set* c : covers) parts += c->parts().size();
  CoverResult res;
  if (parts <= kMaxSymbolicParts) {
    Set uncovered = need;
    bool symbolic_ok = true;
    for (const Set* c : covers) {
      // Part-at-a-time so fragmentation is observable between steps; a
      // whole-union subtract can blow up inside one call.
      for (const iset::BasicSet& p : c->parts()) {
        uncovered = uncovered.subtract(Set(p));
        if (uncovered.parts().size() > kMaxIntermediateParts) {
          symbolic_ok = false;
          break;
        }
      }
      if (!symbolic_ok) break;
    }
    if (symbolic_ok) {
      if (uncovered.is_empty()) {
        res.covered = true;
        return res;
      }
      res.witness = concrete_witness(ctx, uncovered);
      res.conservative = !res.witness.has_value();
      return res;
    }
  }
  for (int q = 0; q < ctx.nprocs; ++q) {
    const std::vector<i64>& v = ctx.vals[static_cast<std::size_t>(q)];
    need.enumerate(v, [&](const std::vector<i64>& pt) {
      if (res.witness) return;
      for (const Set* c : covers)
        if (c->contains(pt, v)) return;
      res.witness = std::make_pair(q, pt);
    });
    if (res.witness) return res;
  }
  res.covered = true;
  return res;
}

/// Non-local elements the representative processor reads through `arr` in
/// statement `sc` (union over that statement's reads of the array), cached.
const Set& nonlocal_read(Ctx& ctx, const cp::StmtCp& sc, const Array* arr) {
  const int id = sc.stmt->assign().id;
  auto it = ctx.need_cache.find({id, arr});
  if (it != ctx.need_cache.end()) return it->second;
  const IterSpace is = analysis::iteration_space(sc.path, ctx.params);
  const Set iters = cp::iterations_on_home(is, sc.cp, ctx.params);
  const Set owned = analysis::owned_set(*arr, ctx.params);
  Set need = Set::empty(arr->extents.size(), ctx.params);
  for (const auto& r : sc.stmt->assign().rhs) {
    if (r.array != arr) continue;
    need = need.unite(
        iters.apply(analysis::subscript_map(is, r.subs, ctx.params)).subtract(owned));
  }
  return ctx.need_cache.emplace(std::make_pair(id, arr), std::move(need)).first->second;
}

/// The §7 "last preceding writer" of `arr` relative to consumer `cid` —
/// must mirror comm.cpp's rule so availability-eliminated fetches verify.
const cp::StmtCp* last_preceding_writer(const std::vector<const cp::StmtCp*>& writers,
                                        int cid) {
  const cp::StmtCp* last = nullptr;
  for (const auto* w : writers) {
    const int wid = w->stmt->assign().id;
    if (wid == cid) continue;
    if (!last) {
      last = w;
      continue;
    }
    const int lid = last->stmt->assign().id;
    const bool w_before = wid < cid, l_before = lid < cid;
    if ((w_before && (!l_before || wid > lid)) || (!w_before && !l_before && wid > lid))
      last = w;
  }
  return last;
}

/// Non-local elements of its own lhs the representative processor produces
/// in `sc` (§7's "data made locally available by a write").
Set nonlocal_written(const Ctx& ctx, const cp::StmtCp& sc) {
  const hpf::Assign& a = sc.stmt->assign();
  const IterSpace is = analysis::iteration_space(sc.path, ctx.params);
  const Set iters = cp::iterations_on_home(is, sc.cp, ctx.params);
  return iters.apply(analysis::subscript_map(is, a.lhs.subs, ctx.params))
      .subtract(analysis::owned_set(*a.lhs.array, ctx.params));
}

// ------------------------------------------------------- check 1: coverage

void check_read_coverage(Ctx& ctx,
                         const std::map<const Array*, std::vector<const cp::StmtCp*>>& writers) {
  for (const auto& [id, sc] : ctx.plan.cps.stmts) {
    if (!sc.stmt->is_assign()) continue;
    const hpf::Assign& a = sc.stmt->assign();
    std::vector<const Array*> arrays;
    for (const auto& r : a.rhs)
      if (r.array->distributed() &&
          std::find(arrays.begin(), arrays.end(), r.array) == arrays.end())
        arrays.push_back(r.array);
    for (const Array* arr : arrays) {
      ++ctx.report.checks_run;
      const Set& need = nonlocal_read(ctx, sc, arr);
      if (need.is_empty()) continue;
      Set received = Set::empty(arr->extents.size(), ctx.params);
      for (const auto& ev : ctx.plan.plan.events) {
        if (ev.kind != EventKind::Fetch || ev.eliminated || ev.array != arr) continue;
        if (std::find(ev.consumers.begin(), ev.consumers.end(), id) == ev.consumers.end())
          continue;
        received = received.unite(event_array_set(ev));
      }
      std::optional<Set> produced;
      if (auto wit = writers.find(arr); wit != writers.end())
        if (const cp::StmtCp* last = last_preceding_writer(wit->second, id))
          produced = nonlocal_written(ctx, *last);
      std::vector<const Set*> covers{&received};
      if (produced) covers.push_back(&*produced);
      const CoverResult cov = is_covered(ctx, need, covers);
      if (cov.covered) continue;
      Witness w;
      w.array = arr;
      w.stmt_id = id;
      if (cov.witness) {
        w.rank = cov.witness->first;
        w.element = cov.witness->second;
        ctx.diag(Check::ReadCoverage, Severity::Error,
                 "statement S" + std::to_string(id) + " reads " + arr->name +
                     " elements that are neither owned, received, nor locally produced",
                 std::move(w));
      } else {
        ctx.diag(Check::ReadCoverage, Severity::Warning,
                 "reads of " + arr->name + " in S" + std::to_string(id) +
                     " are not symbolically covered (no concrete counterexample found)",
                 std::move(w));
      }
    }
  }
}

// ------------------------------------- check 2: replicated-write consistency

void check_replica_consistency(Ctx& ctx) {
  for (const auto& [id, sc] : ctx.plan.cps.stmts) {
    if (!sc.stmt->is_assign()) continue;
    const hpf::Assign& a = sc.stmt->assign();
    if (!a.lhs.array->distributed()) continue;
    ++ctx.report.checks_run;
    const IterSpace is = analysis::iteration_space(sc.path, ctx.params);
    const Set all_iters = Set(is.bounds);
    const Set mine = cp::iterations_on_home(is, sc.cp, ctx.params);
    const auto lhs_map = analysis::subscript_map(is, a.lhs.subs, ctx.params);

    // (a) Every instance must execute on at least one rank, or the owner
    // copy of its lhs element never receives the serial value.
    const std::vector<i64>& v0 = ctx.vals[0];
    if (all_iters.count(v0) <= ctx.opt.max_instances) {
      std::optional<std::vector<i64>> missing;
      std::size_t missing_count = 0;
      all_iters.enumerate(v0, [&](const std::vector<i64>& pt) {
        for (int q = 0; q < ctx.nprocs; ++q)
          if (mine.contains(pt, ctx.vals[static_cast<std::size_t>(q)])) return;
        ++missing_count;
        if (!missing) missing = pt;
      });
      if (missing) {
        Witness w;
        w.array = a.lhs.array;
        w.stmt_id = id;
        w.element = lhs_map.eval(*missing, v0);
        w.rank = owner_rank(*ctx.plan.prog, *a.lhs.array, w.element);
        ctx.diag(Check::ReplicaConsistency, Severity::Error,
                 "CP of S" + std::to_string(id) + " drops " + std::to_string(missing_count) +
                     " instance(s): no rank executes them, the owner copy goes stale",
                 std::move(w));
      }
    } else {
      Witness w;
      w.stmt_id = id;
      ctx.diag(Check::ReplicaConsistency, Severity::Warning,
               "instance-execution check for S" + std::to_string(id) +
                   " skipped (iteration space above max_instances)",
               std::move(w));
    }

    // (b) Non-owner writes must either be the partial-replication shape
    // (owner-computes term included — the owner recomputes every replica,
    // so replicas are provably identical copies given read coverage) or be
    // written back to the owner.
    const Set nonowner =
        mine.apply(lhs_map).subtract(analysis::owned_set(*a.lhs.array, ctx.params));
    if (nonowner.is_empty()) continue;
    const cp::OnHomeTerm own = cp::OnHomeTerm::from_ref(a.lhs);
    bool owner_included = false;
    for (const auto& t : sc.cp.terms)
      if (t == own) owner_included = true;
    if (owner_included) continue;
    Set covered = Set::empty(a.lhs.array->extents.size(), ctx.params);
    for (const auto& ev : ctx.plan.plan.events) {
      if (ev.kind != EventKind::WriteBack || ev.eliminated || ev.array != a.lhs.array) continue;
      if (std::find(ev.consumers.begin(), ev.consumers.end(), id) == ev.consumers.end())
        continue;
      covered = covered.unite(event_array_set(ev));
    }
    const Set uncovered = nonowner.subtract(covered);
    if (uncovered.is_empty()) continue;
    auto cw = concrete_witness(ctx, uncovered);
    Witness w;
    w.array = a.lhs.array;
    w.stmt_id = id;
    if (cw) {
      w.rank = cw->first;
      w.element = cw->second;
      ctx.diag(Check::ReplicaConsistency, Severity::Error,
               "S" + std::to_string(id) + " writes non-owned elements of " +
                   a.lhs.array->name +
                   " that are never written back — cross-rank write-write race / lost update",
               std::move(w));
    } else {
      ctx.diag(Check::ReplicaConsistency, Severity::Warning,
               "non-owner writes of S" + std::to_string(id) +
                   " not symbolically covered by write-backs (no concrete counterexample)",
               std::move(w));
    }
  }
}

// ------------------------------------------- check 3: halo sufficiency

void check_halo_sufficiency(Ctx& ctx) {
  for (const auto& decl : ctx.plan.overlaps) {
    const Set ext = extended_owned(*decl.array, decl.width, ctx.params);
    for (const auto& [id, sc] : ctx.plan.cps.stmts) {
      if (!sc.stmt->is_assign()) continue;
      const hpf::Assign& a = sc.stmt->assign();
      const IterSpace is = analysis::iteration_space(sc.path, ctx.params);
      std::optional<Set> iters;  // computed lazily, once per statement
      auto check_ref = [&](const hpf::Ref& r) {
        if (r.array != decl.array) return;
        ++ctx.report.checks_run;
        if (!iters) iters = cp::iterations_on_home(is, sc.cp, ctx.params);
        // Clamp to the index space: the overlap declares in-bounds halo
        // storage, so out-of-bounds accesses are not a halo-width problem.
        const Set fp = iters->apply(analysis::subscript_map(is, r.subs, ctx.params))
                           .intersect(analysis::index_set(*decl.array, ctx.params));
        const Set uncovered = fp.subtract(ext);
        if (uncovered.is_empty()) return;
        auto cw = concrete_witness(ctx, uncovered);
        Witness w;
        w.array = decl.array;
        w.stmt_id = id;
        if (cw) {
          w.rank = cw->first;
          w.element = cw->second;
          ctx.diag(Check::HaloSufficiency, Severity::Error,
                   "access footprint of " + r.to_string() + " in S" + std::to_string(id) +
                       " exceeds the declared overlap widths (" + decl.to_string() + ")",
                   std::move(w));
        } else {
          ctx.diag(Check::HaloSufficiency, Severity::Warning,
                   "footprint of " + r.to_string() + " in S" + std::to_string(id) +
                       " not symbolically inside the declared overlap (no counterexample)",
                   std::move(w));
        }
      };
      check_ref(a.lhs);
      for (const auto& r : a.rhs) check_ref(r);
    }
  }
}

// --------------------------------------------- check 4: schedule safety

void check_schedule_safety(Ctx& ctx) {
  const Schedule& s = ctx.plan.schedule;
  const std::size_t nmsg = s.messages.size();
  std::vector<int> sends(nmsg, 0), recvs(nmsg, 0);
  std::vector<int> send_rank(nmsg, -1), recv_rank(nmsg, -1);
  for (std::size_t r = 0; r < s.rank_ops.size(); ++r) {
    for (const auto& op : s.rank_ops[r]) {
      if (op.msg < 0 || static_cast<std::size_t>(op.msg) >= nmsg) {
        Witness w;
        w.message_id = op.msg;
        ctx.diag(Check::ScheduleSafety, Severity::Error,
                 "schedule op references unknown message", std::move(w));
        continue;
      }
      if (op.kind == ScheduleOp::Kind::Send) {
        ++sends[static_cast<std::size_t>(op.msg)];
        send_rank[static_cast<std::size_t>(op.msg)] = static_cast<int>(r);
      } else {
        ++recvs[static_cast<std::size_t>(op.msg)];
        recv_rank[static_cast<std::size_t>(op.msg)] = static_cast<int>(r);
      }
    }
  }
  for (std::size_t m = 0; m < nmsg; ++m) {
    ++ctx.report.checks_run;
    const Message& msg = s.messages[m];
    Witness w;
    w.message_id = msg.id;
    w.event_id = msg.event_id;
    w.array = msg.array;
    if (sends[m] == 0 && recvs[m] > 0) {
      w.rank = msg.to;
      ctx.diag(Check::ScheduleSafety, Severity::Error,
               "rank " + std::to_string(msg.to) + " waits for " + msg.to_string() +
                   " which is never sent — the mp backend would deadlock",
               std::move(w));
    } else if (recvs[m] == 0 && sends[m] > 0) {
      w.rank = msg.from;
      ctx.diag(Check::ScheduleSafety, Severity::Error,
               msg.to_string() + " is sent but never received", std::move(w));
    } else if (sends[m] > 1 || recvs[m] > 1) {
      ctx.diag(Check::ScheduleSafety, Severity::Error,
               msg.to_string() + " appears in the schedule more than once", std::move(w));
    } else if (sends[m] == 1 &&
               (send_rank[m] != msg.from || recv_rank[m] != msg.to)) {
      ctx.diag(Check::ScheduleSafety, Severity::Error,
               msg.to_string() + " is scheduled on the wrong ranks", std::move(w));
    }
  }

  // Wait-for graph: op -> next op of the same rank, send -> matching recv.
  // A receive blocks its rank until the matching send has been reached, so
  // any cycle through these edges is a guaranteed deadlock.
  std::vector<std::size_t> base(s.rank_ops.size() + 1, 0);
  for (std::size_t r = 0; r < s.rank_ops.size(); ++r)
    base[r + 1] = base[r] + s.rank_ops[r].size();
  Digraph g(base.back());
  std::vector<std::size_t> send_op(nmsg, SIZE_MAX), recv_op(nmsg, SIZE_MAX);
  for (std::size_t r = 0; r < s.rank_ops.size(); ++r) {
    for (std::size_t i = 0; i < s.rank_ops[r].size(); ++i) {
      const std::size_t v = base[r] + i;
      if (i + 1 < s.rank_ops[r].size()) g.add_edge(v, v + 1);
      const auto& op = s.rank_ops[r][i];
      if (op.msg < 0 || static_cast<std::size_t>(op.msg) >= nmsg) continue;
      (op.kind == ScheduleOp::Kind::Send ? send_op : recv_op)[static_cast<std::size_t>(
          op.msg)] = v;
    }
  }
  for (std::size_t m = 0; m < nmsg; ++m)
    if (send_op[m] != SIZE_MAX && recv_op[m] != SIZE_MAX) g.add_edge(send_op[m], recv_op[m]);
  ++ctx.report.checks_run;
  const SccResult scc = strongly_connected_components(g);
  for (const auto& comp : scc.members()) {
    if (comp.size() < 2) continue;
    std::vector<int> cycle;
    for (std::size_t v : comp) {
      // Map the op back to (rank, index) to recover its message id.
      std::size_t r = 0;
      while (r + 1 < base.size() && base[r + 1] <= v) ++r;
      const int m = s.rank_ops[r][v - base[r]].msg;
      if (std::find(cycle.begin(), cycle.end(), m) == cycle.end()) cycle.push_back(m);
    }
    Witness w;
    w.cycle = cycle;
    if (!cycle.empty()) w.message_id = cycle.front();
    ctx.diag(Check::ScheduleSafety, Severity::Error,
             "wait-for graph has a cycle over " + std::to_string(cycle.size()) +
                 " message(s) — guaranteed deadlock",
             std::move(w));
  }
}

// ----------------------------------------- check 5: dead-communication lint

void check_dead_comm(Ctx& ctx) {
  if (!ctx.opt.lint_dead_comm) return;
  std::uint64_t total_bytes = 0;
  for (const auto& ev : ctx.plan.plan.events) {
    if (ev.kind != EventKind::Fetch || ev.eliminated) continue;
    ++ctx.report.checks_run;
    const Set supplied = event_array_set(ev);
    Set used = Set::empty(ev.array->extents.size(), ctx.params);
    for (int cid : ev.consumers) {
      auto it = ctx.plan.cps.stmts.find(cid);
      if (it == ctx.plan.cps.stmts.end() || !it->second.stmt->is_assign()) continue;
      used = used.unite(nonlocal_read(ctx, it->second, ev.array));
    }
    // Fully concrete: the byte count needs per-rank enumeration anyway, and a
    // symbolic supplied − used difference can fragment badly when the event
    // data is a wide union. Enumeration is exhaustive for the configured grid.
    std::size_t elems = 0;
    std::optional<std::pair<int, std::vector<i64>>> cw;
    for (int q = 0; q < ctx.nprocs; ++q) {
      const std::vector<i64>& v = ctx.vals[static_cast<std::size_t>(q)];
      supplied.enumerate(v, [&](const std::vector<i64>& pt) {
        if (used.contains(pt, v)) return;
        ++elems;
        if (!cw) cw = std::make_pair(q, pt);
      });
    }
    if (elems == 0) continue;
    const std::size_t bytes = elems * sizeof(double);
    total_bytes += bytes;
    Witness w;
    w.array = ev.array;
    w.event_id = ev.id;
    w.stmt_id = ev.stmt_id;
    w.bytes = bytes;
    if (cw) {
      w.rank = cw->first;
      w.element = cw->second;
    }
    ctx.diag(Check::DeadComm, Severity::Warning,
             "fetch ev#" + std::to_string(ev.id) + " of " + ev.array->name + " carries " +
                 std::to_string(elems) + " element(s) no consumer reads",
             std::move(w));
    DHPF_COUNTER("verify.dead_comm_messages");
  }
  if (total_bytes > 0) DHPF_COUNTER_ADD("verify.dead_comm_bytes", total_bytes);
}

}  // namespace

Report check(const CompiledPlan& plan, const VerifyOptions& opt) {
  obs::ScopedTimer timer("verify.check");
  require(plan.prog != nullptr, "verify", "check: plan not bound (null program)");
  Ctx ctx{plan, opt, analysis::make_params(*plan.prog), plan.nprocs(), {}, {}, {}};
  for (int q = 0; q < ctx.nprocs; ++q)
    ctx.vals.push_back(analysis::param_values_for_rank(*plan.prog, q));

  std::map<const Array*, std::vector<const cp::StmtCp*>> writers;
  for (const auto& [id, sc] : plan.cps.stmts) {
    (void)id;
    if (sc.stmt->is_assign()) writers[sc.stmt->assign().lhs.array].push_back(&sc);
  }

  check_read_coverage(ctx, writers);
  check_replica_consistency(ctx);
  check_halo_sufficiency(ctx);
  check_schedule_safety(ctx);
  check_dead_comm(ctx);

  DHPF_COUNTER_ADD("verify.checks", ctx.report.checks_run);
  if (!ctx.report.clean()) DHPF_COUNTER("verify.plans_rejected");
  return std::move(ctx.report);
}

Report check_or_throw(const CompiledPlan& plan, const VerifyOptions& opt) {
  Report r = check(plan, opt);
  for (const auto& d : r.diagnostics)
    if (d.severity == Severity::Error) throw VerifyError(d);
  return r;
}

}  // namespace dhpf::verify
