#include "model/model.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "analysis/sets.hpp"
#include "support/diagnostics.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "verify/plan.hpp"

namespace dhpf::model {

using iset::i64;

ModelParams ModelParams::from_machine(const exec::Machine& m) {
  ModelParams p;
  p.alpha = m.latency + m.send_overhead + m.recv_overhead;
  p.beta = m.byte_time;
  p.gamma = 1.0;
  p.delta = p.alpha;
  p.sigma = p.beta;
  return p;
}

std::string ModelParams::to_string() const {
  std::ostringstream os;
  os << "alpha=" << alpha << " s/msg, beta=" << beta << " s/byte, gamma=" << gamma
     << ", delta=" << delta << " s/barrier, sigma=" << sigma << " s/shared-byte";
  return os.str();
}

double Prediction::wall(const ModelParams& p) const {
  return p.gamma * compute_seconds_critical + comm_seconds(p);
}

double Prediction::comm_seconds(const ModelParams& p) const {
  return p.alpha * critical_messages + p.beta * critical_bytes;
}

double Prediction::wall_shm(const ModelParams& p) const {
  return p.gamma * compute_seconds_critical + sync_seconds(p);
}

double Prediction::sync_seconds(const ModelParams& p) const {
  return p.delta * static_cast<double>(barrier_episodes) + p.sigma * critical_shared_bytes;
}

namespace {

/// Assignment instances of one callee invocation, by statically unrolling
/// loop extents. Callee loop bounds are affine in callee-local loop
/// variables; a bound that cannot be evaluated (it depends on an actual
/// argument) contributes extent 1 and flags the prediction as approximate.
std::size_t callee_instances(const std::vector<hpf::StmtPtr>& body,
                             std::map<std::string, long>& env, bool* approx) {
  std::size_t n = 0;
  for (const auto& sp : body) {
    if (sp->is_assign()) {
      ++n;
    } else if (sp->is_loop()) {
      const hpf::Loop& l = sp->loop();
      std::size_t extent = 1;
      try {
        const long lo = l.lo.eval(env), hi = l.hi.eval(env);
        extent = hi < lo ? 0 : static_cast<std::size_t>(hi - lo + 1);
      } catch (const std::exception&) {
        *approx = true;
      }
      env[l.var] = 0;  // nested bounds may reference it; value is irrelevant
      n += extent * callee_instances(l.body, env, approx);
      env.erase(l.var);
    } else {
      ++n;  // nested call: counted as one instance (leaf procedures only)
    }
  }
  return n;
}

/// Ids of the statements belonging to a procedure body (pre-order).
void collect_ids(const std::vector<hpf::StmtPtr>& body, std::vector<int>& out) {
  hpf::walk(body, [&](const hpf::Stmt& s, const std::vector<const hpf::Loop*>&) {
    if (s.is_assign()) out.push_back(s.assign().id);
    if (s.is_call()) out.push_back(s.call().id);
  });
}

}  // namespace

Prediction predict(const hpf::Program& prog, const cp::CpResult& cps,
                   const comm::CommPlan& plan, const exec::Machine& machine,
                   double flops_per_instance) {
  obs::ScopedTimer timer("model.predict");
  DHPF_COUNTER("model.predictions");

  Prediction pred;
  pred.flops_per_instance = flops_per_instance;
  pred.flop_time = machine.flop_time;
  const int n = prog.grids().empty() ? 1 : prog.grids().front()->nprocs();
  pred.nprocs = n;

  const iset::Params params = analysis::make_params(prog);
  std::vector<std::vector<i64>> vals;
  for (int q = 0; q < n; ++q)
    vals.push_back(prog.grids().empty() ? std::vector<i64>{}
                                        : analysis::param_values_for_rank(prog, q));

  // ---- compute: exact per-rank instance counts -------------------------
  //
  // Statements of the main procedure are counted directly: the number of
  // iteration points rank q executes is the cardinality of
  // iterations_on_home(space, CP) at q's block-bound parameter values.
  // Callee statements execute unguarded under the call statement's CP
  // (codegen::exec_callee_body), so calls are counted as on-home call
  // instances times the callee's per-invocation instance count, and callee
  // statement ids are skipped in the direct pass.
  const hpf::Procedure* main_proc =
      prog.procedures().empty() ? nullptr : prog.procedures().front().get();
  std::vector<int> main_ids;
  if (main_proc != nullptr) collect_ids(main_proc->body, main_ids);

  std::vector<double> compute_secs(static_cast<std::size_t>(n), 0.0);
  bool approx = false;
  for (int id : main_ids) {
    const auto it = cps.stmts.find(id);
    if (it == cps.stmts.end()) continue;
    const cp::StmtCp& sc = it->second;
    const analysis::IterSpace space = analysis::iteration_space(sc.path, params);
    const iset::Set on_home = cp::iterations_on_home(space, sc.cp, params);

    double per_invocation = 1.0;
    if (sc.stmt != nullptr && sc.stmt->is_call()) {
      const auto* callee = prog.find_procedure(sc.stmt->call().callee);
      if (callee != nullptr) {
        std::map<std::string, long> env;
        per_invocation = static_cast<double>(callee_instances(callee->body, env, &approx));
      }
    }

    StmtCost sco;
    sco.stmt_id = id;
    sco.cp = sc.cp.to_string();
    for (int q = 0; q < n; ++q) {
      const std::size_t inst = static_cast<std::size_t>(
          static_cast<double>(on_home.cardinality(vals[static_cast<std::size_t>(q)])) *
          per_invocation);
      sco.total_instances += inst;
      sco.critical_instances = std::max(sco.critical_instances, inst);
      compute_secs[static_cast<std::size_t>(q)] +=
          static_cast<double>(inst) * flops_per_instance * machine.flop_time;
    }
    pred.total_instances += sco.total_instances;
    pred.stmts.push_back(std::move(sco));
  }
  if (approx)
    pred.note = "callee loop bounds depend on call arguments; extents taken as 1";
  pred.compute_seconds_critical =
      compute_secs.empty() ? 0.0 : *std::max_element(compute_secs.begin(), compute_secs.end());
  for (double c : compute_secs) pred.compute_seconds_total += c;

  // ---- communication: per-event, per-prefix, per-rank message loads ----
  //
  // Grouping mirrors codegen::build_event_cache: within one event and one
  // outer-iteration prefix, rank q exchanges one message per peer it needs
  // elements from (fetch: owner -> q; write-back: q -> owner). The critical
  // rank of a prefix is the one with the largest alpha/beta-weighted
  // participation (sends + receives), weighted with the *default* machine
  // constants so the aggregate is a fixed number during calibration.
  const ModelParams defaults = ModelParams::from_machine(machine);
  for (const auto& ev : plan.events) {
    if (ev.eliminated) continue;
    const auto depth = static_cast<std::size_t>(ev.placement_depth);

    struct RankLoad {
      std::size_t msgs = 0;
      std::size_t bytes = 0;
      /// Bytes this rank *pulls* as direct shared reads on shm: the
      /// enumerating rank for a fetch, the owning peer for a write-back.
      std::size_t shm_bytes = 0;
    };
    // prefix -> per-rank participation (sender and receiver both loaded).
    std::map<std::vector<i64>, std::vector<RankLoad>> loads;

    EventCost ec;
    ec.event_id = ev.id;
    ec.array = ev.array->name;
    ec.fetch = ev.kind == comm::EventKind::Fetch;

    for (int q = 0; q < n; ++q) {
      // peer element counts for rank q, keyed by (prefix, peer)
      std::map<std::pair<std::vector<i64>, int>, std::size_t> groups;
      ev.data.enumerate(vals[static_cast<std::size_t>(q)], [&](const std::vector<i64>& pt) {
        std::vector<i64> prefix(pt.begin(), pt.begin() + static_cast<std::ptrdiff_t>(depth));
        const std::vector<i64> elem(pt.begin() + static_cast<std::ptrdiff_t>(depth), pt.end());
        const int owner = verify::owner_rank(prog, *ev.array, elem);
        if (owner == q) return;  // already local (block-edge clamping)
        ++groups[{std::move(prefix), owner}];
      });
      for (const auto& [key, elems] : groups) {
        const auto& [prefix, peer] = key;
        const std::size_t nbytes = elems * sizeof(double);
        ec.messages += 1;
        ec.bytes += nbytes;
        auto& per_rank = loads[prefix];
        if (per_rank.empty()) per_rank.resize(static_cast<std::size_t>(n));
        per_rank[static_cast<std::size_t>(q)].msgs += 1;
        per_rank[static_cast<std::size_t>(q)].bytes += nbytes;
        per_rank[static_cast<std::size_t>(peer)].msgs += 1;
        per_rank[static_cast<std::size_t>(peer)].bytes += nbytes;
        per_rank[static_cast<std::size_t>(ec.fetch ? q : peer)].shm_bytes += nbytes;
      }
    }

    ec.prefixes = loads.size();
    double shared_bytes = 0.0;
    for (const auto& [prefix, per_rank] : loads) {
      double best = -1.0;
      const RankLoad* crit = nullptr;
      std::size_t max_shm = 0;
      for (const auto& rl : per_rank) {
        const double cost = defaults.alpha * static_cast<double>(rl.msgs) +
                            defaults.beta * static_cast<double>(rl.bytes);
        if (cost > best) {
          best = cost;
          crit = &rl;
        }
        max_shm = std::max(max_shm, rl.shm_bytes);
      }
      if (crit != nullptr) {
        ec.critical_messages += static_cast<double>(crit->msgs);
        ec.critical_bytes += static_cast<double>(crit->bytes);
      }
      // On shm this prefix costs one barrier pair (codegen skips both
      // barriers when no rank has traffic, which is exactly "no prefix
      // entry here"), and the critical rank is the largest puller.
      pred.barrier_episodes += 2;
      shared_bytes += static_cast<double>(max_shm);
    }
    DHPF_COUNTER("model.event_costs");
    pred.critical_shared_bytes += shared_bytes;
    pred.messages += ec.messages;
    pred.bytes += ec.bytes;
    pred.critical_messages += ec.critical_messages;
    pred.critical_bytes += ec.critical_bytes;
    pred.events.push_back(std::move(ec));
  }

  DHPF_COUNTER_ADD("model.instances_counted", pred.total_instances);
  return pred;
}

std::string Prediction::to_string(const ModelParams& p) const {
  std::ostringstream os;
  os << "performance model (" << nprocs << " rank" << (nprocs == 1 ? "" : "s")
     << ", " << p.to_string() << ")\n";
  os << "  compute: " << total_instances << " instances total, critical rank "
     << compute_seconds_critical << " s (sum " << compute_seconds_total << " s)\n";
  os << "  comm:    " << messages << " messages, " << bytes
     << " bytes total; critical path " << critical_messages << " msgs, "
     << critical_bytes << " bytes\n";
  os << "  predicted wall " << wall(p) << " s  (compute "
     << p.gamma * compute_seconds_critical << " s + comm " << comm_seconds(p)
     << " s)\n";
  os << "  shm:     " << barrier_episodes << " barrier episodes, critical shared bytes "
     << critical_shared_bytes << "; predicted wall " << wall_shm(p) << " s  (compute "
     << p.gamma * compute_seconds_critical << " s + sync " << sync_seconds(p) << " s)\n";
  for (const auto& s : stmts)
    os << "    S" << s.stmt_id << ": " << s.total_instances << " instances (max/rank "
       << s.critical_instances << ")  " << s.cp << "\n";
  for (const auto& e : events)
    os << "    event " << e.event_id << " " << (e.fetch ? "fetch" : "write-back") << " "
       << e.array << ": " << e.messages << " msgs / " << e.bytes << " bytes over "
       << e.prefixes << " prefix(es)\n";
  if (!note.empty()) os << "  note: " << note << "\n";
  return os.str();
}

std::string Prediction::to_json(const ModelParams& p) const {
  json::Writer w(false);
  w.begin_object();
  w.member("nprocs", nprocs);
  w.key("params");
  w.begin_object();
  w.member("alpha", p.alpha);
  w.member("beta", p.beta);
  w.member("gamma", p.gamma);
  w.member("delta", p.delta);
  w.member("sigma", p.sigma);
  w.end_object();
  w.member("predicted_wall_seconds", wall(p));
  w.member("predicted_comm_seconds", comm_seconds(p));
  w.member("predicted_wall_shm_seconds", wall_shm(p));
  w.member("predicted_sync_seconds", sync_seconds(p));
  w.member("compute_seconds_critical", compute_seconds_critical);
  w.member("compute_seconds_total", compute_seconds_total);
  w.member("critical_messages", critical_messages);
  w.member("critical_bytes", critical_bytes);
  w.member("barrier_episodes", static_cast<std::uint64_t>(barrier_episodes));
  w.member("critical_shared_bytes", critical_shared_bytes);
  w.member("total_instances", static_cast<std::uint64_t>(total_instances));
  w.member("messages", static_cast<std::uint64_t>(messages));
  w.member("bytes", static_cast<std::uint64_t>(bytes));
  if (!note.empty()) w.member("note", note);
  w.key("stmts");
  w.begin_array();
  for (const auto& s : stmts) {
    w.begin_object();
    w.member("id", s.stmt_id);
    w.member("cp", s.cp);
    w.member("instances", static_cast<std::uint64_t>(s.total_instances));
    w.member("critical_instances", static_cast<std::uint64_t>(s.critical_instances));
    w.end_object();
  }
  w.end_array();
  w.key("events");
  w.begin_array();
  for (const auto& e : events) {
    w.begin_object();
    w.member("id", e.event_id);
    w.member("array", e.array);
    w.member("kind", e.fetch ? "fetch" : "writeback");
    w.member("prefixes", static_cast<std::uint64_t>(e.prefixes));
    w.member("messages", static_cast<std::uint64_t>(e.messages));
    w.member("bytes", static_cast<std::uint64_t>(e.bytes));
    w.member("critical_messages", e.critical_messages);
    w.member("critical_bytes", e.critical_bytes);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace dhpf::model
