#include "codegen/spmd.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <sstream>

#include "analysis/sets.hpp"
#include "support/diagnostics.hpp"
#include "support/metrics.hpp"
#include "trace/trace.hpp"

namespace dhpf::codegen {

using comm::CommEvent;
using comm::EventKind;
using hpf::Array;
using hpf::Assign;
using hpf::Call;
using hpf::Loop;
using hpf::Ref;
using hpf::Stmt;
using iset::i64;

namespace {

using Env = std::map<std::string, long>;

std::size_t flat_index(const Array& a, const std::vector<long>& idx) {
  require(idx.size() == a.extents.size(), "codegen", "rank mismatch in index");
  std::size_t flat = 0;
  for (std::size_t d = 0; d < idx.size(); ++d) {
    require(idx[d] >= 0 && idx[d] < a.extents[d], "codegen",
            "index out of bounds for " + a.name + " dim " + std::to_string(d));
    flat = flat * static_cast<std::size_t>(a.extents[d]) + static_cast<std::size_t>(idx[d]);
  }
  return flat;
}

std::size_t array_size(const Array& a) {
  std::size_t n = 1;
  for (int e : a.extents) n *= static_cast<std::size_t>(e);
  return n;
}

/// Active formal->actual binding for inlined call execution.
struct Binding {
  const Array* target = nullptr;
  std::vector<long> offset;
};
using Frame = std::map<const Array*, Binding>;

/// Resolve a reference through the current call frame.
void resolve(const Frame& frame, const Array*& arr, std::vector<long>& idx) {
  auto it = frame.find(arr);
  if (it == frame.end()) return;
  for (std::size_t d = 0; d < idx.size(); ++d) idx[d] += it->second.offset[d];
  arr = it->second.target;
}

std::vector<long> eval_subs(const std::vector<hpf::Subscript>& subs, const Env& env) {
  std::vector<long> idx;
  idx.reserve(subs.size());
  for (const auto& s : subs) idx.push_back(s.eval(env));
  return idx;
}

}  // namespace

double init_value(const Array& a, std::size_t flat) {
  // Deterministic, array-dependent, irregular enough that any misrouted
  // element is visible.
  std::size_t h = flat * 2654435761u;
  for (char c : a.name) h = h * 31 + static_cast<unsigned char>(c);
  return 1.0 + static_cast<double>(h % 9973) * 1e-4;
}

// ------------------------------------------------------ serial reference

namespace {

struct SerialInterp {
  const hpf::Program& prog;
  Store store;

  explicit SerialInterp(const hpf::Program& p) : prog(p) {
    for (const auto& a : prog.arrays()) {
      auto& v = store[a.get()];
      v.resize(array_size(*a));
      for (std::size_t i = 0; i < v.size(); ++i) v[i] = init_value(*a, i);
    }
  }

  double read(const Ref& r, const Env& env, const Frame& frame) {
    const Array* a = r.array;
    std::vector<long> idx = eval_subs(r.subs, env);
    resolve(frame, a, idx);
    return store[a][flat_index(*a, idx)];
  }

  void write(const Ref& r, const Env& env, const Frame& frame, double v) {
    const Array* a = r.array;
    std::vector<long> idx = eval_subs(r.subs, env);
    resolve(frame, a, idx);
    store[a][flat_index(*a, idx)] = v;
  }

  void exec_body(const std::vector<hpf::StmtPtr>& body, Env& env, const Frame& frame) {
    for (const auto& sp : body) {
      if (sp->is_assign()) {
        const Assign& a = sp->assign();
        double v = a.cst;
        for (const auto& r : a.rhs) v += read(r, env, frame);
        write(a.lhs, env, frame, v);
      } else if (sp->is_loop()) {
        const Loop& l = sp->loop();
        const long lo = l.lo.eval(env), hi = l.hi.eval(env);
        for (long t = lo; t <= hi; ++t) {
          env[l.var] = t;
          exec_body(l.body, env, frame);
        }
        env.erase(l.var);
      } else {
        const Call& c = sp->call();
        const auto* callee = prog.find_procedure(c.callee);
        require(callee != nullptr, "codegen", "unknown callee " + c.callee);
        Frame inner;
        for (std::size_t i = 0; i < callee->formals.size(); ++i) {
          const Ref& actual = c.args[i];
          const Array* target = actual.array;
          std::vector<long> off = eval_subs(actual.subs, env);
          resolve(frame, target, off);  // compose through the caller's frame
          inner[callee->formals[i]] = Binding{target, std::move(off)};
        }
        Env fresh;
        exec_body(callee->body, fresh, inner);
      }
    }
  }
};

}  // namespace

Store interpret_serial(const hpf::Program& prog) {
  SerialInterp interp(prog);
  Env env;
  Frame frame;
  const hpf::Procedure* main_proc = prog.find_procedure("main");
  require(main_proc != nullptr, "codegen", "program must define procedure main");
  interp.exec_body(main_proc->body, env, frame);
  return std::move(interp.store);
}

// -------------------------------------------------------- SPMD execution

namespace {

struct DistInfo {
  const hpf::ProcGrid* grid = nullptr;
  std::vector<int> template_ext;

  [[nodiscard]] int owner_rank(const Array& a, const std::vector<i64>& idx) const {
    if (!a.distributed() || !grid) return 0;
    int rank = 0;
    for (std::size_t g = 0; g < grid->extents.size(); ++g) {
      int coord = 0;
      for (std::size_t d = 0; d < a.dist.dims.size(); ++d) {
        const auto& dim = a.dist.dims[d];
        if (dim.kind != hpf::DistKind::Block ||
            dim.proc_dim != static_cast<int>(g))
          continue;
        const int e = template_ext[g];
        const int p = grid->extents[g];
        const int b = (e + p - 1) / p;
        coord = std::min<int>(p - 1, static_cast<int>((idx[d] + a.dist.offset(d)) / b));
      }
      rank = rank * grid->extents[g] + coord;
    }
    return rank;
  }
};

/// An anchored communication event plus its precomputed per-rank element
/// groups: for rank q and outer-iteration prefix, the elements q must
/// receive (fetch) / send back (write-back), grouped by peer rank.
struct AnchoredEvent {
  const CommEvent* ev = nullptr;
  const Stmt* anchor = nullptr;
  std::vector<std::string> outer_vars;
  // cache[rank][prefix] -> peer -> ordered element list
  using ElemList = std::vector<std::vector<i64>>;
  using PeerMap = std::map<int, ElemList>;
  std::vector<std::map<std::vector<i64>, PeerMap>> cache;
};

struct SpmdContext {
  const hpf::Program* prog = nullptr;
  const cp::CpResult* cps = nullptr;
  DistInfo dist;
  std::vector<std::vector<i64>> rank_params;
  std::vector<AnchoredEvent> events;
  std::map<const Stmt*, std::vector<const AnchoredEvent*>> fetch_before;
  std::map<const Stmt*, std::vector<const AnchoredEvent*>> wb_after;
  SpmdOptions opt;

  // per-run outputs
  std::vector<Store> stores;  // per rank
  std::vector<std::size_t> instances;
};

/// True iff `rank` executes this statement instance under `cp`.
bool guard_holds(const SpmdContext& ctx, const cp::CP& cp, const Env& env, int rank) {
  if (cp.is_replicated()) return true;
  const auto& vals = ctx.rank_params[static_cast<std::size_t>(rank)];
  for (const auto& t : cp.terms) {
    bool ok = true;
    for (std::size_t d = 0; d < t.subs.size(); ++d) {
      const auto& dim = t.array->dist.dims[d];
      if (dim.kind != hpf::DistKind::Block) continue;
      const long off = t.array->dist.offset(d);
      const long lo = t.subs[d].lo.eval(env) + off;
      const long hi = t.subs[d].hi.eval(env) + off;
      const i64 lb = vals[static_cast<std::size_t>(2 * dim.proc_dim)];
      const i64 ub = vals[static_cast<std::size_t>(2 * dim.proc_dim + 1)];
      if (hi < lb || lo > ub) {
        ok = false;
        break;
      }
    }
    if (ok) return true;
  }
  return false;
}

/// Pre-compute, for one event, every rank's element needs grouped by peer.
void build_event_cache(const hpf::Program& prog, AnchoredEvent& ae, const DistInfo& dist,
                       int nprocs) {
  const std::size_t depth = ae.outer_vars.size();
  ae.cache.resize(static_cast<std::size_t>(nprocs));
  for (int q = 0; q < nprocs; ++q) {
    const auto vals = analysis::param_values_for_rank(prog, q);
    ae.ev->data.enumerate(vals, [&](const std::vector<i64>& pt) {
      std::vector<i64> prefix(pt.begin(), pt.begin() + static_cast<std::ptrdiff_t>(depth));
      std::vector<i64> elem(pt.begin() + static_cast<std::ptrdiff_t>(depth), pt.end());
      const int owner = dist.owner_rank(*ae.ev->array, elem);
      if (owner == q) return;  // already local (can happen at block edges)
      ae.cache[static_cast<std::size_t>(q)][prefix][owner].push_back(std::move(elem));
    });
  }
}

/// Execute one fetch or write-back event on rank `me`.
exec::Task exec_event(exec::Channel& p, SpmdContext& ctx, const AnchoredEvent& ae,
                     const Env& env) {
  const int me = p.rank();
  const int n = p.nprocs();
  std::vector<i64> prefix;
  prefix.reserve(ae.outer_vars.size());
  for (const auto& v : ae.outer_vars) prefix.push_back(env.at(v));
  const int tag = 2000 + static_cast<int>(&ae - ctx.events.data());
  auto& my_store = ctx.stores[static_cast<std::size_t>(me)][ae.ev->array];

  if (ctx.opt.backend == exec::Backend::Shm) {
    // Shared-memory lowering: no message copies. Every rank reaches every
    // event instance (the fetch_before/wb_after anchoring is rank-neutral),
    // so a barrier pair brackets the exchange — the leading barrier orders
    // the producers' writes before the readers' loads, the trailing one
    // keeps later writes from racing ahead of a peer still reading. In
    // between, each rank *pulls* what it needs straight out of the peer
    // stores; ownership keeps the touched locations disjoint across ranks.
    // Peer stores are read with .at(): the maps were fully populated before
    // the threads started, and operator[] insertion would be a data race.
    //
    // When no rank has traffic for this prefix the barrier pair is skipped
    // entirely — the caches are read-only and identical across ranks, so
    // every rank takes the same branch (and the model's barrier_episodes
    // count, which only sees prefixes with traffic, stays exact).
    bool any_traffic = false;
    for (int q = 0; q < n && !any_traffic; ++q)
      any_traffic =
          ae.cache[static_cast<std::size_t>(q)].find(prefix) != ae.cache[static_cast<std::size_t>(q)].end();
    if (!any_traffic) co_return;
    mp::barrier(p);
    std::size_t shared_bytes = 0;
    if (ae.ev->kind == EventKind::Fetch) {
      // Pull my needed elements from their owners' storage.
      const auto mit = ae.cache[static_cast<std::size_t>(me)].find(prefix);
      if (mit != ae.cache[static_cast<std::size_t>(me)].end()) {
        for (const auto& [owner, elems] : mit->second) {
          const auto& src =
              ctx.stores[static_cast<std::size_t>(owner)].at(ae.ev->array);
          for (const auto& elem : elems) {
            std::vector<long> idx(elem.begin(), elem.end());
            const std::size_t f = flat_index(*ae.ev->array, idx);
            my_store[f] = src[f];
          }
          shared_bytes += elems.size() * sizeof(double);
        }
      }
    } else {
      // Write-back: as owner, pull what each producer computed of my
      // section (ascending producer rank — the same last-writer order the
      // message path's ordered receives impose).
      for (int q = 0; q < n; ++q) {
        if (q == me) continue;
        const auto pit = ae.cache[static_cast<std::size_t>(q)].find(prefix);
        if (pit == ae.cache[static_cast<std::size_t>(q)].end()) continue;
        const auto oit = pit->second.find(me);
        if (oit == pit->second.end()) continue;
        const auto& src = ctx.stores[static_cast<std::size_t>(q)].at(ae.ev->array);
        for (const auto& elem : oit->second) {
          std::vector<long> idx(elem.begin(), elem.end());
          const std::size_t f = flat_index(*ae.ev->array, idx);
          my_store[f] = src[f];
        }
        shared_bytes += oit->second.size() * sizeof(double);
      }
    }
    mp::note_shared_read(p, shared_bytes);
    mp::barrier(p);
    co_return;
  }

  if (ae.ev->kind == EventKind::Fetch) {
    // Serve other ranks' needs from my owned section, then receive mine.
    for (int q = 0; q < n; ++q) {
      if (q == me) continue;
      const auto pit = ae.cache[static_cast<std::size_t>(q)].find(prefix);
      if (pit == ae.cache[static_cast<std::size_t>(q)].end()) continue;
      const auto oit = pit->second.find(me);
      if (oit == pit->second.end()) continue;
      std::vector<double> buf;
      buf.reserve(oit->second.size());
      for (const auto& elem : oit->second) {
        std::vector<long> idx(elem.begin(), elem.end());
        buf.push_back(my_store[flat_index(*ae.ev->array, idx)]);
      }
      p.send(q, tag, std::move(buf));
    }
    const auto mit = ae.cache[static_cast<std::size_t>(me)].find(prefix);
    if (mit != ae.cache[static_cast<std::size_t>(me)].end()) {
      for (const auto& [owner, elems] : mit->second) {
        auto buf = co_await p.recv(owner, tag);
        require(buf.size() == elems.size(), "codegen", "fetch size mismatch");
        for (std::size_t i = 0; i < elems.size(); ++i) {
          std::vector<long> idx(elems[i].begin(), elems[i].end());
          my_store[flat_index(*ae.ev->array, idx)] = buf[i];
        }
      }
    }
  } else {
    // Write-back: I send the non-owned elements I produced to their owners,
    // and receive (as owner) what other ranks produced of my section.
    const auto mit = ae.cache[static_cast<std::size_t>(me)].find(prefix);
    if (mit != ae.cache[static_cast<std::size_t>(me)].end()) {
      for (const auto& [owner, elems] : mit->second) {
        std::vector<double> buf;
        buf.reserve(elems.size());
        for (const auto& elem : elems) {
          std::vector<long> idx(elem.begin(), elem.end());
          buf.push_back(my_store[flat_index(*ae.ev->array, idx)]);
        }
        p.send(owner, tag, std::move(buf));
      }
    }
    for (int q = 0; q < n; ++q) {
      if (q == me) continue;
      const auto pit = ae.cache[static_cast<std::size_t>(q)].find(prefix);
      if (pit == ae.cache[static_cast<std::size_t>(q)].end()) continue;
      const auto oit = pit->second.find(me);
      if (oit == pit->second.end()) continue;
      auto buf = co_await p.recv(q, tag);
      require(buf.size() == oit->second.size(), "codegen", "write-back size mismatch");
      for (std::size_t i = 0; i < buf.size(); ++i) {
        std::vector<long> idx(oit->second[i].begin(), oit->second[i].end());
        my_store[flat_index(*ae.ev->array, idx)] = buf[i];
      }
    }
  }
}

exec::Task exec_callee_body(exec::Channel& p, SpmdContext& ctx,
                           const std::vector<hpf::StmtPtr>& body, Env env, Frame frame);

exec::Task exec_body(exec::Channel& p, SpmdContext& ctx, const std::vector<hpf::StmtPtr>& body,
                    Env& env) {
  const int me = p.rank();
  auto& store = ctx.stores[static_cast<std::size_t>(me)];
  for (const auto& sp : body) {
    auto fit = ctx.fetch_before.find(sp.get());
    if (fit != ctx.fetch_before.end())
      for (const auto* ae : fit->second) co_await exec_event(p, ctx, *ae, env);

    if (sp->is_assign()) {
      const Assign& a = sp->assign();
      const int id = a.id;
      if (guard_holds(ctx, ctx.cps->cp_of(id), env, me)) {
        double v = a.cst;
        for (const auto& r : a.rhs)
          v += store[r.array][flat_index(*r.array, eval_subs(r.subs, env))];
        store[a.lhs.array][flat_index(*a.lhs.array, eval_subs(a.lhs.subs, env))] = v;
        ++ctx.instances[static_cast<std::size_t>(me)];
        p.compute(ctx.opt.flops_per_instance);
      }
    } else if (sp->is_loop()) {
      const Loop& l = sp->loop();
      const long lo = l.lo.eval(env), hi = l.hi.eval(env);
      for (long t = lo; t <= hi; ++t) {
        env[l.var] = t;
        co_await exec_body(p, ctx, l.body, env);
      }
      env.erase(l.var);
    } else {
      const Call& c = sp->call();
      if (guard_holds(ctx, ctx.cps->cp_of(c.id), env, me)) {
        const auto* callee = ctx.prog->find_procedure(c.callee);
        Frame inner;
        for (std::size_t i = 0; i < callee->formals.size(); ++i) {
          inner[callee->formals[i]] =
              Binding{c.args[i].array, eval_subs(c.args[i].subs, env)};
        }
        co_await exec_callee_body(p, ctx, callee->body, Env{}, std::move(inner));
      }
    }

    auto wit = ctx.wb_after.find(sp.get());
    if (wit != ctx.wb_after.end())
      for (const auto* ae : wit->second) co_await exec_event(p, ctx, *ae, env);
  }
}

/// Callee bodies run unguarded under the call statement's CP; their data
/// accesses must be local by construction (the §6 alignment) — a violation
/// surfaces as NaN in verification.
exec::Task exec_callee_body(exec::Channel& p, SpmdContext& ctx,
                           const std::vector<hpf::StmtPtr>& body, Env env, Frame frame) {
  auto& store = ctx.stores[static_cast<std::size_t>(p.rank())];
  for (const auto& sp : body) {
    if (sp->is_assign()) {
      const Assign& a = sp->assign();
      double v = a.cst;
      for (const auto& r : a.rhs) {
        const Array* arr = r.array;
        std::vector<long> idx = eval_subs(r.subs, env);
        resolve(frame, arr, idx);
        v += store[arr][flat_index(*arr, idx)];
      }
      const Array* la = a.lhs.array;
      std::vector<long> lidx = eval_subs(a.lhs.subs, env);
      resolve(frame, la, lidx);
      store[la][flat_index(*la, lidx)] = v;
      ++ctx.instances[static_cast<std::size_t>(p.rank())];
      p.compute(ctx.opt.flops_per_instance);
    } else if (sp->is_loop()) {
      const Loop& l = sp->loop();
      const long lo = l.lo.eval(env), hi = l.hi.eval(env);
      for (long t = lo; t <= hi; ++t) {
        env[l.var] = t;
        co_await exec_callee_body(p, ctx, l.body, env, frame);
      }
      env.erase(l.var);
    } else {
      const Call& c = sp->call();
      const auto* callee = ctx.prog->find_procedure(c.callee);
      Frame inner;
      for (std::size_t i = 0; i < callee->formals.size(); ++i) {
        const Array* target = c.args[i].array;
        std::vector<long> off = eval_subs(c.args[i].subs, env);
        resolve(frame, target, off);
        inner[callee->formals[i]] = Binding{target, std::move(off)};
      }
      co_await exec_callee_body(p, ctx, callee->body, Env{}, std::move(inner));
    }
  }
}

}  // namespace

std::size_t SpmdResult::total_instances() const {
  std::size_t n = 0;
  for (auto v : instances_per_rank) n += v;
  return n;
}

SpmdResult run_spmd(const hpf::Program& prog, const cp::CpResult& cps,
                    const comm::CommPlan& plan, const exec::Machine& machine,
                    const SpmdOptions& opt) {
  const hpf::Procedure* main_proc = prog.find_procedure("main");
  require(main_proc != nullptr, "codegen", "program must define procedure main");

  SpmdContext ctx;
  ctx.prog = &prog;
  ctx.cps = &cps;
  ctx.opt = opt;
  ctx.dist.grid = prog.grids().empty() ? nullptr : prog.grids().front().get();
  ctx.dist.template_ext = analysis::template_extents(prog);
  const int nprocs = ctx.dist.grid ? ctx.dist.grid->nprocs() : 1;
  for (int r = 0; r < nprocs; ++r)
    ctx.rank_params.push_back(analysis::param_values_for_rank(prog, r));

  // Statement id -> procedure containing it, and ancestor chains in main.
  std::map<int, std::vector<const Stmt*>> chains;
  {
    std::vector<const Stmt*> stack;
    std::function<void(const std::vector<hpf::StmtPtr>&)> rec =
        [&](const std::vector<hpf::StmtPtr>& body) {
          for (const auto& sp : body) {
            stack.push_back(sp.get());
            if (sp->is_assign())
              chains[sp->assign().id] = stack;
            else if (sp->is_call())
              chains[sp->call().id] = stack;
            else
              rec(sp->loop().body);
            stack.pop_back();
          }
        };
    rec(main_proc->body);
  }

  // Anchor the plan's events and build their per-rank need caches
  // (main-procedure statements only; callee-side communication is out of
  // scope — see the module comment).
  ctx.events.reserve(plan.events.size());
  for (const auto& ev : plan.events) {
    if (ev.eliminated) continue;
    auto cit = chains.find(ev.stmt_id);
    if (cit == chains.end()) continue;  // statement lives in a callee
    DHPF_COUNTER("codegen.comm_events_placed");
    AnchoredEvent ae;
    ae.ev = &ev;
    const auto& chain = cit->second;
    require(static_cast<std::size_t>(ev.placement_depth) < chain.size() + 1, "codegen",
            "placement depth beyond nest");
    ae.anchor = chain[std::min<std::size_t>(static_cast<std::size_t>(ev.placement_depth),
                                            chain.size() - 1)];
    const auto& path = cps.stmts.at(ev.stmt_id).path;
    for (int d = 0; d < ev.placement_depth; ++d)
      ae.outer_vars.push_back(path[static_cast<std::size_t>(d)]->var);
    build_event_cache(prog, ae, ctx.dist, nprocs);
    ctx.events.push_back(std::move(ae));
  }
  for (auto& ae : ctx.events) {
    if (ae.ev->kind == EventKind::Fetch)
      ctx.fetch_before[ae.anchor].push_back(&ae);
    else
      ctx.wb_after[ae.anchor].push_back(&ae);
  }

  // Storage: owned (or replicated-array) elements get the initial value;
  // everything else is NaN-poisoned.
  ctx.stores.resize(static_cast<std::size_t>(nprocs));
  ctx.instances.assign(static_cast<std::size_t>(nprocs), 0);
  for (int r = 0; r < nprocs; ++r) {
    for (const auto& a : prog.arrays()) {
      auto& v = ctx.stores[static_cast<std::size_t>(r)][a.get()];
      v.resize(array_size(*a));
      std::vector<i64> idx(a->extents.size(), 0);
      for (std::size_t f = 0; f < v.size(); ++f) {
        const bool mine = !a->distributed() || ctx.dist.owner_rank(*a, idx) == r;
        v[f] = mine ? init_value(*a, f) : std::numeric_limits<double>::quiet_NaN();
        // advance the multi-index
        for (std::size_t d = a->extents.size(); d-- > 0;) {
          if (++idx[d] < a->extents[d]) break;
          idx[d] = 0;
        }
      }
    }
  }

  const auto body = [&](exec::Channel& p) -> exec::Task {
    // Non-capturing coroutine lambda: its frame holds the parameters, so no
    // dangling closure state across suspension.
    return [](exec::Channel& pp, SpmdContext& c, const hpf::Procedure* mproc) -> exec::Task {
      Env e;
      co_await exec_body(pp, c, mproc->body, e);
    }(p, ctx, main_proc);
  };

  // On mp/shm the ranks are real threads: safe because every rank touches
  // only its own slot of ctx.stores / ctx.instances and the event caches
  // are read-only here; on shm the cross-rank store accesses in
  // exec_event's shared-memory path are bracketed by barriers and disjoint
  // by ownership.
  SpmdResult result;
  static_cast<exec::RunStats&>(result) =
      mp::run(opt.backend, nprocs, machine, opt.runtime, body,
              opt.record_trace ? &result.trace : nullptr);
  result.instances_per_rank = ctx.instances;

  if (opt.collect_result) {
    for (const auto& a : prog.arrays()) {
      if (!a->distributed()) continue;
      auto& out = result.gathered[a.get()];
      out.resize(array_size(*a));
      std::vector<i64> idx(a->extents.size(), 0);
      for (std::size_t f = 0; f < out.size(); ++f) {
        const int owner = ctx.dist.owner_rank(*a, idx);
        out[f] = ctx.stores[static_cast<std::size_t>(owner)].at(a.get())[f];
        for (std::size_t dd = a->extents.size(); dd-- > 0;) {
          if (++idx[dd] < a->extents[dd]) break;
          idx[dd] = 0;
        }
      }
    }
  }

  if (opt.verify) {
    const Store serial = interpret_serial(prog);
    double worst = 0.0;
    for (const auto& a : prog.arrays()) {
      if (!a->distributed()) continue;
      const auto& ref = serial.at(a.get());
      std::vector<i64> idx(a->extents.size(), 0);
      for (std::size_t f = 0; f < ref.size(); ++f) {
        const int owner = ctx.dist.owner_rank(*a, idx);
        const double got = ctx.stores[static_cast<std::size_t>(owner)].at(a.get())[f];
        const double d = std::fabs(got - ref[f]);
        if (!(d <= worst)) worst = std::isnan(d) ? 1e30 : std::max(worst, d);
        for (std::size_t dd = a->extents.size(); dd-- > 0;) {
          if (++idx[dd] < a->extents[dd]) break;
          idx[dd] = 0;
        }
      }
    }
    result.max_err = worst;
    require(worst < 1e-9, "codegen",
            "SPMD verification failed: max |err| = " + std::to_string(worst) +
                " (NaN indicates missing communication)");
  }
  return result;
}

// --------------------------------------------------------------- emitter

namespace {

void emit_body(std::ostringstream& out, const hpf::Program& prog, const cp::CpResult& cps,
               const std::map<const Stmt*, std::vector<const CommEvent*>>& fetches,
               const std::map<const Stmt*, std::vector<const CommEvent*>>& wbs,
               const std::vector<hpf::StmtPtr>& body, int indent) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  for (const auto& sp : body) {
    auto fit = fetches.find(sp.get());
    if (fit != fetches.end())
      for (const auto* ev : fit->second)
        out << pad << "! RECV " << ev->to_string() << "\n";
    if (sp->is_assign()) {
      const Assign& a = sp->assign();
      DHPF_COUNTER("codegen.guards_emitted");
      out << pad << "if (myid in [" << cps.cp_of(a.id).to_string() << "]) S" << a.id << ": "
          << hpf::assign_to_string(a) << "\n";
    } else if (sp->is_call()) {
      const Call& c = sp->call();
      DHPF_COUNTER("codegen.guards_emitted");
      out << pad << "if (myid in [" << cps.cp_of(c.id).to_string() << "]) S" << c.id
          << ": call " << c.callee << "(...)\n";
    } else {
      const Loop& l = sp->loop();
      out << pad << "do " << l.var << " = " << l.lo.to_string() << ", " << l.hi.to_string()
          << "\n";
      emit_body(out, prog, cps, fetches, wbs, l.body, indent + 1);
      out << pad << "enddo\n";
    }
    auto wit = wbs.find(sp.get());
    if (wit != wbs.end())
      for (const auto* ev : wit->second)
        out << pad << "! SEND " << ev->to_string() << "\n";
  }
}

}  // namespace

std::string emit_spmd(const hpf::Program& prog, const cp::CpResult& cps,
                      const comm::CommPlan& plan) {
  obs::ScopedTimer timer("codegen.emit");
  const hpf::Procedure* main_proc = prog.find_procedure("main");
  require(main_proc != nullptr, "codegen", "program must define procedure main");

  std::map<int, std::vector<const Stmt*>> chains;
  {
    std::vector<const Stmt*> stack;
    std::function<void(const std::vector<hpf::StmtPtr>&)> rec =
        [&](const std::vector<hpf::StmtPtr>& body) {
          for (const auto& sp : body) {
            stack.push_back(sp.get());
            if (sp->is_assign())
              chains[sp->assign().id] = stack;
            else if (sp->is_call())
              chains[sp->call().id] = stack;
            else
              rec(sp->loop().body);
            stack.pop_back();
          }
        };
    rec(main_proc->body);
  }
  std::map<const Stmt*, std::vector<const CommEvent*>> fetches, wbs;
  std::ostringstream eliminated;
  for (const auto& ev : plan.events) {
    auto cit = chains.find(ev.stmt_id);
    if (cit == chains.end()) continue;
    if (ev.eliminated) {
      eliminated << "!   " << ev.to_string() << "\n";
      continue;
    }
    const Stmt* anchor =
        cit->second[std::min<std::size_t>(static_cast<std::size_t>(ev.placement_depth),
                                          cit->second.size() - 1)];
    (ev.kind == EventKind::Fetch ? fetches : wbs)[anchor].push_back(&ev);
  }

  std::ostringstream out;
  out << "! SPMD node program (representative processor myid)\n";
  if (eliminated.tellp() > 0)
    out << "! communication eliminated by data availability analysis (sec 7):\n"
        << eliminated.str();
  emit_body(out, prog, cps, fetches, wbs, main_proc->body, 0);
  return out.str();
}

}  // namespace dhpf::codegen
