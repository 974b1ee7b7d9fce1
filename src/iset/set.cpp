#include "iset/set.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "iset/intern.hpp"
#include "support/diagnostics.hpp"
#include "support/metrics.hpp"

namespace dhpf::iset {

// ------------------------------------------------------------- BasicSet

void BasicSet::add(Constraint c) {
  require(c.e.var.size() == nvars_ && c.e.param.size() == params_.size(), "iset",
          "constraint space mismatch");
  cs_.push_back(std::move(c));
  rep_.store(0, std::memory_order_relaxed);
}

void BasicSet::add_bounds(std::size_t v, const LinExpr& lo, const LinExpr& hi) {
  add(Constraint::ge0(expr_var(v) - lo));
  add(Constraint::ge0(hi - expr_var(v)));
}

void BasicSet::add_eq(std::size_t v, const LinExpr& value) {
  add(Constraint::eq0(expr_var(v) - value));
}

BasicSet BasicSet::intersect(const BasicSet& o) const {
  require(nvars_ == o.nvars_ && params_ == o.params_, "iset", "intersect: space mismatch");
  BasicSet r = *this;
  for (const auto& c : o.cs_) r.cs_.push_back(c);
  r.rep_.store(0, std::memory_order_relaxed);
  return r;
}

namespace {

/// Remove dimension v from an expression (its coefficient must be zero).
LinExpr drop_var(const LinExpr& e, std::size_t v) {
  LinExpr r = e;
  r.var.erase(r.var.begin() + static_cast<std::ptrdiff_t>(v));
  return r;
}

}  // namespace

BasicSet BasicSet::project_out(std::size_t v) const {
  require(v < nvars_, "iset", "project_out: variable out of range");
  DHPF_COUNTER("iset.projections");
  BasicSet out(nvars_ - 1, params_);

  // Split constraints on whether they mention v.
  std::vector<Constraint> eqs, lowers, uppers, rest;
  for (const auto& c : cs_) {
    const i64 a = c.e.var[v];
    if (a == 0)
      rest.push_back(c);
    else if (c.is_eq)
      eqs.push_back(c);
    else if (a > 0)
      lowers.push_back(c);  // a*v + f >= 0 -> lower bound on v
    else
      uppers.push_back(c);  // a*v + f >= 0, a<0 -> upper bound on v
  }

  if (!eqs.empty()) {
    DHPF_COUNTER("iset.eq_substitutions");
    // Integer-exact substitution through an equality: normalize a > 0, then
    // for any constraint b*v + f (>=|==) 0, replace with a*f - b*g where
    // a*v + g == 0 (scaling an inequality by a > 0 preserves it).
    Constraint eq = eqs.front();
    if (eq.e.var[v] < 0) eq.e *= -1;
    const i64 a = eq.e.var[v];
    LinExpr g = eq.e;  // a*v + g_rest; we use the whole expr and cancel v
    auto substitute = [&](const Constraint& c) {
      const i64 b = c.e.var[v];
      LinExpr r = c.e * a - g * b;  // coefficient of v: b*a - a*b = 0
      Constraint nc{drop_var(r, v), c.is_eq};
      nc.e.normalize_gcd();
      return nc;
    };
    for (std::size_t i = 1; i < eqs.size(); ++i) out.cs_.push_back(substitute(eqs[i]));
    for (const auto& c : lowers) out.cs_.push_back(substitute(c));
    for (const auto& c : uppers) out.cs_.push_back(substitute(c));
    for (const auto& c : rest) out.cs_.push_back(Constraint{drop_var(c.e, v), c.is_eq});
    return out;
  }

  // Fourier-Motzkin pairs (rational).
  DHPF_COUNTER("iset.fm_projections");
  DHPF_COUNTER_ADD("iset.fm_pair_constraints", lowers.size() * uppers.size());
  for (const auto& lo : lowers)
    for (const auto& up : uppers) {
      const i64 a = lo.e.var[v];    // > 0
      const i64 b = -up.e.var[v];   // > 0
      LinExpr r = lo.e * b + up.e * a;  // v-coefficient: a*b - b*a = 0
      Constraint nc{drop_var(r, v), false};
      nc.e.normalize_gcd();
      out.cs_.push_back(std::move(nc));
    }
  for (const auto& c : rest) out.cs_.push_back(Constraint{drop_var(c.e, v), c.is_eq});
  out.simplify();
  return out;
}

bool BasicSet::simplify() {
  std::vector<Constraint> kept;
  for (auto c : cs_) {
    c.e.normalize_gcd();
    if (c.e.is_constant()) {
      const bool ok = c.is_eq ? (c.e.cst == 0) : (c.e.cst >= 0);
      if (!ok) {
        // Statically infeasible: mark by a canonical false constraint.
        cs_.clear();
        cs_.push_back(Constraint::ge0(expr_const(-1)));
        rep_.store(0, std::memory_order_relaxed);
        return false;
      }
      continue;  // tautology
    }
    bool dup = false;
    for (const auto& k : kept)
      if (k == c) {
        dup = true;
        break;
      }
    if (!dup) kept.push_back(std::move(c));
  }
  cs_ = std::move(kept);
  rep_.store(0, std::memory_order_relaxed);
  return true;
}

bool BasicSet::is_empty() const {
  DHPF_COUNTER("iset.emptiness_tests");
  std::uint64_t key = 0;
  const bool cache = memo::enabled();
  if (cache) {
    key = rep_id();
    if (auto hit = memo::bool_lookup(key)) return *hit;
  }
  const bool result = [&] {
    BasicSet work = *this;
    if (!work.simplify()) return true;
    // Eliminate all tuple variables...
    while (work.nvars_ > 0) {
      work = work.project_out(work.nvars_ - 1);
      if (!work.simplify()) return true;
    }
    // ...then treat parameters as variables and eliminate them too.
    BasicSet ground(params_.size(), Params{});
    for (const auto& c : work.cs_) {
      LinExpr e = LinExpr::zero(params_.size(), 0);
      e.var = c.e.param;
      e.cst = c.e.cst;
      ground.cs_.push_back(Constraint{std::move(e), c.is_eq});
    }
    if (!ground.simplify()) return true;
    while (ground.nvars_ > 0) {
      ground = ground.project_out(ground.nvars_ - 1);
      if (!ground.simplify()) return true;
    }
    for (const auto& c : ground.cs_) {
      if (c.is_eq ? (c.e.cst != 0) : (c.e.cst < 0)) return true;
    }
    return false;
  }();
  if (cache) memo::bool_store(key, result);
  return result;
}

bool BasicSet::contains(const std::vector<i64>& vars, const std::vector<i64>& params) const {
  for (const auto& c : cs_)
    if (!c.satisfied(vars, params)) return false;
  return true;
}

std::string BasicSet::to_string(const std::vector<std::string>& var_names) const {
  std::ostringstream out;
  out << "{ ";
  for (std::size_t v = 0; v < nvars_; ++v) {
    if (v) out << ", ";
    out << (v < var_names.size() ? var_names[v] : "x" + std::to_string(v));
  }
  out << " : ";
  for (std::size_t i = 0; i < cs_.size(); ++i) {
    if (i) out << " and ";
    out << cs_[i].to_string(params_, var_names);
  }
  if (cs_.empty()) out << "true";
  out << " }";
  return out.str();
}

// ------------------------------------------------------------------ Set

namespace {

/// High-water mark of union fragmentation (parts in any Set a union,
/// intersection or difference produced). Differences split into disjoint
/// pieces (subtract_disjoint), so a subtracted part no longer multiplies a
/// union; a change that lets unions grow again shows here first. Published
/// as a gauge only when the maximum actually moves, so the hot path stays a
/// relaxed load.
void note_fragmentation(std::size_t parts) {
  static std::atomic<std::size_t> high{0};
  std::size_t cur = high.load(std::memory_order_relaxed);
  while (parts > cur &&
         !high.compare_exchange_weak(cur, parts, std::memory_order_relaxed)) {
  }
  if (parts > cur)
    obs::Registry::current().set_gauge("iset.max_fragmentation", static_cast<double>(parts));
}

/// Appends A - B to `out` as pairwise disjoint pieces: piece i keeps B's
/// constraints c_1..c_{i-1} and violates c_i, so distinct pieces disagree on
/// the first constraint they violate. Negating an equality yields its two
/// (themselves disjoint) strict sides. A constraint whose violation pieces
/// are all empty is implied by the prefix (is_empty() answers "empty" only
/// for truly empty sets), so it stays out of the prefix: carrying it would
/// only make every later piece dearer to test.
void subtract_disjoint(const BasicSet& a, const BasicSet& b, std::vector<BasicSet>& out) {
  BasicSet prefix = a;  // a ∩ the constraints before c that were not implied
  for (const auto& c : b.constraints()) {
    bool implied = true;
    auto emit = [&](const LinExpr& violated) {
      BasicSet piece = prefix;
      piece.add(Constraint::ge0(violated));
      if (piece.simplify() && !piece.is_empty()) {
        out.push_back(std::move(piece));
        implied = false;
      }
    };
    // ¬(e >= 0) is -e-1 >= 0; ¬(e == 0) is (-e-1 >= 0) ∪ (e-1 >= 0).
    emit(c.e * -1 - a.expr_const(1) + a.expr_zero());
    if (c.is_eq) emit(c.e - a.expr_const(1) + a.expr_zero());
    if (implied) continue;
    prefix.add(c);
    if (!prefix.simplify()) break;  // remaining pieces all empty
  }
}

/// `pieces` minus parts[0], ..., parts[n-1] in turn, in part order and, within
/// one split, in the subtracted part's constraint order. Pieces split from
/// one piece never share a point, so a disjoint list stays disjoint.
std::vector<BasicSet> minus_parts(std::vector<BasicSet> pieces,
                                  const std::vector<BasicSet>& parts, std::size_t n) {
  for (std::size_t j = 0; j < n && !pieces.empty(); ++j) {
    std::vector<BasicSet> next;
    for (const auto& piece : pieces) subtract_disjoint(piece, parts[j], next);
    pieces = std::move(next);
  }
  return pieces;
}

}  // namespace

Set::Set(BasicSet bs) : nvars_(bs.nvars()), params_(bs.params()) {
  parts_.push_back(std::move(bs));
}

void Set::add_part(BasicSet bs) {
  require(bs.nvars() == nvars_ && bs.params() == params_, "iset", "add_part: space mismatch");
  DHPF_COUNTER("iset.polyhedra_created");
  if (bs.simplify() && !bs.is_empty()) parts_.push_back(std::move(bs));
  rep_.store(0, std::memory_order_relaxed);
}

Set Set::unite(const Set& o) const {
  require(nvars_ == o.nvars_ && params_ == o.params_, "iset", "unite: space mismatch");
  DHPF_COUNTER("iset.op.unions");
  DHPF_COUNTER_ADD("iset.op.operand_parts", parts_.size() + o.parts_.size());
  std::uint64_t ka = 0, kb = 0;
  const bool cache = memo::enabled();
  if (cache) {
    ka = rep_id();
    kb = o.rep_id();
    if (auto hit = memo::set_lookup(memo::Op::Unite, ka, kb)) return *hit;
  }
  Set r = *this;
  for (const auto& p : o.parts_) r.parts_.push_back(p);
  r.rep_.store(0, std::memory_order_relaxed);
  note_fragmentation(r.parts_.size());
  if (cache) memo::set_store(memo::Op::Unite, ka, kb, r);
  return r;
}

Set Set::intersect(const Set& o) const {
  require(nvars_ == o.nvars_ && params_ == o.params_, "iset", "intersect: space mismatch");
  DHPF_COUNTER("iset.op.intersections");
  DHPF_COUNTER_ADD("iset.op.operand_parts", parts_.size() + o.parts_.size());
  std::uint64_t ka = 0, kb = 0;
  const bool cache = memo::enabled();
  if (cache) {
    ka = rep_id();
    kb = o.rep_id();
    if (auto hit = memo::set_lookup(memo::Op::Intersect, ka, kb)) return *hit;
  }
  Set r(nvars_, params_);
  for (const auto& a : parts_)
    for (const auto& b : o.parts_) r.add_part(a.intersect(b));
  note_fragmentation(r.parts_.size());
  if (cache) memo::set_store(memo::Op::Intersect, ka, kb, r);
  return r;
}

Set Set::subtract(const Set& o) const {
  require(nvars_ == o.nvars_ && params_ == o.params_, "iset", "subtract: space mismatch");
  DHPF_COUNTER("iset.op.differences");
  DHPF_COUNTER_ADD("iset.op.operand_parts", parts_.size() + o.parts_.size());
  std::uint64_t ka = 0, kb = 0;
  const bool cache = memo::enabled();
  if (cache) {
    ka = rep_id();
    kb = o.rep_id();
    if (auto hit = memo::set_lookup(memo::Op::Subtract, ka, kb)) return *hit;
  }
  Set r(nvars_, params_);
  r.parts_ = minus_parts(parts_, o.parts_, o.parts_.size());
  note_fragmentation(r.parts_.size());
  if (cache) memo::set_store(memo::Op::Subtract, ka, kb, r);
  return r;
}

Set Set::project_out(std::size_t v) const {
  std::uint64_t ka = 0;
  const bool cache = memo::enabled();
  if (cache) {
    ka = rep_id();
    if (auto hit = memo::set_lookup(memo::Op::Project, ka, v)) return *hit;
  }
  Set r(nvars_ - 1, params_);
  for (const auto& p : parts_) r.add_part(p.project_out(v));
  if (cache) memo::set_store(memo::Op::Project, ka, v, r);
  return r;
}

bool Set::is_empty() const {
  for (const auto& p : parts_)
    if (!p.is_empty()) return false;
  return true;
}

bool Set::contains(const std::vector<i64>& vars, const std::vector<i64>& params) const {
  for (const auto& p : parts_)
    if (p.contains(vars, params)) return true;
  return false;
}

Set Set::apply(const AffineMap& map) const {
  require(map.n_in() == nvars_ && map.params() == params_, "iset", "apply: space mismatch");
  std::uint64_t ka = 0, kb = 0;
  const bool cache = memo::enabled();
  if (cache) {
    ka = rep_id();
    kb = memo::intern_key(rep_bytes(map));
    if (auto hit = memo::set_lookup(memo::Op::Apply, ka, kb)) return *hit;
  }
  const std::size_t m = map.n_out();
  Set r(m, params_);
  for (const auto& p : parts_) {
    // Variables: [y_0..y_{m-1}, x_0..x_{n-1}]; add y_i == f_i(x), then
    // eliminate the x block.
    BasicSet ext(m + nvars_, params_);
    for (const auto& c : p.constraints()) {
      LinExpr e = LinExpr::zero(m + nvars_, params_.size());
      for (std::size_t i = 0; i < nvars_; ++i) e.var[m + i] = c.e.var[i];
      e.param = c.e.param;
      e.cst = c.e.cst;
      ext.add(Constraint{std::move(e), c.is_eq});
    }
    for (std::size_t o = 0; o < m; ++o) {
      LinExpr e = LinExpr::zero(m + nvars_, params_.size());
      e.var[o] = 1;
      const LinExpr& f = map.out(o);
      for (std::size_t i = 0; i < nvars_; ++i) e.var[m + i] -= f.var[i];
      for (std::size_t j = 0; j < params_.size(); ++j) e.param[j] -= f.param[j];
      e.cst -= f.cst;
      ext.add(Constraint::eq0(std::move(e)));
    }
    BasicSet proj = ext;
    for (std::size_t i = 0; i < nvars_; ++i) proj = proj.project_out(proj.nvars() - 1);
    r.add_part(std::move(proj));
  }
  if (cache) memo::set_store(memo::Op::Apply, ka, kb, r);
  return r;
}

Set Set::preimage(const AffineMap& map) const {
  require(map.n_out() == nvars_ && map.params() == params_, "iset",
          "preimage: space mismatch");
  std::uint64_t ka = 0, kb = 0;
  const bool cache = memo::enabled();
  if (cache) {
    ka = rep_id();
    kb = memo::intern_key(rep_bytes(map));
    if (auto hit = memo::set_lookup(memo::Op::Preimage, ka, kb)) return *hit;
  }
  Set r(map.n_in(), params_);
  for (const auto& p : parts_) {
    BasicSet bs(map.n_in(), params_);
    for (const auto& c : p.constraints()) {
      LinExpr e = LinExpr::constant(map.n_in(), params_.size(), c.e.cst);
      for (std::size_t j = 0; j < params_.size(); ++j) e.param[j] += c.e.param[j];
      for (std::size_t i = 0; i < nvars_; ++i) e += map.out(i) * c.e.var[i];
      bs.add(Constraint{std::move(e), c.is_eq});
    }
    r.add_part(std::move(bs));
  }
  if (cache) memo::set_store(memo::Op::Preimage, ka, kb, r);
  return r;
}

namespace {

/// Rational bounds of variable v in bs (given concrete params and outer
/// variables already substituted): returns [lo, hi] candidates.
bool var_bounds(const BasicSet& bs, const std::vector<i64>& params, std::size_t v,
                const std::vector<i64>& fixed, i64* lo, i64* hi) {
  // fixed holds values for vars [0, v); vars > v must already be projected
  // away by the caller.
  bool has_lo = false, has_hi = false;
  i64 best_lo = 0, best_hi = 0;
  for (const auto& c : bs.constraints()) {
    const i64 a = c.e.var[v];
    // residual = contribution of fixed vars + params + cst
    i64 res = c.e.cst;
    for (std::size_t i = 0; i < v; ++i) res += c.e.var[i] * fixed[i];
    for (std::size_t j = 0; j < params.size(); ++j) res += c.e.param[j] * params[j];
    bool higher_vars = false;
    for (std::size_t i = v + 1; i < c.e.var.size(); ++i)
      if (c.e.var[i] != 0) higher_vars = true;
    if (higher_vars) continue;  // handled by the projected copies
    if (a == 0) {
      if (c.is_eq ? (res != 0) : (res < 0)) return false;  // infeasible here
      continue;
    }
    // a*v + res >= 0 (or == 0)
    if (c.is_eq) {
      // a*v == -res must have an integer solution.
      if ((-res) % a != 0) return false;
      const i64 val = -res / a;
      if (!has_lo || val > best_lo) best_lo = val, has_lo = true;
      if (!has_hi || val < best_hi) best_hi = val, has_hi = true;
    } else if (a > 0) {
      // v >= ceil(-res / a); C++ division truncates toward zero.
      const i64 num = -res;
      const i64 aa = (a > 0) ? a : -a;
      i64 q = num / aa;
      if (num % aa != 0 && num > 0) ++q;
      if (!has_lo || q > best_lo) best_lo = q, has_lo = true;
    } else {
      // v <= floor(res / -a)
      const i64 na = -a;
      i64 q = res / na;
      if (res % na != 0 && res < 0) --q;
      if (!has_hi || q < best_hi) best_hi = q, has_hi = true;
    }
  }
  if (!has_lo || !has_hi) return false;  // unbounded: caller treats as error
  *lo = best_lo;
  *hi = best_hi;
  return best_lo <= best_hi;
}

}  // namespace

void Set::enumerate(const std::vector<i64>& param_values,
                    const std::function<void(const std::vector<i64>&)>& cb) const {
  require(param_values.size() == params_.size(), "iset", "enumerate: wrong param count");
  DHPF_COUNTER("iset.enumerations");
  std::vector<std::vector<i64>> points;
  for (const auto& part : parts_) {
    // Projection cascade: proj[d] has vars 0..d (vars above projected away).
    std::vector<BasicSet> proj(nvars_, BasicSet(0, params_));
    if (nvars_ == 0) {
      if (part.contains({}, param_values)) points.push_back({});
      continue;
    }
    BasicSet cur = part;
    for (std::size_t d = nvars_; d-- > 0;) {
      proj[d] = cur;
      if (d > 0) cur = cur.project_out(d);
    }
    std::vector<i64> point(nvars_, 0);
    std::function<void(std::size_t)> descend = [&](std::size_t d) {
      i64 lo, hi;
      if (!var_bounds(proj[d], param_values, d, point, &lo, &hi)) return;
      require(hi - lo < 100000000, "iset", "enumerate: variable range too large");
      for (i64 v = lo; v <= hi; ++v) {
        point[d] = v;
        if (d + 1 == nvars_) {
          // Final exactness filter against the original constraints.
          if (part.contains(point, param_values)) points.push_back(point);
        } else {
          descend(d + 1);
        }
      }
    };
    descend(0);
  }
  // Deduplicate across union parts and emit in lexicographic order.
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  for (const auto& pt : points) cb(pt);
}

std::size_t Set::count(const std::vector<i64>& param_values) const {
  std::size_t n = 0;
  enumerate(param_values, [&](const std::vector<i64>&) { ++n; });
  return n;
}

namespace {

/// Points of one BasicSet under concrete params, without materializing them:
/// the same projection-cascade descent enumerate() uses, with the final
/// exactness re-check against the original constraints, but only a counter.
std::size_t count_basic(const BasicSet& part, const std::vector<i64>& params) {
  const std::size_t nvars = part.nvars();
  if (nvars == 0) return part.contains({}, params) ? 1 : 0;
  std::vector<BasicSet> proj(nvars, BasicSet(0, part.params()));
  BasicSet cur = part;
  for (std::size_t d = nvars; d-- > 0;) {
    proj[d] = cur;
    if (d > 0) cur = cur.project_out(d);
  }
  std::size_t total = 0;
  std::vector<i64> point(nvars, 0);
  std::function<void(std::size_t)> descend = [&](std::size_t d) {
    i64 lo, hi;
    if (!var_bounds(proj[d], params, d, point, &lo, &hi)) return;
    require(hi - lo < 100000000, "iset", "cardinality: variable range too large");
    for (i64 v = lo; v <= hi; ++v) {
      point[d] = v;
      if (d + 1 == nvars) {
        if (part.contains(point, params)) ++total;
      } else {
        descend(d + 1);
      }
    }
  };
  descend(0);
  return total;
}

}  // namespace

std::size_t Set::cardinality(const std::vector<i64>& param_values) const {
  require(param_values.size() == params_.size(), "iset", "cardinality: wrong param count");
  DHPF_COUNTER("iset.cardinalities");
  DHPF_COUNTER_ADD("iset.op.operand_parts", parts_.size());
  std::uint64_t ks = 0, kp = 0;
  const bool cache = memo::enabled();
  if (cache) {
    ks = rep_id();
    kp = memo::intern_point(param_values);
    if (auto hit = memo::count_lookup(ks, kp)) return *hit;
  }
  // Make the union disjoint: each part with every earlier part subtracted,
  // so per-piece counts add up exactly.
  std::size_t total = 0;
  for (std::size_t i = 0; i < parts_.size(); ++i)
    for (const auto& piece : minus_parts({parts_[i]}, parts_, i))
      total += count_basic(piece, param_values);
  if (cache) memo::count_store(ks, kp, total);
  return total;
}

std::optional<std::vector<i64>> Set::sample(const std::vector<i64>& param_values) const {
  std::uint64_t ks = 0, kp = 0;
  const bool cache = memo::enabled();
  if (cache) {
    ks = rep_id();
    kp = memo::intern_point(param_values);
    if (auto hit = memo::sample_lookup(ks, kp)) {
      if (!hit->has) return std::nullopt;
      return hit->point;
    }
  }
  std::optional<std::vector<i64>> first;
  enumerate(param_values, [&](const std::vector<i64>& pt) {
    if (!first) first = pt;
  });
  if (cache) {
    memo::SampleResult r;
    r.has = first.has_value();
    if (first) r.point = *first;
    memo::sample_store(ks, kp, r);
  }
  return first;
}

std::string Set::to_string(const std::vector<std::string>& var_names) const {
  if (parts_.empty()) return "{ }";
  std::ostringstream out;
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    if (i) out << " union ";
    out << parts_[i].to_string(var_names);
  }
  return out.str();
}

// ------------------------------------------------------------ AffineMap

AffineMap::AffineMap(std::size_t n_in, std::size_t n_out, Params params)
    : n_in_(n_in), params_(std::move(params)),
      outs_(n_out, LinExpr::zero(n_in, params_.size())) {}

AffineMap AffineMap::identity(std::size_t n, Params params) {
  AffineMap m(n, n, std::move(params));
  for (std::size_t i = 0; i < n; ++i) m.outs_[i].var[i] = 1;
  return m;
}

AffineMap AffineMap::compose(const AffineMap& inner) const {
  require(inner.n_out() == n_in_ && inner.params() == params_, "iset",
          "compose: map mismatch");
  AffineMap r(inner.n_in(), n_out(), params_);
  for (std::size_t o = 0; o < n_out(); ++o) {
    LinExpr e = LinExpr::constant(inner.n_in(), params_.size(), outs_[o].cst);
    for (std::size_t j = 0; j < params_.size(); ++j) e.param[j] += outs_[o].param[j];
    for (std::size_t i = 0; i < n_in_; ++i) e += inner.out(i) * outs_[o].var[i];
    r.outs_[o] = std::move(e);
  }
  return r;
}

std::vector<i64> AffineMap::eval(const std::vector<i64>& in,
                                 const std::vector<i64>& params) const {
  std::vector<i64> out(n_out());
  for (std::size_t o = 0; o < n_out(); ++o) out[o] = outs_[o].eval(in, params);
  return out;
}

}  // namespace dhpf::iset
