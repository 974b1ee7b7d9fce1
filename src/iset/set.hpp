// Symbolic integer tuple sets (unions of parametric polyhedra) and affine
// maps — the dHPF integer-set framework (paper §2). Iteration sets, data
// sets and processor sets are all values of this type, and the compiler's
// analyses are sequences of the operations below.
//
// Projection uses Fourier-Motzkin elimination. Equality substitution is
// integer-exact; inequality pair elimination is rational (no dark shadow),
// which makes is_empty() sound in the direction the compiler relies on:
// "empty" answers are always true (so eliminating communication based on a
// subset() result is safe); "non-empty" answers may rarely be conservative
// (costing at most a redundant message). Point enumeration re-checks the
// original constraints, so it is always exact.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "iset/affine.hpp"

namespace dhpf::iset {

class AffineMap;

/// Conjunction of affine constraints over `nvars` tuple variables + params.
class BasicSet {
 public:
  BasicSet(std::size_t nvars, Params params)
      : nvars_(nvars), params_(std::move(params)) {}

  // The cached rep id lives in an atomic (lazily computed under concurrent
  // readers), so copies and moves are spelled out: both carry the cached id
  // along (it describes the same representation); a moved-from set loses
  // its constraints, so its id is invalidated.
  BasicSet(const BasicSet& o)
      : nvars_(o.nvars_), params_(o.params_), cs_(o.cs_),
        rep_(o.rep_.load(std::memory_order_relaxed)) {}
  BasicSet(BasicSet&& o) noexcept
      : nvars_(o.nvars_), params_(std::move(o.params_)), cs_(std::move(o.cs_)),
        rep_(o.rep_.load(std::memory_order_relaxed)) {
    o.rep_.store(0, std::memory_order_relaxed);
  }
  BasicSet& operator=(const BasicSet& o) {
    if (this != &o) {
      nvars_ = o.nvars_;
      params_ = o.params_;
      cs_ = o.cs_;
      rep_.store(o.rep_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    }
    return *this;
  }
  BasicSet& operator=(BasicSet&& o) noexcept {
    if (this != &o) {
      nvars_ = o.nvars_;
      params_ = std::move(o.params_);
      cs_ = std::move(o.cs_);
      rep_.store(o.rep_.load(std::memory_order_relaxed), std::memory_order_relaxed);
      o.rep_.store(0, std::memory_order_relaxed);
    }
    return *this;
  }

  static BasicSet universe(std::size_t nvars, Params params) {
    return BasicSet(nvars, std::move(params));
  }

  [[nodiscard]] std::size_t nvars() const { return nvars_; }
  [[nodiscard]] const Params& params() const { return params_; }
  [[nodiscard]] const std::vector<Constraint>& constraints() const { return cs_; }

  void add(Constraint c);

  /// Convenience constraint builders (lo <= var <= hi etc.).
  void add_bounds(std::size_t v, const LinExpr& lo, const LinExpr& hi);
  void add_eq(std::size_t v, const LinExpr& value);

  [[nodiscard]] LinExpr expr_zero() const { return LinExpr::zero(nvars_, params_.size()); }
  [[nodiscard]] LinExpr expr_var(std::size_t v, i64 coef = 1) const {
    return LinExpr::variable(nvars_, params_.size(), v, coef);
  }
  [[nodiscard]] LinExpr expr_const(i64 c) const {
    return LinExpr::constant(nvars_, params_.size(), c);
  }
  [[nodiscard]] LinExpr expr_param(const std::string& name, i64 coef = 1) const {
    return LinExpr::parameter(nvars_, params_.size(), params_.index(name), coef);
  }

  [[nodiscard]] BasicSet intersect(const BasicSet& o) const;

  /// Fourier-Motzkin: eliminate tuple variable v (arity shrinks by one).
  [[nodiscard]] BasicSet project_out(std::size_t v) const;

  /// Rationally infeasible (over vars and params jointly)? true => truly empty.
  [[nodiscard]] bool is_empty() const;

  [[nodiscard]] bool contains(const std::vector<i64>& vars,
                              const std::vector<i64>& params) const;

  /// Gcd-normalize, fold constants, drop duplicates and tautologies.
  /// Returns false if a constraint is statically unsatisfiable.
  bool simplify();

  [[nodiscard]] std::string to_string(const std::vector<std::string>& var_names = {}) const;

  /// Stable id of this exact representation (constraint order included):
  /// equal ids <=> bit-identical sets. Computed lazily, cached, invalidated
  /// on mutation. Memo keys and the property tests build on this.
  [[nodiscard]] std::uint64_t rep_id() const;

 private:
  friend class Set;
  std::size_t nvars_;
  Params params_;
  std::vector<Constraint> cs_;
  mutable std::atomic<std::uint64_t> rep_{0};  // 0 = not yet computed
};

/// Finite union of BasicSets of equal arity over shared Params.
class Set {
 public:
  Set(std::size_t nvars, Params params) : nvars_(nvars), params_(std::move(params)) {}
  /// Singleton union.
  explicit Set(BasicSet bs);

  // Same rep-id carrying rules as BasicSet (see above).
  Set(const Set& o)
      : nvars_(o.nvars_), params_(o.params_), parts_(o.parts_),
        rep_(o.rep_.load(std::memory_order_relaxed)) {}
  Set(Set&& o) noexcept
      : nvars_(o.nvars_), params_(std::move(o.params_)), parts_(std::move(o.parts_)),
        rep_(o.rep_.load(std::memory_order_relaxed)) {
    o.rep_.store(0, std::memory_order_relaxed);
  }
  Set& operator=(const Set& o) {
    if (this != &o) {
      nvars_ = o.nvars_;
      params_ = o.params_;
      parts_ = o.parts_;
      rep_.store(o.rep_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    }
    return *this;
  }
  Set& operator=(Set&& o) noexcept {
    if (this != &o) {
      nvars_ = o.nvars_;
      params_ = std::move(o.params_);
      parts_ = std::move(o.parts_);
      rep_.store(o.rep_.load(std::memory_order_relaxed), std::memory_order_relaxed);
      o.rep_.store(0, std::memory_order_relaxed);
    }
    return *this;
  }

  static Set empty(std::size_t nvars, Params params) { return Set(nvars, std::move(params)); }
  static Set universe(std::size_t nvars, Params params) {
    return Set(BasicSet::universe(nvars, std::move(params)));
  }

  [[nodiscard]] std::size_t nvars() const { return nvars_; }
  [[nodiscard]] const Params& params() const { return params_; }
  [[nodiscard]] const std::vector<BasicSet>& parts() const { return parts_; }

  void add_part(BasicSet bs);

  [[nodiscard]] Set unite(const Set& o) const;
  [[nodiscard]] Set intersect(const Set& o) const;
  /// A - B as disjoint pieces: each part of A minus each part of B in turn,
  /// where piece i keeps B's constraints c_1..c_{i-1} and violates c_i
  /// (integer-exact: ¬(e >= 0) is -e-1 >= 0). Constraints the prefix already
  /// implies are left out of it. Pieces split from one part of A never share
  /// a point, so a subtracted part cannot multiply the union; parts of A that
  /// overlap still overlap in the result.
  [[nodiscard]] Set subtract(const Set& o) const;
  [[nodiscard]] Set project_out(std::size_t v) const;

  [[nodiscard]] bool is_empty() const;
  /// this ⊆ o (symbolically, over all parameter values consistent with the
  /// constraints already present). true is always sound.
  [[nodiscard]] bool subset_of(const Set& o) const { return subtract(o).is_empty(); }

  [[nodiscard]] bool contains(const std::vector<i64>& vars,
                              const std::vector<i64>& params) const;

  /// Image under an affine map (exact: introduces the input variables and
  /// projects them out; enumeration-facing users re-check membership).
  [[nodiscard]] Set apply(const AffineMap& map) const;
  /// Preimage under an affine map (exact substitution).
  [[nodiscard]] Set preimage(const AffineMap& map) const;

  /// Enumerate all integer points for concrete parameter values, in
  /// lexicographic order. Exact (candidates from rational projection are
  /// re-checked against the true constraints). Requires the set to be
  /// bounded for these parameter values.
  void enumerate(const std::vector<i64>& param_values,
                 const std::function<void(const std::vector<i64>&)>& cb) const;

  /// Number of points (enumerate-based; for tests and cost estimation).
  [[nodiscard]] std::size_t count(const std::vector<i64>& param_values) const;

  /// Exact number of integer points for concrete parameter values. Agrees
  /// with count() but never materializes the point list: union parts are
  /// made disjoint by subtraction (so overlap is not double-counted) and
  /// each disjoint polyhedron is counted by a bounded descent that re-checks
  /// the original constraints — the same exactness argument as enumerate().
  /// This is the cost model's workhorse (dhpf::model); bumps the
  /// iset.cardinalities counter.
  [[nodiscard]] std::size_t cardinality(const std::vector<i64>& param_values) const;

  /// Lexicographically least integer point for concrete parameter values, or
  /// nullopt when the set is empty there. Exact (same machinery as
  /// enumerate()); the verifier uses this to extract counterexample
  /// witnesses from non-empty difference sets.
  [[nodiscard]] std::optional<std::vector<i64>> sample(
      const std::vector<i64>& param_values) const;

  [[nodiscard]] std::string to_string(const std::vector<std::string>& var_names = {}) const;

  /// Stable id of this exact representation (part and constraint order
  /// included); see BasicSet::rep_id().
  [[nodiscard]] std::uint64_t rep_id() const;

 private:
  std::size_t nvars_;
  Params params_;
  std::vector<BasicSet> parts_;
  mutable std::atomic<std::uint64_t> rep_{0};  // 0 = not yet computed
};

/// Affine map Z^n_in -> Z^n_out (each output an affine expr of inputs+params).
class AffineMap {
 public:
  AffineMap(std::size_t n_in, std::size_t n_out, Params params);

  static AffineMap identity(std::size_t n, Params params);

  [[nodiscard]] std::size_t n_in() const { return n_in_; }
  [[nodiscard]] std::size_t n_out() const { return outs_.size(); }
  [[nodiscard]] const Params& params() const { return params_; }

  /// Output expressions are over n_in tuple variables + params.
  LinExpr& out(std::size_t i) { return outs_[i]; }
  [[nodiscard]] const LinExpr& out(std::size_t i) const { return outs_[i]; }

  [[nodiscard]] LinExpr expr_zero() const { return LinExpr::zero(n_in_, params_.size()); }
  [[nodiscard]] LinExpr expr_var(std::size_t v, i64 coef = 1) const {
    return LinExpr::variable(n_in_, params_.size(), v, coef);
  }
  [[nodiscard]] LinExpr expr_const(i64 c) const {
    return LinExpr::constant(n_in_, params_.size(), c);
  }
  [[nodiscard]] LinExpr expr_param(const std::string& name, i64 coef = 1) const {
    return LinExpr::parameter(n_in_, params_.size(), params_.index(name), coef);
  }

  /// (this ∘ inner): first apply inner, then this.
  [[nodiscard]] AffineMap compose(const AffineMap& inner) const;

  [[nodiscard]] std::vector<i64> eval(const std::vector<i64>& in,
                                      const std::vector<i64>& params) const;

 private:
  std::size_t n_in_;
  Params params_;
  std::vector<LinExpr> outs_;
};

}  // namespace dhpf::iset
