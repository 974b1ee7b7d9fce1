// Affine expressions and constraints over integer tuple variables and
// symbolic parameters — the vocabulary of the dHPF integer-set framework
// (paper §2, [Adve & Mellor-Crummey PLDI'98]).
//
// An expression is  sum_i a_i * x_i + sum_j b_j * p_j + c  with integer
// coefficients, where x_i are the set's tuple variables and p_j are named
// symbolic parameters (processor ids, block sizes, array extents...).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "iset/smallvec.hpp"

namespace dhpf::iset {

using i64 = std::int64_t;

/// Coefficient row with inline storage: tuples up to rank 8 (every dHPF
/// workload — data/iteration spaces are rank <= 4, params are lb/ub per
/// grid dim) never touch the heap; larger rows spill to it.
using CoefRow = SmallVec<i64, 8>;

/// The parameter context of a set: an ordered list of parameter names.
/// Sets/maps operating together must share an identical Params object.
class Params {
 public:
  Params() = default;
  explicit Params(std::vector<std::string> names) : names_(std::move(names)) {}

  [[nodiscard]] std::size_t size() const { return names_.size(); }
  [[nodiscard]] const std::string& name(std::size_t i) const { return names_[i]; }
  /// Index of `name`; throws if absent.
  [[nodiscard]] std::size_t index(const std::string& name) const;
  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] bool operator==(const Params&) const = default;

 private:
  std::vector<std::string> names_;
};

/// Affine expression over n tuple variables and the parameters.
struct LinExpr {
  CoefRow var;    // coefficient per tuple variable
  CoefRow param;  // coefficient per parameter
  i64 cst = 0;

  static LinExpr zero(std::size_t nvars, std::size_t nparams);
  static LinExpr variable(std::size_t nvars, std::size_t nparams, std::size_t v, i64 coef = 1);
  static LinExpr constant(std::size_t nvars, std::size_t nparams, i64 c);
  static LinExpr parameter(std::size_t nvars, std::size_t nparams, std::size_t p,
                           i64 coef = 1);

  [[nodiscard]] std::size_t nvars() const { return var.size(); }

  LinExpr& operator+=(const LinExpr& o);
  LinExpr& operator-=(const LinExpr& o);
  LinExpr& operator*=(i64 s);
  [[nodiscard]] LinExpr operator+(const LinExpr& o) const;
  [[nodiscard]] LinExpr operator-(const LinExpr& o) const;
  [[nodiscard]] LinExpr operator*(i64 s) const;
  [[nodiscard]] LinExpr negated() const { return *this * -1; }
  [[nodiscard]] bool operator==(const LinExpr&) const = default;

  [[nodiscard]] bool is_constant() const;
  /// Evaluate with concrete variable and parameter values.
  [[nodiscard]] i64 eval(const std::vector<i64>& vars, const std::vector<i64>& params) const;

  /// Divide all coefficients by their (positive) gcd; returns the gcd used.
  i64 normalize_gcd();

  [[nodiscard]] std::string to_string(const Params& params,
                                      const std::vector<std::string>& var_names = {}) const;
};

/// A single affine constraint: e >= 0 (inequality) or e == 0 (equality).
struct Constraint {
  LinExpr e;
  bool is_eq = false;

  static Constraint ge0(LinExpr e) { return Constraint{std::move(e), false}; }
  static Constraint eq0(LinExpr e) { return Constraint{std::move(e), true}; }

  [[nodiscard]] bool operator==(const Constraint&) const = default;
  [[nodiscard]] bool satisfied(const std::vector<i64>& vars,
                               const std::vector<i64>& params) const {
    const i64 v = e.eval(vars, params);
    return is_eq ? v == 0 : v >= 0;
  }
  [[nodiscard]] std::string to_string(const Params& params,
                                      const std::vector<std::string>& var_names = {}) const;
};

i64 gcd(i64 a, i64 b);

}  // namespace dhpf::iset
