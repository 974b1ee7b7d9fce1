// Property tests for the integer-set core, pinning the hash-consing /
// memoization work (see src/iset/intern.hpp). Two layers of assurance:
//
//  * Algebraic laws checked point-wise on seeded random sets: De Morgan
//    over a bounding box, difference = intersect-with-complement,
//    image/preimage adjunction, cardinality additivity on disjoint
//    unions. These hold for ANY correct implementation, cached or not.
//    One more pins this implementation's difference: its pieces are
//    pairwise disjoint.
//
//  * Bitwise differential against the pre-optimization reference path:
//    the same operation chain is evaluated with memoization on (twice, so
//    the second run is served from the tables) and with
//    memo::set_cache_enabled(false), and the exact representations
//    (rep_bytes: part order, constraint order, everything observable)
//    must agree. A memo hit that differs from recomputation in any bit
//    fails here.
//
// Every case is seeded; a failure reports its seed via SCOPED_TRACE.
#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "iset/intern.hpp"
#include "iset/set.hpp"

namespace dhpf::iset {
namespace {

Params no_params;

using PointSet = std::set<std::vector<i64>>;

PointSet points_of(const Set& s) {
  PointSet pts;
  s.enumerate({}, [&](const std::vector<i64>& p) { pts.insert(p); });
  return pts;
}

/// Restores the memo-enabled state on scope exit (tests share a process).
struct CacheGuard {
  ~CacheGuard() {
    memo::set_cache_enabled(true);
    memo::clear_caches();
  }
};

/// Seeded generator of small bounded sets: every part carries a full
/// bounding box inside [base-8, base+8]^rank plus an optional extra
/// half-plane, so enumerate() always terminates and any two sets with
/// different `base` 20 apart are disjoint by construction.
struct Gen {
  std::mt19937_64 eng;
  explicit Gen(std::uint64_t seed) : eng(seed) {}

  i64 pick(i64 lo, i64 hi) {
    return std::uniform_int_distribution<i64>(lo, hi)(eng);
  }

  BasicSet basic(std::size_t rank, i64 base) {
    BasicSet bs(rank, no_params);
    for (std::size_t v = 0; v < rank; ++v) {
      const i64 lo = base + pick(-5, 1);
      const i64 hi = lo + pick(0, 5);
      bs.add_bounds(v, bs.expr_const(lo), bs.expr_const(hi));
    }
    if (pick(0, 1) == 1) {
      LinExpr e = bs.expr_zero();
      i64 at_base = 0;  // value of the variable part at (base, ..., base)
      for (std::size_t v = 0; v < rank; ++v) {
        const i64 c = pick(-2, 2);
        e = e + bs.expr_var(v, c);
        at_base += c * base;
      }
      // Center the threshold near the box so the half-plane actually cuts.
      e = e + bs.expr_const(pick(-6, 6) - at_base);
      bs.add(Constraint::ge0(e));
    }
    return bs;
  }

  Set set(std::size_t rank, i64 base = 0) {
    Set s(rank, no_params);
    const int parts = static_cast<int>(pick(1, 2));
    for (int k = 0; k < parts; ++k) s.add_part(basic(rank, base));
    return s;
  }

  /// The box every `base`-centered set lives in (the local universe).
  Set box(std::size_t rank, i64 base = 0) {
    BasicSet bs(rank, no_params);
    for (std::size_t v = 0; v < rank; ++v)
      bs.add_bounds(v, bs.expr_const(base - 8), bs.expr_const(base + 8));
    return Set(bs);
  }

  AffineMap map(std::size_t n_in, std::size_t n_out) {
    AffineMap m(n_in, n_out, no_params);
    for (std::size_t o = 0; o < n_out; ++o) {
      LinExpr e = m.expr_const(pick(-3, 3));
      for (std::size_t v = 0; v < n_in; ++v) e = e + m.expr_var(v, pick(-1, 2));
      m.out(o) = e;
    }
    return m;
  }
};

std::size_t rank_for(std::uint64_t seed) { return 1 + seed % 2; }

TEST(IsetProp, DeMorganOverBoundingBox) {
  for (std::uint64_t seed = 1; seed <= 250; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    Gen g(seed);
    const std::size_t r = rank_for(seed);
    const Set a = g.set(r);
    const Set c = g.set(r);
    const Set b = g.box(r);

    // B \ (A ∪ C) == (B \ A) ∩ (B \ C)
    ASSERT_EQ(points_of(b.subtract(a.unite(c))),
              points_of(b.subtract(a).intersect(b.subtract(c))));
    // B \ (A ∩ C) == (B \ A) ∪ (B \ C)
    ASSERT_EQ(points_of(b.subtract(a.intersect(c))),
              points_of(b.subtract(a).unite(b.subtract(c))));
  }
}

TEST(IsetProp, DifferenceIsIntersectWithComplement) {
  for (std::uint64_t seed = 1; seed <= 250; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    Gen g(seed * 7919);
    const std::size_t r = rank_for(seed);
    const Set a = g.set(r);
    const Set c = g.set(r);
    const Set b = g.box(r);  // A ⊆ B by construction

    ASSERT_EQ(points_of(a.subtract(c)), points_of(a.intersect(b.subtract(c))));
  }
}

TEST(IsetProp, ImagePreimageAdjunction) {
  for (std::uint64_t seed = 1; seed <= 250; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    Gen g(seed * 104729);
    const std::size_t r_in = rank_for(seed);
    const std::size_t r_out = 1 + (seed / 2) % 2;
    const Set s = g.set(r_in);
    const Set t = g.set(r_out);
    const AffineMap f = g.map(r_in, r_out);

    // apply() projects rationally (no dark shadow), so the image is a
    // sound SUPERSET of {f(p) : p ∈ S} — e.g. x -> 2x keeps odd points.
    // Soundness is the direction the compiler relies on.
    PointSet mapped;
    for (const auto& p : points_of(s)) mapped.insert(f.eval(p, {}));
    const PointSet image = points_of(s.apply(f));
    for (const auto& q : mapped) ASSERT_TRUE(image.count(q) != 0);
    if (mapped.empty() != image.empty()) {
      // An empty exact image may still leave rational residue only when
      // the domain itself was empty-free; an empty S must map to empty.
      ASSERT_FALSE(points_of(s).empty());
    }

    // Adjunction, point-wise: p ∈ S ∩ f⁻¹(T)  ⟺  p ∈ S and f(p) ∈ T.
    const PointSet restricted = points_of(s.intersect(t.preimage(f)));
    for (const auto& p : points_of(s)) {
      const bool in_t = t.contains(f.eval(p, {}), {});
      ASSERT_EQ(restricted.count(p) != 0, in_t);
    }
    for (const auto& p : restricted) ASSERT_TRUE(t.contains(f.eval(p, {}), {}));
  }
}

TEST(IsetProp, CardinalityAdditiveOnDisjointUnions) {
  for (std::uint64_t seed = 1; seed <= 250; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    Gen g(seed * 15485863);
    const std::size_t r = rank_for(seed);
    const Set a = g.set(r, /*base=*/0);
    const Set d = g.set(r, /*base=*/20);  // disjoint: boxes 20 apart

    const std::size_t ca = a.cardinality({});
    const std::size_t cd = d.cardinality({});
    ASSERT_EQ(a.unite(d).cardinality({}), ca + cd);
    // cardinality() never materializes points; enumerate() does. Agree.
    ASSERT_EQ(ca, points_of(a).size());
    ASSERT_EQ(cd, d.count({}));
  }
}

TEST(IsetProp, DifferencePartsArePairwiseDisjoint) {
  // Each piece of A - C keeps C's earlier constraints and violates the next,
  // so pieces split from one polyhedron never share a point and their
  // counts add up. A box minus an inner box is the case where negating each
  // constraint on its own would overlap at the corners.
  for (std::uint64_t seed = 1; seed <= 250; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    Gen g(seed * 49979687);
    const std::size_t r = rank_for(seed);
    const Set c = g.set(r);
    for (const Set& a : {g.box(r), Set(g.basic(r, 0))}) {
      const Set diff = a.subtract(c);
      PointSet seen;
      std::size_t sum = 0;
      for (const BasicSet& part : diff.parts()) {
        const PointSet pts = points_of(Set(part));
        for (const auto& p : pts) ASSERT_TRUE(seen.insert(p).second) << "point in two parts";
        sum += pts.size();
      }
      ASSERT_EQ(sum, points_of(diff).size());
      ASSERT_EQ(sum, diff.cardinality({}));
    }
  }
}

/// One operation chain's observable results, captured bit-exactly.
struct ChainResult {
  std::string inter, uni, diff, proj;
  bool empty = false;
  std::size_t card = 0;
  std::optional<std::vector<i64>> witness;

  bool operator==(const ChainResult& o) const {
    return inter == o.inter && uni == o.uni && diff == o.diff &&
           proj == o.proj && empty == o.empty && card == o.card &&
           witness == o.witness;
  }
};

ChainResult run_chain(const Set& a, const Set& c, const AffineMap& f) {
  ChainResult r;
  const Set inter = a.intersect(c);
  const Set uni = a.unite(c);
  const Set diff = uni.subtract(inter);
  r.inter = rep_bytes(inter);
  r.uni = rep_bytes(uni);
  r.diff = rep_bytes(diff);
  r.proj = rep_bytes(diff.project_out(0));
  r.empty = diff.is_empty();
  r.card = diff.cardinality({});
  r.witness = diff.sample({});
  // Image/preimage round through the map memo key path too.
  r.inter += rep_bytes(a.apply(f));
  r.uni += rep_bytes(c.preimage(f));
  return r;
}

TEST(IsetProp, CachedPathBitwiseEqualsReferencePath) {
  CacheGuard guard;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    Gen g(seed * 32452843);
    const std::size_t r = rank_for(seed);
    const Set a = g.set(r);
    const Set c = g.set(r);
    const AffineMap f = g.map(r, r);

    memo::set_cache_enabled(true);
    memo::clear_caches();
    const ChainResult cold = run_chain(a, c, f);   // populates the tables
    const ChainResult warm = run_chain(a, c, f);   // served by the tables

    memo::set_cache_enabled(false);
    const ChainResult reference = run_chain(a, c, f);

    ASSERT_TRUE(cold == reference);  // miss path == pre-optimization path
    ASSERT_TRUE(warm == reference);  // hit path == recomputation, bitwise
  }
}

TEST(IsetProp, MemoizationActuallyHits) {
  CacheGuard guard;
  memo::set_cache_enabled(true);
  memo::clear_caches();
  Gen g(42);
  const Set a = g.set(2);
  const Set c = g.set(2);
  const auto before = memo::cache_stats();
  const Set first = a.intersect(c);
  const Set again = a.intersect(c);
  const auto after = memo::cache_stats();
  EXPECT_GT(after.hits, before.hits);
  EXPECT_EQ(rep_bytes(first), rep_bytes(again));
}

}  // namespace
}  // namespace dhpf::iset
