// Hash-consing and operation memoization for the integer-set core
// (ROADMAP "raw speed of the integer-set core").
//
// **Representation ids** (`BasicSet::rep_id()`, `Set::rep_id()`) are
// monotonically assigned 64-bit ids per *exact* representation — the
// serialized bytes of (arity, parameter names, parts and constraints in
// their stored order). Two values get the same id iff they are
// bit-identical, so memoizing an operation on rep ids returns exactly what
// recomputation would have produced — including part order and constraint
// order, which are externally observable (to_string, the verifier's
// fragmentation-budget decisions). The table compares full keys, never
// just hashes, so a hash collision can not alias two sets.
//
// Memoization covers the hot operations: intersect, unite, subtract,
// project_out, apply, preimage (Set results), BasicSet emptiness (bool),
// cardinality and sample (per concrete parameter point). All tables are
// sharded (per-shard mutex) and safe for concurrent use by the compile
// service's workers; per-shard entry caps bound memory, and an overflowing
// shard is cleared whole (counted in `iset.cache.evictions`) so eviction
// is deterministic in single-threaded runs. Rep ids are never reused
// after eviction, so a stale table entry is impossible by construction.
//
// The escape hatch: `ISET_NO_CACHE=1` in the environment (or
// `set_cache_enabled(false)`) disables every lookup and store, giving the
// pre-optimization reference path the property tests differential-test
// against. Obs counters: `iset.cache.hits` / `.misses` / `.evictions`,
// `iset.intern.nodes` / `.reuses`. Process-wide totals (across svc
// per-request registries) are available via `cache_stats()`.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "iset/affine.hpp"

namespace dhpf::iset {

class BasicSet;
class Set;
class AffineMap;

namespace memo {

/// Memoized binary/unary set operations (part of the memo key).
enum class Op : std::uint8_t {
  Intersect = 1,
  Unite = 2,
  Subtract = 3,
  Project = 4,
  Apply = 5,
  Preimage = 6,
};

/// Are lookups/stores active? (default on; ISET_NO_CACHE=1 disables)
[[nodiscard]] bool enabled();
/// Programmatic override of the ISET_NO_CACHE default.
void set_cache_enabled(bool on);

/// Drop every memo entry (intern ids keep advancing).
/// For differential tests and benchmarks that need a cold start.
void clear_caches();

/// Process-wide totals, independent of the per-request obs registry.
struct CacheStats {
  std::uint64_t intern_nodes = 0;   ///< distinct representations seen
  std::uint64_t intern_reuses = 0;  ///< rep-id lookups served by the table
  std::uint64_t hits = 0;           ///< memo lookups answered
  std::uint64_t misses = 0;         ///< memo lookups that fell through
  std::uint64_t evictions = 0;      ///< entries dropped by shard clears
};
[[nodiscard]] CacheStats cache_stats();

/// Intern arbitrary key bytes -> stable unique id (full-key comparison).
[[nodiscard]] std::uint64_t intern_key(const std::string& bytes);

/// Intern a concrete parameter-value tuple (cardinality/sample memo key).
[[nodiscard]] std::uint64_t intern_point(const std::vector<i64>& pt);

// Set-valued results. The stored node is immutable and shared; hits
// return the node for the caller to copy (rep id rides along).
[[nodiscard]] std::shared_ptr<const Set> set_lookup(Op op, std::uint64_t a,
                                                    std::uint64_t b);
void set_store(Op op, std::uint64_t a, std::uint64_t b, const Set& r);

// BasicSet emptiness.
[[nodiscard]] std::optional<bool> bool_lookup(std::uint64_t a);
void bool_store(std::uint64_t a, bool v);

// Cardinality at a concrete parameter point.
[[nodiscard]] std::optional<std::size_t> count_lookup(std::uint64_t set_id,
                                                      std::uint64_t point_id);
void count_store(std::uint64_t set_id, std::uint64_t point_id, std::size_t n);

// Sample (lex-least point or "empty here") at a concrete parameter point.
struct SampleResult {
  bool has = false;
  std::vector<i64> point;
};
[[nodiscard]] std::optional<SampleResult> sample_lookup(std::uint64_t set_id,
                                                        std::uint64_t point_id);
void sample_store(std::uint64_t set_id, std::uint64_t point_id,
                  const SampleResult& r);

}  // namespace memo

/// Exact-representation serializations (the rep-id key material).
[[nodiscard]] std::string rep_bytes(const BasicSet& bs);
[[nodiscard]] std::string rep_bytes(const Set& s);
[[nodiscard]] std::string rep_bytes(const AffineMap& m);

}  // namespace dhpf::iset
