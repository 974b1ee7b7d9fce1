// dhpf::svc result cache: a sharded LRU keyed by content hash, with
// in-flight request coalescing.
//
// Key: a 128-bit FNV-1a content hash of (request kind class, program text,
// canonical flag set, grid-shape override, tune_measure). Hashing the
// *content* rather than interning it means the tuner's 48-variant cross
// product and the fuzzer's repeated oracles hit without the cache ever
// holding a second copy of the program text.
//
// Coalescing: the first requester of a missing key receives a fill ticket
// and runs the compile; a concurrent requester of the same key registers a
// continuation on the ticket's pending record (on_fill) and returns at
// once. fill() publishes the value and runs every registered continuation
// on the filler's thread, so N identical requests in flight cost exactly
// one compile and no thread waits for a fill. A filler that cannot produce
// a value calls abandon(), which runs the continuations with null; their
// owners probe again and one of them becomes the new filler.
//
// Sharding: keys map to one of kShards independent (mutex, map, LRU list)
// shards, so concurrent probes of different keys rarely contend. Capacity
// and recency are global: every hit/insert takes a ticket from one shared
// atomic use-clock, and eviction pops the entry whose shard-LRU tail holds
// the globally smallest ticket (each shard's tail is its oldest, so the
// minimum over tails is the global LRU victim). Exact LRU semantics at the
// cost of one short lock per shard during eviction — eviction is rare next
// to probes, and exactness is what keeps the eviction tests and the bench
// baseline deterministic.
//
// Values are shared_ptr<const CachedResult>: readers hold them lock-free
// after the probe; eviction cannot invalidate an outstanding response.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace dhpf::svc {

struct CacheKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool operator==(const CacheKey& o) const { return hi == o.hi && lo == o.lo; }
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const {
    return static_cast<std::size_t>(k.lo ^ (k.hi * 0x9e3779b97f4a7c15ull));
  }
};

/// 128-bit FNV-1a over the concatenated, length-delimited parts.
CacheKey content_hash(std::initializer_list<std::string_view> parts);

/// The cached products of one pipeline execution. Immutable once published.
/// `ok=false` entries cache deterministic failures (parse/compile errors),
/// so a bad program does not re-pay compile cost per retry either.
struct CachedResult {
  bool ok = true;
  int error_code = 0;       ///< ErrorCode as int (request.hpp)
  std::string error;        ///< diagnostic when !ok
  std::string listing;      ///< compile product
  std::string report_json;  ///< compile report (timings are the filler's)
  std::string verify_json;  ///< verifier verdict
  std::string model_json;   ///< model prediction
  std::string tune_json;    ///< tune requests only
  std::string lint_json;    ///< lint requests only

  [[nodiscard]] std::size_t bytes() const {
    return listing.size() + report_json.size() + verify_json.size() + model_json.size() +
           tune_json.size() + lint_json.size() + error.size();
  }
};

using CachedResultPtr = std::shared_ptr<const CachedResult>;

/// A coalesced request's continuation: receives the filled value, or null
/// when the filler abandoned the key. Must not throw.
using OnFill = std::function<void(CachedResultPtr)>;

class ResultCache {
 public:
  static constexpr std::size_t kShards = 16;

  /// `capacity` = max resident entries (>= 1). 0 disables the cache
  /// entirely: probe() always returns a fill ticket that fill() discards.
  explicit ResultCache(std::size_t capacity);

  /// Outcome of a probe: exactly one of the three cases.
  struct Probe {
    CachedResultPtr hit;  ///< non-null: cache hit, value is the result
    bool must_fill = false;  ///< true: caller owns the fill (call fill/abandon)
    /// The in-flight fill record: the caller's own when must_fill, else the
    /// fill to join with on_fill(). Null on a hit and when the cache is off.
    std::shared_ptr<struct Pending> pending;
  };

  /// Look up `key`. Hit: returns the value (bumps LRU). Miss with no one
  /// filling: registers the caller as the filler (must_fill). Miss with a
  /// fill in flight: returns that fill's pending record.
  Probe probe(const CacheKey& key);

  /// Publish the filler's result: inserts into the LRU (evicting beyond
  /// capacity), then runs every continuation registered on the key's
  /// pending record, on the calling thread, with the value.
  void fill(const CacheKey& key, CachedResultPtr value);

  /// The filler has no result: runs the registered continuations with null
  /// (their owners probe again) and stores nothing.
  void abandon(const CacheKey& key);

  /// Run `then` with the value of the fill `pending` tracks: at once on the
  /// calling thread if that fill has already been published or abandoned,
  /// otherwise later, on the filler's thread, inside fill() or abandon().
  static void on_fill(const std::shared_ptr<struct Pending>& pending, OnFill then);

  struct Stats {
    std::uint64_t hits = 0;       ///< probe returned a resident value
    std::uint64_t misses = 0;     ///< probe made the caller the filler
    std::uint64_t coalesced = 0;  ///< probe joined an in-flight fill
    std::uint64_t evictions = 0;
    std::size_t entries = 0;   ///< resident values
    std::size_t bytes = 0;     ///< resident payload bytes
    std::size_t capacity = 0;
  };
  [[nodiscard]] Stats stats() const;

  /// Drop every resident entry (in-flight fills unaffected). Tests only.
  void clear();

 private:
  struct Shard {
    mutable std::mutex mu;
    struct Node {
      CacheKey key;
      CachedResultPtr value;
      std::uint64_t stamp = 0;  ///< global use-clock ticket at last touch
    };
    std::list<Node> lru;  ///< front = most recent
    std::unordered_map<CacheKey, std::list<Node>::iterator, CacheKeyHash> map;
    std::unordered_map<CacheKey, std::shared_ptr<Pending>, CacheKeyHash> inflight;
  };

  Shard& shard_of(const CacheKey& key) {
    return shards_[static_cast<std::size_t>(k_shard(key))];
  }
  static std::size_t k_shard(const CacheKey& key) { return key.lo % kShards; }

  /// Evict globally-least-recently-used entries until entries_ <=
  /// capacity_. Caller must NOT hold any shard mutex.
  void evict_overflow();

  std::size_t capacity_;
  Shard shards_[kShards];
  std::atomic<std::uint64_t> use_clock_{0};
  std::atomic<std::size_t> entries_{0};
  std::atomic<std::size_t> bytes_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace dhpf::svc
