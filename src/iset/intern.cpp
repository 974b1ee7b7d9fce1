#include "iset/intern.hpp"

#include <atomic>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <unordered_map>

#include "iset/set.hpp"
#include "support/metrics.hpp"

namespace dhpf::iset {

// ------------------------------------------------------- serialization

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void append_i64(std::string& out, i64 v) { append_u64(out, static_cast<std::uint64_t>(v)); }

void append_params(std::string& out, const Params& p) {
  append_u64(out, p.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    append_u64(out, p.name(i).size());
    out.append(p.name(i));
  }
}

void append_expr(std::string& out, const LinExpr& e) {
  for (std::size_t i = 0; i < e.var.size(); ++i) append_i64(out, e.var[i]);
  for (std::size_t i = 0; i < e.param.size(); ++i) append_i64(out, e.param[i]);
  append_i64(out, e.cst);
}

void append_constraint(std::string& out, const Constraint& c) {
  out.push_back(c.is_eq ? '\1' : '\0');
  append_expr(out, c.e);
}

}  // namespace

std::string rep_bytes(const BasicSet& bs) {
  std::string out;
  out.reserve(32 + bs.constraints().size() * 8 * (bs.nvars() + bs.params().size() + 2));
  out.push_back('B');
  append_u64(out, bs.nvars());
  append_params(out, bs.params());
  append_u64(out, bs.constraints().size());
  for (const auto& c : bs.constraints()) append_constraint(out, c);
  return out;
}

std::string rep_bytes(const Set& s) {
  // Parts are identified by their (cached) rep ids, so re-serializing a
  // many-part union after its parts are warm is O(parts), not O(bytes).
  std::string out;
  out.reserve(32 + s.parts().size() * 8);
  out.push_back('S');
  append_u64(out, s.nvars());
  append_params(out, s.params());
  append_u64(out, s.parts().size());
  for (const auto& p : s.parts()) append_u64(out, p.rep_id());
  return out;
}

std::string rep_bytes(const AffineMap& m) {
  std::string out;
  out.push_back('M');
  append_u64(out, m.n_in());
  append_u64(out, m.n_out());
  append_params(out, m.params());
  for (std::size_t o = 0; o < m.n_out(); ++o) append_expr(out, m.out(o));
  return out;
}

// ------------------------------------------------------------- tables

namespace memo {
namespace {

constexpr std::size_t kShards = 16;
constexpr std::size_t kInternShardCap = 1U << 14;  // 16k keys per shard
constexpr std::size_t kMemoShardCap = 1U << 12;    // 4k entries per shard

struct Totals {
  std::atomic<std::uint64_t> intern_nodes{0};
  std::atomic<std::uint64_t> intern_reuses{0};
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> evictions{0};
};
Totals& totals() {
  static Totals t;
  return t;
}

std::size_t shard_of(std::size_t hash) { return (hash >> 4) % kShards; }

/// Exact-key intern table: bytes -> unique id. Ids are handed out by one
/// process-wide monotonic counter and are never reused, even after a
/// shard clear — a cached rep id can therefore never alias a different
/// representation.
struct InternTable {
  struct Shard {
    std::mutex mu;
    std::unordered_map<std::string, std::uint64_t> map;
  };
  Shard shards[kShards];
  std::atomic<std::uint64_t> next{1};

  std::uint64_t get(const std::string& bytes) {
    Shard& sh = shards[shard_of(std::hash<std::string>{}(bytes))];
    std::lock_guard<std::mutex> lock(sh.mu);
    auto it = sh.map.find(bytes);
    if (it != sh.map.end()) {
      totals().intern_reuses.fetch_add(1, std::memory_order_relaxed);
      DHPF_COUNTER("iset.intern.reuses");
      return it->second;
    }
    if (sh.map.size() >= kInternShardCap) {
      totals().evictions.fetch_add(sh.map.size(), std::memory_order_relaxed);
      DHPF_COUNTER_ADD("iset.cache.evictions", sh.map.size());
      sh.map.clear();
    }
    const std::uint64_t id = next.fetch_add(1, std::memory_order_relaxed);
    sh.map.emplace(bytes, id);
    totals().intern_nodes.fetch_add(1, std::memory_order_relaxed);
    DHPF_COUNTER("iset.intern.nodes");
    return id;
  }
};

InternTable& intern_table() {
  static InternTable t;
  return t;
}

struct Key {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  bool operator==(const Key&) const = default;
};

struct KeyHash {
  std::size_t operator()(const Key& k) const {
    // splitmix-style mix of the three words.
    std::uint64_t h = k.a * 0x9e3779b97f4a7c15ULL;
    h ^= (k.b + 0xbf58476d1ce4e5b9ULL) + (h << 6) + (h >> 2);
    h ^= (k.c + 0x94d049bb133111ebULL) + (h << 6) + (h >> 2);
    return static_cast<std::size_t>(h);
  }
};

template <typename V>
struct MemoTable {
  struct Shard {
    std::mutex mu;
    std::unordered_map<Key, V, KeyHash> map;
  };
  Shard shards[kShards];

  std::optional<V> lookup(const Key& k) {
    Shard& sh = shards[shard_of(KeyHash{}(k))];
    std::lock_guard<std::mutex> lock(sh.mu);
    auto it = sh.map.find(k);
    if (it == sh.map.end()) {
      totals().misses.fetch_add(1, std::memory_order_relaxed);
      DHPF_COUNTER("iset.cache.misses");
      return std::nullopt;
    }
    totals().hits.fetch_add(1, std::memory_order_relaxed);
    DHPF_COUNTER("iset.cache.hits");
    return it->second;
  }

  void store(const Key& k, V v) {
    Shard& sh = shards[shard_of(KeyHash{}(k))];
    std::lock_guard<std::mutex> lock(sh.mu);
    if (sh.map.size() >= kMemoShardCap) {
      totals().evictions.fetch_add(sh.map.size(), std::memory_order_relaxed);
      DHPF_COUNTER_ADD("iset.cache.evictions", sh.map.size());
      sh.map.clear();
    }
    sh.map.emplace(k, std::move(v));
  }

  void clear() {
    for (auto& sh : shards) {
      std::lock_guard<std::mutex> lock(sh.mu);
      sh.map.clear();
    }
  }
};

MemoTable<std::shared_ptr<const Set>>& set_memo() {
  static MemoTable<std::shared_ptr<const Set>> t;
  return t;
}
MemoTable<bool>& bool_memo() {
  static MemoTable<bool> t;
  return t;
}
MemoTable<std::size_t>& count_memo() {
  static MemoTable<std::size_t> t;
  return t;
}
MemoTable<SampleResult>& sample_memo() {
  static MemoTable<SampleResult> t;
  return t;
}

std::atomic<int> g_enabled{-1};

}  // namespace

bool enabled() {
  int v = g_enabled.load(std::memory_order_relaxed);
  if (v < 0) {
    const char* e = std::getenv("ISET_NO_CACHE");
    v = (e != nullptr && *e != '\0' && *e != '0') ? 0 : 1;
    g_enabled.store(v, std::memory_order_relaxed);
  }
  return v == 1;
}

void set_cache_enabled(bool on) { g_enabled.store(on ? 1 : 0, std::memory_order_relaxed); }

void clear_caches() {
  set_memo().clear();
  bool_memo().clear();
  count_memo().clear();
  sample_memo().clear();
}

CacheStats cache_stats() {
  Totals& t = totals();
  CacheStats s;
  s.intern_nodes = t.intern_nodes.load(std::memory_order_relaxed);
  s.intern_reuses = t.intern_reuses.load(std::memory_order_relaxed);
  s.hits = t.hits.load(std::memory_order_relaxed);
  s.misses = t.misses.load(std::memory_order_relaxed);
  s.evictions = t.evictions.load(std::memory_order_relaxed);
  return s;
}

std::uint64_t intern_key(const std::string& bytes) { return intern_table().get(bytes); }

std::uint64_t intern_point(const std::vector<i64>& pt) {
  std::string out;
  out.reserve(9 + pt.size() * 8);
  out.push_back('P');
  append_u64(out, pt.size());
  for (i64 v : pt) append_i64(out, v);
  return intern_table().get(out);
}

std::shared_ptr<const Set> set_lookup(Op op, std::uint64_t a, std::uint64_t b) {
  auto hit = set_memo().lookup(Key{static_cast<std::uint64_t>(op), a, b});
  return hit ? *hit : nullptr;
}

void set_store(Op op, std::uint64_t a, std::uint64_t b, const Set& r) {
  // Warm the result's rep id before freezing it in the table, so copies
  // handed out on hits inherit a computed id.
  (void)r.rep_id();
  set_memo().store(Key{static_cast<std::uint64_t>(op), a, b},
                   std::make_shared<const Set>(r));
}

std::optional<bool> bool_lookup(std::uint64_t a) { return bool_memo().lookup(Key{0, a, 0}); }

void bool_store(std::uint64_t a, bool v) { bool_memo().store(Key{0, a, 0}, v); }

std::optional<std::size_t> count_lookup(std::uint64_t set_id, std::uint64_t point_id) {
  return count_memo().lookup(Key{set_id, point_id, 1});
}

void count_store(std::uint64_t set_id, std::uint64_t point_id, std::size_t n) {
  count_memo().store(Key{set_id, point_id, 1}, n);
}

std::optional<SampleResult> sample_lookup(std::uint64_t set_id, std::uint64_t point_id) {
  return sample_memo().lookup(Key{set_id, point_id, 2});
}

void sample_store(std::uint64_t set_id, std::uint64_t point_id, const SampleResult& r) {
  sample_memo().store(Key{set_id, point_id, 2}, r);
}

}  // namespace memo

// ------------------------------------------------------ rep-id caching

std::uint64_t BasicSet::rep_id() const {
  std::uint64_t v = rep_.load(std::memory_order_relaxed);
  if (v != 0) return v;
  v = memo::intern_key(rep_bytes(*this));
  // A concurrent caller computes the same id from the same bytes, so the
  // race on this store is value-benign.
  rep_.store(v, std::memory_order_relaxed);
  return v;
}

std::uint64_t Set::rep_id() const {
  std::uint64_t v = rep_.load(std::memory_order_relaxed);
  if (v != 0) return v;
  v = memo::intern_key(rep_bytes(*this));
  rep_.store(v, std::memory_order_relaxed);
  return v;
}

}  // namespace dhpf::iset
