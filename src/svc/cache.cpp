#include "svc/cache.hpp"

#include <string_view>
#include <vector>

namespace dhpf::svc {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline void fnv_mix(std::uint64_t& h, unsigned char byte) {
  h ^= byte;
  h *= kFnvPrime;
}

}  // namespace

CacheKey content_hash(std::initializer_list<std::string_view> parts) {
  // Two independent FNV-1a streams (different offset-basis tweaks) give a
  // 128-bit key; parts are length-delimited so ("ab","c") != ("a","bc").
  std::uint64_t hi = kFnvOffset;
  std::uint64_t lo = kFnvOffset ^ 0x5bd1e9955bd1e995ull;
  for (std::string_view p : parts) {
    std::uint64_t len = p.size();
    for (int i = 0; i < 8; ++i) {
      const unsigned char b = static_cast<unsigned char>(len >> (i * 8));
      fnv_mix(hi, b);
      fnv_mix(lo, static_cast<unsigned char>(b ^ 0xa5u));
    }
    for (char c : p) {
      const unsigned char b = static_cast<unsigned char>(c);
      fnv_mix(hi, b);
      fnv_mix(lo, static_cast<unsigned char>(b ^ 0xa5u));
    }
  }
  return CacheKey{hi, lo};
}

/// In-flight fill record shared by the filler and the requests that
/// coalesced onto it.
struct Pending {
  std::mutex mu;
  bool done = false;
  CachedResultPtr value;  ///< null after an abandoned fill
  std::vector<OnFill> waiters;
};

namespace {

/// Mark `pending` done with `value`, then run its continuations on the
/// calling thread, outside the lock (a continuation may probe again).
void settle(Pending& pending, CachedResultPtr value) {
  std::vector<OnFill> waiters;
  {
    std::lock_guard<std::mutex> lock(pending.mu);
    pending.done = true;
    pending.value = value;
    waiters.swap(pending.waiters);
  }
  for (OnFill& then : waiters) then(value);
}

}  // namespace

ResultCache::ResultCache(std::size_t capacity) : capacity_(capacity) {}

ResultCache::Probe ResultCache::probe(const CacheKey& key) {
  Probe out;
  if (capacity_ == 0) {
    // Cache disabled: every caller fills for itself, nothing is stored and
    // nothing coalesces (fill()/abandon() find no inflight record; no-op).
    misses_.fetch_add(1, std::memory_order_relaxed);
    out.must_fill = true;
    return out;
  }
  Shard& sh = shard_of(key);
  std::lock_guard<std::mutex> lock(sh.mu);
  auto it = sh.map.find(key);
  if (it != sh.map.end()) {
    sh.lru.splice(sh.lru.begin(), sh.lru, it->second);  // bump to MRU
    it->second->stamp = use_clock_.fetch_add(1, std::memory_order_relaxed);
    hits_.fetch_add(1, std::memory_order_relaxed);
    out.hit = it->second->value;
    return out;
  }
  auto in = sh.inflight.find(key);
  if (in != sh.inflight.end()) {
    coalesced_.fetch_add(1, std::memory_order_relaxed);
    out.pending = in->second;
    return out;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  out.must_fill = true;
  out.pending = std::make_shared<Pending>();
  sh.inflight.emplace(key, out.pending);
  return out;
}

void ResultCache::fill(const CacheKey& key, CachedResultPtr value) {
  if (capacity_ == 0) return;
  Shard& sh = shard_of(key);
  std::shared_ptr<Pending> pending;
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    auto in = sh.inflight.find(key);
    if (in != sh.inflight.end()) {
      pending = in->second;
      sh.inflight.erase(in);
    }
    if (sh.map.find(key) == sh.map.end()) {
      sh.lru.push_front(Shard::Node{
          key, value, use_clock_.fetch_add(1, std::memory_order_relaxed)});
      sh.map.emplace(key, sh.lru.begin());
      entries_.fetch_add(1, std::memory_order_relaxed);
      bytes_.fetch_add(value->bytes(), std::memory_order_relaxed);
    }
  }
  evict_overflow();
  if (pending) settle(*pending, std::move(value));
}

void ResultCache::abandon(const CacheKey& key) {
  if (capacity_ == 0) return;
  Shard& sh = shard_of(key);
  std::shared_ptr<Pending> pending;
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    auto in = sh.inflight.find(key);
    if (in != sh.inflight.end()) {
      pending = in->second;
      sh.inflight.erase(in);
    }
  }
  if (pending) settle(*pending, nullptr);
}

void ResultCache::on_fill(const std::shared_ptr<Pending>& pending, OnFill then) {
  CachedResultPtr value;
  {
    std::lock_guard<std::mutex> lock(pending->mu);
    if (!pending->done) {
      pending->waiters.push_back(std::move(then));
      return;
    }
    value = pending->value;
  }
  then(std::move(value));
}

void ResultCache::evict_overflow() {
  // Each shard's LRU tail is that shard's oldest entry, so the entry with
  // the globally smallest use-clock ticket among the tails is the global
  // LRU victim. Find it (one short lock per shard), then re-check under the
  // victim shard's lock — a concurrent hit may have bumped it, in which
  // case rescan.
  while (entries_.load(std::memory_order_relaxed) > capacity_) {
    std::size_t victim_shard = kShards;
    std::uint64_t victim_stamp = 0;
    for (std::size_t i = 0; i < kShards; ++i) {
      std::lock_guard<std::mutex> lock(shards_[i].mu);
      if (shards_[i].lru.empty()) continue;
      const std::uint64_t stamp = shards_[i].lru.back().stamp;
      if (victim_shard == kShards || stamp < victim_stamp) {
        victim_shard = i;
        victim_stamp = stamp;
      }
    }
    if (victim_shard == kShards) return;  // raced: another thread evicted
    Shard& sh = shards_[victim_shard];
    std::lock_guard<std::mutex> lock(sh.mu);
    if (sh.lru.empty() || sh.lru.back().stamp != victim_stamp) continue;
    const Shard::Node& victim = sh.lru.back();
    bytes_.fetch_sub(victim.value->bytes(), std::memory_order_relaxed);
    sh.map.erase(victim.key);
    sh.lru.pop_back();
    entries_.fetch_sub(1, std::memory_order_relaxed);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

ResultCache::Stats ResultCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.coalesced = coalesced_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.entries = entries_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  s.capacity = capacity_;
  return s;
}

void ResultCache::clear() {
  for (Shard& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh.mu);
    for (const Shard::Node& n : sh.lru) {
      bytes_.fetch_sub(n.value->bytes(), std::memory_order_relaxed);
      entries_.fetch_sub(1, std::memory_order_relaxed);
    }
    sh.map.clear();
    sh.lru.clear();
  }
}

}  // namespace dhpf::svc
