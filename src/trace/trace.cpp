#include "trace/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>

namespace dhpf::trace {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// Nanoseconds since the process-wide trace epoch (first use). All threads
/// share the epoch, so compile-time and runtime spans merge consistently.
std::uint64_t now_ns() {
  static const SteadyClock::time_point epoch = SteadyClock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(SteadyClock::now() - epoch)
          .count());
}

}  // namespace

const char* to_string(Kind kind) {
  switch (kind) {
    case Kind::Pass: return "pass";
    case Kind::Phase: return "phase";
    case Kind::Send: return "send";
    case Kind::Recv: return "recv";
    case Kind::Wait: return "wait";
    case Kind::Compute: return "compute";
    case Kind::Other: return "other";
  }
  return "?";
}

namespace detail {

struct OpenSpan {
  std::uint64_t start_ns = 0;
  std::uint32_t seq = 0;
  NameId name = 0;
  Kind kind = Kind::Other;
};

/// One thread's flight recorder. The owning thread writes slots and stack
/// without locks; `head` is the release-published event count. Everything
/// else (label, reuse, retirement) goes through the recorder mutex.
struct Ring {
  explicit Ring(std::size_t cap) : slots(cap) {}

  void push(const Event& e) {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    slots[h % slots.size()] = e;
    head.store(h + 1, std::memory_order_release);
  }

  std::vector<Event> slots;
  std::atomic<std::uint64_t> head{0};

  // Owner-thread state (read by drain only when the owner is quiescent).
  std::vector<OpenSpan> stack;
  std::uint32_t next_seq = 0;

  std::atomic<std::uint64_t> unbalanced{0};

  // Guarded by the recorder mutex.
  std::string label;
  int sort_key = -1;
  std::uint64_t reg_index = 0;  ///< registration order (drain tiebreak)
};

/// Exited threads' rings kept for a drain() before the oldest is reused.
constexpr std::size_t kMaxUndrainedRings = 64;

struct RecorderState {
  std::mutex mu;
  std::vector<std::unique_ptr<Ring>> rings;  // all rings ever, stable addresses
  std::deque<Ring*> undrained;               // owner exited, spans not drained; oldest first
  std::vector<Ring*> free_rings;             // owner exited, spans drained: reusable
  std::uint64_t recycled_spans = 0;          // spans of undrained rings lost to reuse
  std::vector<std::string> names;
  std::unordered_map<std::string, NameId> name_ids;
  std::uint64_t registrations = 0;

  /// A drain() or reset() has taken every exited thread's spans.
  void mark_drained() {
    free_rings.insert(free_rings.end(), undrained.begin(), undrained.end());
    undrained.clear();
  }
};

RecorderState& state() {
  // Leaked singleton: outlives every thread's TLS destructor.
  static RecorderState* s = new RecorderState();
  return *s;
}

/// Thread-local handle; the destructor force-closes open spans and parks
/// the ring until a drain has taken its spans.
struct TlsSlot {
  Ring* ring = nullptr;

  ~TlsSlot() {
    if (ring == nullptr) return;
    const std::uint64_t t = now_ns();
    while (!ring->stack.empty()) {
      const OpenSpan o = ring->stack.back();
      ring->stack.pop_back();
      Event e;
      e.start_ns = o.start_ns;
      e.end_ns = t;
      e.seq = o.seq;
      e.name = o.name;
      e.depth = static_cast<std::uint16_t>(ring->stack.size());
      e.kind = o.kind;
      e.open = 1;  // flagged: the thread exited with this span running
      ring->push(e);
    }
    RecorderState& s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    s.undrained.push_back(ring);
  }
};

thread_local TlsSlot g_tls;

}  // namespace detail

Recorder& Recorder::global() {
  static Recorder* instance = new Recorder();
  return *instance;
}

NameId Recorder::intern(std::string_view name) {
  detail::RecorderState& s = detail::state();
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.name_ids.find(std::string(name));
  if (it != s.name_ids.end()) return it->second;
  const NameId id = static_cast<NameId>(s.names.size());
  s.names.emplace_back(name);
  s.name_ids.emplace(s.names.back(), id);
  return id;
}

detail::Ring& Recorder::my_ring() {
  detail::TlsSlot& tls = detail::g_tls;
  if (tls.ring == nullptr) {
    detail::RecorderState& s = detail::state();
    std::lock_guard<std::mutex> lock(s.mu);
    detail::Ring* r = nullptr;
    if (!s.free_rings.empty()) {
      r = s.free_rings.back();
      s.free_rings.pop_back();
    } else if (s.undrained.size() >= detail::kMaxUndrainedRings) {
      // Flight-recorder rule: past the bound, the oldest exited thread's
      // spans are overwritten, and counted as dropped.
      r = s.undrained.front();
      s.undrained.pop_front();
      s.recycled_spans += r->head.load(std::memory_order_relaxed);
    }
    if (r != nullptr) {
      // A reused ring starts clean (keeping the old spans would interleave
      // two threads' spans on one track).
      r->head.store(0, std::memory_order_relaxed);
      r->stack.clear();
      r->next_seq = 0;
      if (r->slots.size() != ring_capacity_) {
        r->slots.assign(ring_capacity_, Event{});
        r->slots.resize(ring_capacity_);
      }
    } else {
      s.rings.push_back(std::make_unique<detail::Ring>(ring_capacity_));
      r = s.rings.back().get();
    }
    r->label = "thread-" + std::to_string(s.registrations);
    r->sort_key = -1;
    r->reg_index = s.registrations++;
    tls.ring = r;
  }
  return *tls.ring;
}

void Recorder::begin_span(NameId name, Kind kind) {
  detail::Ring& r = my_ring();
  detail::OpenSpan o;
  o.start_ns = now_ns();
  o.seq = r.next_seq++;
  o.name = name;
  o.kind = kind;
  r.stack.push_back(o);
}

void Recorder::end_span() {
  detail::Ring& r = my_ring();
  if (r.stack.empty()) {
    r.unbalanced.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const detail::OpenSpan o = r.stack.back();
  r.stack.pop_back();
  Event e;
  e.start_ns = o.start_ns;
  e.end_ns = now_ns();
  e.seq = o.seq;
  e.name = o.name;
  e.depth = static_cast<std::uint16_t>(r.stack.size());
  e.kind = o.kind;
  r.push(e);
}

std::uint64_t Recorder::now_ns() const { return trace::now_ns(); }

void Recorder::record_complete(NameId name, Kind kind, std::uint64_t start_ns,
                               std::uint64_t end_ns) {
  if (!enabled()) return;
  detail::Ring& r = my_ring();
  Event e;
  e.start_ns = start_ns;
  e.end_ns = std::max(end_ns, start_ns);
  e.seq = r.next_seq++;
  e.name = name;
  e.depth = static_cast<std::uint16_t>(r.stack.size());
  e.kind = kind;
  r.push(e);
}

void Recorder::set_thread_label(std::string label, int sort_key) {
  detail::Ring& r = my_ring();
  detail::RecorderState& s = detail::state();
  std::lock_guard<std::mutex> lock(s.mu);
  r.label = std::move(label);
  r.sort_key = sort_key;
}

void Recorder::reset(std::size_t ring_capacity) {
  detail::RecorderState& s = detail::state();
  std::lock_guard<std::mutex> lock(s.mu);
  ring_capacity_ = ring_capacity == 0 ? 1 : ring_capacity;
  s.mark_drained();
  s.recycled_spans = 0;
  for (auto& rp : s.rings) {
    detail::Ring& r = *rp;
    r.slots.assign(ring_capacity_, Event{});
    r.head.store(0, std::memory_order_relaxed);
    r.stack.clear();
    r.next_seq = 0;
    r.unbalanced.store(0, std::memory_order_relaxed);
  }
}

TraceDump Recorder::drain() const {
  detail::RecorderState& s = detail::state();
  std::lock_guard<std::mutex> lock(s.mu);
  TraceDump dump;
  dump.names = s.names;
  struct Keyed {
    ThreadDump td;
    std::uint64_t reg_index;
  };
  std::vector<Keyed> keyed;
  const std::uint64_t t = now_ns();
  for (const auto& rp : s.rings) {
    const detail::Ring& r = *rp;
    const std::uint64_t h = r.head.load(std::memory_order_acquire);
    const std::size_t cap = r.slots.size();
    const std::size_t n = static_cast<std::size_t>(std::min<std::uint64_t>(h, cap));
    if (n == 0 && r.stack.empty()) continue;  // never recorded anything
    ThreadDump td;
    td.label = r.label;
    td.sort_key = r.sort_key;
    td.dropped = h > cap ? h - cap : 0;
    td.events.reserve(n + r.stack.size());
    for (std::uint64_t i = h - n; i < h; ++i)
      td.events.push_back(r.slots[static_cast<std::size_t>(i % cap)]);
    // Spans still running (e.g. a rank blocked in recv) appear with
    // end = "now" and the open flag set.
    for (std::size_t d = 0; d < r.stack.size(); ++d) {
      const detail::OpenSpan& o = r.stack[d];
      Event e;
      e.start_ns = o.start_ns;
      e.end_ns = std::max(t, o.start_ns);
      e.seq = o.seq;
      e.name = o.name;
      e.depth = static_cast<std::uint16_t>(d);
      e.kind = o.kind;
      e.open = 1;
      td.events.push_back(e);
    }
    std::sort(td.events.begin(), td.events.end(),
              [](const Event& a, const Event& b) { return a.seq < b.seq; });
    keyed.push_back(Keyed{std::move(td), r.reg_index});
  }
  std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    const int ka = a.td.sort_key < 0 ? std::numeric_limits<int>::max() : a.td.sort_key;
    const int kb = b.td.sort_key < 0 ? std::numeric_limits<int>::max() : b.td.sort_key;
    if (ka != kb) return ka < kb;
    if (a.td.label != b.td.label) return a.td.label < b.td.label;
    return a.reg_index < b.reg_index;
  });
  dump.threads.reserve(keyed.size());
  for (auto& k : keyed) dump.threads.push_back(std::move(k.td));
  s.mark_drained();
  return dump;
}

std::string Recorder::flight_dump_text(std::size_t tail) const {
  const TraceDump dump = drain();
  std::ostringstream out;
  std::uint64_t dropped = 0;
  for (const auto& td : dump.threads) dropped += td.dropped;
  out << "== trace flight recorder: " << dump.threads.size() << " thread(s), "
      << dump.total_events() << " span(s), " << dropped << " overwritten ==\n";
  char buf[160];
  for (const auto& td : dump.threads) {
    out << "-- " << td.label;
    if (td.dropped > 0) out << " (" << td.dropped << " oldest overwritten)";
    out << " --\n";
    const std::size_t n = td.events.size();
    for (std::size_t i = n > tail ? n - tail : 0; i < n; ++i) {
      const Event& e = td.events[i];
      const double start_us = static_cast<double>(e.start_ns) / 1e3;
      const double dur_us = static_cast<double>(e.end_ns - e.start_ns) / 1e3;
      std::snprintf(buf, sizeof buf, "  %12.1f us %10.1f us  %*s%s (%s)%s\n", start_us,
                    dur_us, static_cast<int>(e.depth * 2), "",
                    dump.name_of(e.name).c_str(), to_string(e.kind),
                    e.open ? "  [open]" : "");
      out << buf;
    }
  }
  return out.str();
}

Recorder::Totals Recorder::totals() const {
  detail::RecorderState& s = detail::state();
  std::lock_guard<std::mutex> lock(s.mu);
  Totals t;
  t.recorded = s.recycled_spans;
  t.dropped = s.recycled_spans;
  for (const auto& rp : s.rings) {
    const std::uint64_t h = rp->head.load(std::memory_order_acquire);
    const std::size_t cap = rp->slots.size();
    t.recorded += h;
    t.dropped += h > cap ? h - cap : 0;
    t.unbalanced += rp->unbalanced.load(std::memory_order_relaxed);
  }
  return t;
}

}  // namespace dhpf::trace
