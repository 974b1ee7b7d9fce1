// dhpf::trace — hierarchical span tracing with per-thread flight recorders.
//
// Where dhpf::obs answers "how much, in total?" (counters, accumulated
// timers), this layer answers "when, on which thread, nested inside what?".
// A Span is an RAII begin/end pair recorded into a fixed-capacity per-thread
// ring buffer — a *flight recorder*: writes are wait-free for the owning
// thread (plain slot store + one release publish, no locks, no allocation),
// and when the ring is full the oldest spans are overwritten. Always-on
// tracing is therefore safe in the hottest loops and in the fuzz harness's
// 48-variant cross product: cost is bounded by the ring, not the run length.
//
// Three producers share the one recorder so their spans merge into a single
// timeline: the compiler's passes and sub-phases (codegen::timed_pass and
// DHPF_TRACE_SPAN sites), the mp runtime's per-rank send/recv/wait/compute
// activity (each rank thread labels its ring "rank<r>"), and the simulator.
// Exports live in trace/export.hpp: a merged Chrome-trace JSON and an
// aggregated self-time/total-time profile (`dhpfc --trace-out`, --profile).
//
// Concurrency contract:
//  - begin/end/set_thread_label touch only the calling thread's ring: no
//    synchronization with other writers, ever.
//  - drain()/totals() may run concurrently with writers (the publish is a
//    release store, drain reads with acquire), but a full-fidelity snapshot
//    is only guaranteed when producers are quiescent — finished, joined, or
//    blocked, which is exactly the state in the two read paths: the final
//    export after a run, and the deadlock watchdog's dump (every rank is
//    parked in recv by definition of the deadlock).
//  - Tracing is off by default; a disabled Span is one relaxed load.
//
// Determinism: drain() orders threads by (sort_key, label, ring age) and
// events by per-thread sequence number, so the same captured activity
// always serializes identically regardless of thread registration races.
//
// Lifetime: the recorder and the interned-name table are never destroyed
// (NameIds cached in function-local statics stay valid for the process
// life, like obs::Registry handles). The ring of an exited thread keeps its
// spans until a drain() or reset() has taken them; only then is it reused
// by a later thread. At most 64 exited threads' rings wait for a drain:
// past that, the oldest is reused and its spans count as dropped. Memory is
// thus bounded by the peak concurrent thread count plus those 64 rings, not
// by how many threads ever ran (the fuzz campaign spawns tens of thousands
// of short-lived rank threads).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dhpf::trace {

/// Coarse span category; exported as the Chrome trace "cat" field.
enum class Kind : std::uint8_t {
  Pass,     ///< compiler pipeline pass (cp.select, comm.generate, ...)
  Phase,    ///< sub-phase inside a pass, or an execution phase
  Send,     ///< mp runtime: message send
  Recv,     ///< mp runtime: message receive (includes the blocked wait)
  Wait,     ///< mp runtime: blocked in recv with no matching message
  Compute,  ///< mp runtime: realized modelled compute (Spin/Sleep)
  Other,
};

const char* to_string(Kind kind);

/// Index into the process-wide interned-name table. Valid forever once
/// returned by Recorder::intern().
using NameId = std::uint32_t;

/// One completed (or force-closed) span. 32 bytes; rings hold these flat.
struct Event {
  std::uint64_t start_ns = 0;  ///< steady-clock ns since the recorder epoch
  std::uint64_t end_ns = 0;    ///< >= start_ns
  std::uint32_t seq = 0;       ///< per-thread begin order (merge tiebreak)
  NameId name = 0;
  std::uint16_t depth = 0;  ///< nesting depth at begin (0 = top level)
  Kind kind = Kind::Other;
  std::uint8_t open = 0;  ///< 1 if still running when snapshotted
};

/// Snapshot of one thread's flight recorder.
struct ThreadDump {
  std::string label;        ///< "compiler", "rank3", "thread-7", ...
  int sort_key = -1;        ///< rank number for mp threads; -1 otherwise
  std::uint64_t dropped = 0;  ///< spans overwritten by ring wraparound
  std::vector<Event> events;  ///< oldest-to-newest (seq order), open last
};

/// Snapshot of every thread's recorder plus the name table to decode it.
struct TraceDump {
  std::vector<ThreadDump> threads;  ///< ordered by (sort_key, label)
  std::vector<std::string> names;   ///< NameId -> name

  [[nodiscard]] const std::string& name_of(NameId id) const { return names[id]; }
  [[nodiscard]] std::size_t total_events() const {
    std::size_t n = 0;
    for (const auto& t : threads) n += t.events.size();
    return n;
  }
};

namespace detail {
struct Ring;
struct TlsSlot;
}  // namespace detail

/// Process-wide span recorder. One instance (global()); see the module
/// comment for the concurrency contract.
class Recorder {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 8192;

  static Recorder& global();

  /// Master switch, checked by every Span with one relaxed load. Off by
  /// default so untraced runs pay (almost) nothing.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Intern a span name. First call per name takes a lock; cache the result
  /// (DHPF_TRACE_SPAN does this with a function-local static). Interned
  /// names survive reset() — cached ids never dangle.
  NameId intern(std::string_view name);

  /// Begin/end a span on the calling thread. end_span() without a matching
  /// begin is ignored and counted (unbalanced_ends); spans still open when
  /// the thread exits are force-closed at that instant.
  void begin_span(NameId name, Kind kind);
  void end_span();

  /// Nanoseconds since the process-wide trace epoch (the clock spans are
  /// stamped with). For record_complete timestamps taken on another thread.
  [[nodiscard]] std::uint64_t now_ns() const;

  /// Record an already-finished span [start_ns, end_ns] on the calling
  /// thread's ring at the current nesting depth. Used for intervals whose
  /// start happened on a different thread (e.g. the compile service's
  /// svc.queue_wait: enqueue is stamped by the submitter, the span is
  /// recorded by the worker at dequeue). No-op when tracing is disabled.
  void record_complete(NameId name, Kind kind, std::uint64_t start_ns,
                       std::uint64_t end_ns);

  /// Label the calling thread's ring ("rank3", "compiler", ...). sort_key
  /// orders threads in drains/exports (mp ranks pass their rank; default -1
  /// threads sort after ranks, alphabetically).
  void set_thread_label(std::string label, int sort_key = -1);

  /// Drop all recorded spans, exited threads' included, and set the ring
  /// capacity for subsequently (re)registered threads. Only safe when no other
  /// thread is tracing (tests; the CLI configures before compiling).
  /// Interned names are preserved.
  void reset(std::size_t ring_capacity = kDefaultRingCapacity);

  /// Snapshot every thread's ring (full fidelity when producers are
  /// quiescent; see the module comment). Live threads keep their events;
  /// exited threads' rings become reusable by threads that start later.
  [[nodiscard]] TraceDump drain() const;

  /// Human-readable flight-recorder dump: the last `tail` spans of every
  /// thread, newest last, open spans marked. This is what the mp deadlock
  /// watchdog prints to stderr — the blocked ranks' recent history is the
  /// diagnosis.
  [[nodiscard]] std::string flight_dump_text(std::size_t tail = 16) const;

  struct Totals {
    std::uint64_t recorded = 0;    ///< spans pushed (completed or forced)
    std::uint64_t dropped = 0;     ///< spans lost to ring wraparound
    std::uint64_t unbalanced = 0;  ///< end_span() with no open span
  };
  [[nodiscard]] Totals totals() const;

 private:
  Recorder() = default;
  detail::Ring& my_ring();

  std::atomic<bool> enabled_{false};
  std::size_t ring_capacity_ = kDefaultRingCapacity;

  friend struct detail::TlsSlot;
};

/// RAII span. Construction with the cached-NameId overload is the hot path
/// (one relaxed load when tracing is off). The string overload interns on
/// every call — fine for pass-granularity sites with dynamic names.
class Span {
 public:
  Span(NameId name, Kind kind = Kind::Other) {
    Recorder& r = Recorder::global();
    armed_ = r.enabled();
    if (armed_) r.begin_span(name, kind);
  }
  Span(std::string_view name, Kind kind = Kind::Other) {
    Recorder& r = Recorder::global();
    armed_ = r.enabled();
    if (armed_) r.begin_span(r.intern(name), kind);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (armed_) Recorder::global().end_span();
  }

 private:
  bool armed_;
};

}  // namespace dhpf::trace

#define DHPF_TRACE_CONCAT_(a, b) a##b
#define DHPF_TRACE_CONCAT(a, b) DHPF_TRACE_CONCAT_(a, b)

/// Open a scoped span. The name is interned once per call site
/// (function-local static), so this is safe in hot loops; a disabled
/// recorder costs one relaxed atomic load.
#define DHPF_TRACE_SPAN(name, kind)                                             \
  static const ::dhpf::trace::NameId DHPF_TRACE_CONCAT(dhpf_trace_name_,        \
                                                       __LINE__) =              \
      ::dhpf::trace::Recorder::global().intern(name);                           \
  ::dhpf::trace::Span DHPF_TRACE_CONCAT(dhpf_trace_span_, __LINE__)(            \
      DHPF_TRACE_CONCAT(dhpf_trace_name_, __LINE__), kind)
