// dhpf::exec::Channel — the executor-facing surface of one SPMD rank.
//
// Node programs (the interpreted SPMD programs of codegen::run_spmd, the
// mini-NAS variants in src/nas, the halo/transpose primitives in src/rt and
// the collectives in exec/collectives.hpp) are coroutines written against
// this interface only, so the same program text executes on either backend:
//
//   * src/sim — the deterministic virtual-time simulator. One OS thread;
//     a blocking receive suspends the rank's coroutine and the engine
//     resumes it when the matching message exists. compute() advances the
//     rank's virtual clock by the Machine cost model.
//   * src/mp — the real multi-threaded runtime. One OS thread per rank; a
//     blocking receive parks the thread on the rank's mailbox condition
//     variable *inside the awaiter* (await_ready blocks and then reports
//     ready), so the coroutine never suspends. compute() is a no-op by
//     default (timings come from a monotonic clock), or an optional
//     spin/sleep emulation of the cost model. It runs in one of two modes:
//     mp (message passing) or shm, which adds phase barriers and direct
//     shared reads for codegen's barrier-synchronized data movement (no
//     message copies); collectives and message-passing node programs run
//     unchanged in either.
//
// The receive protocol is therefore expressed as three virtuals behind a
// single awaiter type: recv_ready / recv_suspend / recv_complete. Backends
// that can always satisfy a receive synchronously (mp) implement
// recv_ready to block; backends that must yield (sim) implement
// recv_suspend to park the coroutine handle.
#pragma once

#include <coroutine>
#include <string>
#include <utility>
#include <vector>

#include "exec/machine.hpp"

namespace dhpf::exec {

/// Which runtime executes the node programs (see the module comment).
enum class Backend {
  Sim,  ///< deterministic virtual-time simulator (src/sim)
  Mp,   ///< the threaded runtime (src/mp), message passing
  Shm,  ///< the threaded runtime (src/mp), barrier-fenced shared reads
};

/// Switch-based so a newly added backend without a name is a compile error
/// (-Werror turns the missing-case warning fatal), not a wrong fallback.
inline const char* to_string(Backend b) {
  switch (b) {
    case Backend::Sim: return "sim";
    case Backend::Mp: return "mp";
    case Backend::Shm: return "shm";
  }
  return "?";
}

/// Parse a backend name ("sim" | "mp" | "shm") into `out`. Returns false —
/// leaving `out` untouched — on anything else. The single parser behind
/// every --backend-style flag and the service's request field.
inline bool parse_backend(const std::string& name, Backend& out) {
  if (name == "sim") {
    out = Backend::Sim;
  } else if (name == "mp") {
    out = Backend::Mp;
  } else if (name == "shm") {
    out = Backend::Shm;
  } else {
    return false;
  }
  return true;
}

/// Wildcard source for Channel::recv. Determinism caveat: on the simulator
/// wildcard receives resolve deterministically (earliest virtual arrival,
/// ties by source rank); on the mp backend the match order across *different
/// sources* depends on OS scheduling and is nondeterministic. Messages from
/// one (source, tag) pair are FIFO on both backends.
inline constexpr int kAnySource = -1;

/// A non-blocking receive request (see Channel::irecv / Channel::wait).
/// Matching is deferred to wait(): posting an irecv reserves nothing, which
/// is equivalent to MPI's deferred matching for the tag-disjoint
/// communication the generated codes perform.
struct Request {
  int src = kAnySource;
  int tag = 0;
};

class Channel {
 public:
  virtual ~Channel() = default;

  [[nodiscard]] virtual int rank() const = 0;
  [[nodiscard]] virtual int nprocs() const = 0;
  /// Backend time in seconds: virtual clock (sim) or monotonic wall time
  /// since the run started (mp).
  [[nodiscard]] virtual double now() const = 0;
  /// The machine cost model this rank executes under. On mp this is the
  /// model used for optional compute emulation and for cost heuristics
  /// (e.g. pipeline tile selection), not a description of the host.
  [[nodiscard]] virtual const Machine& machine() const = 0;

  /// Account `flops` floating-point operations of modelled computation.
  virtual void compute(double flops) = 0;
  /// Account raw modelled seconds (e.g. memory traffic estimates).
  virtual void elapse(double seconds) = 0;

  /// Label subsequent activity (e.g. "y_solve"); empty clears it.
  virtual void set_phase(std::string phase) = 0;
  [[nodiscard]] virtual const std::string& phase() const = 0;

  /// Buffered, non-blocking send (the paper's codes use non-blocking MPI).
  virtual void send(int dst, int tag, std::vector<double> data) = 0;
  /// Alias for send(); provided for MPI-style code.
  void isend(int dst, int tag, std::vector<double> data) { send(dst, tag, std::move(data)); }

  /// True iff a matching message is already in the mailbox (non-blocking).
  [[nodiscard]] virtual bool has_message(int src, int tag) const = 0;

  /// Awaitable blocking receive: `auto v = co_await ch.recv(src, tag);`
  /// src may be kAnySource.
  struct [[nodiscard]] RecvAwaiter {
    Channel* ch;
    int src;
    int tag;
    bool await_ready() const { return ch->recv_ready(src, tag); }
    void await_suspend(std::coroutine_handle<> h) { ch->recv_suspend(src, tag, h); }
    std::vector<double> await_resume() { return ch->recv_complete(src, tag); }
  };
  RecvAwaiter recv(int src, int tag) { return RecvAwaiter{this, src, tag}; }

  /// Post a non-blocking receive; complete it with `co_await ch.wait(req)`.
  Request irecv(int src, int tag) { return Request{src, tag}; }
  RecvAwaiter wait(const Request& r) { return recv(r.src, r.tag); }

 protected:
  friend struct RecvAwaiter;

  /// Return true when a matching message can be consumed without suspending
  /// the coroutine. A backend may block the calling thread here (mp does).
  virtual bool recv_ready(int src, int tag) = 0;
  /// Park the coroutine until a matching message exists (sim only; never
  /// called on backends whose recv_ready blocks).
  virtual void recv_suspend(int src, int tag, std::coroutine_handle<> h) = 0;
  /// Consume and return the matched message's payload.
  virtual std::vector<double> recv_complete(int src, int tag) = 0;
};

}  // namespace dhpf::exec
