// dhpf::mp — the one entry point that runs SPMD node programs, and the
// threaded runtime behind two of its three backends.
//
// mp::run executes a node program once per rank on the exec::Backend it is
// given and returns one exec::RunStats:
//
//   * Sim drives the deterministic virtual-time simulator (sim::Engine) on
//     the calling thread.
//   * Mp runs one OS thread per rank with per-rank mailboxes (mutex +
//     condition variable), tagged send/recv with wildcard source,
//     nonblocking irecv/wait, and the shared collectives of
//     exec/collectives.hpp. This is the moral equivalent of the paper's MPI
//     runs on the 32-node SP2 (§8), scaled to a shared-memory node: the
//     compiler's communication plans are validated under real concurrency
//     and real (monotonic-clock) time instead of a cost model.
//   * Shm is the same threads and mailboxes plus the two primitives a
//     shared-memory lowering needs, since the ranks share one address
//     space:
//       - mp::barrier(ch) — a phase barrier across all ranks of the run.
//         The codegen layer places a barrier pair around every
//         communication-event instance derived from the comm plan, which
//         turns each fetch / write-back into direct reads of the producing
//         rank's storage with no message copies (see codegen::exec_event
//         and docs/runtime.md).
//       - mp::note_shared_read(ch, bytes) — accounting for those direct
//         reads, the shared-memory analogue of message bytes
//         (RunStats::shared_read_bytes, obs counter shm.shared_bytes).
//     Message-passing node programs (collectives, the NAS variants) run on
//     shm as-is over the mailboxes.
//
// Every name a threaded run emits carries its mode: obs metrics (mp.* /
// shm.*), trace spans (mp.send / shm.send, ...), the dhpf::Error component
// and the watchdog's stderr dump prefix ("mp watchdog:" / "shm watchdog:").
// Each run, on any backend, is one exec.<backend> trace span.
//
// Determinism: message order between one (source, tag) pair and a receiver
// is FIFO on every backend, so node programs whose receives name their
// sources — everything codegen emits, the NAS variants, and the
// collectives — produce bit-identical results on sim, mp and shm. Wildcard
// (exec::kAnySource) receives match in real arrival order on mp/shm, which
// depends on OS scheduling: *nondeterministic across sources* there,
// deterministic (earliest virtual arrival, ties by source rank) on sim. The
// barrier-synchronized direct reads of shm are deterministic by
// construction: within a barrier epoch each rank reads only locations no
// other rank is writing (ownership-disjoint).
//
// Liveness: CI must never hang. On mp/shm every blocking receive and
// barrier wait carries a configurable timeout, and a watchdog thread
// detects global deadlock (all unfinished ranks blocked — in a receive or
// at the barrier — with no delivery or barrier release across two scans)
// and aborts the run; both raise dhpf::Error instead of hanging.
//
// On mp/shm, compute(flops) does not burn host cycles by default
// (ComputeMode::Noop): the kernels' real arithmetic is the work, and
// timings come from the monotonic clock. For machine-model emulation
// studies, Spin busy-waits and Sleep sleeps for the modelled duration
// (scaled by time_scale); Sleep lets P ranks overlap their modelled compute
// even on a single host core, which keeps measured-speedup experiments
// meaningful on small CI boxes.
#pragma once

#include <cstddef>
#include <functional>

#include "exec/channel.hpp"
#include "exec/machine.hpp"
#include "exec/stats.hpp"
#include "exec/task.hpp"

namespace dhpf::sim {
struct TraceLog;
}

namespace dhpf::mp {

/// How Channel::compute(flops)/elapse(s) behave on the threaded backends.
enum class ComputeMode {
  Noop,   ///< account modelled seconds only; no host time consumed
  Spin,   ///< busy-wait for the modelled duration * time_scale
  Sleep,  ///< sleep for the modelled duration * time_scale (overlaps ranks)
};

/// Tuning of the threaded backends (mp, shm); a sim run ignores it.
struct Options {
  ComputeMode compute_mode = ComputeMode::Noop;
  /// Dilation factor applied to modelled compute time in Spin/Sleep modes.
  double time_scale = 1.0;
  /// Per-receive / per-barrier timeout in real seconds; waiting longer
  /// raises dhpf::Error. <= 0 disables (the watchdog still guards CI).
  double recv_timeout_s = 30.0;
  /// Blocked-rank watchdog scan period in real seconds; <= 0 disables.
  /// Overridable at runtime via the DHPF_MP_WATCHDOG_MS environment
  /// variable (milliseconds; 0 disables) — see watchdog_period_from_env.
  double watchdog_period_s = 0.05;
};

/// Resolve the effective watchdog period: DHPF_MP_WATCHDOG_MS (a real
/// number of milliseconds; <= 0 disables the watchdog) when set and
/// parseable as a finite period the steady clock can represent, otherwise
/// `fallback`. Governs both modes. Lets CI tighten the deadlock scan and
/// debuggers disable it without recompiling. Exposed for direct unit
/// testing; run() applies it to Options::watchdog_period_s.
double watchdog_period_from_env(double fallback);

/// Rendezvous of every rank of the current shm run; returns once all
/// ranks have arrived. `ch` must be a channel handed out by an shm run() —
/// a sim channel or an mp one raises dhpf::Error. Throws on timeout or when
/// the watchdog aborts the run (a peer died before the barrier).
void barrier(exec::Channel& ch);

/// Account `bytes` of direct shared-memory reads performed by this rank
/// between two barriers. Same channel requirement as barrier().
void note_shared_read(exec::Channel& ch, std::size_t bytes);

/// Execute `body(channel)` once per rank of `nranks` on `backend` and
/// return what the run measured. `machine` is what Channel::machine()
/// serves: the virtual clock's cost model on sim, the Spin/Sleep compute
/// emulation and cost heuristics (e.g. pipeline tiling) on mp/shm. A sim
/// run records its intervals and messages into `trace` when that is
/// non-null; an mp/shm run runs each rank on its own OS thread under `opt`
/// and leaves `trace` untouched. Throws dhpf::Error if any rank's coroutine
/// throws or the run deadlocks, and on mp/shm when a receive or barrier
/// times out.
///
/// Side effect on mp/shm: bumps dhpf::obs under the mode's prefix <m>
/// ("mp" or "shm") — counters <m>.runs / <m>.messages / <m>.bytes (plus
/// shm.barriers / shm.shared_bytes on shm), per-rank gauges
/// <m>.rank<r>.{sends,recvs,wait_seconds}, and timers <m>.phase.<label>
/// accumulating real busy seconds per phase.
exec::RunStats run(exec::Backend backend, int nranks, const exec::Machine& machine,
                   const Options& opt, const std::function<exec::Task(exec::Channel&)>& body,
                   sim::TraceLog* trace = nullptr);

}  // namespace dhpf::mp
