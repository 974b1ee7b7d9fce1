// dhpf::mp — the threaded runtime: real OS threads, one per rank.
//
// The real-hardware backend behind exec::Channel: where src/sim *simulates*
// a distributed-memory machine in virtual time, mp *executes* the same SPMD
// node programs on hardware, one OS thread per rank, with per-rank
// mailboxes (mutex + condition variable), tagged send/recv with wildcard
// source, nonblocking irecv/wait, and the shared collectives of
// exec/collectives.hpp. This is the moral equivalent of the paper's MPI
// runs on the 32-node SP2 (§8), scaled to a shared-memory node: the
// compiler's communication plans are validated under real concurrency and
// real (monotonic-clock) time instead of a cost model.
//
// One runtime, two modes, chosen by the exec::Backend passed to run():
//
//   * Mp — message passing: the node program's fetches and write-backs
//     travel as mailbox messages.
//   * Shm — the same mailboxes, plus the two primitives a shared-memory
//     lowering needs, since the ranks share one address space:
//       - mp::barrier(ch) — a phase barrier across all ranks of the run.
//         The codegen layer places a barrier pair around every
//         communication-event instance derived from the comm plan, which
//         turns each fetch / write-back into direct reads of the producing
//         rank's storage with no message copies (see codegen::exec_event
//         and docs/runtime.md).
//       - mp::note_shared_read(ch, bytes) — accounting for those direct
//         reads, the shared-memory analogue of message bytes
//         (Stats::shared_read_bytes, obs counter shm.shared_bytes).
//     Message-passing node programs (collectives, the NAS variants) run in
//     Shm mode as-is over the mailboxes.
//
// Every name a run emits carries its mode: obs metrics (mp.* / shm.*),
// trace spans (mp.send / shm.send, ...), the dhpf::Error component and the
// watchdog's stderr dump prefix ("mp watchdog:" / "shm watchdog:").
//
// Determinism: message order between one (source, tag) pair and a receiver
// is FIFO, exactly as on the simulator, so node programs whose receives
// name their sources — everything codegen emits, the NAS variants, and the
// collectives — produce bit-identical results on every backend. Wildcard
// (kAnySource) receives, by contrast, match in real arrival order, which
// depends on OS scheduling: *nondeterministic across sources* here,
// deterministic (earliest virtual arrival, ties by source rank) on sim.
// The barrier-synchronized direct reads of Shm mode are deterministic by
// construction: within a barrier epoch each rank reads only locations no
// other rank is writing (ownership-disjoint).
//
// Liveness: CI must never hang. Every blocking receive and barrier wait
// carries a configurable timeout, and a watchdog thread detects global
// deadlock (all unfinished ranks blocked — in a receive or at the barrier —
// with no delivery or barrier release across two scans) and aborts the run;
// both raise dhpf::Error instead of hanging.
//
// compute(flops) does not burn host cycles by default (ComputeMode::Noop):
// the kernels' real arithmetic is the work, and timings come from the
// monotonic clock. For machine-model emulation studies, Spin busy-waits
// and Sleep sleeps for the modelled duration (scaled by time_scale); Sleep
// lets P ranks overlap their modelled compute even on a single host core,
// which keeps measured-speedup experiments meaningful on small CI boxes.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "exec/channel.hpp"
#include "exec/task.hpp"

namespace dhpf::mp {

inline constexpr int kAnySource = exec::kAnySource;

/// How Channel::compute(flops)/elapse(s) behave on the real backend.
enum class ComputeMode {
  Noop,   ///< account modelled seconds only; no host time consumed
  Spin,   ///< busy-wait for the modelled duration * time_scale
  Sleep,  ///< sleep for the modelled duration * time_scale (overlaps ranks)
};

struct Options {
  ComputeMode compute_mode = ComputeMode::Noop;
  /// Cost model used to convert flops to seconds for Spin/Sleep and served
  /// by Channel::machine() for cost heuristics (e.g. pipeline tiling).
  exec::Machine machine = exec::Machine::sp2();
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

/// Per-rank activity counters (real seconds where noted).
struct RankStats {
  std::size_t sends = 0;
  std::size_t recvs = 0;
  std::size_t bytes_sent = 0;
  std::size_t bytes_received = 0;
  std::size_t barriers = 0;           ///< barrier episodes entered (Shm mode)
  std::size_t shared_read_bytes = 0;  ///< direct shared reads (Shm mode)
  double wait_seconds = 0.0;          ///< real time blocked in recv or at a barrier
  double compute_seconds = 0.0;       ///< *modelled* seconds via compute()/elapse()
};

struct Stats {
  double wall_seconds = 0.0;  ///< real elapsed time of the run
  std::size_t messages = 0;
  std::size_t bytes = 0;
  std::size_t barriers = 0;           ///< barrier episodes (global releases)
  std::size_t shared_read_bytes = 0;  ///< direct shared reads, all ranks
  std::vector<RankStats> ranks;

  /// Real-time phase breakdown summed over ranks: for each phase label (see
  /// Channel::set_phase) the wall time ranks spent inside it, split into
  /// busy (executing) and wait (blocked in recv or at a barrier) seconds.
  struct PhaseRow {
    std::string phase;
    double busy = 0.0;
    double wait = 0.0;
  };
  std::vector<PhaseRow> phases;
};

/// Rendezvous of every rank of the current Shm-mode run; returns once all
/// ranks have arrived. `ch` must be a channel handed out by an Shm-mode
/// run() — a sim channel or an Mp-mode one raises dhpf::Error. Throws on
/// timeout or when the watchdog aborts the run (a peer died before the
/// barrier).
void barrier(exec::Channel& ch);

/// Account `bytes` of direct shared-memory reads performed by this rank
/// between two barriers. Same channel requirement as barrier().
void note_shared_read(exec::Channel& ch, std::size_t bytes);

/// Execute `body(channel)` once per rank in `mode` (Mp or Shm; Sim raises
/// dhpf::Error), each rank on its own OS thread, and return the real
/// elapsed seconds. Throws dhpf::Error if any rank's coroutine throws, a
/// receive or barrier times out, or the watchdog detects deadlock.
///
/// Side effect: bumps dhpf::obs under the mode's prefix <m> ("mp" or
/// "shm") — counters <m>.runs / <m>.messages / <m>.bytes (plus
/// shm.barriers / shm.shared_bytes in Shm mode), per-rank gauges
/// <m>.rank<r>.{sends,recvs,wait_seconds}, and timers <m>.phase.<label>
/// accumulating real busy seconds per phase.
double run(exec::Backend mode, int nranks, const Options& opt,
           const std::function<exec::Task(exec::Channel&)>& body, Stats* stats_out = nullptr);

/// Convenience overload with default options.
double run(exec::Backend mode, int nranks,
           const std::function<exec::Task(exec::Channel&)>& body, Stats* stats_out = nullptr);

}  // namespace dhpf::mp
