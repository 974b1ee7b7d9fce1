// dhpf::exec::RunStats — what one run of an SPMD node program measured.
//
// mp::run returns one RunStats on every backend (sim, mp, shm), each
// quantity stored once. A field a backend cannot measure stays 0: the
// virtual-time fields (elapsed, the compute/comm/idle totals) on mp/shm,
// the shm counters (barriers, shared_read_bytes) elsewhere, and the
// real-time phase rows on sim (whose per-phase view is
// sim::TraceLog::phase_breakdown).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "exec/channel.hpp"

namespace dhpf::exec {

/// One rank's activity over a run.
struct RankStats {
  std::size_t sends = 0;
  std::size_t recvs = 0;
  std::size_t bytes_sent = 0;
  std::size_t bytes_received = 0;
  std::size_t barriers = 0;           ///< barrier episodes entered (shm)
  std::size_t shared_read_bytes = 0;  ///< direct shared reads (shm)
  double compute_seconds = 0.0;       ///< modelled seconds via compute()/elapse()
  double comm_seconds = 0.0;          ///< send+recv overhead, virtual (sim)
  double wait_seconds = 0.0;          ///< blocked in recv/barrier: virtual on sim, real on mp/shm
};

struct RunStats {
  Backend backend = Backend::Sim;
  double elapsed = 0.0;       ///< virtual seconds: max final clock (sim)
  double wall_seconds = 0.0;  ///< real (monotonic-clock) seconds of the run
  std::size_t messages = 0;
  std::size_t bytes = 0;
  std::size_t barriers = 0;           ///< barrier episodes, global releases (shm)
  std::size_t shared_read_bytes = 0;  ///< direct shared reads, all ranks (shm)

  /// Virtual seconds summed over ranks (sim), so each total lies in
  /// [0, elapsed * nranks]. `total_comm` counts send+recv software
  /// *overhead* only; waiting for a message that has not yet arrived is
  /// `total_idle`, and wire latency/bandwidth time overlaps with whatever
  /// the ranks do meanwhile, so the three fractions below sum to <= 1
  /// (ranks that finish before `elapsed` leave untracked tail time).
  double total_compute = 0.0;
  double total_comm = 0.0;
  double total_idle = 0.0;

  std::vector<RankStats> ranks;

  /// Real-time phase breakdown summed over ranks (mp/shm): for each phase
  /// label (see Channel::set_phase) the wall time ranks spent inside it,
  /// split into busy and wait (blocked in recv or at a barrier) seconds.
  struct PhaseRow {
    std::string phase;
    double busy = 0.0;
    double wait = 0.0;
  };
  std::vector<PhaseRow> phases;

  /// The backend's own clock, which a run is scored by: virtual seconds on
  /// sim, real seconds on mp/shm.
  [[nodiscard]] double seconds() const {
    return backend == Backend::Sim ? elapsed : wall_seconds;
  }
  [[nodiscard]] int nranks() const { return static_cast<int>(ranks.size()); }

  /// Fractions of rank-time (elapsed * nranks) spent computing, in send/recv
  /// overhead, and blocked waiting for messages; 0 when elapsed is 0.
  [[nodiscard]] double busy_fraction() const { return fraction(total_compute); }
  [[nodiscard]] double comm_fraction() const { return fraction(total_comm); }
  [[nodiscard]] double idle_fraction() const { return fraction(total_idle); }

 private:
  [[nodiscard]] double fraction(double total) const {
    const double denom = elapsed * nranks();
    return denom > 0.0 ? total / denom : 0.0;
  }
};

}  // namespace dhpf::exec
