// dhpf::model — analytic (execution-free) performance model over the same
// lowered-plan artifacts the static verifier consumes (CP assignment +
// communication plan).
//
// The model is deliberately *linear* in its fitted parameters:
//
//   predicted wall  =  gamma * C  +  alpha * M  +  beta * B
//
// where C, M, B are plan-derived aggregates along the critical rank —
// compute seconds, message count and payload bytes — and (gamma, alpha,
// beta) are machine parameters. Linearity is what makes calibration
// (calibrate.hpp) an ordinary least-squares problem over measured runs
// instead of a nonlinear search.
//
// Aggregates are exact, not sampled:
//   * per-statement instance counts come from integer-set point counts
//     (Set::cardinality over iterations_on_home), one per rank — never by
//     walking the iteration space of the program;
//   * per-event message/byte counts come from the communication plan's data
//     sets, grouped exactly the way codegen's event execution groups them:
//     one message per (rank, outer-iteration prefix, peer).
//
// Phase composition mirrors the SPMD execution structure: compute is a
// parallel max over ranks; each communication event is a serial sum over
// its outer-iteration prefixes (pipeline serialization) of a parallel max
// over ranks within the prefix (concurrent exchange). The per-prefix
// critical rank is chosen once, with the default machine constants, so the
// composed M and B stay fixed weights and the wall prediction stays linear
// in the parameters being fitted.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "cp/select.hpp"
#include "exec/machine.hpp"
#include "hpf/ir.hpp"

namespace dhpf::model {

/// The fitted parameters of the linear cost model. alpha/beta price the
/// message-passing backends' wall formula; delta/sigma price the
/// shared-memory backend's (barriers instead of messages, direct shared
/// reads instead of payload bytes). Both formulas share gamma * C.
struct ModelParams {
  double alpha = 0.0;  ///< seconds per critical-path message
  double beta = 0.0;   ///< seconds per critical-path payload byte
  double gamma = 1.0;  ///< dimensionless scale on modelled compute seconds
  double delta = 0.0;  ///< seconds per barrier episode (shm)
  double sigma = 0.0;  ///< seconds per critical-path shared-read byte (shm)

  /// Defaults derived from a machine description: alpha folds the fixed
  /// per-message costs (latency + both software overheads), beta is the
  /// inverse bandwidth, gamma is 1 (modelled compute taken at face value).
  /// The shm defaults reuse them: a barrier episode is priced like a
  /// message's fixed cost (delta = alpha) and a shared read like a wire
  /// byte (sigma = beta) until calibration sharpens both.
  static ModelParams from_machine(const exec::Machine& m);

  [[nodiscard]] std::string to_string() const;
};

/// Per-statement compute cost: exact instance counts per rank.
struct StmtCost {
  int stmt_id = -1;
  std::string cp;                       ///< CP rendered for the report
  std::size_t total_instances = 0;      ///< sum over ranks
  std::size_t critical_instances = 0;   ///< max over ranks
};

/// Per-event communication cost.
struct EventCost {
  int event_id = -1;
  std::string array;
  bool fetch = true;            ///< false: write-back
  std::size_t prefixes = 0;     ///< outer-iteration instances of the event
  std::size_t messages = 0;     ///< total sends, all ranks and prefixes
  std::size_t bytes = 0;        ///< total payload bytes (8 per element)
  /// Sum over prefixes of the critical rank's message/byte participation
  /// (sends + receives) within the prefix.
  double critical_messages = 0.0;
  double critical_bytes = 0.0;
};

/// The full prediction for one compiled plan.
struct Prediction {
  int nprocs = 1;
  double flops_per_instance = 10.0;  ///< cost-model constant (SpmdOptions)
  double flop_time = 0.0;            ///< seconds per flop (machine)

  std::vector<StmtCost> stmts;
  std::vector<EventCost> events;

  // Totals (comparable to the executed run's exec::RunStats: messages,
  // bytes, total_compute on sim, and SpmdResult's total instance count).
  std::size_t total_instances = 0;
  std::size_t messages = 0;
  std::size_t bytes = 0;
  double compute_seconds_total = 0.0;

  // Critical-path aggregates — the C, M, B of the wall-time formula.
  double compute_seconds_critical = 0.0;
  double critical_messages = 0.0;
  double critical_bytes = 0.0;

  // Shared-memory aggregates: on shm every event instance (outer-iteration
  // prefix with any non-local element) costs one barrier pair, and the
  // per-prefix critical rank is the one pulling the most shared bytes.
  // barrier_episodes is exact (= an shm run's RunStats::barriers for the
  // same plan); total shared bytes equal `bytes` by construction (every
  // wire byte becomes a direct read).
  std::size_t barrier_episodes = 0;
  double critical_shared_bytes = 0.0;

  std::string note;  ///< approximations taken (e.g. opaque callee bounds)

  /// gamma*C + alpha*M + beta*B.
  [[nodiscard]] double wall(const ModelParams& p) const;
  /// The communication share of wall (alpha*M + beta*B).
  [[nodiscard]] double comm_seconds(const ModelParams& p) const;
  /// The shm wall formula: gamma*C + delta*barriers + sigma*shared bytes.
  [[nodiscard]] double wall_shm(const ModelParams& p) const;
  /// The synchronization + shared-read share of wall_shm.
  [[nodiscard]] double sync_seconds(const ModelParams& p) const;

  [[nodiscard]] std::string to_string(const ModelParams& p) const;
  [[nodiscard]] std::string to_json(const ModelParams& p) const;
};

/// Predict the cost of a compiled plan without executing it. `machine`
/// supplies flop_time and the default critical-rank tie-breaking constants;
/// `flops_per_instance` must match the SpmdOptions the plan would run with
/// for predictions to be commensurable with measurements.
Prediction predict(const hpf::Program& prog, const cp::CpResult& cps,
                   const comm::CommPlan& plan,
                   const exec::Machine& machine = exec::Machine::sp2(),
                   double flops_per_instance = 10.0);

}  // namespace dhpf::model
