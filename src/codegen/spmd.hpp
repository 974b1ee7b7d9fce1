// SPMD code generation and execution.
//
// The "generated node program" is executed directly: every rank interprets
// the HPF-lite program, guarding each statement instance by its
// computation partitioning (ON_HOME membership for the rank's block bounds)
// and performing the communication plan's fetch / write-back events with
// real data, on whichever backend mp::run is asked for (sim, mp or shm).
//
// Verification oracle: each rank's local storage is initialized to the
// deterministic initial value only for elements it *owns* (plus fully
// replicated arrays); every other element starts as NaN. A missing or
// misplaced communication therefore surfaces as NaN (or a stale value)
// when the distributed arrays' owner copies are compared against the serial
// interpretation of the same program.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "cp/select.hpp"
#include "exec/machine.hpp"
#include "exec/stats.hpp"
#include "hpf/ir.hpp"
#include "mp/runtime.hpp"
#include "sim/trace.hpp"

namespace dhpf::codegen {

/// Deterministic initial value of element `flat` of array `a`.
double init_value(const hpf::Array& a, std::size_t flat);

/// Dense value store (row-major by array extents).
using Store = std::map<const hpf::Array*, std::vector<double>>;

/// Reference semantics: interpret the program serially.
Store interpret_serial(const hpf::Program& prog);

struct SpmdOptions {
  exec::Backend backend = exec::Backend::Sim;
  mp::Options runtime;               ///< mp/shm runtime tuning (compute, timeouts)
  bool record_trace = false;         ///< sim backend only
  double flops_per_instance = 10.0;  ///< cost model per statement instance
  bool verify = true;                ///< compare against interpret_serial
  /// Assemble each distributed array's owner copies into SpmdResult::gathered
  /// (dense, row-major — the same shape interpret_serial returns). The fuzz
  /// differential driver compares these bit-for-bit across backends and
  /// against the serial oracle.
  bool collect_result = false;
};

/// The run's measurements (exec::RunStats, from mp::run) plus what
/// run_spmd adds: the trace, the verification error and the gathered data.
struct SpmdResult : exec::RunStats {
  sim::TraceLog trace;    ///< with record_trace on sim
  double max_err = -1.0;  ///< -1 when not verified
  /// Owner copies of the distributed arrays (with collect_result).
  Store gathered;
  /// Assignment instances executed per rank (replication / load metric).
  std::vector<std::size_t> instances_per_rank;
  [[nodiscard]] std::size_t total_instances() const;
};

/// Execute the SPMD program implied by (cps, plan) on `nprocs` = the
/// program's processor-grid size. Throws dhpf::Error if verification fails.
SpmdResult run_spmd(const hpf::Program& prog, const cp::CpResult& cps,
                    const comm::CommPlan& plan, const exec::Machine& machine,
                    const SpmdOptions& opt = {});

/// Emit a human-readable pseudo-Fortran listing of the SPMD node program
/// (guards as ON_HOME conditions, communication events at their placement).
std::string emit_spmd(const hpf::Program& prog, const cp::CpResult& cps,
                      const comm::CommPlan& plan);

}  // namespace dhpf::codegen
