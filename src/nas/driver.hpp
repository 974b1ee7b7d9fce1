// Driver: runs a mini-NAS variant on any execution backend — the
// virtual-time simulator (sim), the real multi-threaded message-passing
// runtime (mp), or the shared-memory threaded runtime (shm) — verifies the
// result against the serial reference, and reports timing/statistics. This
// is the layer the benchmark binaries (Tables 8.1/8.2, Figures 8.1-8.4)
// are built on.
#pragma once

#include <optional>
#include <string>

#include "exec/machine.hpp"
#include "exec/stats.hpp"
#include "mp/runtime.hpp"
#include "nas/dhpf_style.hpp"
#include "nas/problem.hpp"
#include "sim/trace.hpp"

namespace dhpf::nas {

enum class Variant { HandMPI, DhpfStyle, PgiStyle };

const char* to_string(Variant v);

/// The run's measurements (exec::RunStats, from mp::run) plus the trace
/// and the verification against the serial reference.
struct RunResult : exec::RunStats {
  sim::TraceLog trace;    ///< populated when record_trace was requested
  double max_err = -1.0;  ///< vs serial reference; -1 when not verified
  double norm = 0.0;      ///< allreduced interior RMS of u (collective)
  bool verified = false;
};

struct DriverOptions {
  exec::Backend backend = exec::Backend::Sim;
  mp::Options runtime;       ///< mp/shm runtime tuning (compute mode, timeouts)
  DhpfOptions dhpf;          ///< options for the dHPF-style variant
  bool record_trace = false; ///< sim backend only
  bool verify = true;        ///< run the serial reference and compare fields
};

/// Whether `v` supports `nprocs` (hand multi-partitioning needs a square).
bool variant_supports(Variant v, int nprocs);

/// Run one variant at `nprocs` on `machine`. Throws dhpf::Error on failure.
RunResult run_variant(Variant v, const Problem& pb, int nprocs, const exec::Machine& machine,
                      const DriverOptions& opt = {});

}  // namespace dhpf::nas
