#include "nas/driver.hpp"

#include <cmath>

#include "nas/hand_mpi.hpp"
#include "nas/pgi_style.hpp"
#include "nas/serial.hpp"
#include "support/diagnostics.hpp"

namespace dhpf::nas {

const char* to_string(Variant v) {
  switch (v) {
    case Variant::HandMPI: return "hand-mpi";
    case Variant::DhpfStyle: return "dhpf";
    case Variant::PgiStyle: return "pgi";
  }
  return "?";
}

bool variant_supports(Variant v, int nprocs) {
  if (nprocs < 1) return false;
  if (v == Variant::HandMPI) {
    const int q = static_cast<int>(std::lround(std::sqrt(static_cast<double>(nprocs))));
    return q * q == nprocs;
  }
  return true;
}

RunResult run_variant(Variant v, const Problem& pb, int nprocs, const exec::Machine& machine,
                      const DriverOptions& opt) {
  require(variant_supports(v, nprocs), "nas",
          std::string(to_string(v)) + " does not support this processor count");

  // The gather field collects every rank's final owned interior values; the
  // boundary (never updated by any variant) is pre-filled from the initial
  // condition so whole-domain comparisons are meaningful.
  rt::Field gathered(kNumComp, pb.domain(), 0);
  init_u(pb, gathered, pb.domain());

  RunResult result;
  const auto body = [&](exec::Channel& p) -> exec::Task {
    switch (v) {
      case Variant::HandMPI: return run_hand_mpi(p, pb, &gathered, &result.norm);
      case Variant::DhpfStyle:
        return run_dhpf_style(p, pb, opt.dhpf, &gathered, &result.norm);
      default: return run_pgi_style(p, pb, &gathered, &result.norm);
    }
  };

  // On mp/shm ranks race on the gather field, but every rank writes only
  // its own owned box (disjoint), so no synchronization is needed. The NAS
  // node programs are message-passing codes; on shm they run unchanged over
  // the mailbox path.
  static_cast<exec::RunStats&>(result) =
      mp::run(opt.backend, nprocs, machine, opt.runtime, body,
              opt.record_trace ? &result.trace : nullptr);

  if (opt.verify) {
    SerialApp reference(pb);
    reference.run();
    result.max_err = gathered.max_abs_diff(reference.u(), pb.domain());
    result.verified = true;
    require(result.max_err < 1e-9, "nas",
            std::string("verification failed for ") + to_string(v) + " at P=" +
                std::to_string(nprocs) + ": max |err| = " + std::to_string(result.max_err));
    // The collectively computed norm must agree with the serial one (the
    // summation tree reorders additions, hence the tolerance).
    require(std::fabs(result.norm - reference.interior_rms()) < 1e-10, "nas",
            "collective norm mismatch vs serial reference");
  }
  return result;
}

}  // namespace dhpf::nas
