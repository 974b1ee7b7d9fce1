// Example: a cross-processor line recurrence (ADI-style forward sweep) —
// the program shape behind the paper's wavefront/pipelining discussion and
// the Section 7 data availability analysis.
//
// Shows: per-iteration (pipelined) communication placement, the spurious
// against-the-pipeline traffic that appears when the Section 7 analysis is
// disabled, and the simulator's space-time diagram of the wavefront.
#include <cstdio>

#include "codegen/driver.hpp"

int main() {
  using namespace dhpf;

  const char* source = R"(
    processors P(4)
    array a(32, 12, 5) distribute (block:0, *, *) onto P

    procedure main()
      do k = 1, 10
        do j = 1, 28
          a(j+1, k, 1) = a(j, k, 2)
          a(j+2, k, 1) = a(j+1, k, 1) + a(j, k, 2)
          a(j, k, 2) = a(j, k, 3) + 1
        enddo
      enddo
    end
  )";

  std::printf("=== line_sweep_pipeline: wavefront over a BLOCK-distributed dimension ===\n\n");

  for (bool avail : {true, false}) {
    hpf::Program prog;
    comm::CommOptions copt;
    copt.data_availability = avail;
    auto compiled = codegen::compile_source(source, &prog, {}, copt);

    codegen::SpmdOptions ropt;
    ropt.record_trace = true;
    ropt.flops_per_instance = 3000.0;  // make compute visible next to latency
    auto r = codegen::run_spmd(prog, compiled.cps, compiled.plan, exec::Machine::sp2(), ropt);

    std::printf("--- data availability %s ---\n", avail ? "ON (sec 7)" : "OFF");
    std::printf("  fetch events: %zu active, %zu eliminated\n",
                compiled.plan.active_fetches(), compiled.plan.eliminated_fetches());
    std::printf("  simulated time %.5f s, %zu msgs, %zu bytes, max err %.1e\n", r.elapsed,
                r.messages, r.bytes, r.max_err);
    std::printf("%s\n", r.trace.ascii_space_time(90).c_str());
  }

  std::printf("The OFF diagram shows the extra messages flowing against the wavefront —\n"
              "the paper's observation that this traffic 'would completely disrupt the\n"
              "pipeline', and why eliminating it (sec 7) was essential for SP.\n");
  return 0;
}
