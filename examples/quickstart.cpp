// Quickstart: compile a small HPF program with the dHPF-reproduction
// pipeline and execute the generated SPMD code on the simulated machine.
//
//   $ ./build/examples/quickstart
//
// Walks through the full flow: HPF-lite source -> computation partitioning
// selection -> communication generation -> SPMD listing -> execution with
// verification against serial semantics.
#include <cstdio>

#include "codegen/driver.hpp"

int main() {
  using namespace dhpf;

  // A 5-point Jacobi-style relaxation over a (BLOCK, BLOCK)-distributed
  // grid. The NEW directive marks `row` privatizable in the j loop.
  const char* source = R"(
    processors P(2, 2)
    array u(32, 32) distribute (block:0, block:1) onto P
    array v(32, 32) distribute (block:0, block:1) onto P
    array row(32)

    procedure main()
      do[independent, new(row)] j = 1, 30
        do i = 0, 31
          row(i) = u(i, j)
        enddo
        do i = 1, 30
          v(i, j) = row(i-1) + row(i+1) + u(i, j-1) + u(i, j+1)
        enddo
      enddo
    end
  )";

  std::printf("---- input HPF program ----\n");
  hpf::Program prog;
  codegen::CompileResult compiled = codegen::compile_source(source, &prog);
  std::printf("%s\n", prog.to_string().c_str());

  std::printf("---- computation partitionings ----\n");
  for (const auto& [id, sc] : compiled.cps.stmts)
    std::printf("  S%d: %s\n", id, sc.cp.to_string().c_str());

  std::printf("\n---- communication plan ----\n%s\n", compiled.plan.to_string().c_str());

  std::printf("---- generated SPMD node program ----\n%s\n", compiled.listing.c_str());

  std::printf("---- execution on the simulated SP2 (4 processors) ----\n");
  codegen::SpmdResult r =
      codegen::run_spmd(prog, compiled.cps, compiled.plan, exec::Machine::sp2());
  std::printf("  simulated time: %.6f s\n", r.elapsed);
  std::printf("  messages: %zu, volume: %zu bytes\n", r.messages, r.bytes);
  std::printf("  statement instances per rank:");
  for (auto n : r.instances_per_rank) std::printf(" %zu", n);
  std::printf("\n  verified against serial interpretation: max |err| = %.2e\n", r.max_err);
  std::printf("\nNote: `row` is never communicated — its definitions received the union\n"
              "of CPs translated from the uses (paper sec 4.1), so each processor computes\n"
              "exactly the private elements it needs, boundary values partially replicated.\n");
  return 0;
}
