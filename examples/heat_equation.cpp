// Example: explicit 2D heat diffusion with LOCALIZE'd coefficient arrays.
//
// The conductivity-like coefficient field `kap` is recomputed from the
// temperature every step and read at +/-1 offsets — exactly the reciprocal-
// array pattern of NAS compute_rhs (paper sec 4.2). Marking it LOCALIZE
// replicates its boundary computation into overlap areas, so only the
// temperature's halo is ever exchanged.
//
// The example compiles the program twice (with and without LOCALIZE),
// executes both on the simulated SP2, and reports communication and time,
// then scales the processor grid to show parallel speedup.
#include <cstdio>
#include <string>

#include "codegen/driver.hpp"

namespace {

std::string program_text(int py, int pz) {
  // Three explicit timesteps of: kap = f(t); t' = t + kap-weighted stencil.
  std::string s;
  s += "processors P(" + std::to_string(py) + ", " + std::to_string(pz) + ")\n";
  s += R"(
    array t0(34, 34) distribute (block:0, block:1) onto P
    array t1(34, 34) distribute (block:0, block:1) onto P
    array kap(34, 34) distribute (block:0, block:1) onto P
    array cond(34, 34) distribute (block:0, block:1) onto P

    procedure main()
      do[independent, localize(kap, cond)] step = 1, 3
        do j = 0, 33
          do i = 0, 33
            kap(i, j) = t0(i, j)
            cond(i, j) = t0(i, j) + 1
          enddo
        enddo
        do j = 1, 32
          do i = 1, 32
            t1(i, j) = t0(i, j) + kap(i-1, j) + kap(i+1, j) + kap(i, j-1) + kap(i, j+1) + cond(i-1, j) + cond(i+1, j) + cond(i, j-1) + cond(i, j+1)
          enddo
        enddo
        do j = 1, 32
          do i = 1, 32
            t0(i, j) = t1(i, j)
          enddo
        enddo
      enddo
    end
  )";
  return s;
}

void run_grid(int py, int pz, bool localize) {
  using namespace dhpf;
  hpf::Program prog;
  cp::SelectOptions sopt;
  sopt.localize = localize;
  auto compiled = codegen::compile_source(program_text(py, pz), &prog, sopt);
  auto r = codegen::run_spmd(prog, compiled.cps, compiled.plan, exec::Machine::sp2());
  std::printf("  %2dx%-2d  %-9s %12.6f %9zu %10zu   %.1e\n", py, pz,
              localize ? "LOCALIZE" : "owner", r.elapsed, r.messages, r.bytes, r.max_err);
}

}  // namespace

int main() {
  std::printf("=== heat_equation: LOCALIZE'd coefficient field on the simulated SP2 ===\n");
  std::printf("  grid   strategy     sim time      msgs      bytes   max err\n");
  run_grid(1, 1, true);
  for (int p : {2, 4}) {
    run_grid(p / 2 == 0 ? 1 : p / 2, 2, true);
    run_grid(p / 2 == 0 ? 1 : p / 2, 2, false);
  }
  run_grid(4, 4, true);
  run_grid(4, 4, false);
  std::printf("\nWith LOCALIZE only the temperature halo moves (one coalesced fetch); the\n"
              "two coefficient fields' boundary values are recomputed locally instead of\n"
              "communicated (paper sec 4.2). As the paper notes, the optimization pays off\n"
              "exactly when replicating the computation's *inputs* is cheaper than moving\n"
              "the marked arrays themselves.\n");
  return 0;
}
