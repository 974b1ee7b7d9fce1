#include <gtest/gtest.h>

#include "codegen/driver.hpp"
#include "cp/transform.hpp"
#include "hpf/parser.hpp"

namespace dhpf::cp {
namespace {

const char* kConflict = R"(
  processors P(2, 2)
  array lhs(16, 16, 16, 9) distribute (*, block:0, block:1, *) onto P
  procedure main()
    do k = 1, 14
      do j = 1, 12
        do i = 1, 14
          lhs(i, j, k, 4) = lhs(i, j, k, 3)
          lhs(i, j+1, k, 5) = lhs(i, j+1, k, 4)
          lhs(i, j, k, 6) = lhs(i, j+1, k, 5) + lhs(i, j, k, 4)
        enddo
      enddo
    enddo
  end
)";

TEST(Transform, SplitsConflictingLoopIntoTwo) {
  hpf::Program prog = hpf::parse(kConflict);
  auto& lk = prog.main()->body[0]->loop();
  auto& lj = lk.body[0]->loop();
  ASSERT_EQ(lj.body.size(), 1u);
  const std::size_t splits = distribute_where_needed(prog, *prog.main());
  EXPECT_EQ(splits, 1u);
  ASSERT_EQ(lj.body.size(), 2u);  // the i loop became two consecutive i loops
  EXPECT_TRUE(lj.body[0]->is_loop());
  EXPECT_TRUE(lj.body[1]->is_loop());
  // Loop headers preserved.
  EXPECT_EQ(lj.body[0]->loop().var, "i");
  EXPECT_EQ(lj.body[1]->loop().var, "i");
  // All three statements still present.
  std::size_t assigns = 0;
  hpf::walk(prog.main()->body, [&](hpf::Stmt& s, const std::vector<const hpf::Loop*>&) {
    if (s.is_assign()) ++assigns;
  });
  EXPECT_EQ(assigns, 3u);
}

TEST(Transform, DistributedProgramStillVerifies) {
  hpf::Program prog = hpf::parse(kConflict);
  distribute_where_needed(prog, *prog.main());
  auto compiled = codegen::compile(prog);
  auto r = codegen::run_spmd(prog, compiled.cps, compiled.plan, exec::Machine::sp2());
  EXPECT_LT(r.max_err, 1e-12);
}

TEST(Transform, DistributionHoistsCommunicationOutward) {
  // Before: the conflicting pair forces inner-loop communication (placed at
  // the innermost level, one message per (k,j,i) boundary iteration).
  // After: the dependence crosses two sibling i-loops, so the fetch hoists
  // to the j level — far fewer, larger messages. (Paper §5: "unavoidable
  // ones are finally placed at the outermost loop nest level".)
  hpf::Program before = hpf::parse(kConflict);
  auto cb = codegen::compile(before);
  auto rb = codegen::run_spmd(before, cb.cps, cb.plan, exec::Machine::sp2());

  hpf::Program after = hpf::parse(kConflict);
  distribute_where_needed(after, *after.main());
  auto ca = codegen::compile(after);
  auto ra = codegen::run_spmd(after, ca.cps, ca.plan, exec::Machine::sp2());

  EXPECT_LT(ra.max_err, 1e-12);
  EXPECT_LT(rb.max_err, 1e-12);
  EXPECT_LT(ra.messages, rb.messages);
}

TEST(Transform, NoOpWhenNoConflict) {
  hpf::Program prog = hpf::parse(R"(
    processors P(4)
    array a(16) distribute (block:0) onto P
    array b(16) distribute (block:0) onto P
    procedure main()
      do i = 1, 14
        a(i) = b(i)
        b(i) = a(i)
      enddo
    end
  )");
  EXPECT_EQ(distribute_where_needed(prog, *prog.main()), 0u);
  EXPECT_EQ(prog.main()->body.size(), 1u);
}

TEST(Transform, RejectsMixedBodies) {
  hpf::Program prog = hpf::parse(R"(
    processors P(2, 2)
    array a(8, 8) distribute (block:0, block:1) onto P
    procedure main()
      do j = 1, 6
        do i = 1, 6
          a(i, j) = a(i, j)
        enddo
      enddo
    end
  )");
  LoopDistInfo fake;
  fake.loop = &prog.main()->body[0]->loop();
  fake.partitions = {{0}, {1}};
  EXPECT_THROW(apply_selective_distribution(prog.main()->body, 0, fake), dhpf::Error);
}

}  // namespace
}  // namespace dhpf::cp
