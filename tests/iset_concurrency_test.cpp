// Thread-safety test for the iset intern/memo tables — built and run under
// ThreadSanitizer in CI (the tables are sharded-mutex structures and rep
// ids are lazily published through an atomic; TSan sees any missing
// synchronization the serial suite can't).
//
// Shape: N threads hammer the memoized operations on OVERLAPPING operands
// (same rep ids, so they race on the same shards and memo entries), and
// each thread checks its answers against a serial reference computed up
// front.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "iset/intern.hpp"
#include "iset/set.hpp"

namespace dhpf::iset {
namespace {

Params no_params;

Set box(i64 lo0, i64 hi0, i64 lo1, i64 hi1) {
  BasicSet bs(2, no_params);
  bs.add_bounds(0, bs.expr_const(lo0), bs.expr_const(hi0));
  bs.add_bounds(1, bs.expr_const(lo1), bs.expr_const(hi1));
  return Set(bs);
}

TEST(IsetConcurrency, SharedMemoTablesUnderContention) {
  memo::set_cache_enabled(true);
  memo::clear_caches();

  // A small pool of operands every thread shares: maximal shard contention.
  std::vector<Set> ops;
  for (i64 k = 0; k < 6; ++k)
    ops.push_back(box(-3 + k, 2 + k, -2, 3 + (k % 2)));

  // Serial reference answers, computed before any concurrency starts.
  struct Ref {
    std::string inter, diff;
    bool empty;
    std::size_t card;
  };
  std::vector<std::vector<Ref>> ref(ops.size(), std::vector<Ref>(ops.size()));
  for (std::size_t i = 0; i < ops.size(); ++i)
    for (std::size_t j = 0; j < ops.size(); ++j) {
      const Set inter = ops[i].intersect(ops[j]);
      const Set diff = ops[i].subtract(ops[j]);
      ref[i][j] = {rep_bytes(inter), rep_bytes(diff), diff.is_empty(),
                   inter.cardinality({})};
    }

  constexpr int kThreads = 8;
  constexpr int kRounds = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < ops.size(); ++i) {
          // Stagger the visit order per thread so lookups and stores for
          // the same key genuinely interleave.
          const std::size_t j =
              (i + static_cast<std::size_t>(t + round)) % ops.size();
          const Set inter = ops[i].intersect(ops[j]);
          const Set diff = ops[i].subtract(ops[j]);
          if (rep_bytes(inter) != ref[i][j].inter) failures.fetch_add(1);
          if (rep_bytes(diff) != ref[i][j].diff) failures.fetch_add(1);
          if (diff.is_empty() != ref[i][j].empty) failures.fetch_add(1);
          if (inter.cardinality({}) != ref[i][j].card) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace dhpf::iset
