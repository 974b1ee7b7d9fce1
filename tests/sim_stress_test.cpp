// Stress and edge-case tests for the simulated machine: functional routing
// under irregular traffic, collectives at awkward processor counts and
// roots, machine presets, trace exports, and failure diagnostics.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <random>
#include <set>
#include <vector>

#include "exec/collectives.hpp"
#include "sim/engine.hpp"
#include "support/diagnostics.hpp"

namespace dhpf::sim {
namespace {

using exec::Machine;
using exec::ReduceOp;
using exec::Task;

TEST(SimStress, RandomRoutingDeliversEveryPayloadIntact) {
  // Every rank sends a unique stamped payload to several pseudo-random
  // peers; receivers verify stamp integrity. Repeats across seeds.
  for (unsigned seed : {1u, 2u, 3u}) {
    const int n = 7;
    // Precompute the traffic matrix so senders and receivers agree.
    std::mt19937 rng(seed);
    std::vector<std::vector<int>> sends(n);  // sends[src] = dst list (ordered)
    std::uniform_int_distribution<int> pick(0, n - 1);
    for (int s = 0; s < n; ++s)
      for (int k = 0; k < 5; ++k) {
        int d = pick(rng);
        if (d != s) sends[s].push_back(d);
      }
    int checked = 0;
    Engine e(n, Machine::sp2());
    e.run([&](Process& p) -> Task {
      for (std::size_t k = 0; k < sends[p.rank()].size(); ++k) {
        const int dst = sends[p.rank()][k];
        p.send(dst, /*tag=*/p.rank(), {static_cast<double>(p.rank() * 1000 + k)});
      }
      // Receive in deterministic (src, order) order.
      for (int src = 0; src < n; ++src) {
        if (src == p.rank()) continue;
        int expect_k = 0;
        for (std::size_t k = 0; k < sends[src].size(); ++k) {
          if (sends[src][k] != p.rank()) continue;
          auto v = co_await p.recv(src, src);
          EXPECT_DOUBLE_EQ(v[0], src * 1000 + k) << "seed " << seed;
          ++checked;
          ++expect_k;
        }
        (void)expect_k;
      }
      co_return;
    });
    EXPECT_GT(checked, 0);
  }
}

TEST(SimStress, ThousandsOfMessagesStayOrdered) {
  Engine e(2, Machine::free_network());
  e.run([&](Process& p) -> Task {
    const int kCount = 3000;
    if (p.rank() == 0) {
      for (int i = 0; i < kCount; ++i) p.send(1, 7, {static_cast<double>(i)});
    } else {
      for (int i = 0; i < kCount; ++i) {
        auto v = co_await p.recv(0, 7);
        EXPECT_DOUBLE_EQ(v[0], static_cast<double>(i));
      }
    }
    co_return;
  });
  EXPECT_EQ(e.stats().messages, 3000u);
}

TEST(SimStress, InterleavedTagsAcrossManyRounds) {
  Engine e(3, Machine::sp2());
  e.run([&](Process& p) -> Task {
    for (int round = 0; round < 50; ++round) {
      const int right = (p.rank() + 1) % 3, left = (p.rank() + 2) % 3;
      p.send(right, 100 + round % 3, {static_cast<double>(round)});
      auto v = co_await p.recv(left, 100 + round % 3);
      EXPECT_DOUBLE_EQ(v[0], static_cast<double>(round));
    }
    co_return;
  });
}

TEST(SimStress, DeadlockMessageNamesBlockedRanks) {
  Engine e(3, Machine::sp2());
  try {
    e.run([](Process& p) -> Task {
      if (p.rank() == 2) co_return;       // rank 2 exits
      (void)co_await p.recv(2, 99);       // ranks 0, 1 wait forever
    });
    FAIL() << "expected deadlock";
  } catch (const dhpf::Error& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("deadlock"), std::string::npos);
    EXPECT_NE(what.find("rank 0"), std::string::npos);
    EXPECT_NE(what.find("rank 1"), std::string::npos);
    EXPECT_NE(what.find("tag=99"), std::string::npos);
  }
}

TEST(SimStress, SelfSendIsDeliverable) {
  Engine e(1, Machine::sp2());
  e.run([](Process& p) -> Task {
    p.send(0, 5, {42.0});
    auto v = co_await p.recv(0, 5);
    EXPECT_DOUBLE_EQ(v[0], 42.0);
  });
}

TEST(SimStress, SendToInvalidRankThrows) {
  Engine e(2, Machine::sp2());
  EXPECT_THROW(e.run([](Process& p) -> Task {
                 p.send(5, 0, {1.0});
                 co_return;
               }),
               dhpf::Error);
}

TEST(SimStress, EmptyPayloadCostsOnlyOverheadAndLatency) {
  Machine m = Machine::sp2();
  Engine e(2, m);
  double done = 0;
  e.run([&](Process& p) -> Task {
    if (p.rank() == 0) {
      p.send(1, 0, {});
    } else {
      (void)co_await p.recv(0, 0);
      done = p.now();
    }
    co_return;
  });
  EXPECT_NEAR(done, m.send_overhead + m.latency + m.recv_overhead, 1e-15);
}

TEST(SimStress, MachinePresetsAreOrdered) {
  const Machine sp2 = Machine::sp2();
  const Machine eth = Machine::ethernet_cluster();
  const Machine fast = Machine::fast_switch();
  EXPECT_GT(eth.latency, sp2.latency);
  EXPECT_GT(eth.byte_time, sp2.byte_time);
  EXPECT_LT(fast.latency, sp2.latency);
  EXPECT_LT(fast.flop_time, sp2.flop_time);
}

TEST(SimStress, TraceCsvExportsAreParsable) {
  Engine e(2, Machine::sp2(), true);
  e.run([](Process& p) -> Task {
    p.set_phase("work");
    p.compute(1000.0);
    if (p.rank() == 0)
      p.send(1, 0, {1.0});
    else
      (void)co_await p.recv(0, 0);
    co_return;
  });
  const std::string ivs = e.trace().intervals_csv();
  EXPECT_NE(ivs.find("rank,start,end,kind,phase"), std::string::npos);
  EXPECT_NE(ivs.find("compute,work"), std::string::npos);
  const std::string msgs = e.trace().messages_csv();
  EXPECT_NE(msgs.find("src,dst,tag,bytes,send_time,arrival"), std::string::npos);
  EXPECT_NE(msgs.find("0,1,0,8,"), std::string::npos);
}

TEST(SimStress, StatsBusyFractionBounded) {
  Engine e(4, Machine::sp2());
  e.run([](Process& p) -> Task {
    p.compute(1e5);
    if (p.rank() == 0)
      for (int r = 1; r < p.nprocs(); ++r) p.send(r, 0, {0.0});
    else
      (void)co_await p.recv(0, 0);
    co_return;
  });
  const double f = e.stats().busy_fraction();
  EXPECT_GT(f, 0.0);
  EXPECT_LE(f, 1.0);
}

// ------------------------------------------------------- collectives

class CollectiveRootsP : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(CollectiveRootsP, ReduceToArbitraryRoot) {
  auto [n, root] = GetParam();
  Engine e(n, Machine::free_network());
  double at_root = -1;
  e.run([&](Process& p) -> Task {
    std::vector<double> v{static_cast<double>(p.rank() + 1)};
    co_await reduce(p, v, ReduceOp::Sum, root);
    if (p.rank() == root) at_root = v[0];
  });
  EXPECT_DOUBLE_EQ(at_root, n * (n + 1) / 2.0);
}

TEST_P(CollectiveRootsP, BroadcastFromArbitraryRoot) {
  auto [n, root] = GetParam();
  Engine e(n, Machine::free_network());
  int good = 0;
  e.run([&](Process& p) -> Task {
    std::vector<double> v;
    if (p.rank() == root) v = {7.5};
    co_await broadcast(p, v, root);
    if (v.size() == 1 && v[0] == 7.5) ++good;
    co_return;
  });
  EXPECT_EQ(good, n);
}

INSTANTIATE_TEST_SUITE_P(RootsAndSizes, CollectiveRootsP,
                         ::testing::Values(std::pair{2, 1}, std::pair{5, 3},
                                           std::pair{7, 6}, std::pair{8, 4},
                                           std::pair{13, 11}));

TEST(SimStress, ConsecutiveCollectivesDoNotCrossTalk) {
  Engine e(6, Machine::free_network());
  int checked = 0;
  e.run([&](Process& p) -> Task {
    for (int round = 0; round < 10; ++round) {
      std::vector<double> v{static_cast<double>(round)};
      co_await allreduce(p, v, ReduceOp::Max);
      EXPECT_DOUBLE_EQ(v[0], static_cast<double>(round));
      ++checked;
    }
    co_return;
  });
  EXPECT_EQ(checked, 60);
}

TEST(SimStress, AllreduceLongVector) {
  const int n = 5;
  Engine e(n, Machine::sp2());
  std::vector<double> result;
  e.run([&](Process& p) -> Task {
    std::vector<double> v(1000);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = p.rank() + static_cast<double>(i);
    co_await allreduce(p, v, ReduceOp::Sum);
    if (p.rank() == 0) result = v;
  });
  ASSERT_EQ(result.size(), 1000u);
  // sum over ranks of (rank + i) = 10 + 5*i
  EXPECT_DOUBLE_EQ(result[0], 10.0);
  EXPECT_DOUBLE_EQ(result[999], 10.0 + 5.0 * 999);
}

TEST(SimStress, BarrierManyRounds) {
  const int n = 9;
  Engine e(n, Machine::sp2());
  std::vector<int> order;
  e.run([&](Process& p) -> Task {
    for (int round = 0; round < 5; ++round) {
      p.compute(1000.0 * ((p.rank() + round) % n));
      co_await barrier(p);
    }
    order.push_back(p.rank());
    co_return;
  });
  EXPECT_EQ(order.size(), static_cast<std::size_t>(n));
}

}  // namespace
}  // namespace dhpf::sim
