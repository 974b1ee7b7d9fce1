#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "exec/collectives.hpp"
#include "sim/engine.hpp"
#include "support/diagnostics.hpp"

namespace dhpf::sim {
namespace {

using exec::Machine;
using exec::ReduceOp;
using exec::Task;

Machine fast() { return Machine::free_network(); }

TEST(Sim, SingleRankComputeAdvancesClock) {
  Engine e(1, Machine::sp2());
  e.run([](Process& p) -> Task {
    p.compute(65.0e6);  // exactly one second at the sp2 rate
    co_return;
  });
  EXPECT_NEAR(e.stats().elapsed, 1.0, 1e-12);
  EXPECT_NEAR(e.stats().total_compute, 1.0, 1e-12);
}

TEST(Sim, PingPongTransfersData) {
  std::vector<double> got;
  Engine e(2, fast());
  e.run([&](Process& p) -> Task {
    if (p.rank() == 0) {
      p.send(1, 7, {1.0, 2.0, 3.0});
    } else {
      got = co_await p.recv(0, 7);
    }
    co_return;
  });
  ASSERT_EQ(got.size(), 3u);
  EXPECT_DOUBLE_EQ(got[1], 2.0);
}

TEST(Sim, MessageTimingMatchesModel) {
  Machine m = Machine::sp2();
  Engine e(2, m);
  double recv_done = 0.0;
  const std::size_t n = 1000;
  e.run([&](Process& p) -> Task {
    if (p.rank() == 0) {
      p.send(1, 0, std::vector<double>(n, 1.0));
    } else {
      (void)co_await p.recv(0, 0);
      recv_done = p.now();
    }
    co_return;
  });
  const double bytes = static_cast<double>(n * sizeof(double));
  const double expected = m.send_overhead + m.latency + bytes * m.byte_time + m.recv_overhead;
  EXPECT_NEAR(recv_done, expected, 1e-12);
}

TEST(Sim, RecvBeforeSendBlocksThenCompletes) {
  // Rank 1 receives before rank 0 computes+sends; rank 1 must idle-wait.
  Machine m = Machine::sp2();
  Engine e(2, m);
  double r1_done = 0;
  e.run([&](Process& p) -> Task {
    if (p.rank() == 0) {
      p.compute(65.0e6);  // 1 second of work before sending
      p.send(1, 0, {42.0});
    } else {
      auto v = co_await p.recv(0, 0);
      EXPECT_DOUBLE_EQ(v[0], 42.0);
      r1_done = p.now();
    }
    co_return;
  });
  EXPECT_GT(r1_done, 1.0);
  EXPECT_GT(e.stats().total_idle, 0.9);
}

TEST(Sim, FifoOrderPerChannel) {
  Engine e(2, fast());
  std::vector<double> order;
  e.run([&](Process& p) -> Task {
    if (p.rank() == 0) {
      p.send(1, 5, {1.0});
      p.send(1, 5, {2.0});
      p.send(1, 5, {3.0});
    } else {
      for (int i = 0; i < 3; ++i) {
        auto v = co_await p.recv(0, 5);
        order.push_back(v[0]);
      }
    }
    co_return;
  });
  ASSERT_EQ(order.size(), 3u);
  EXPECT_DOUBLE_EQ(order[0], 1.0);
  EXPECT_DOUBLE_EQ(order[1], 2.0);
  EXPECT_DOUBLE_EQ(order[2], 3.0);
}

TEST(Sim, TagsAreMatchedIndependently) {
  Engine e(2, fast());
  e.run([&](Process& p) -> Task {
    if (p.rank() == 0) {
      p.send(1, 1, {1.0});
      p.send(1, 2, {2.0});
    } else {
      auto b = co_await p.recv(0, 2);  // out of send order, by tag
      auto a = co_await p.recv(0, 1);
      EXPECT_DOUBLE_EQ(b[0], 2.0);
      EXPECT_DOUBLE_EQ(a[0], 1.0);
    }
    co_return;
  });
}

TEST(Sim, AnySourceReceivesFromEither) {
  Engine e(3, fast());
  int total = 0;
  e.run([&](Process& p) -> Task {
    if (p.rank() != 0) {
      p.send(0, 9, {static_cast<double>(p.rank())});
    } else {
      for (int i = 0; i < 2; ++i) {
        auto v = co_await p.recv(exec::kAnySource, 9);
        total += static_cast<int>(v[0]);
      }
    }
    co_return;
  });
  EXPECT_EQ(total, 3);  // ranks 1 and 2
}

TEST(Sim, DeadlockDetected) {
  Engine e(2, fast());
  EXPECT_THROW(e.run([](Process& p) -> Task {
                 (void)co_await p.recv((p.rank() + 1) % 2, 0);  // both wait
               }),
               dhpf::Error);
}

TEST(Sim, RankExceptionPropagates) {
  Engine e(2, fast());
  try {
    e.run([](Process& p) -> Task {
      if (p.rank() == 1) dhpf::fail("test", "rank body error");
      co_return;
    });
    FAIL() << "expected throw";
  } catch (const dhpf::Error& err) {
    EXPECT_NE(std::string(err.what()).find("rank 1"), std::string::npos);
  }
}

TEST(Sim, NestedTaskCallsWork) {
  // Sub-coroutines that themselves communicate must compose.
  struct Helper {
    static Task relay(Process& p, int from, int to, int tag) {
      auto v = co_await p.recv(from, tag);
      v[0] += 1.0;
      p.send(to, tag, v);
    }
  };
  Engine e(3, fast());
  double result = 0;
  e.run([&](Process& p) -> Task {
    if (p.rank() == 0) {
      p.send(1, 3, {10.0});
      auto v = co_await p.recv(2, 3);
      result = v[0];
    } else if (p.rank() == 1) {
      co_await Helper::relay(p, 0, 2, 3);
    } else {
      co_await Helper::relay(p, 1, 0, 3);
    }
    co_return;
  });
  EXPECT_DOUBLE_EQ(result, 12.0);
}

TEST(Sim, IrecvWaitEquivalentToRecv) {
  Engine e(2, fast());
  e.run([&](Process& p) -> Task {
    if (p.rank() == 0) {
      p.isend(1, 4, {5.0});
    } else {
      exec::Request rq = p.irecv(0, 4);
      p.compute(100.0);  // overlap something
      auto v = co_await p.wait(rq);
      EXPECT_DOUBLE_EQ(v[0], 5.0);
    }
    co_return;
  });
}

TEST(Sim, ClockIsMonotonicPerRank) {
  Engine e(4, Machine::sp2(), /*record_trace=*/true);
  e.run([&](Process& p) -> Task {
    for (int round = 0; round < 3; ++round) {
      p.compute(1000.0 * (p.rank() + 1));
      p.send((p.rank() + 1) % p.nprocs(), 0, {1.0});
      (void)co_await p.recv((p.rank() + p.nprocs() - 1) % p.nprocs(), 0);
    }
    co_return;
  });
  for (const auto& rt : e.trace().ranks) {
    double t = 0.0;
    for (const auto& iv : rt.intervals) {
      EXPECT_GE(iv.start, t - 1e-15);
      EXPECT_GE(iv.end, iv.start);
      t = iv.end;
    }
  }
}

TEST(Sim, DeterministicAcrossRuns) {
  auto run_once = [](unsigned salt) {
    Engine e(5, Machine::sp2());
    e.run([&](Process& p) -> Task {
      // Irregular communication pattern; result must not depend on internal
      // scheduling order.
      (void)salt;
      for (int i = 0; i < 4; ++i) {
        int peer = (p.rank() * 3 + i) % p.nprocs();
        if (peer != p.rank()) {
          p.compute(static_cast<double>((p.rank() + 1) * (i + 1)) * 1e4);
          p.send(peer, i, {static_cast<double>(p.rank())});
        }
      }
      for (int i = 0; i < 4; ++i) {
        // Figure out who sends to us with tag i: ranks r with (r*3+i)%n==me.
        for (int r = 0; r < p.nprocs(); ++r)
          if (r != p.rank() && (r * 3 + i) % p.nprocs() == p.rank())
            (void)co_await p.recv(r, i);
      }
      co_return;
    });
    return e.stats().elapsed;
  };
  EXPECT_DOUBLE_EQ(run_once(1), run_once(2));
}

TEST(Sim, StatsCountMessagesAndBytes) {
  Engine e(2, fast());
  e.run([&](Process& p) -> Task {
    if (p.rank() == 0) {
      p.send(1, 0, std::vector<double>(10, 0.0));
      p.send(1, 1, std::vector<double>(6, 0.0));
    } else {
      (void)co_await p.recv(0, 0);
      (void)co_await p.recv(0, 1);
    }
    co_return;
  });
  EXPECT_EQ(e.stats().messages, 2u);
  EXPECT_EQ(e.stats().bytes, 16u * sizeof(double));
}

TEST(Sim, TraceRecordsPhases) {
  Engine e(1, Machine::sp2(), true);
  e.run([](Process& p) -> Task {
    p.set_phase("alpha");
    p.compute(100.0);
    p.set_phase("beta");
    p.compute(100.0);
    co_return;
  });
  const auto& ivs = e.trace().ranks[0].intervals;
  ASSERT_EQ(ivs.size(), 2u);
  EXPECT_EQ(ivs[0].phase, "alpha");
  EXPECT_EQ(ivs[1].phase, "beta");
  auto rows = e.trace().phase_breakdown();
  EXPECT_EQ(rows.size(), 2u);
}

TEST(Sim, AsciiSpaceTimeRendersRows) {
  Engine e(3, Machine::sp2(), true);
  e.run([](Process& p) -> Task {
    p.compute(1.0e5);
    if (p.rank() > 0) (void)co_await p.recv(p.rank() - 1, 0);
    if (p.rank() + 1 < p.nprocs()) p.send(p.rank() + 1, 0, {0.0});
    co_return;
  });
  const std::string art = e.trace().ascii_space_time(40);
  EXPECT_NE(art.find("P00"), std::string::npos);
  EXPECT_NE(art.find("P02"), std::string::npos);
  EXPECT_NE(art.find('#'), std::string::npos);
}

// --- collectives --------------------------------------------------------

class CollectiveP : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveP, BarrierHoldsEveryoneBack) {
  const int n = GetParam();
  Engine e(n, Machine::sp2());
  std::vector<double> exit_time(n, 0.0);
  std::vector<double> enter_time(n, 0.0);
  e.run([&](Process& p) -> Task {
    p.compute(1.0e4 * (p.rank() + 1));  // staggered arrivals
    enter_time[p.rank()] = p.now();
    co_await barrier(p);
    exit_time[p.rank()] = p.now();
  });
  const double latest_entry = *std::max_element(enter_time.begin(), enter_time.end());
  for (int r = 0; r < n; ++r) EXPECT_GE(exit_time[r] + 1e-12, latest_entry);
}

TEST_P(CollectiveP, AllreduceSumMatchesSerial) {
  const int n = GetParam();
  Engine e(n, fast());
  std::vector<std::vector<double>> results(n);
  e.run([&](Process& p) -> Task {
    std::vector<double> v{static_cast<double>(p.rank()), 1.0};
    co_await allreduce(p, v, ReduceOp::Sum);
    results[p.rank()] = v;
  });
  const double expected0 = n * (n - 1) / 2.0;
  for (int r = 0; r < n; ++r) {
    ASSERT_EQ(results[r].size(), 2u);
    EXPECT_DOUBLE_EQ(results[r][0], expected0);
    EXPECT_DOUBLE_EQ(results[r][1], static_cast<double>(n));
  }
}

TEST_P(CollectiveP, AllreduceMax) {
  const int n = GetParam();
  Engine e(n, fast());
  std::vector<double> results(n);
  e.run([&](Process& p) -> Task {
    std::vector<double> v{std::sin(static_cast<double>(p.rank()))};
    co_await allreduce(p, v, ReduceOp::Max);
    results[p.rank()] = v[0];
  });
  double expected = -1e30;
  for (int r = 0; r < n; ++r) expected = std::max(expected, std::sin(static_cast<double>(r)));
  for (int r = 0; r < n; ++r) EXPECT_DOUBLE_EQ(results[r], expected);
}

TEST_P(CollectiveP, BroadcastFromNonzeroRoot) {
  const int n = GetParam();
  const int root = (n > 2) ? 2 : 0;
  Engine e(n, fast());
  std::vector<std::vector<double>> results(n);
  e.run([&](Process& p) -> Task {
    std::vector<double> v;
    if (p.rank() == root) v = {3.14, 2.71};
    co_await broadcast(p, v, root);
    results[p.rank()] = v;
  });
  for (int r = 0; r < n; ++r) {
    ASSERT_EQ(results[r].size(), 2u) << "rank " << r;
    EXPECT_DOUBLE_EQ(results[r][0], 3.14);
  }
}

INSTANTIATE_TEST_SUITE_P(ProcCounts, CollectiveP, ::testing::Values(1, 2, 3, 4, 5, 8, 9, 16, 25));

}  // namespace
}  // namespace dhpf::sim
