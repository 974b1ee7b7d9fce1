// Tests for dhpf::mp, the threaded runtime, in both of its modes — Mp
// (message passing) and Shm (the same mailboxes plus barrier-fenced direct
// reads of peer storage) — and for backend parity: the same node programs
// (collectives, generated SPMD programs, NAS variants) must produce
// bit-identical results on the virtual-time simulator and on real threads.
//
// Every case that does not depend on the mode is written once and runs in
// both: RUNTIME_TEST(MpSuite, ShmSuite, Name) registers one body, which
// reads `mode`, as MpSuite.Name and ShmSuite.Name. Only the barrier, the
// shared-read accounting and the direct-read lowering have Shm-only cases.
//
// Determinism policy under test (see docs/runtime.md):
//   * messages between one (source, tag) pair are FIFO on every backend;
//   * receives that name their source are fully deterministic on every
//     backend — this covers everything codegen emits, the NAS variants,
//     and the collectives;
//   * wildcard (kAnySource) receives are deterministic on sim (earliest
//     virtual arrival, ties by source rank) but match in real arrival
//     order on real threads — nondeterministic across sources, so tests
//     only assert the *set* of received messages there.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "codegen/spmd.hpp"
#include "comm/comm.hpp"
#include "cp/select.hpp"
#include "exec/collectives.hpp"
#include "hpf/parser.hpp"
#include "model/model.hpp"
#include "mp/runtime.hpp"
#include "nas/driver.hpp"
#include "sim/engine.hpp"
#include "support/diagnostics.hpp"

namespace dhpf {
namespace {

using exec::Channel;
using exec::Task;

#define RUNTIME_TEST(MpSuite, ShmSuite, Name)        \
  void Name(exec::Backend mode);                     \
  TEST(MpSuite, Name) { Name(exec::Backend::Mp); }   \
  TEST(ShmSuite, Name) { Name(exec::Backend::Shm); } \
  void Name(exec::Backend mode)

constexpr const char* kWatchdogEnv = "DHPF_MP_WATCHDOG_MS";

/// Sets DHPF_MP_WATCHDOG_MS for one scope and clears it on the way out,
/// failed assertion or not.
struct ScopedWatchdogEnv {
  explicit ScopedWatchdogEnv(const char* value) { setenv(kWatchdogEnv, value, 1); }
  ~ScopedWatchdogEnv() { unsetenv(kWatchdogEnv); }
  ScopedWatchdogEnv(const ScopedWatchdogEnv&) = delete;
  ScopedWatchdogEnv& operator=(const ScopedWatchdogEnv&) = delete;
};

/// What a failed run raised; both empty when the run completed.
struct RunError {
  std::string what;
  std::string component;
};

/// Run two ranks that each wait for a message nobody sends.
RunError deadlocked_pair(exec::Backend mode, const mp::Options& opt) {
  try {
    mp::run(mode, 2, exec::Machine::sp2(), opt, [&](Channel& p) -> Task {
      co_await p.recv(1 - p.rank(), 99);
      co_return;
    });
  } catch (const Error& e) {
    return {e.what(), e.component()};
  }
  return {};
}

// ------------------------------------------------------ point-to-point

RUNTIME_TEST(MpRuntime, ShmRuntime, SendRecvDeliversPayload) {
  std::vector<double> got;
  mp::run(mode, 2, exec::Machine::sp2(), {}, [&](Channel& p) -> Task {
    if (p.rank() == 0) {
      p.send(1, 7, {1.5, 2.5, 3.5});
    } else {
      got = co_await p.recv(0, 7);
    }
    co_return;
  });
  EXPECT_EQ(got, (std::vector<double>{1.5, 2.5, 3.5}));
}

RUNTIME_TEST(MpRuntime, ShmRuntime, SameSourceSameTagIsFifo) {
  constexpr int kN = 200;
  std::vector<double> seq;
  mp::run(mode, 2, exec::Machine::sp2(), {}, [&](Channel& p) -> Task {
    if (p.rank() == 0) {
      for (int i = 0; i < kN; ++i) p.send(1, 3, {static_cast<double>(i)});
    } else {
      for (int i = 0; i < kN; ++i) {
        auto v = co_await p.recv(0, 3);
        seq.push_back(v.at(0));
      }
    }
    co_return;
  });
  ASSERT_EQ(seq.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) EXPECT_EQ(seq[static_cast<std::size_t>(i)], i);
}

RUNTIME_TEST(MpRuntime, ShmRuntime, TagsMatchIndependentlyOfArrivalOrder) {
  std::vector<double> first, second;
  mp::run(mode, 2, exec::Machine::sp2(), {}, [&](Channel& p) -> Task {
    if (p.rank() == 0) {
      p.send(1, 1, {10.0});
      p.send(1, 2, {20.0});
    } else {
      second = co_await p.recv(0, 2);  // posted before tag 1 is drained
      first = co_await p.recv(0, 1);
    }
    co_return;
  });
  EXPECT_EQ(second, std::vector<double>{20.0});
  EXPECT_EQ(first, std::vector<double>{10.0});
}

RUNTIME_TEST(MpRuntime, ShmRuntime, IrecvWaitCompletesLikeRecv) {
  std::vector<double> got;
  mp::run(mode, 2, exec::Machine::sp2(), {}, [&](Channel& p) -> Task {
    if (p.rank() == 0) {
      p.send(1, 9, {42.0});
    } else {
      exec::Request req = p.irecv(0, 9);
      got = co_await p.wait(req);
    }
    co_return;
  });
  EXPECT_EQ(got, std::vector<double>{42.0});
}

// Wildcard policy on real threads: arrival order across sources is up to
// the OS scheduler, so assert only that every message is received exactly
// once.
RUNTIME_TEST(MpRuntime, ShmRuntime, WildcardReceivesEachMessageExactlyOnce) {
  constexpr int kRanks = 6;
  std::vector<double> got;
  mp::run(mode, kRanks, exec::Machine::sp2(), {}, [&](Channel& p) -> Task {
    if (p.rank() == 0) {
      for (int i = 1; i < kRanks; ++i) {
        auto v = co_await p.recv(exec::kAnySource, 4);
        got.push_back(v.at(0));
      }
    } else {
      p.send(0, 4, {static_cast<double>(p.rank())});
    }
    co_return;
  });
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<double>{1, 2, 3, 4, 5}));
}

// On the simulator the same wildcard program is deterministic: matching is
// by earliest virtual arrival with ties broken by source rank, so repeated
// runs give the same order. (This is the other half of the policy above.)
TEST(MpVsSim, WildcardOrderIsDeterministicOnSim) {
  auto once = [] {
    std::vector<double> got;
    sim::Engine engine(4, exec::Machine::sp2());
    engine.run([&](sim::Process& p) -> Task {
      if (p.rank() == 0) {
        p.compute(1e6);  // all sends arrive before the first receive
        for (int i = 1; i < 4; ++i) {
          auto v = co_await p.recv(exec::kAnySource, 4);
          got.push_back(v.at(0));
        }
      } else {
        p.compute(1e3 * p.rank());  // stagger send times
        p.send(0, 4, {static_cast<double>(p.rank())});
      }
      co_return;
    });
    return got;
  };
  const auto a = once();
  const auto b = once();
  EXPECT_EQ(a, b);
  // Earliest virtual arrival first: rank 1 computed least, so sent first.
  EXPECT_EQ(a, (std::vector<double>{1.0, 2.0, 3.0}));
}

// ---------------------------------------------------------- collectives

RUNTIME_TEST(MpCollectives, ShmCollectives, ParityWithSim) {
  // Five ranks (non-power-of-two exercises the binomial trees' edge cases);
  // every rank contributes rank-dependent data, every rank checks results.
  constexpr int kRanks = 5;
  auto contribution = [](int r) {
    return std::vector<double>{1.0 + r, 0.5 * r, r == 3 ? 100.0 : -1.0};
  };
  struct Results {
    std::vector<std::vector<double>> allreduce_sum, allreduce_max, bcast;
    std::vector<double> reduce_on_root;
  };
  auto run_with = [&](auto&& runner) {
    Results res;
    res.allreduce_sum.resize(kRanks);
    res.allreduce_max.resize(kRanks);
    res.bcast.resize(kRanks);
    runner([&](Channel& p) -> Task {
      const auto r = static_cast<std::size_t>(p.rank());
      auto sum = contribution(p.rank());
      co_await exec::allreduce(p, sum, exec::ReduceOp::Sum);
      res.allreduce_sum[r] = sum;

      auto mx = contribution(p.rank());
      co_await exec::allreduce(p, mx, exec::ReduceOp::Max);
      res.allreduce_max[r] = mx;

      std::vector<double> b;
      if (p.rank() == 2) b = {3.25, -7.5};
      co_await exec::broadcast(p, b, 2);
      res.bcast[r] = b;

      auto red = contribution(p.rank());
      co_await exec::reduce(p, red, exec::ReduceOp::Sum, 1);
      if (p.rank() == 1) res.reduce_on_root = red;

      co_await exec::barrier(p);
      co_return;
    });
    return res;
  };

  const auto on = [&](exec::Backend backend) {
    return run_with([&](const std::function<Task(Channel&)>& body) {
      mp::run(backend, kRanks, exec::Machine::sp2(), {}, body);
    });
  };
  const Results on_sim = on(exec::Backend::Sim);
  const Results on_rt = on(mode);

  // Bit-identical: the collectives' receives all name their sources, so the
  // combine order is the same tree on every backend.
  EXPECT_EQ(on_sim.allreduce_sum, on_rt.allreduce_sum);
  EXPECT_EQ(on_sim.allreduce_max, on_rt.allreduce_max);
  EXPECT_EQ(on_sim.bcast, on_rt.bcast);
  EXPECT_EQ(on_sim.reduce_on_root, on_rt.reduce_on_root);
  // Every rank agrees on the allreduce result.
  for (int r = 1; r < kRanks; ++r) {
    EXPECT_EQ(on_rt.allreduce_sum[static_cast<std::size_t>(r)], on_rt.allreduce_sum[0]);
    EXPECT_EQ(on_rt.allreduce_max[static_cast<std::size_t>(r)], on_rt.allreduce_max[0]);
  }
}

RUNTIME_TEST(MpCollectives, ShmCollectives, BarrierOrdersSideEffects) {
  constexpr int kRanks = 4;
  std::atomic<int> entered{0};
  std::vector<int> seen_at_exit(kRanks, -1);
  mp::run(mode, kRanks, exec::Machine::sp2(), {}, [&](Channel& p) -> Task {
    entered.fetch_add(1);
    co_await exec::barrier(p);
    // After the barrier every rank must observe all kRanks entries.
    seen_at_exit[static_cast<std::size_t>(p.rank())] = entered.load();
    co_return;
  });
  for (int r = 0; r < kRanks; ++r) EXPECT_EQ(seen_at_exit[static_cast<std::size_t>(r)], kRanks);
}

// ----------------------------------------------- the barrier (Shm mode)

TEST(ShmBarrier, OrdersSideEffects) {
  constexpr int kRanks = 8;
  std::atomic<int> entered{0};
  std::vector<int> seen_at_exit(kRanks, -1);
  mp::run(exec::Backend::Shm, kRanks, exec::Machine::sp2(), {}, [&](Channel& p) -> Task {
    entered.fetch_add(1);
    mp::barrier(p);
    // After the barrier every rank must observe all kRanks entries.
    seen_at_exit[static_cast<std::size_t>(p.rank())] = entered.load();
    co_return;
  });
  for (int r = 0; r < kRanks; ++r)
    EXPECT_EQ(seen_at_exit[static_cast<std::size_t>(r)], kRanks);
}

/// `rounds` rounds of barrier, check, barrier on `nranks` Shm ranks, where
/// each rank checks between the two barriers that every rank is in the
/// current round. After round t's second barrier, rank t % nranks spends
/// `straggle` outside the barrier while its peers park at the next one.
/// True when no rank ever saw a peer in another round.
bool rounds_stay_in_lockstep(int nranks, int rounds, const mp::Options& opt,
                             exec::RunStats* stats, std::chrono::microseconds straggle = {}) {
  std::vector<std::atomic<int>> round(static_cast<std::size_t>(nranks));
  for (auto& r : round) r.store(0);
  std::atomic<bool> ok{true};
  *stats = mp::run(exec::Backend::Shm, nranks, exec::Machine::sp2(), opt, [&](Channel& p) -> Task {
    const auto me = static_cast<std::size_t>(p.rank());
    for (int t = 0; t < rounds; ++t) {
      round[me].store(t, std::memory_order_relaxed);
      mp::barrier(p);
      for (const auto& r : round)
        if (r.load(std::memory_order_relaxed) != t) ok.store(false);
      mp::barrier(p);
      if (t % nranks == p.rank()) std::this_thread::sleep_for(straggle);
    }
    co_return;
  });
  return ok.load();
}

TEST(ShmBarrier, ManyRoundsUnderContentionStayInLockstep) {
  // The sense-reversing barrier must not let a fast rank lap a slow one:
  // after every round each rank checks that nobody has started the next
  // round yet (the generation observed at exit equals its own round).
  constexpr int kRounds = 200;
  exec::RunStats stats;
  EXPECT_TRUE(rounds_stay_in_lockstep(16, kRounds, mp::Options{}, &stats));
  // Global episode count: two barriers per round, regardless of rank count.
  EXPECT_EQ(stats.barriers, static_cast<std::size_t>(2 * kRounds));
}

TEST(ShmBarrier, FastWatchdogNeverTakesLockstepRoundsForADeadlock) {
  // A watchdog scanning every ~10 us lands inside barrier releases over and
  // over, and finds every rank but one parked at the barrier while that one
  // is out working. A rank on its way out of a barrier must never be read
  // as waiting on a receive: this program sends no message, so that
  // misreading would abort a correct run as a deadlock.
  mp::Options opt;
  opt.recv_timeout_s = 0.0;  // only the watchdog may intervene
  opt.watchdog_period_s = 1e-5;
  for (const int nranks : {2, 4, 16}) {
    exec::RunStats stats;
    EXPECT_NO_THROW(EXPECT_TRUE(
        rounds_stay_in_lockstep(nranks, 500, opt, &stats, std::chrono::microseconds(20))))
        << nranks << " ranks";
    EXPECT_EQ(stats.barriers, 1000u) << nranks << " ranks";
  }
}

TEST(ShmBarrier, PeerDeathBeforeBarrierIsDetected) {
  // Rank 1 throws before ever reaching the barrier; rank 0 is parked at it.
  // The abort must release rank 0 (no hang) and report rank 1's failure.
  mp::Options opt;
  opt.recv_timeout_s = 0.0;
  opt.watchdog_period_s = 0.02;
  try {
    mp::run(exec::Backend::Shm, 2, exec::Machine::sp2(), opt, [&](Channel& p) -> Task {
      if (p.rank() == 1) fail("test", "boom");
      mp::barrier(p);
      co_return;
    });
    FAIL() << "expected rank failure to propagate";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("rank 1 failed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("boom"), std::string::npos) << msg;
  }
}

TEST(ShmBarrier, PeerExitWithoutBarrierIsDeadlock) {
  // Rank 1 returns cleanly without joining the barrier: rank 0 can never be
  // released, which the watchdog must classify as deadlock (a barrier wait
  // whose generation can no longer advance), not leave hanging.
  mp::Options opt;
  opt.recv_timeout_s = 0.0;  // only the watchdog may intervene
  opt.watchdog_period_s = 0.02;
  try {
    mp::run(exec::Backend::Shm, 2, exec::Machine::sp2(), opt, [&](Channel& p) -> Task {
      if (p.rank() == 0) mp::barrier(p);
      co_return;
    });
    FAIL() << "expected deadlock to be detected";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("deadlock"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rank 0 waiting at barrier (1/2 arrived)"), std::string::npos) << msg;
  }
}

TEST(ShmBarrier, TimeoutRaisesInsteadOfHanging) {
  mp::Options opt;
  opt.recv_timeout_s = 0.05;
  opt.watchdog_period_s = 0.0;  // timeout path, not the watchdog
  try {
    mp::run(exec::Backend::Shm, 2, exec::Machine::sp2(), opt, [&](Channel& p) -> Task {
      if (p.rank() == 0) mp::barrier(p);  // rank 1 never arrives
      co_return;
    });
    FAIL() << "expected barrier timeout";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("barrier timeout"), std::string::npos) << e.what();
  }
}

TEST(ShmBarrier, RejectsForeignChannels) {
  // barrier()/note_shared_read() are Shm-mode primitives; handing them a
  // sim channel or an Mp-mode one must raise, not silently no-op (codegen
  // relies on this).
  for (const auto backend : {exec::Backend::Sim, exec::Backend::Mp}) {
    mp::run(backend, 1, exec::Machine::sp2(), {}, [&](Channel& p) -> Task {
      EXPECT_THROW(mp::barrier(p), Error);
      EXPECT_THROW(mp::note_shared_read(p, 8), Error);
      co_return;
    });
  }
  const exec::RunStats stats =
      mp::run(exec::Backend::Shm, 1, exec::Machine::sp2(), {}, [&](Channel& p) -> Task {
        EXPECT_NO_THROW(mp::barrier(p));
        EXPECT_NO_THROW(mp::note_shared_read(p, 8));
        co_return;
      });
  EXPECT_EQ(stats.barriers, 1u);
  EXPECT_EQ(stats.shared_read_bytes, 8u);
}

// ------------------------------------------------------ failure handling

RUNTIME_TEST(MpRuntime, ShmRuntime, DeadlockWatchdogFires) {
  mp::Options opt;
  opt.recv_timeout_s = 0.0;  // only the watchdog may intervene
  opt.watchdog_period_s = 0.02;
  const RunError err = deadlocked_pair(mode, opt);
  EXPECT_NE(err.what.find("deadlock"), std::string::npos) << err.what;
  EXPECT_EQ(err.component, exec::to_string(mode));
}

TEST(ShmRuntime, CollectiveWaitIsNotMistakenForABarrierWait) {
  // The collectives use negative internal tags. A rank parked in one of
  // their receives is waiting for a message, not at the barrier, and the
  // watchdog must say so (and check its mailbox before calling it stuck).
  mp::Options opt;
  opt.recv_timeout_s = 0.0;
  opt.watchdog_period_s = 0.02;
  try {
    mp::run(exec::Backend::Shm, 2, exec::Machine::sp2(), opt, [&](Channel& p) -> Task {
      std::vector<double> v{1.0};
      if (p.rank() == 0) co_await exec::reduce(p, v, exec::ReduceOp::Sum, 0);
      co_return;  // rank 1 never contributes
    });
    FAIL() << "expected deadlock to be detected";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("deadlock: rank 0 waiting on (src=1,"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("barrier"), std::string::npos) << msg;
  }
}

RUNTIME_TEST(MpRuntime, ShmRuntime, WatchdogPeriodFromEnv) {
  // Guard against a leaked setting from the environment running the tests.
  unsetenv(kWatchdogEnv);
  EXPECT_DOUBLE_EQ(mp::watchdog_period_from_env(0.05), 0.05);
  {
    ScopedWatchdogEnv env("100");
    EXPECT_DOUBLE_EQ(mp::watchdog_period_from_env(0.05), 0.1);
  }
  {
    ScopedWatchdogEnv env("2.5");
    EXPECT_DOUBLE_EQ(mp::watchdog_period_from_env(0.05), 0.0025);
  }
  // 0 (or any non-positive value) disables the watchdog entirely.
  for (const char* off : {"0", "-3"}) {
    ScopedWatchdogEnv env(off);
    EXPECT_DOUBLE_EQ(mp::watchdog_period_from_env(0.05), 0.0) << "value: " << off;
  }
  // Unparseable values fall back rather than silently disabling (nan) or
  // overflowing the scan's steady-clock wait (inf, 1e300).
  for (const char* bad : {"", "fast", "12xyz", "inf", "nan", "1e300"}) {
    ScopedWatchdogEnv env(bad);
    EXPECT_DOUBLE_EQ(mp::watchdog_period_from_env(0.05), 0.05) << "value: " << bad;
  }
  // A value that falls back leaves the run's own period in force, so a
  // deadlock is still caught in this mode (the recv timeout is a backstop
  // that would report "timeout" instead).
  ScopedWatchdogEnv env("nan");
  mp::Options opt;
  opt.recv_timeout_s = 10.0;
  opt.watchdog_period_s = 0.02;
  const RunError err = deadlocked_pair(mode, opt);
  EXPECT_NE(err.what.find("deadlock"), std::string::npos) << err.what;
}

RUNTIME_TEST(MpRuntime, ShmRuntime, WatchdogEnvOverrideAppliesToRun) {
  // A deadlocked pair with the watchdog configured off in Options but
  // forced on (fast) through the environment must still be detected: one
  // variable governs both modes.
  ScopedWatchdogEnv env("20");
  mp::Options opt;
  opt.recv_timeout_s = 0.0;
  opt.watchdog_period_s = 0.0;  // env wins over this
  const RunError err = deadlocked_pair(mode, opt);
  EXPECT_NE(err.what.find("deadlock"), std::string::npos) << err.what;
}

RUNTIME_TEST(MpRuntime, ShmRuntime, RecvTimeoutRaisesInsteadOfHanging) {
  mp::Options opt;
  opt.recv_timeout_s = 0.05;
  opt.watchdog_period_s = 0.0;  // timeout path, not the watchdog
  try {
    mp::run(mode, 2, exec::Machine::sp2(), opt, [&](Channel& p) -> Task {
      if (p.rank() == 0) co_await p.recv(1, 5);  // rank 1 never sends
      co_return;
    });
    FAIL() << "expected recv timeout";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("recv timeout"), std::string::npos) << e.what();
    EXPECT_EQ(e.component(), exec::to_string(mode));
  }
}

RUNTIME_TEST(MpRuntime, ShmRuntime, RankExceptionIsReportedWithRank) {
  try {
    mp::run(mode, 3, exec::Machine::sp2(), {}, [&](Channel& p) -> Task {
      if (p.rank() == 1) fail("test", "boom");
      co_await exec::barrier(p);
      co_return;
    });
    FAIL() << "expected rank failure to propagate";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("rank 1 failed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("boom"), std::string::npos) << msg;
  }
}

TEST(MpRuntime, SimBackendRunsOnTheEngine) {
  // The same entry point runs the simulator: every rank on the calling
  // thread, in virtual time under the given machine, with a trace on
  // request and the same stats type as the threaded modes.
  const std::thread::id caller = std::this_thread::get_id();
  bool same_thread = true;
  sim::TraceLog trace;
  const exec::RunStats stats = mp::run(
      exec::Backend::Sim, 2, exec::Machine::sp2(), {},
      [&](Channel& p) -> Task {
        same_thread = same_thread && std::this_thread::get_id() == caller;
        p.compute(65.0e6);  // one virtual second at the sp2 rate
        if (p.rank() == 0) {
          p.send(1, 1, {1.0, 2.0});
        } else {
          (void)co_await p.recv(0, 1);
        }
        co_return;
      },
      &trace);
  EXPECT_TRUE(same_thread);
  EXPECT_EQ(stats.backend, exec::Backend::Sim);
  EXPECT_GT(stats.elapsed, 1.0);
  EXPECT_EQ(stats.seconds(), stats.elapsed);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_NEAR(stats.total_compute, 2.0, 1e-12);
  EXPECT_EQ(stats.messages, 1u);
  EXPECT_EQ(stats.bytes, 2 * sizeof(double));
  ASSERT_EQ(stats.ranks.size(), 2u);
  EXPECT_EQ(stats.ranks[0].sends, 1u);
  EXPECT_EQ(stats.ranks[1].recvs, 1u);
  EXPECT_EQ(stats.ranks[1].bytes_received, 2 * sizeof(double));
  EXPECT_NEAR(stats.ranks[1].compute_seconds, 1.0, 1e-12);
  EXPECT_EQ(trace.ranks.size(), 2u);
  EXPECT_EQ(trace.messages.size(), 1u);
}

// ------------------------------------------------------------ statistics

RUNTIME_TEST(MpRuntime, ShmRuntime, StatsCountTrafficPerRank) {
  const exec::RunStats stats =
      mp::run(mode, 2, exec::Machine::sp2(), {}, [&](Channel& p) -> Task {
        p.set_phase("exchange");
        if (p.rank() == 0) {
          p.send(1, 1, {1.0, 2.0});
        } else {
          (void)co_await p.recv(0, 1);
        }
        p.set_phase("");
        co_return;
      });
  EXPECT_EQ(stats.backend, mode);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_EQ(stats.seconds(), stats.wall_seconds);
  EXPECT_EQ(stats.elapsed, 0.0);
  EXPECT_EQ(stats.messages, 1u);
  EXPECT_EQ(stats.bytes, 2 * sizeof(double));
  EXPECT_EQ(stats.barriers, 0u);
  EXPECT_EQ(stats.shared_read_bytes, 0u);
  ASSERT_EQ(stats.ranks.size(), 2u);
  EXPECT_EQ(stats.ranks[0].sends, 1u);
  EXPECT_EQ(stats.ranks[0].recvs, 0u);
  EXPECT_EQ(stats.ranks[1].recvs, 1u);
  EXPECT_EQ(stats.ranks[1].bytes_received, 2 * sizeof(double));
  // The labelled phase appears in the real-time breakdown.
  bool found = false;
  for (const auto& row : stats.phases) found = found || row.phase == "exchange";
  EXPECT_TRUE(found);
}

TEST(ShmRuntime, StatsCountBarriersAndSharedReads) {
  const exec::RunStats stats =
      mp::run(exec::Backend::Shm, 4, exec::Machine::sp2(), {}, [&](Channel& p) -> Task {
        p.set_phase("exchange");
        mp::barrier(p);
        mp::note_shared_read(p, 64);
        mp::barrier(p);
        p.set_phase("");
        co_return;
      });
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_EQ(stats.barriers, 2u);  // global episodes, not per-rank entries
  EXPECT_EQ(stats.shared_read_bytes, 4u * 64u);
  ASSERT_EQ(stats.ranks.size(), 4u);
  for (const auto& r : stats.ranks) {
    EXPECT_EQ(r.barriers, 2u);
    EXPECT_EQ(r.shared_read_bytes, 64u);
  }
  bool found = false;
  for (const auto& row : stats.phases) found = found || row.phase == "exchange";
  EXPECT_TRUE(found);
}

RUNTIME_TEST(MpRuntime, ShmRuntime, SleepComputeModeRealizesModelledTime) {
  mp::Options opt;
  opt.compute_mode = mp::ComputeMode::Sleep;
  opt.time_scale = 1.0;
  const exec::RunStats stats =
      mp::run(mode, 2, exec::Machine::sp2(), opt, [&](Channel& p) -> Task {
        p.elapse(0.03);  // 30 ms of modelled compute, slept for real
        co_await exec::barrier(p);
        co_return;
      });
  EXPECT_GE(stats.wall_seconds, 0.025);
  EXPECT_NEAR(stats.ranks[0].compute_seconds, 0.03, 1e-12);  // modelled accounting
}

// ------------------------------------------- run_spmd backend cross-check
//
// The generated SPMD programs must execute identically on every backend
// and match the serial oracle bit-for-bit (max_err == 0: the runs perform
// the same floating-point operations in the same order, and NaN-poisoning
// turns any missing message or read into a hard failure). On shm they
// exchange no messages at all: every fetch/write-back becomes
// barrier-fenced direct reads, whose counters must equal the analytic
// model's exact aggregates.

struct Compiled {
  hpf::Program prog;
  cp::CpResult cps;
  comm::CommPlan plan;
};

Compiled compile(const std::string& src) {
  Compiled c{hpf::parse(src), {}, {}};
  c.cps = cp::select_cps(c.prog);
  c.plan = comm::generate_comm(c.prog, c.cps);
  return c;
}

codegen::SpmdResult run_compiled(const Compiled& c, exec::Backend backend) {
  codegen::SpmdOptions opt;
  opt.backend = backend;
  return codegen::run_spmd(c.prog, c.cps, c.plan, exec::Machine::sp2(), opt);
}

codegen::SpmdResult compile_and_run(const std::string& src, exec::Backend backend) {
  return run_compiled(compile(src), backend);
}

std::string stencil_1d(int nprocs) {
  return R"(
    processors P()" + std::to_string(nprocs) + R"()
    array a(64) distribute (block:0) onto P
    array b(64) distribute (block:0) onto P
    procedure main()
      do t = 1, 3
        do i = 1, 62
          a(i) = b(i-1) + b(i+1)
        enddo
        do i = 1, 62
          b(i) = a(i)
        enddo
      enddo
    end
  )";
}

// §4.1 privatizable-array example (paper Fig 4.1 shape).
const char* kFig41 = R"(
  processors P(2, 2)
  array lhs(12, 12, 5) distribute (block:0, block:1, *) onto P
  array u(12, 12) distribute (block:0, block:1) onto P
  array cv(12)
  procedure main()
    do[independent, new(cv)] k = 1, 10
      do j = 0, 11
        cv(j) = u(j, k)
      enddo
      do j = 1, 10
        lhs(j, k, 2) = cv(j-1) + cv(j) + cv(j+1)
      enddo
    enddo
  end
)";

// §4.2 LOCALIZE example (paper Fig 4.2 shape).
const char* kFig42 = R"(
  processors P(2, 2)
  array rhs(12, 12, 5) distribute (block:0, block:1, *) onto P
  array rho_i(12, 12) distribute (block:0, block:1) onto P
  array us(12, 12) distribute (block:0, block:1) onto P
  array u(12, 12) distribute (block:0, block:1) onto P
  procedure main()
    do[independent, localize(rho_i, us)] onetrip = 1, 1
      do j = 0, 11
        do i = 0, 11
          rho_i(i, j) = u(i, j)
          us(i, j) = u(i, j) + 1
        enddo
      enddo
      do j = 1, 10
        do i = 1, 10
          rhs(i, j, 1) = rho_i(i-1, j) + rho_i(i+1, j) + rho_i(i, j-1) + rho_i(i, j+1)
          rhs(i, j, 2) = us(i-1, j) + us(i+1, j) + us(i, j-1) + us(i, j+1)
        enddo
      enddo
    enddo
  end
)";

RUNTIME_TEST(MpSpmd, ShmSpmd, Stencil1DMatchesOracleAt2To16Ranks) {
  for (int nprocs : {2, 4, 8, 16}) {
    SCOPED_TRACE("nprocs=" + std::to_string(nprocs));
    auto on_sim = compile_and_run(stencil_1d(nprocs), exec::Backend::Sim);
    auto on_rt = compile_and_run(stencil_1d(nprocs), mode);
    // Bit-for-bit against the serial interpretation, identical tolerance on
    // both backends.
    EXPECT_EQ(on_sim.max_err, 0.0);
    EXPECT_EQ(on_rt.max_err, 0.0);
    EXPECT_EQ(on_sim.instances_per_rank, on_rt.instances_per_rank);
    EXPECT_GT(on_rt.wall_seconds, 0.0);
    if (mode == exec::Backend::Mp) {
      EXPECT_EQ(on_sim.messages, on_rt.messages);
      EXPECT_EQ(on_sim.bytes, on_rt.bytes);
    } else {
      // No messages: the halo exchange became barrier-fenced direct reads
      // of exactly the bytes the message path would have carried.
      EXPECT_EQ(on_rt.messages, 0u);
      EXPECT_GT(on_rt.barriers, 0u);
      EXPECT_EQ(on_rt.shared_read_bytes, on_sim.bytes);
    }
  }
}

TEST(ShmSpmd, CountersMatchModelExactly) {
  // The exactness contract: the model's barrier_episodes equals the
  // runtime's global barrier count, and its total comm bytes equal the
  // shared bytes actually read (every wire byte becomes one direct read).
  for (const std::string& src : {stencil_1d(4), std::string(kFig41), std::string(kFig42)}) {
    const Compiled c = compile(src);
    const codegen::SpmdResult run = run_compiled(c, exec::Backend::Shm);
    const model::Prediction pred = model::predict(c.prog, c.cps, c.plan, exec::Machine::sp2(),
                                                  codegen::SpmdOptions{}.flops_per_instance);
    EXPECT_EQ(run.barriers, pred.barrier_episodes);
    EXPECT_EQ(run.shared_read_bytes, pred.bytes);
  }
}

void figure_matches_oracle(const char* src, exec::Backend mode) {
  auto on_sim = compile_and_run(src, exec::Backend::Sim);
  auto on_rt = compile_and_run(src, mode);
  EXPECT_EQ(on_sim.max_err, 0.0);
  EXPECT_EQ(on_rt.max_err, 0.0);
  EXPECT_EQ(on_sim.instances_per_rank, on_rt.instances_per_rank);
}

TEST(MpSpmd, Fig41PrivatizableMatchesOracleOnBothBackends) {
  figure_matches_oracle(kFig41, exec::Backend::Mp);
}
TEST(ShmSpmd, Fig41PrivatizableMatchesOracle) {
  figure_matches_oracle(kFig41, exec::Backend::Shm);
}
TEST(MpSpmd, Fig42LocalizeMatchesOracleOnBothBackends) {
  figure_matches_oracle(kFig42, exec::Backend::Mp);
}
TEST(ShmSpmd, Fig42LocalizeMatchesOracle) {
  figure_matches_oracle(kFig42, exec::Backend::Shm);
}

// ------------------------------------------------------- NAS variants
//
// The NAS node programs are message-passing programs; in Shm mode they run
// unchanged over the mailbox path (the gather fields stay disjoint per
// rank), so this pins full-application parity in both modes.

void nas_variant_verifies(nas::Variant v, exec::Backend mode) {
  nas::Problem pb{nas::App::SP, 12, 2, 0.0};
  nas::DriverOptions opt;
  opt.backend = mode;
  nas::RunResult r = nas::run_variant(v, pb, 4, exec::Machine::sp2(), opt);
  EXPECT_TRUE(r.verified);
  EXPECT_LT(r.max_err, 1e-10);
  EXPECT_GT(r.wall_seconds, 0.0);
  EXPECT_GT(r.messages, 0u);
}

TEST(MpNas, DhpfStyleVariantVerifiesOnRealThreads) {
  nas_variant_verifies(nas::Variant::DhpfStyle, exec::Backend::Mp);
}
TEST(ShmNas, DhpfStyleVariantVerifiesOnSharedMemoryThreads) {
  nas_variant_verifies(nas::Variant::DhpfStyle, exec::Backend::Shm);
}
TEST(MpNas, HandMpiVariantVerifiesOnRealThreads) {
  nas_variant_verifies(nas::Variant::HandMPI, exec::Backend::Mp);
}
TEST(ShmNas, HandMpiVariantVerifiesOnSharedMemoryThreads) {
  nas_variant_verifies(nas::Variant::HandMPI, exec::Backend::Shm);
}

// ------------------------------------------------------------ exec::Task

exec::Task count_inline(long& n) {
  ++n;
  co_return;
}

/// Receive one message from `src` inside a child task, so that on sim the
/// child (not the root) is what suspends.
exec::Task recv_in_child(Channel& p, int src, double& got) {
  got = (co_await p.recv(src, 3)).at(0);
}

TEST(ExecTask, InlineChildrenDoNotGrowTheStack) {
  // A child that finishes without suspending must hand control back
  // through its parent's awaiter, not through a nested resume: 200k awaits
  // from one root then cost no stack, even in builds where symmetric
  // transfer is a real call (GCC with ASan), where each await would
  // otherwise leave two frames behind. Every 20k awaits the ranks
  // ping-pong one message, received in a child; on sim that child
  // suspends whenever its message is not there yet, and resumes its
  // parent when done.
  constexpr long kChildren = 200000;
  for (exec::Backend backend : {exec::Backend::Sim, exec::Backend::Mp, exec::Backend::Shm}) {
    SCOPED_TRACE(exec::to_string(backend));
    std::vector<long> counts(2, 0);
    std::vector<std::vector<double>> received(2);
    int waits = 0;  // receives that found no message (each suspends on sim)
    mp::run(backend, 2, exec::Machine::sp2(), {}, [&](Channel& p) -> Task {
      const auto me = static_cast<std::size_t>(p.rank());
      const int peer = 1 - p.rank();
      for (long i = 0; i < kChildren; ++i) {
        co_await count_inline(counts[me]);
        if (i % 20000 != 0) continue;
        if (p.rank() == 0) p.send(peer, 3, {static_cast<double>(i)});
        if (backend == exec::Backend::Sim && !p.has_message(peer, 3)) ++waits;
        double got = -1.0;
        co_await recv_in_child(p, peer, got);
        received[me].push_back(got);
        if (p.rank() == 1) p.send(peer, 3, {got});
      }
    });
    EXPECT_EQ(counts, (std::vector<long>{kChildren, kChildren}));
    std::vector<double> expected;
    for (long i = 0; i < kChildren; i += 20000) expected.push_back(static_cast<double>(i));
    EXPECT_EQ(received[0], expected);
    EXPECT_EQ(received[1], expected);
    if (backend == exec::Backend::Sim) {
      EXPECT_GE(waits, 10);  // rank 0 waits for every reply
    }
  }
}

// ------------------------------------------------------ backend plumbing

TEST(ShmBackend, ParseAndToStringRoundTrip) {
  for (exec::Backend b : {exec::Backend::Sim, exec::Backend::Mp, exec::Backend::Shm}) {
    exec::Backend parsed = exec::Backend::Sim;
    EXPECT_TRUE(exec::parse_backend(exec::to_string(b), parsed));
    EXPECT_EQ(parsed, b);
  }
  exec::Backend out = exec::Backend::Mp;
  EXPECT_FALSE(exec::parse_backend("tcp", out));
  EXPECT_EQ(out, exec::Backend::Mp);  // unchanged on failure
}

}  // namespace
}  // namespace dhpf
