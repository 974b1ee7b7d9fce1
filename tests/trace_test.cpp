// Tests for dhpf::trace: the per-thread flight recorders (wraparound,
// nesting, unbalanced ends, thread-exit force-close, ring reuse), the
// deterministic merged drain, the Chrome-trace / self-time-profile
// exporters, and the end-to-end contracts the CLI relies on — profile pass
// totals agreeing with the obs per-pass timings, one trace holding both
// compile-time and per-rank mp runtime spans, mp and shm runs in one
// process keeping their own span and metric names, and the deadlock
// watchdog dumping every rank's recent history.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "codegen/driver.hpp"
#include "codegen/spmd.hpp"
#include "exec/channel.hpp"
#include "exec/task.hpp"
#include "mp/runtime.hpp"
#include "support/metrics.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"

#ifndef DHPF_SOURCE_DIR
#define DHPF_SOURCE_DIR "."
#endif

namespace dhpf {
namespace {

using exec::Channel;
using exec::Task;

/// Every test drives the process-global recorder, so each one starts from
/// a clean, enabled recorder and disables it on the way out.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::Recorder::global().reset();
    trace::Recorder::global().set_enabled(true);
  }
  void TearDown() override {
    trace::Recorder::global().set_enabled(false);
    trace::Recorder::global().reset();
  }
};

std::string read_source(const std::string& rel) {
  const std::string path = std::string(DHPF_SOURCE_DIR) + "/" + rel;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream src;
  src << in.rdbuf();
  return src.str();
}

/// The calling thread's dump, identified by label ("" = first thread).
const trace::ThreadDump* find_thread(const trace::TraceDump& dump,
                                     const std::string& label) {
  for (const auto& td : dump.threads)
    if (td.label == label) return &td;
  return nullptr;
}

// ------------------------------------------------------- flight recorder

TEST_F(TraceTest, RecordsNamedSpansWithKinds) {
  trace::Recorder& rec = trace::Recorder::global();
  rec.set_thread_label("main");
  { trace::Span s(std::string_view("alpha"), trace::Kind::Pass); }
  { trace::Span s(std::string_view("beta"), trace::Kind::Send); }

  const trace::TraceDump dump = rec.drain();
  const trace::ThreadDump* td = find_thread(dump, "main");
  ASSERT_NE(td, nullptr);
  ASSERT_EQ(td->events.size(), 2u);
  EXPECT_EQ(dump.name_of(td->events[0].name), "alpha");
  EXPECT_EQ(td->events[0].kind, trace::Kind::Pass);
  EXPECT_EQ(dump.name_of(td->events[1].name), "beta");
  EXPECT_EQ(td->events[1].kind, trace::Kind::Send);
  for (const auto& e : td->events) {
    EXPECT_GE(e.end_ns, e.start_ns);
    EXPECT_EQ(e.open, 0);
  }
}

TEST_F(TraceTest, DisabledRecorderRecordsNothing) {
  trace::Recorder& rec = trace::Recorder::global();
  rec.set_enabled(false);
  const auto before = rec.totals();
  { trace::Span s(std::string_view("ghost"), trace::Kind::Pass); }
  DHPF_TRACE_SPAN("ghost-macro", trace::Kind::Phase);
  EXPECT_EQ(rec.totals().recorded, before.recorded);
}

TEST_F(TraceTest, WraparoundKeepsNewestSpansAndCountsDropped) {
  trace::Recorder& rec = trace::Recorder::global();
  rec.reset(/*ring_capacity=*/16);
  rec.set_thread_label("wrapper");
  for (int i = 0; i < 40; ++i) {
    trace::Span s(std::string_view("s" + std::to_string(i)), trace::Kind::Other);
  }

  const trace::TraceDump dump = rec.drain();
  const trace::ThreadDump* td = find_thread(dump, "wrapper");
  ASSERT_NE(td, nullptr);
  ASSERT_EQ(td->events.size(), 16u);
  EXPECT_EQ(td->dropped, 24u);
  // The survivors are exactly the 16 newest, oldest-to-newest.
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(dump.name_of(td->events[static_cast<std::size_t>(i)].name),
              "s" + std::to_string(24 + i));
  }
  const trace::Recorder::Totals t = rec.totals();
  EXPECT_EQ(t.recorded, 40u);
  EXPECT_EQ(t.dropped, 24u);
}

TEST_F(TraceTest, NestedSpansRecordDepthAndEnclosingTimes) {
  trace::Recorder& rec = trace::Recorder::global();
  rec.set_thread_label("nester");
  {
    trace::Span outer(std::string_view("outer"), trace::Kind::Pass);
    {
      trace::Span inner(std::string_view("inner"), trace::Kind::Phase);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  const trace::TraceDump dump = rec.drain();
  const trace::ThreadDump* td = find_thread(dump, "nester");
  ASSERT_NE(td, nullptr);
  ASSERT_EQ(td->events.size(), 2u);
  // Events come back in begin order (seq), so outer first.
  const trace::Event& outer = td->events[0];
  const trace::Event& inner = td->events[1];
  EXPECT_EQ(dump.name_of(outer.name), "outer");
  EXPECT_EQ(outer.depth, 0);
  EXPECT_EQ(dump.name_of(inner.name), "inner");
  EXPECT_EQ(inner.depth, 1);
  EXPECT_LE(outer.start_ns, inner.start_ns);
  EXPECT_GE(outer.end_ns, inner.end_ns);
}

TEST_F(TraceTest, UnbalancedEndIsCountedNotRecorded) {
  trace::Recorder& rec = trace::Recorder::global();
  rec.end_span();  // no open span on this thread
  rec.end_span();
  const trace::Recorder::Totals t = rec.totals();
  EXPECT_EQ(t.unbalanced, 2u);
  EXPECT_EQ(t.recorded, 0u);
}

TEST_F(TraceTest, DrainSynthesizesStillOpenSpans) {
  trace::Recorder& rec = trace::Recorder::global();
  rec.set_thread_label("opener");
  const trace::NameId id = rec.intern("long-running");
  rec.begin_span(id, trace::Kind::Wait);

  const trace::TraceDump dump = rec.drain();
  const trace::ThreadDump* td = find_thread(dump, "opener");
  ASSERT_NE(td, nullptr);
  ASSERT_EQ(td->events.size(), 1u);
  EXPECT_EQ(dump.name_of(td->events[0].name), "long-running");
  EXPECT_EQ(td->events[0].open, 1);
  EXPECT_GE(td->events[0].end_ns, td->events[0].start_ns);

  rec.end_span();  // leave the thread balanced for later tests
  // A drain does not consume: the now-closed span is still there, closed.
  const trace::TraceDump again = rec.drain();
  ASSERT_EQ(find_thread(again, "opener")->events.size(), 1u);
  EXPECT_EQ(find_thread(again, "opener")->events[0].open, 0);
}

TEST_F(TraceTest, ThreadExitForceClosesOpenSpans) {
  trace::Recorder& rec = trace::Recorder::global();
  std::thread t([&] {
    rec.set_thread_label("dying");
    rec.begin_span(rec.intern("unfinished"), trace::Kind::Compute);
    // exits with the span open
  });
  t.join();

  const trace::TraceDump dump = rec.drain();
  const trace::ThreadDump* td = find_thread(dump, "dying");
  ASSERT_NE(td, nullptr);
  ASSERT_EQ(td->events.size(), 1u);
  EXPECT_EQ(dump.name_of(td->events[0].name), "unfinished");
  EXPECT_EQ(td->events[0].open, 1) << "force-closed spans keep the open flag";
}

TEST_F(TraceTest, ExitedThreadKeepsItsSpansUntilDrained) {
  trace::Recorder& rec = trace::Recorder::global();
  std::thread a([&] {
    rec.set_thread_label("exited-first");
    trace::Span s(std::string_view("a.span"), trace::Kind::Other);
  });
  a.join();
  // b registers after a exited: it must not take a's undrained ring.
  std::thread b([&] {
    rec.set_thread_label("started-later");
    trace::Span s(std::string_view("b.span"), trace::Kind::Other);
  });
  b.join();

  const trace::TraceDump dump = rec.drain();
  const trace::ThreadDump* ta = find_thread(dump, "exited-first");
  const trace::ThreadDump* tb = find_thread(dump, "started-later");
  ASSERT_NE(ta, nullptr);
  ASSERT_NE(tb, nullptr);
  ASSERT_EQ(ta->events.size(), 1u);
  ASSERT_EQ(tb->events.size(), 1u);
  EXPECT_EQ(dump.name_of(ta->events[0].name), "a.span");
  EXPECT_EQ(dump.name_of(tb->events[0].name), "b.span");
}

TEST_F(TraceTest, ReusedRingDiscardsTheDeadOwnersHistory) {
  trace::Recorder& rec = trace::Recorder::global();
  std::thread t1([&] {
    rec.set_thread_label("first-owner");
    trace::Span s(std::string_view("first.span"), trace::Kind::Other);
  });
  t1.join();
  // Once a drain has taken t1's spans, t2 reuses t1's parked ring and must
  // start clean.
  ASSERT_NE(find_thread(rec.drain(), "first-owner"), nullptr);
  std::thread t2([&] {
    rec.set_thread_label("second-owner");
    trace::Span s(std::string_view("second.span"), trace::Kind::Other);
  });
  t2.join();

  const trace::TraceDump dump = rec.drain();
  EXPECT_EQ(find_thread(dump, "first-owner"), nullptr);
  const trace::ThreadDump* td = find_thread(dump, "second-owner");
  ASSERT_NE(td, nullptr);
  ASSERT_EQ(td->events.size(), 1u);
  EXPECT_EQ(dump.name_of(td->events[0].name), "second.span");
}

TEST_F(TraceTest, UndrainedExitedRingsAreBoundedOldestFirst) {
  trace::Recorder& rec = trace::Recorder::global();
  rec.reset(/*ring_capacity=*/16);
  rec.set_enabled(true);
  constexpr int kThreads = 200;
  for (int i = 0; i < kThreads; ++i) {
    std::thread t([&, i] {
      rec.set_thread_label("short" + std::to_string(1000 + i));
      trace::Span s(std::string_view("short.span"), trace::Kind::Other);
    });
    t.join();
  }
  // Without a drain, only the newest exited threads keep their spans; the
  // rest were overwritten oldest first and are counted as dropped.
  const trace::TraceDump dump = rec.drain();
  std::vector<int> kept;
  for (const auto& td : dump.threads)
    if (td.label.rfind("short", 0) == 0) kept.push_back(std::stoi(td.label.substr(5)) - 1000);
  ASSERT_GE(kept.size(), 64u);
  ASSERT_LT(kept.size(), static_cast<std::size_t>(kThreads));
  for (std::size_t k = 0; k < kept.size(); ++k)
    EXPECT_EQ(kept[k], kThreads - static_cast<int>(kept.size()) + static_cast<int>(k));
  EXPECT_EQ(rec.totals().dropped, kThreads - kept.size());
}

// ------------------------------------------------------ deterministic merge

TEST_F(TraceTest, DrainOrdersThreadsByRankThenLabelAndIsRepeatable) {
  trace::Recorder& rec = trace::Recorder::global();
  auto worker = [&](const std::string& label, int sort_key, int spans) {
    rec.set_thread_label(label, sort_key);
    for (int i = 0; i < spans; ++i) {
      trace::Span s(std::string_view(label + ".work"), trace::Kind::Compute);
    }
  };
  // Start in scrambled order; labels and sort keys decide the dump order.
  std::thread a(worker, "zeta", -1, 3);
  std::thread b(worker, "rank1", 1, 2);
  std::thread c(worker, "alpha", -1, 4);
  std::thread d(worker, "rank0", 0, 5);
  a.join();
  b.join();
  c.join();
  d.join();

  const trace::TraceDump dump = rec.drain();
  std::vector<std::string> labels;
  for (const auto& td : dump.threads) labels.push_back(td.label);
  EXPECT_EQ(labels, (std::vector<std::string>{"rank0", "rank1", "alpha", "zeta"}));

  // Same captured activity => byte-identical serialization, every time.
  EXPECT_EQ(trace::chrome_trace_json(dump),
            trace::chrome_trace_json(rec.drain()));
}

TEST_F(TraceTest, InternedNamesAreStableAcrossReset) {
  trace::Recorder& rec = trace::Recorder::global();
  const trace::NameId id = rec.intern("sticky.name");
  rec.reset();
  EXPECT_EQ(rec.intern("sticky.name"), id);
  rec.begin_span(id, trace::Kind::Other);
  rec.end_span();
  const trace::TraceDump dump = rec.drain();
  ASSERT_FALSE(dump.threads.empty());
  EXPECT_EQ(dump.name_of(id), "sticky.name");
}

// -------------------------------------------------------------- exporters

TEST_F(TraceTest, ChromeTraceExportsThreadNamesAndSlices) {
  trace::Recorder& rec = trace::Recorder::global();
  rec.set_thread_label("main");
  { trace::Span s(std::string_view("exported"), trace::Kind::Pass); }

  const std::string doc = trace::chrome_trace_json(rec.drain());
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("thread_name"), std::string::npos);
  EXPECT_NE(doc.find("\"main\""), std::string::npos);
  EXPECT_NE(doc.find("\"exported\""), std::string::npos);
  EXPECT_NE(doc.find("\"cat\":\"pass\""), std::string::npos);
}

TEST_F(TraceTest, ProfileAttributesSelfTimeToDirectParents) {
  trace::Recorder& rec = trace::Recorder::global();
  rec.set_thread_label("main");
  {
    trace::Span outer(std::string_view("p.outer"), trace::Kind::Pass);
    std::this_thread::sleep_for(std::chrono::milliseconds(4));
    {
      trace::Span inner(std::string_view("p.inner"), trace::Kind::Phase);
      std::this_thread::sleep_for(std::chrono::milliseconds(8));
    }
  }
  const std::vector<trace::ProfileRow> rows = trace::profile(rec.drain());
  ASSERT_EQ(rows.size(), 2u);
  const auto find = [&](const std::string& n) {
    auto it = std::find_if(rows.begin(), rows.end(),
                           [&](const trace::ProfileRow& r) { return r.name == n; });
    EXPECT_NE(it, rows.end()) << n;
    return *it;
  };
  const trace::ProfileRow outer = find("p.outer");
  const trace::ProfileRow inner = find("p.inner");
  EXPECT_EQ(outer.calls, 1u);
  EXPECT_EQ(inner.calls, 1u);
  // inner is a leaf: self == total. outer's self excludes inner's time.
  EXPECT_DOUBLE_EQ(inner.self_seconds, inner.total_seconds);
  EXPECT_NEAR(outer.self_seconds, outer.total_seconds - inner.total_seconds, 1e-9);
  EXPECT_GT(outer.total_seconds, inner.total_seconds);
  for (const auto& r : rows) {
    EXPECT_GE(r.self_seconds, 0.0);
    EXPECT_LE(r.self_seconds, r.total_seconds + 1e-12);
  }
  // Rows are sorted by descending self time: the 8 ms leaf leads.
  EXPECT_EQ(rows[0].name, "p.inner");

  const std::string text = trace::profile_text(rows);
  EXPECT_NE(text.find("p.outer"), std::string::npos);
  const std::string json = trace::profile_json(rows);
  EXPECT_NE(json.find("\"self_seconds\""), std::string::npos);
}

TEST_F(TraceTest, FlightDumpTextShowsRecentSpansAndOpenMarkers) {
  trace::Recorder& rec = trace::Recorder::global();
  rec.set_thread_label("dumper");
  { trace::Span s(std::string_view("finished.work"), trace::Kind::Other); }
  rec.begin_span(rec.intern("stuck.wait"), trace::Kind::Wait);
  const std::string text = rec.flight_dump_text();
  rec.end_span();

  EXPECT_NE(text.find("trace flight recorder"), std::string::npos);
  EXPECT_NE(text.find("-- dumper --"), std::string::npos);
  EXPECT_NE(text.find("finished.work"), std::string::npos);
  EXPECT_NE(text.find("stuck.wait"), std::string::npos);
  EXPECT_NE(text.find("[open]"), std::string::npos);
}

// ----------------------------------------------------- end-to-end contracts

TEST_F(TraceTest, ProfilePassTotalsAgreeWithObsPassTimings) {
  trace::Recorder& rec = trace::Recorder::global();
  rec.set_thread_label("compiler");

  hpf::Program prog;
  const codegen::CompileResult compiled =
      codegen::compile_source(read_source("examples/nas/sp_dhpf_style.hpf"), &prog);

  const std::vector<trace::ProfileRow> rows = trace::profile(rec.drain());
  ASSERT_FALSE(compiled.report.passes.empty());
  for (const auto& pass : compiled.report.passes) {
    auto it = std::find_if(rows.begin(), rows.end(),
                           [&](const trace::ProfileRow& r) { return r.name == pass.name; });
    ASSERT_NE(it, rows.end()) << "pass " << pass.name << " has no trace span";
    // The pass span sits inside the obs-timed window, so the trace total is
    // a hair below the report's wall time — within 5% (plus a microsecond
    // floor for passes too fast to time meaningfully).
    EXPECT_LE(it->total_seconds, pass.seconds + 1e-4) << pass.name;
    EXPECT_NEAR(it->total_seconds, pass.seconds,
                std::max(0.05 * pass.seconds, 5e-4))
        << pass.name;
  }
}

TEST_F(TraceTest, OneTraceHoldsCompileAndPerRankRuntimeSpans) {
  trace::Recorder& rec = trace::Recorder::global();
  rec.set_thread_label("compiler");

  hpf::Program prog;
  const codegen::CompileResult compiled =
      codegen::compile_source(read_source("examples/nas/sp_dhpf_style.hpf"), &prog);
  codegen::SpmdOptions xopt;
  xopt.backend = exec::Backend::Mp;
  const codegen::SpmdResult r =
      codegen::run_spmd(prog, compiled.cps, compiled.plan, exec::Machine::sp2(), xopt);
  EXPECT_LE(r.max_err, 1e-9);

  const trace::TraceDump dump = rec.drain();
  const trace::ThreadDump* compiler = find_thread(dump, "compiler");
  ASSERT_NE(compiler, nullptr);
  bool has_pass = false;
  for (const auto& e : compiler->events) has_pass |= e.kind == trace::Kind::Pass;
  EXPECT_TRUE(has_pass) << "compiler thread lost its pass spans";

  const trace::ThreadDump* rank0 = find_thread(dump, "rank0");
  ASSERT_NE(rank0, nullptr) << "mp rank threads did not label their rings";
  EXPECT_EQ(dump.threads.front().label, "rank0") << "ranks sort first";
  bool has_msg = false;
  for (const auto& e : rank0->events)
    has_msg |= e.kind == trace::Kind::Send || e.kind == trace::Kind::Recv;
  EXPECT_TRUE(has_msg) << "rank0 recorded no send/recv spans";

  const std::string doc = trace::chrome_trace_json(dump);
  EXPECT_NE(doc.find("\"compiler\""), std::string::npos);
  EXPECT_NE(doc.find("\"rank0\""), std::string::npos);
  EXPECT_NE(doc.find("\"cat\":\"pass\""), std::string::npos);
  EXPECT_NE(doc.find("\"cat\":\"send\""), std::string::npos);
}

TEST_F(TraceTest, MpAndShmRunsInOneProcessKeepTheirOwnNames) {
  // Both modes run through one runtime. Each run's obs keys and rank spans
  // must carry its own prefix, and none of the other's, even after the
  // other mode ran first in this process: a span site that cached the
  // first name it saw, or a metric that lost its mode, fails here (and
  // would read as an absent source in the benchmark's per-layer ledger).
  for (exec::Backend mode : {exec::Backend::Mp, exec::Backend::Shm}) {
    const bool shm = mode == exec::Backend::Shm;
    const std::string own = exec::to_string(mode);
    const std::string other = shm ? "mp." : "shm.";
    SCOPED_TRACE(own);
    trace::Recorder::global().reset();
    obs::Registry::global().reset();
    const obs::MetricsSnapshot before = obs::Registry::global().snapshot();
    mp::run(mode, 2, exec::Machine::sp2(), {}, [&](Channel& p) -> Task {
      if (p.rank() == 0) {
        p.send(1, 1, {1.0});
      } else {
        (void)co_await p.recv(0, 1);
      }
      if (shm) {
        mp::barrier(p);
        mp::note_shared_read(p, 8);
      }
      co_return;
    });

    const obs::MetricsSnapshot delta = obs::Registry::global().snapshot().diff(before);
    std::vector<std::string> keys = {own + ".messages", own + ".bytes",
                                     own + ".rank0.wait_seconds", own + ".rank1.wait_seconds"};
    if (shm) keys.insert(keys.end(), {"shm.barriers", "shm.shared_bytes"});
    for (const std::string& k : keys)
      EXPECT_TRUE(delta.counters.count(k) + delta.gauges.count(k) > 0) << "missing " << k;
    for (const auto& [k, v] : delta.counters) EXPECT_NE(k.rfind(other, 0), 0u) << k;
    for (const auto& [k, v] : delta.gauges) EXPECT_NE(k.rfind(other, 0), 0u) << k;

    const trace::TraceDump dump = trace::Recorder::global().drain();
    std::set<std::string> spans;
    for (const auto& td : dump.threads)
      if (td.label.rfind("rank", 0) == 0)
        for (const auto& e : td.events) spans.insert(dump.name_of(e.name));
    EXPECT_EQ(spans.count(own + ".send"), 1u);
    EXPECT_EQ(spans.count(own + ".recv"), 1u);
    EXPECT_EQ(spans.count("shm.barrier"), shm ? 1u : 0u);
    for (const std::string& name : spans) EXPECT_NE(name.rfind(other, 0), 0u) << name;
  }
}

TEST_F(TraceTest, WatchdogDumpsEveryRanksFlightRecorderOnDeadlock) {
  mp::Options opt;
  opt.recv_timeout_s = 0.0;  // only the watchdog may intervene
  opt.watchdog_period_s = 0.02;
  ::testing::internal::CaptureStderr();
  try {
    mp::run(exec::Backend::Mp, 2, exec::Machine::sp2(), opt, [&](Channel& p) -> Task {
      // Both ranks wait for a message nobody sends.
      co_await p.recv(1 - p.rank(), 99);
      co_return;
    });
    ::testing::internal::GetCapturedStderr();
    FAIL() << "expected deadlock to be detected";
  } catch (const Error& e) {
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos) << e.what();
    // The watchdog printed every rank's recent history, with both ranks
    // visibly parked in their (still open) waits.
    EXPECT_NE(err.find("mp watchdog:"), std::string::npos) << err;
    EXPECT_NE(err.find("trace flight recorder"), std::string::npos) << err;
    EXPECT_NE(err.find("-- rank0"), std::string::npos) << err;
    EXPECT_NE(err.find("-- rank1"), std::string::npos) << err;
    EXPECT_NE(err.find("mp.wait"), std::string::npos) << err;
    EXPECT_NE(err.find("[open]"), std::string::npos) << err;
  }
}

TEST_F(TraceTest, WatchdogDumpStaysSilentWhenTracingIsOff) {
  trace::Recorder::global().set_enabled(false);
  mp::Options opt;
  opt.recv_timeout_s = 0.0;
  opt.watchdog_period_s = 0.02;
  ::testing::internal::CaptureStderr();
  EXPECT_THROW(mp::run(exec::Backend::Mp, 2, exec::Machine::sp2(), opt,
                       [&](Channel& p) -> Task {
                         co_await p.recv(1 - p.rank(), 99);
                         co_return;
                       }),
               Error);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(err.find("trace flight recorder"), std::string::npos) << err;
}

}  // namespace
}  // namespace dhpf
