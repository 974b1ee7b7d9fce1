// Tests for the observability layer: dhpf::obs metrics, the dhpf::json
// writer, and the structured trace exports (CSV, message matrix, phase
// critical path, idle attribution, Chrome trace-event JSON).
//
// Emitted JSON documents are parsed back with a small reference reader
// defined below, so well-formedness is pinned by an independent
// implementation rather than by eyeballing strings.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "codegen/driver.hpp"
#include "codegen/spmd.hpp"
#include "exec/machine.hpp"
#include "exec/stats.hpp"
#include "sim/trace.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"

namespace dhpf {
namespace {

// ---------------------------------------------------------------------------
// Reference JSON reader: a strict recursive-descent parser covering exactly
// the grammar of RFC 8259. Returns nullptr on any malformed input.

struct JsonValue;
using JsonPtr = std::unique_ptr<JsonValue>;

struct JsonValue {
  using Object = std::map<std::string, JsonPtr>;
  using Array = std::vector<JsonPtr>;
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v;

  [[nodiscard]] const Object* object() const { return std::get_if<Object>(&v); }
  [[nodiscard]] const Array* array() const { return std::get_if<Array>(&v); }
  [[nodiscard]] const std::string* str() const { return std::get_if<std::string>(&v); }
  [[nodiscard]] const double* num() const { return std::get_if<double>(&v); }

  [[nodiscard]] const JsonValue* at(const std::string& k) const {
    const Object* o = object();
    if (!o) return nullptr;
    auto it = o->find(k);
    return it == o->end() ? nullptr : it->second.get();
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonPtr parse() {
    JsonPtr v = value();
    skip_ws();
    if (!v || pos_ != s_.size()) return nullptr;
    return v;
  }

 private:
  const std::string& s_;
  std::size_t pos_ = 0;

  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }
  bool eat(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(const char* word) {
    for (const char* p = word; *p; ++p)
      if (pos_ >= s_.size() || s_[pos_++] != *p) return false;
    return true;
  }

  JsonPtr value() {
    skip_ws();
    if (pos_ >= s_.size()) return nullptr;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't':
        return literal("true") ? make(true) : nullptr;
      case 'f':
        return literal("false") ? make(false) : nullptr;
      case 'n':
        return literal("null") ? make(nullptr) : nullptr;
      default: return number_value();
    }
  }

  template <typename T>
  static JsonPtr make(T&& x) {
    auto p = std::make_unique<JsonValue>();
    p->v = std::forward<T>(x);
    return p;
  }

  JsonPtr object() {
    if (!eat('{')) return nullptr;
    JsonValue::Object obj;
    skip_ws();
    if (eat('}')) return make(std::move(obj));
    while (true) {
      skip_ws();
      JsonPtr k = string_value();
      if (!k || !eat(':')) return nullptr;
      JsonPtr v = value();
      if (!v) return nullptr;
      obj.emplace(*k->str(), std::move(v));
      if (eat(',')) continue;
      if (eat('}')) return make(std::move(obj));
      return nullptr;
    }
  }

  JsonPtr array() {
    if (!eat('[')) return nullptr;
    JsonValue::Array arr;
    skip_ws();
    if (eat(']')) return make(std::move(arr));
    while (true) {
      JsonPtr v = value();
      if (!v) return nullptr;
      arr.push_back(std::move(v));
      if (eat(',')) continue;
      if (eat(']')) return make(std::move(arr));
      return nullptr;
    }
  }

  JsonPtr string_value() {
    skip_ws();
    if (pos_ >= s_.size() || s_[pos_] != '"') return nullptr;
    ++pos_;
    std::string out;
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return make(std::move(out));
      if (static_cast<unsigned char>(c) < 0x20) return nullptr;  // raw control char
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return nullptr;
      char e = s_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return nullptr;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9')
              code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              return nullptr;
          }
          // The writer only emits \u00XX for control characters.
          out.push_back(static_cast<char>(code & 0xFF));
          break;
        }
        default: return nullptr;
      }
    }
    return nullptr;  // unterminated
  }

  JsonPtr number_value() {
    std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) return nullptr;
    try {
      return make(std::stod(s_.substr(start, pos_ - start)));
    } catch (...) {
      return nullptr;
    }
  }
};

JsonPtr parse_json(const std::string& text) { return JsonParser(text).parse(); }

// ---------------------------------------------------------------------------
// dhpf::json writer

TEST(JsonWriter, EscapesSpecialCharacters) {
  EXPECT_EQ(json::escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(json::escape(std::string_view("\x01", 1)), "\\u0001");
  json::Writer w(false);
  w.begin_object();
  w.member("k\"ey", "va\nlue");
  w.end_object();
  JsonPtr doc = parse_json(w.str());
  ASSERT_TRUE(doc);
  const JsonValue* v = doc->at("k\"ey");
  ASSERT_TRUE(v && v->str());
  EXPECT_EQ(*v->str(), "va\nlue");
}

TEST(JsonWriter, NonFiniteNumbersBecomeNull) {
  json::Writer w(false);
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.value(2.5);
  w.end_array();
  JsonPtr doc = parse_json(w.str());
  ASSERT_TRUE(doc && doc->array());
  const auto& arr = *doc->array();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_TRUE(std::holds_alternative<std::nullptr_t>(arr[0]->v));
  EXPECT_TRUE(std::holds_alternative<std::nullptr_t>(arr[1]->v));
  ASSERT_TRUE(arr[2]->num());
  EXPECT_DOUBLE_EQ(*arr[2]->num(), 2.5);
}

TEST(JsonWriter, PrettyAndCompactParseIdentically) {
  for (bool pretty : {false, true}) {
    json::Writer w(pretty);
    w.begin_object();
    w.key("rows");
    w.begin_array();
    for (int i = 0; i < 3; ++i) {
      w.begin_object();
      w.member("i", i);
      w.member("sq", static_cast<double>(i * i));
      w.end_object();
    }
    w.end_array();
    w.member("n", std::uint64_t{3});
    w.member("ok", true);
    w.key("none");
    w.null();
    w.end_object();
    JsonPtr doc = parse_json(w.str());
    ASSERT_TRUE(doc) << "pretty=" << pretty;
    ASSERT_TRUE(doc->at("rows") && doc->at("rows")->array());
    EXPECT_EQ(doc->at("rows")->array()->size(), 3u);
    EXPECT_DOUBLE_EQ(*doc->at("n")->num(), 3.0);
  }
}

// ---------------------------------------------------------------------------
// dhpf::json reader

TEST(JsonReader, ParsesScalarsArraysAndObjects) {
  const json::Value root = json::parse(R"({
    "name": "sp", "ok": true, "off": false, "none": null,
    "n": 42, "x": -1.5e2,
    "arr": [1, 2, 3],
    "nested": {"a": {"b": 7}}
  })");
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.at("name").string(), "sp");
  EXPECT_TRUE(root.at("ok").boolean);
  EXPECT_FALSE(root.at("off").boolean);
  EXPECT_TRUE(root.at("none").is_null());
  EXPECT_DOUBLE_EQ(root.at("n").number(), 42.0);
  EXPECT_DOUBLE_EQ(root.at("x").number(), -150.0);
  ASSERT_TRUE(root.at("arr").is_array());
  ASSERT_EQ(root.at("arr").items.size(), 3u);
  EXPECT_DOUBLE_EQ(root.at("arr").items[1].number(), 2.0);
  EXPECT_DOUBLE_EQ(root.at("nested").at("a").at("b").number(), 7.0);
  EXPECT_EQ(root.find("missing"), nullptr);
  EXPECT_DOUBLE_EQ(root.number_or("n", 0.0), 42.0);
  EXPECT_DOUBLE_EQ(root.number_or("missing", 9.5), 9.5);
}

TEST(JsonReader, DecodesStringEscapes) {
  const json::Value v =
      json::parse(R"(["a\"b", "tab\there", "A\u00e9", "back\\slash"])");
  ASSERT_EQ(v.items.size(), 4u);
  EXPECT_EQ(v.items[0].string(), "a\"b");
  EXPECT_EQ(v.items[1].string(), "tab\there");
  EXPECT_EQ(v.items[2].string(), "A\xc3\xa9");  // \u00e9 -> é as UTF-8
  EXPECT_EQ(v.items[3].string(), "back\\slash");
}

TEST(JsonReader, RoundTripsWriterOutput) {
  json::Writer w(true);
  w.begin_object();
  w.member("alpha", 5.6e-5);
  w.member("label", "it\"s\n");
  w.key("rows");
  w.begin_array();
  w.value(std::uint64_t{123});
  w.null();
  w.end_array();
  w.end_object();
  const json::Value v = json::parse(w.str());
  EXPECT_DOUBLE_EQ(v.at("alpha").number(), 5.6e-5);
  EXPECT_EQ(v.at("label").string(), "it\"s\n");
  EXPECT_DOUBLE_EQ(v.at("rows").items[0].number(), 123.0);
  EXPECT_TRUE(v.at("rows").items[1].is_null());
}

TEST(JsonReader, RejectsMalformedDocuments) {
  for (const char* bad : {"", "{", "[1,]", "{\"a\":}", "{\"a\":1} trailing", "tru",
                          "\"unterminated", "{'single': 1}", "[1 2]"}) {
    EXPECT_THROW(json::parse(bad), dhpf::Error) << "input: " << bad;
  }
}

TEST(JsonReader, TypedAccessorsThrowOnKindMismatch) {
  const json::Value v = json::parse(R"({"s": "x", "n": 1})");
  EXPECT_THROW(static_cast<void>(v.at("s").number()), dhpf::Error);
  EXPECT_THROW(static_cast<void>(v.at("n").string()), dhpf::Error);
  EXPECT_THROW(static_cast<void>(v.at("absent")), dhpf::Error);
  EXPECT_THROW(static_cast<void>(v.at("n").at("deeper")), dhpf::Error);
}

// ---------------------------------------------------------------------------
// dhpf::obs metrics

TEST(Metrics, CounterResetAndHandleStability) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("test.count");
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  // Inserting more names must not invalidate the handle.
  for (int i = 0; i < 100; ++i) reg.counter("test.other" + std::to_string(i));
  c.add();
  EXPECT_EQ(c.value(), 6u);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);  // zeroed in place, handle still live
  c.add(2);
  EXPECT_EQ(reg.snapshot().counters.at("test.count"), 2u);
}

TEST(Metrics, SnapshotDiffClampsAtZero) {
  obs::Registry reg;
  reg.add("a", 10);
  reg.add("b", 3);
  obs::MetricsSnapshot before = reg.snapshot();
  reg.add("a", 7);
  reg.add("c", 1);  // new name, absent from `before`
  obs::MetricsSnapshot delta = reg.snapshot().diff(before);
  EXPECT_EQ(delta.counters.at("a"), 7u);
  EXPECT_EQ(delta.counters.at("c"), 1u);
  EXPECT_EQ(delta.counters.count("b"), 0u);  // unchanged -> dropped
  // A reset between snapshots must clamp, not wrap.
  obs::MetricsSnapshot high = reg.snapshot();
  reg.reset();
  reg.add("a", 2);
  obs::MetricsSnapshot clamped = reg.snapshot().diff(high);
  for (const auto& [name, v] : clamped.counters) EXPECT_LT(v, 1u << 30) << name;
}

TEST(Metrics, GroupTotalSumsPrefix) {
  obs::Registry reg;
  reg.add("iset.projections", 5);
  reg.add("iset.enumerations", 2);
  reg.add("isetx.unrelated", 100);
  reg.add("cp.merges", 1);
  obs::MetricsSnapshot s = reg.snapshot();
  EXPECT_EQ(s.group_total("iset"), 7u);
  EXPECT_EQ(s.group_total("cp"), 1u);
  EXPECT_EQ(s.group_total("comm"), 0u);
}

TEST(Metrics, SnapshotJsonRoundTrips) {
  obs::Registry reg;
  reg.add("x.count", 3);
  reg.set_gauge("x.gauge", 1.5);
  reg.timer("x.t").add(0.25);
  JsonPtr doc = parse_json(reg.snapshot().to_json());
  ASSERT_TRUE(doc);
  EXPECT_DOUBLE_EQ(*doc->at("counters")->at("x.count")->num(), 3.0);
  EXPECT_DOUBLE_EQ(*doc->at("gauges")->at("x.gauge")->num(), 1.5);
  EXPECT_DOUBLE_EQ(*doc->at("timers")->at("x.t")->at("seconds")->num(), 0.25);
}

TEST(Metrics, ScopedTimerAccumulatesIntoGlobal) {
  const std::string name = "obs_test.scoped_timer";
  obs::Registry::global().timer(name).reset();
  {
    obs::ScopedTimer t(name);
    EXPECT_GE(t.elapsed(), 0.0);
  }
  { obs::ScopedTimer t(name); }
  obs::MetricsSnapshot s = obs::Registry::global().snapshot();
  EXPECT_EQ(s.timers.at(name).calls, 2u);
  EXPECT_GE(s.timers.at(name).seconds, 0.0);
}

// Counters, timers and gauges are bumped concurrently from mp rank threads;
// this test hammers one of each from several threads (with concurrent
// snapshots) so the CI TSan job proves the registry is race-free, and the
// exact totals prove no increment is lost.
TEST(Metrics, ConcurrentCountersTimersAndGaugesAreExact) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("mt.count");
  obs::Timer& t = reg.timer("mt.timer");
  constexpr int kThreads = 8;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int j = 0; j < kIters; ++j) {
        c.add();
        t.add(0.001);
        if (j % 1000 == 0) {
          reg.set_gauge("mt.gauge", static_cast<double>(i));
          (void)reg.snapshot();  // concurrent reader
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(t.calls(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_NEAR(t.seconds(), 0.001 * kThreads * kIters, 1e-6);
}

TEST(Metrics, PeakRssBytesIsPlausible) {
  const std::uint64_t rss = obs::peak_rss_bytes();
  // A running test binary has at least a megabyte resident; anything over a
  // terabyte would mean a unit mix-up (KB vs bytes).
  EXPECT_GT(rss, 1u << 20);
  EXPECT_LT(rss, static_cast<std::uint64_t>(1) << 40);
}

TEST(Metrics, CsvEscapesCommasAndQuotes) {
  obs::Registry reg;
  reg.add("weird,\"name\"", 1);
  const std::string csv = reg.snapshot().to_csv();
  EXPECT_NE(csv.find("\"weird,\"\"name\"\"\""), std::string::npos) << csv;
}

// ---------------------------------------------------------------------------
// Trace exports, on a hand-built trace with known numbers.

sim::TraceLog make_trace() {
  using K = sim::IntervalKind;
  sim::TraceLog t;
  t.ranks.resize(2);
  auto iv = [](double a, double b, K k, const char* phase, int peer) {
    return sim::Interval{a, b, k, phase, peer};
  };
  // rank 0: compute [0,2), send [2,2.5), compute [2.5,4) — all phase "a,b"
  t.ranks[0].intervals = {iv(0.0, 2.0, K::Compute, "a,b", -1),
                          iv(2.0, 2.5, K::Send, "a,b", 1),
                          iv(2.5, 4.0, K::Compute, "a,b", -1)};
  // rank 1: idle [0,2.6) on rank 0, recv [2.6,3.0), compute [3.0,4.0) — "p2"
  t.ranks[1].intervals = {iv(0.0, 2.6, K::Idle, "p2", 0), iv(2.6, 3.0, K::Recv, "p2", 0),
                          iv(3.0, 4.0, K::Compute, "p2", -1)};
  t.messages = {sim::MessageRecord{0, 1, 7, 800, 2.0, 2.6}};
  return t;
}

TEST(Trace, StatsFractionsSumBelowOne) {
  exec::RunStats s;
  s.total_compute = 4.5;  // ranks 0+1 compute
  s.total_comm = 0.9;
  s.total_idle = 2.6;
  s.elapsed = 4.0;
  s.ranks.resize(2);
  EXPECT_DOUBLE_EQ(s.busy_fraction(), 4.5 / 8.0);
  EXPECT_DOUBLE_EQ(s.comm_fraction(), 0.9 / 8.0);
  EXPECT_DOUBLE_EQ(s.idle_fraction(), 2.6 / 8.0);
  EXPECT_LE(s.busy_fraction() + s.comm_fraction() + s.idle_fraction(), 1.0);
  exec::RunStats empty;
  empty.ranks.resize(4);
  EXPECT_DOUBLE_EQ(empty.busy_fraction(), 0.0);  // zero elapsed -> 0, not NaN
}

TEST(Trace, IntervalsCsvEscapesPhases) {
  sim::TraceLog t = make_trace();
  const std::string csv = t.intervals_csv();
  // Phase "a,b" contains the delimiter, so it must be quoted per RFC 4180.
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos) << csv;
  EXPECT_NE(csv.find("rank,start,end,kind,phase,peer"), std::string::npos) << csv;
  // 6 intervals + header = 7 lines.
  std::size_t lines = 0;
  for (char c : csv)
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, 7u);
}

TEST(Trace, MessagesCsv) {
  const std::string csv = make_trace().messages_csv();
  EXPECT_NE(csv.find("src,dst,tag,bytes,send_time,arrival"), std::string::npos);
  EXPECT_NE(csv.find("0,1,7,800,"), std::string::npos) << csv;
}

TEST(Trace, PhaseBreakdown) {
  auto rows = make_trace().phase_breakdown();
  ASSERT_EQ(rows.size(), 2u);
  const auto* a = rows[0].phase == "a,b" ? &rows[0] : &rows[1];
  const auto* p2 = rows[0].phase == "p2" ? &rows[0] : &rows[1];
  ASSERT_EQ(a->phase, "a,b");
  ASSERT_EQ(p2->phase, "p2");
  EXPECT_DOUBLE_EQ(a->compute, 3.5);
  EXPECT_DOUBLE_EQ(a->comm, 0.5);
  EXPECT_DOUBLE_EQ(a->idle, 0.0);
  EXPECT_DOUBLE_EQ(p2->compute, 1.0);
  EXPECT_DOUBLE_EQ(p2->comm, 0.4);
  EXPECT_DOUBLE_EQ(p2->idle, 2.6);
}

TEST(Trace, MessageMatrix) {
  auto m = make_trace().message_matrix();
  ASSERT_EQ(m.nranks, 2);
  EXPECT_EQ(m.count_at(0, 1), 1u);
  EXPECT_EQ(m.bytes_at(0, 1), 800u);
  EXPECT_EQ(m.count_at(1, 0), 0u);
  EXPECT_FALSE(m.to_string().empty());
}

TEST(Trace, CriticalPath) {
  auto cps = make_trace().critical_path();
  ASSERT_EQ(cps.size(), 2u);
  const auto* p2 = cps[0].phase == "p2" ? &cps[0] : &cps[1];
  ASSERT_EQ(p2->phase, "p2");
  // Non-idle activity in p2 spans [2.6, 4.0]; rank 1 is the only rank.
  EXPECT_DOUBLE_EQ(p2->start, 2.6);
  EXPECT_DOUBLE_EQ(p2->end, 4.0);
  EXPECT_DOUBLE_EQ(p2->span, 1.4);
  EXPECT_DOUBLE_EQ(p2->max_rank_busy, 1.4);
  EXPECT_EQ(p2->bottleneck_rank, 1);
}

TEST(Trace, IdleAttribution) {
  auto att = make_trace().idle_attribution();
  ASSERT_EQ(att.size(), 2u);
  ASSERT_EQ(att[0].size(), 3u);  // nranks + 1 (unattributed column)
  EXPECT_DOUBLE_EQ(att[1][0], 2.6);  // rank 1 blocked on rank 0
  EXPECT_DOUBLE_EQ(att[1][2], 0.0);
  EXPECT_DOUBLE_EQ(att[0][1], 0.0);
}

TEST(Trace, ChromeTraceJsonRoundTrips) {
  JsonPtr doc = parse_json(make_trace().chrome_trace_json());
  ASSERT_TRUE(doc);
  const JsonValue* events = doc->at("traceEvents");
  ASSERT_TRUE(events && events->array());
  std::size_t slices = 0, flows = 0;
  for (const auto& ev : *events->array()) {
    const std::string* ph = ev->at("ph") ? ev->at("ph")->str() : nullptr;
    ASSERT_TRUE(ph);
    if (*ph == "X") {
      ++slices;
      ASSERT_TRUE(ev->at("ts") && ev->at("ts")->num());
      ASSERT_TRUE(ev->at("dur") && ev->at("dur")->num());
      EXPECT_GE(*ev->at("dur")->num(), 0.0);
    } else if (*ph == "s" || *ph == "f") {
      ++flows;
    }
  }
  EXPECT_EQ(slices, 6u);  // one per interval
  EXPECT_EQ(flows, 2u);   // one s/f pair per message
}

// ---------------------------------------------------------------------------
// End to end: a real compile + simulated run, exercising the same exports
// the fig_8_1_4_traces bench writes.

const char* kStencil = R"(
  processors P(4)
  array a(32, 8) distribute (block:0, *) onto P
  array b(32, 8) distribute (block:0, *) onto P
  procedure main()
    do k = 1, 4
      do i = 1, 30
        do j = 1, 6
          a(i, j) = b(i-1, j) + b(i+1, j)
        enddo
      enddo
      do i = 1, 30
        do j = 1, 6
          b(i, j) = a(i, j)
        enddo
      enddo
    enddo
  end
)";

TEST(Trace, EndToEndChromeExportFromRealRun) {
  hpf::Program prog;
  codegen::CompileResult c = codegen::compile_source(kStencil, &prog);
  codegen::SpmdOptions opt;
  opt.record_trace = true;
  codegen::SpmdResult r =
      codegen::run_spmd(prog, c.cps, c.plan, exec::Machine::sp2(), opt);
  ASSERT_EQ(r.trace.ranks.size(), 4u);
  EXPECT_GT(r.messages, 0u);

  JsonPtr doc = parse_json(r.trace.chrome_trace_json());
  ASSERT_TRUE(doc);
  ASSERT_TRUE(doc->at("traceEvents") && doc->at("traceEvents")->array());
  EXPECT_GT(doc->at("traceEvents")->array()->size(), r.messages);

  // The compile report JSON must parse too, with per-pass entries.
  JsonPtr report = parse_json(c.report.to_json());
  ASSERT_TRUE(report);
  const JsonValue* passes = report->at("passes");
  ASSERT_TRUE(passes && passes->array());
  EXPECT_GE(passes->array()->size(), 3u);

  // Fractions of the real run respect the documented invariant.
  EXPECT_EQ(r.nranks(), 4);
  const double total = r.busy_fraction() + r.comm_fraction() + r.idle_fraction();
  EXPECT_GT(total, 0.0);
  EXPECT_LE(total, 1.0 + 1e-9);
}

}  // namespace
}  // namespace dhpf
