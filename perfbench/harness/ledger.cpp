#include "ledger.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace perfbench {
namespace {

/// Per-thread view of one ledger: its thread index and the stack of spans
/// currently open on this thread.
struct ThreadState {
  const Ledger* owner = nullptr;
  int tid = -1;
  std::vector<int> open;
};

ThreadState& thread_state(const Ledger* ledger) {
  thread_local ThreadState st;
  if (st.owner != ledger) st = ThreadState{ledger, -1, {}};
  return st;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

Ledger::Ledger(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int Ledger::thread_index() {
  ThreadState& st = thread_state(this);
  if (st.tid < 0) {
    std::lock_guard<std::mutex> lk(mu_);
    st.tid = next_thread_++;
  }
  return st.tid;
}

Ledger::Span Ledger::span(const std::string& name, long op) {
  if (!enabled_) return Span{};
  const int tid = thread_index();
  ThreadState& st = thread_state(this);
  SpanRecord rec;
  rec.name = name;
  rec.parent = st.open.empty() ? -1 : st.open.back();
  rec.op = op;
  rec.thread = tid;
  int index = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    index = static_cast<int>(spans_.size());
    rec.start = at(Clock::now());
    spans_.push_back(std::move(rec));
  }
  st.open.push_back(index);
  return Span{this, index};
}

void Ledger::Span::close() {
  if (!ledger_) return;
  const double end = ledger_->at(Clock::now());
  {
    std::lock_guard<std::mutex> lk(ledger_->mu_);
    ledger_->spans_[static_cast<std::size_t>(index_)].end = end;
  }
  ThreadState& st = thread_state(ledger_);
  auto it = std::find(st.open.rbegin(), st.open.rend(), index_);
  if (it != st.open.rend()) st.open.erase(std::next(it).base());
  ledger_ = nullptr;
}

int Ledger::add(int parent, const std::string& name, double start, double end, long op) {
  if (!enabled_) return -1;
  SpanRecord rec;
  rec.name = name;
  rec.start = start;
  rec.end = std::max(start, end);
  rec.parent = parent;
  rec.op = op;
  if (parent < 0) rec.thread = thread_index();
  std::lock_guard<std::mutex> lk(mu_);
  if (parent >= 0) {
    const SpanRecord& p = spans_[static_cast<std::size_t>(parent)];
    rec.op = p.op;
    rec.thread = p.thread;
  }
  spans_.push_back(std::move(rec));
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> Ledger::self_seconds() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<double> child_total(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_)
    if (s.parent >= 0) child_total[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out[s.name] += std::max(0.0, (s.end - s.start) - child_total[i]);
  }
  return out;
}

double Ledger::covered_by_layers(double begin, double end) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::map<int, std::vector<std::pair<double, double>>> by_thread;
  for (const SpanRecord& s : spans_) {
    if (s.parent < 0) continue;
    const double a = std::max(begin, s.start);
    const double b = std::min(end, s.end);
    if (b > a) by_thread[s.thread].emplace_back(a, b);
  }
  double covered = 0.0;
  for (auto& [tid, iv] : by_thread) {
    std::sort(iv.begin(), iv.end());
    double cur_a = iv.front().first;
    double cur_b = iv.front().second;
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    covered += cur_b - cur_a;
  }
  return covered;
}

std::string Ledger::chrome_json() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (i) os << ",";
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d", s.start * 1e6,
                  (s.end - s.start) * 1e6, s.thread);
    os << "\n{\"name\":\"" << json_escape(s.name) << "\",\"ph\":\"X\"," << buf
       << ",\"args\":{\"op\":" << s.op << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return os.str();
}

std::string Ledger::table() const {
  std::map<std::string, std::pair<long, double>> total;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const SpanRecord& s : spans_) {
      auto& t = total[s.name];
      ++t.first;
      t.second += s.end - s.start;
    }
  }
  const std::map<std::string, double> self = self_seconds();
  std::ostringstream os;
  os << "span\tcount\ttotal_ms\tself_ms\n";
  char buf[96];
  for (const auto& [name, t] : total) {
    std::snprintf(buf, sizeof buf, "\t%ld\t%.3f\t%.3f\n", t.first, t.second * 1e3,
                  self.at(name) * 1e3);
    os << name << buf;
  }
  return os.str();
}

}  // namespace perfbench
