// svc_mixed: request round trips to an in-process compile service (the
// dhpfd engine with its default worker count and cache capacity) over a
// Unix socket. Four connections each keep a fixed window of requests in
// flight, sending the next as each response returns — the way
// `dhpfc --server` batches behave, but sliding rather than batch-at-a-time,
// so the service stays saturated and throughput does not hinge on how
// client waits interleave. The requests come in the shapes the
// repository's own clients send (request_list), over keys whose working set
// is a little larger than the service's cache, so hits sit beside the
// fills that evictions force; a tune request each pass puts the tuner on
// service workers. It is the only workload through svc's framing, queue,
// cache, coalescing and pool.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "checks.hpp"
#include "codegen/driver.hpp"
#include "exec/machine.hpp"
#include "hpf/parser.hpp"
#include "inputs.hpp"
#include "lint/lint.hpp"
#include "model/model.hpp"
#include "support/json.hpp"
#include "svc/server.hpp"
#include "tune/tune.hpp"
#include "verify/plan.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace svc = dhpf::svc;

constexpr double kRequestsPerSecond = 6000.0;
constexpr int kSetupReps = 41;
constexpr int kConnections = 4;   // closed loops; no more than nproc on the reference box
constexpr std::size_t kWindow = 8;  // requests in flight per connection
// Keys: generator seeds 1..240 under kFlagSets flag sets, about 1200
// cache entries with the lint entries, against the service's default
// capacity of 1024, so LRU evictions keep fills coming beside the hits.
// These sizes set the operating point (about 95% hits, README.md); they
// are chosen, not taken from recorded traffic.
constexpr long kPoolPrograms = 240;
constexpr int kFlagSets = 4;
constexpr int kPassVisits = 4;   // program visits per pass, as in scripts/svc_loadgen.sh
constexpr int kTuneMeasure = 3;  // dhpfc's default --tune-measure
constexpr int kSampleKeys = 8;   // keys re-derived one-shot after timing
// Requests per round. The connections drain at the end of each round and
// a yardstick slice runs while the service is idle.
constexpr std::size_t kRoundRequests = 3000;
// Unix socket, relative to the working directory: short, and inside it.
constexpr const char* kSocket = "perfbench-svc.sock";

/// A request of the list: kind, key indices and the connection it rides.
struct Req {
  svc::Kind kind = svc::Kind::Compile;
  int prog = 0;
  int flags = 0;
  int conn = 0;
};

std::string key_of(const Req& r) {
  return std::string(svc::to_string(r.kind)) + "/" + std::to_string(r.prog) + "/" +
         std::to_string(r.flags);
}

/// The seeded request list, in passes shaped like scripts/svc_loadgen.sh's
/// over the request batches the documented clients send
/// (docs/compile-service.md):
///  - `dhpfc --server --verify --model-report`: compile, verify and model of
///    one (program, flag set) key, one batch;
///  - `dhpfc --server --lint`: one lint request for the program;
///  - `dhpfc --server --tune --tune-backend=sim`: compile and tune.
/// A pass visits kPassVisits programs with one check batch and one lint
/// each, then tunes the pool's first program, as svc_loadgen.sh tunes its
/// first input every pass (it also tunes on shm; that result is measured
/// on threads and has no known answer, so it is left out). Programs and
/// flag sets are drawn uniformly; the seed draws them. Each client
/// invocation rides one connection, round robin, so a batch travels
/// together.
std::vector<Req> request_list(std::uint64_t seed, long n) {
  SplitMix r(sub_seed(seed, 5));
  std::vector<Req> out;
  out.reserve(static_cast<std::size_t>(n + 32));
  int invocation = 0;
  auto send = [&](std::initializer_list<svc::Kind> kinds, int prog, int flags) {
    const int conn = invocation++ % kConnections;
    for (svc::Kind k : kinds) out.push_back({k, prog, k == svc::Kind::Lint ? 0 : flags, conn});
  };
  while (static_cast<long>(out.size()) < n) {
    for (int v = 0; v < kPassVisits; ++v) {
      const int prog = static_cast<int>(r.below(kPoolPrograms));
      const int flags = static_cast<int>(r.below(kFlagSets));
      send({svc::Kind::Compile, svc::Kind::Verify, svc::Kind::Model}, prog, flags);
      send({svc::Kind::Lint}, prog, 0);
    }
    send({svc::Kind::Compile, svc::Kind::Tune}, 0, 0);
  }
  return out;
}

/// The tuner's flag sets: the default variant first, then variants spread
/// evenly over the cross product.
std::vector<svc::FlagSet> flag_sets() {
  const std::vector<dhpf::tune::VariantSpec> all = dhpf::tune::enumerate_variants();
  std::vector<svc::FlagSet> out;
  for (const auto& v : all)
    if (v.is_default) out.push_back({v.sopt, v.copt});
  const std::size_t step = std::max<std::size_t>(1, all.size() / kFlagSets);
  for (std::size_t i = step; out.size() < static_cast<std::size_t>(kFlagSets) && i < all.size();
       i += step)
    if (!all[i].is_default) out.push_back({all[i].sopt, all[i].copt});
  if (out.size() < static_cast<std::size_t>(kFlagSets))
    throw std::runtime_error("the tuner enumerates too few variants");
  return out;
}

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect(" + path + ") failed");
  }
  return fd;
}

/// Owns the client connections; closes them on destruction.
struct Connections {
  std::vector<int> fds;
  Connections() = default;
  Connections(const Connections&) = delete;
  Connections& operator=(const Connections&) = delete;
  ~Connections() { close_all(); }
  void close_all() {
    for (int fd : fds) ::close(fd);
    fds.clear();
  }
};

/// One response as the benchmark saw it.
struct Outcome {
  long index = 0;
  double sent = 0.0;      ///< ledger seconds
  double received = 0.0;  ///< ledger seconds
  double queue = 0.0;     ///< server-reported, seconds
  double service = 0.0;   ///< server-reported, seconds
  bool cached = false;
  bool ok = false;
  std::string why;
};

/// One connection's closed loop: keep kWindow requests in flight, send the
/// next one as each response arrives, until this connection's share of
/// list[begin, end) is answered.
void drive(int fd, int c, const std::vector<Req>& list, std::size_t begin, std::size_t end,
           const std::vector<Source>& pool, const std::vector<svc::FlagSet>& flags,
           ResponseChecker& checker, Ledger& ledger, std::vector<Outcome>& out,
           std::string& error) {
  try {
    std::vector<long> mine;
    for (std::size_t i = begin; i < end; ++i)
      if (list[i].conn == c) mine.push_back(static_cast<long>(i));
    std::unordered_map<std::uint64_t, Outcome> inflight;
    std::size_t next = 0;
    auto send_next = [&] {
      const long i = mine[next++];
      const Req& q = list[static_cast<std::size_t>(i)];
      svc::Request req;
      req.id = static_cast<std::uint64_t>(i) + 1;
      req.kind = q.kind;
      req.source = pool[static_cast<std::size_t>(q.prog)].text;
      req.flags = flags[static_cast<std::size_t>(q.flags)];
      if (q.kind == svc::Kind::Tune) {
        req.backend = dhpf::exec::Backend::Sim;
        req.tune_measure = kTuneMeasure;
      }
      Outcome o;
      o.index = i;
      o.sent = ledger.at(Clock::now());
      inflight.emplace(req.id, o);
      svc::write_frame(fd, req.to_json());
    };
    while (next < mine.size() && inflight.size() < kWindow) send_next();
    std::string frame;
    while (!inflight.empty()) {
      if (!svc::read_frame(fd, frame)) throw std::runtime_error("server closed the connection");
      const double received = ledger.at(Clock::now());
      svc::Response resp;
      std::string err;
      if (!svc::Response::from_json(frame, resp, &err))
        throw std::runtime_error("undecodable response: " + err);
      auto it = inflight.find(resp.id);
      if (it == inflight.end()) throw std::runtime_error("response for an unknown request id");
      Outcome o = it->second;
      inflight.erase(it);
      o.received = received;
      o.queue = resp.queue_seconds;
      o.service = resp.service_seconds;
      o.cached = resp.cached;
      o.ok = resp.ok;
      const Req& q = list[static_cast<std::size_t>(o.index)];
      o.why = checker.check(key_of(q), resp);
      if (ledger.enabled()) {
        // Service stages laid back to back from the send: queue, then
        // service (hit, fill or tune), then the rest of the round trip
        // (framing, socket, client) as transport.
        const int root = ledger.add(-1, "op", o.sent, o.received, o.index);
        const double q_end = std::min(o.received, o.sent + o.queue);
        const double s_end = std::min(o.received, q_end + o.service);
        const char* service = q.kind == svc::Kind::Tune ? "tune.service"
                              : o.cached                ? "svc.hit_service"
                                                        : "svc.fill_service";
        ledger.add(root, "svc.queue", o.sent, q_end);
        ledger.add(root, service, q_end, s_end);
        ledger.add(root, "svc.transport", s_end, o.received);
      }
      out.push_back(std::move(o));
      if (next < mine.size()) send_next();
    }
  } catch (const std::exception& e) {
    error = e.what();
  }
}

/// The deterministic product of one request key, derived one-shot in this
/// process the way the service's pipeline derives it, then put through the
/// same response encoding the wire applies (which re-serializes embedded
/// JSON documents).
std::string one_shot(const Req& q, const Source& src, const svc::FlagSet& flags) {
  svc::Response r;
  r.kind = q.kind;
  r.ok = true;
  r.code = svc::ErrorCode::None;
  dhpf::hpf::Program prog = dhpf::hpf::parse(src.text);
  if (q.kind == svc::Kind::Lint) {
    dhpf::lint::Report rep = dhpf::lint::run(prog);
    dhpf::lint::add_snippets(rep, src.text);
    r.lint_json = rep.to_json();
  } else {
    const dhpf::codegen::CompileResult compiled =
        dhpf::codegen::compile(prog, flags.sopt, flags.copt);
    const dhpf::exec::Machine machine = dhpf::exec::Machine::sp2();
    if (q.kind == svc::Kind::Compile) r.listing = compiled.listing;
    if (q.kind == svc::Kind::Verify)
      r.verify_json =
          dhpf::verify::check(dhpf::verify::bind(prog, compiled.cps, compiled.plan)).to_json();
    if (q.kind == svc::Kind::Model)
      r.model_json = dhpf::model::predict(prog, compiled.cps, compiled.plan, machine)
                         .to_json(dhpf::model::ModelParams::from_machine(machine));
  }
  svc::Response wire;
  std::string err;
  if (!svc::Response::from_json(r.to_json(), wire, &err))
    throw std::runtime_error("response encoding failed: " + err);
  return response_payload(wire);
}

double stats_number(const dhpf::json::Value& doc, const char* section, const char* key) {
  const dhpf::json::Value* s = doc.find(section);
  return s ? s->number_or(key, 0.0) : 0.0;
}

}  // namespace

RunReport run_svc_mixed(const RunOptions& opt, Ledger& ledger, Yardstick& yardstick) {
  RunReport rep;
  rep.callers = kConnections;
  const long n = scaled_ops(opt.seconds, kRequestsPerSecond);
  std::vector<Source> pool;
  std::vector<svc::FlagSet> flags;
  std::vector<Req> list;
  std::unique_ptr<svc::Server> server;
  Connections conns;
  rep.setup_seconds = repeat_setup(kSetupReps, yardstick, [&] {
    conns.close_all();
    server.reset();
    pool = generated_programs(kPoolPrograms);
    flags = flag_sets();
    list = request_list(opt.seed, n);
    Digest d;
    for (const Source& s : pool) d.add(s.text);
    for (const svc::FlagSet& f : flags) d.add(f.canonical());
    for (const Req& q : list) d.add(key_of(q));
    rep.input_digest = d.hex();
    svc::ServerOptions so;
    so.socket_path = kSocket;
    server = std::make_unique<svc::Server>(so);
    for (int c = 0; c < kConnections; ++c) conns.fds.push_back(connect_unix(kSocket));
  });

  ResponseChecker checker;
  std::vector<std::vector<Outcome>> outcomes(kConnections);
  std::vector<std::string> errors(kConnections);
  rep.setup_slowdown = yardstick.slowdown();
  const Yardstick::Mark slices = yardstick.mark();
  rep.cpu_seconds = process_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  rep.phase_start = ledger.at(t0);
  for (std::size_t begin = 0; begin < list.size(); begin += kRoundRequests) {
    const std::size_t end = std::min(list.size(), begin + kRoundRequests);
    {
      std::vector<std::jthread> threads;  // joined on every exit path
      for (int c = 0; c < kConnections; ++c)
        threads.emplace_back(drive, conns.fds[static_cast<std::size_t>(c)], c, std::cref(list),
                             begin, end, std::cref(pool), std::cref(flags), std::ref(checker),
                             std::ref(ledger), std::ref(outcomes[static_cast<std::size_t>(c)]),
                             std::ref(errors[static_cast<std::size_t>(c)]));
    }
    yardstick.slice();  // the service idle, outside the wall
  }
  const Clock::time_point t1 = Clock::now();
  rep.phase_end = ledger.at(t1);
  rep.wall_seconds = seconds_between(t0, t1) - yardstick.seconds_since(slices);
  // The slices run on this thread, CPU-bound, so CPU time drops them too.
  rep.cpu_seconds = process_cpu_seconds() - rep.cpu_seconds - yardstick.seconds_since(slices);
  rep.slowdown = yardstick.slowdown(slices);

  // Every request of the list is an op: answered ones carry their verdict,
  // a connection that broke fails the rest of its share.
  std::vector<const Outcome*> by_index(list.size(), nullptr);
  for (const auto& v : outcomes)
    for (const Outcome& o : v) by_index[static_cast<std::size_t>(o.index)] = &o;
  long hits = 0;
  long errors_seen = 0;
  for (std::size_t i = 0; i < list.size(); ++i) {
    const Outcome* o = by_index[i];
    const std::string label = key_of(list[i]);
    if (!o) {
      rep.tally.record(label + ": no response (" +
                       errors[static_cast<std::size_t>(list[i].conn)] + ")");
      continue;
    }
    rep.ops.push_back({label, (o->received - o->sent) * 1e3, o->received - rep.phase_start});
    rep.tally.record(o->why.empty() ? o->why : label + ": " + o->why);
    hits += o->cached ? 1 : 0;
    errors_seen += o->ok ? 0 : 1;
  }

  // After timing: service counters, then a seeded sample of keys re-derived
  // one-shot in this process and compared byte for byte.
  std::string stats_doc;
  try {
    svc::Request sr;
    sr.id = static_cast<std::uint64_t>(list.size()) + 1;
    sr.kind = svc::Kind::Stats;
    svc::write_frame(conns.fds.front(), sr.to_json());
    std::string frame;
    svc::Response resp;
    if (svc::read_frame(conns.fds.front(), frame) && svc::Response::from_json(frame, resp, nullptr))
      stats_doc = resp.stats_json;
  } catch (const std::exception& e) {
    rep.absent.emplace("svc.coalesced", std::string("stats request failed: ") + e.what());
  }
  const std::map<std::string, std::string> refs = checker.references();
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < list.size(); ++i)
    if (list[i].kind != svc::Kind::Tune && refs.count(key_of(list[i]))) candidates.push_back(i);
  seeded_shuffle(candidates, sub_seed(opt.seed, 6));
  std::map<std::string, bool> sampled;
  for (std::size_t i : candidates) {
    if (sampled.size() >= static_cast<std::size_t>(kSampleKeys)) break;
    const Req& q = list[i];
    const std::string key = key_of(q);
    if (!sampled.emplace(key, true).second) continue;
    std::string want;
    try {
      want = one_shot(q, pool[static_cast<std::size_t>(q.prog)],
                      flags[static_cast<std::size_t>(q.flags)]);
    } catch (const std::exception& e) {
      want = std::string("one-shot threw: ") + e.what();
    }
    if (want != refs.at(key)) rep.tally.fail_recorded(key + ": service payload != one-shot result");
  }
  conns.close_all();
  server->stop();

  if (ledger.enabled()) {
    const double req = static_cast<double>(rep.ops.empty() ? 1 : rep.ops.size());
    layer_times(ledger, static_cast<long>(req), rep);
    rep.layer["svc.hit_ratio"] = static_cast<double>(hits) / req;
    rep.layer["svc.errors"] = static_cast<double>(errors_seen) / req;
    if (!stats_doc.empty()) {
      const dhpf::json::Value doc = dhpf::json::parse(stats_doc);
      rep.layer["svc.coalesced"] = stats_number(doc, "cache", "coalesced") / req;
      rep.layer["svc.evictions"] = stats_number(doc, "cache", "evictions") / req;
      const double ih = stats_number(doc, "iset", "hits");
      const double im = stats_number(doc, "iset", "misses");
      rep.layer["iset.memo_hit_ratio"] = ih + im > 0 ? ih / (ih + im) : 0.0;
      rep.layer["iset.memo_misses"] = im / req;
      rep.layer["iset.intern_nodes"] = stats_number(doc, "iset", "intern_nodes") / req;
      rep.layer["iset.evictions"] = stats_number(doc, "iset", "evictions") / req;
    }
    for (const char* m : {"verify.checks_run", "iset.enumerations", "iset.fm_projections",
                          "iset.emptiness_tests", "comm.events", "comm.eliminated",
                          "lint.warnings", "cp.replicated"})
      rep.absent.emplace(m, "counted in the service's per-request registries");
  }
  return rep;
}

}  // namespace perfbench
