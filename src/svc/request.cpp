#include "svc/request.hpp"

#include <cerrno>
#include <cstring>
#include <functional>
#include <sstream>

#include <sys/socket.h>
#include <unistd.h>

#include "support/diagnostics.hpp"
#include "support/json.hpp"

namespace dhpf::svc {

const char* to_string(Kind k) {
  switch (k) {
    case Kind::Compile: return "compile";
    case Kind::Verify: return "verify";
    case Kind::Model: return "model";
    case Kind::Tune: return "tune";
    case Kind::Stats: return "stats";
    case Kind::Lint: return "lint";
  }
  return "?";
}

bool parse_kind(const std::string& name, Kind& out) {
  for (Kind k :
       {Kind::Compile, Kind::Verify, Kind::Model, Kind::Tune, Kind::Stats, Kind::Lint}) {
    if (name == to_string(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

const char* to_string(ErrorCode c) {
  switch (c) {
    case ErrorCode::None: return "ok";
    case ErrorCode::BadRequest: return "bad-request";
    case ErrorCode::ParseError: return "parse-error";
    case ErrorCode::CompileError: return "compile-error";
    case ErrorCode::Internal: return "internal";
    case ErrorCode::Shutdown: return "shutdown";
  }
  return "?";
}

namespace {

/// Decode a wire id: an integer in [0, 2^53], the range a JSON number
/// carries exactly. Fractions, negatives and larger values are rejected
/// (casting them to uint64_t would truncate or be undefined).
bool parse_wire_id(const json::Value& v, std::uint64_t& out) {
  constexpr double kMaxWireId = 9007199254740992.0;  // 2^53
  if (v.kind != json::Value::Kind::Number || !(v.num >= 0.0 && v.num <= kMaxWireId))
    return false;
  out = static_cast<std::uint64_t>(v.num);
  return static_cast<double>(out) == v.num;
}

bool parse_error_code(const std::string& name, ErrorCode& out) {
  for (ErrorCode c : {ErrorCode::None, ErrorCode::BadRequest, ErrorCode::ParseError,
                      ErrorCode::CompileError, ErrorCode::Internal, ErrorCode::Shutdown}) {
    if (name == to_string(c)) {
      out = c;
      return true;
    }
  }
  return false;
}

const char* priv_name(cp::PrivMode m) {
  switch (m) {
    case cp::PrivMode::Propagate: return "propagate";
    case cp::PrivMode::Replicate: return "replicate";
    case cp::PrivMode::OwnerComputes: return "owner";
  }
  return "?";
}

const char* onoff(bool b) { return b ? "on" : "off"; }

bool parse_onoff(const std::string& v, bool& out) {
  if (v == "on") {
    out = true;
    return true;
  }
  if (v == "off") {
    out = false;
    return true;
  }
  return false;
}

}  // namespace

std::string FlagSet::canonical() const {
  std::ostringstream os;
  os << "priv=" << priv_name(sopt.priv_mode) << " localize=" << onoff(sopt.localize)
     << " cs=" << onoff(sopt.comm_sensitive) << " interproc=" << onoff(sopt.interprocedural)
     << " avail=" << onoff(copt.data_availability) << " coalesce=" << onoff(copt.coalesce);
  return os.str();
}

bool FlagSet::parse(const std::string& text, FlagSet& out, std::string* error) {
  FlagSet f;
  std::istringstream words(text);
  std::string word;
  auto bad = [&](const std::string& why) {
    if (error) *error = "bad flag set near '" + word + "': " + why;
    return false;
  };
  while (words >> word) {
    const std::size_t eq = word.find('=');
    if (eq == std::string::npos) return bad("expected axis=value");
    const std::string axis = word.substr(0, eq);
    const std::string value = word.substr(eq + 1);
    if (axis == "priv") {
      if (value == "propagate")
        f.sopt.priv_mode = cp::PrivMode::Propagate;
      else if (value == "replicate")
        f.sopt.priv_mode = cp::PrivMode::Replicate;
      else if (value == "owner")
        f.sopt.priv_mode = cp::PrivMode::OwnerComputes;
      else
        return bad("priv must be propagate|replicate|owner");
    } else if (axis == "localize") {
      if (!parse_onoff(value, f.sopt.localize)) return bad("expected on|off");
    } else if (axis == "cs") {
      if (!parse_onoff(value, f.sopt.comm_sensitive)) return bad("expected on|off");
    } else if (axis == "interproc") {
      if (!parse_onoff(value, f.sopt.interprocedural)) return bad("expected on|off");
    } else if (axis == "avail") {
      if (!parse_onoff(value, f.copt.data_availability)) return bad("expected on|off");
    } else if (axis == "coalesce") {
      if (!parse_onoff(value, f.copt.coalesce)) return bad("expected on|off");
    } else {
      return bad("unknown axis");
    }
  }
  out = f;
  return true;
}

std::string Request::to_json() const {
  json::Writer w(/*pretty=*/false);
  w.begin_object();
  w.member("id", id);
  w.member("kind", to_string(kind));
  if (!source.empty()) w.member("source", source);
  w.member("flags", flags.canonical());
  if (!grid.empty()) {
    w.key("grid");
    w.begin_array();
    for (int e : grid) w.value(e);
    w.end_array();
  }
  if (no_cache) w.member("no_cache", true);
  if (kind == Kind::Tune) {
    w.member("tune_measure", static_cast<std::int64_t>(tune_measure));
    w.member("backend", exec::to_string(backend));
  }
  w.end_object();
  return w.str();
}

bool Request::from_json(const std::string& doc, Request& out, std::string* error) {
  auto bad = [&](const std::string& why) {
    if (error) *error = why;
    return false;
  };
  json::Value v;
  try {
    v = json::parse(doc);
  } catch (const dhpf::Error& e) {
    return bad(std::string("malformed JSON: ") + e.what());
  }
  if (!v.is_object()) return bad("request must be a JSON object");
  Request r;
  if (const json::Value* id = v.find("id")) {
    if (!parse_wire_id(*id, r.id)) return bad("id must be an integer in [0, 2^53]");
  }
  const json::Value* kind = v.find("kind");
  if (!kind || kind->kind != json::Value::Kind::String)
    return bad("missing request kind");
  if (!parse_kind(kind->string(), r.kind))
    return bad("unknown request kind: " + kind->string());
  if (const json::Value* src = v.find("source")) {
    if (src->kind != json::Value::Kind::String) return bad("source must be a string");
    r.source = src->string();
  }
  if (r.kind != Kind::Stats && r.source.empty())
    return bad("missing program source");
  if (const json::Value* flags = v.find("flags")) {
    if (flags->kind != json::Value::Kind::String) return bad("flags must be a string");
    std::string ferr;
    if (!FlagSet::parse(flags->string(), r.flags, &ferr)) return bad(ferr);
  }
  if (const json::Value* grid = v.find("grid")) {
    if (!grid->is_array()) return bad("grid must be an array of extents");
    for (const json::Value& e : grid->items) {
      if (e.kind != json::Value::Kind::Number || e.num < 1 || e.num > 4096 ||
          e.num != static_cast<double>(static_cast<int>(e.num)))
        return bad("grid extents must be integers in [1, 4096]");
      r.grid.push_back(static_cast<int>(e.num));
    }
    if (r.grid.empty()) return bad("grid must not be empty when present");
  }
  if (const json::Value* nc = v.find("no_cache")) {
    if (nc->kind != json::Value::Kind::Bool) return bad("no_cache must be a boolean");
    r.no_cache = nc->boolean;
  }
  if (const json::Value* tm = v.find("tune_measure")) {
    if (tm->kind != json::Value::Kind::Number || tm->num < 0 || tm->num > 48 ||
        tm->num != static_cast<double>(static_cast<int>(tm->num)))
      return bad("tune_measure must be an integer in [0, 48]");
    r.tune_measure = static_cast<int>(tm->num);
  }
  if (const json::Value* be = v.find("backend")) {
    if (be->kind != json::Value::Kind::String ||
        !exec::parse_backend(be->string(), r.backend))
      return bad("backend must be sim|mp|shm");
  }
  out = std::move(r);
  return true;
}

std::string Response::to_json() const {
  json::Writer w(/*pretty=*/false);
  w.begin_object();
  w.member("id", id);
  w.member("kind", to_string(kind));
  w.member("ok", ok);
  if (!ok) {
    w.key("error");
    w.begin_object();
    w.member("code", to_string(code));
    w.member("message", error);
    w.end_object();
  }
  w.member("cached", cached);
  w.member("queue_seconds", queue_seconds);
  w.member("service_seconds", service_seconds);
  if (!listing.empty()) w.member("listing", listing);
  auto raw_member = [&](const char* key, const std::string& doc_json) {
    if (!doc_json.empty()) {
      w.key(key);
      w.raw(doc_json);
    }
  };
  raw_member("report", report_json);
  raw_member("verify", verify_json);
  raw_member("model", model_json);
  raw_member("tune", tune_json);
  raw_member("stats", stats_json);
  raw_member("lint", lint_json);
  w.end_object();
  return w.str();
}

bool Response::from_json(const std::string& doc, Response& out, std::string* error) {
  auto bad = [&](const std::string& why) {
    if (error) *error = why;
    return false;
  };
  json::Value v;
  try {
    v = json::parse(doc);
  } catch (const dhpf::Error& e) {
    return bad(std::string("malformed JSON: ") + e.what());
  }
  if (!v.is_object()) return bad("response must be a JSON object");
  Response r;
  const json::Value* id = v.find("id");
  const json::Value* kind = v.find("kind");
  const json::Value* ok = v.find("ok");
  if (!id || !parse_wire_id(*id, r.id))
    return bad("response id must be an integer in [0, 2^53]");
  if (!kind || kind->kind != json::Value::Kind::String || !parse_kind(kind->string(), r.kind))
    return bad("missing response kind");
  if (!ok || ok->kind != json::Value::Kind::Bool) return bad("missing ok");
  r.ok = ok->boolean;
  r.code = ErrorCode::None;
  if (!r.ok) {
    const json::Value* err = v.find("error");
    if (!err || !err->is_object()) return bad("error responses must carry error{}");
    const json::Value* code = err->find("code");
    if (!code || code->kind != json::Value::Kind::String ||
        !parse_error_code(code->string(), r.code))
      return bad("unknown error code");
    if (const json::Value* msg = err->find("message")) r.error = msg->str;
  }
  if (const json::Value* c = v.find("cached")) r.cached = c->boolean;
  r.queue_seconds = v.number_or("queue_seconds", 0.0);
  r.service_seconds = v.number_or("service_seconds", 0.0);
  if (const json::Value* l = v.find("listing")) r.listing = l->str;
  // Structured payloads round-trip as re-serialized JSON (compact form).
  auto reemit = [](const json::Value& val) {
    // The reader keeps numbers as doubles; re-render compactly.
    std::function<void(json::Writer&, const json::Value&)> emit =
        [&emit](json::Writer& w, const json::Value& node) {
          switch (node.kind) {
            case json::Value::Kind::Null: w.null(); break;
            case json::Value::Kind::Bool: w.value(node.boolean); break;
            case json::Value::Kind::Number: w.value(node.num); break;
            case json::Value::Kind::String: w.value(node.str); break;
            case json::Value::Kind::Array:
              w.begin_array();
              for (const auto& it : node.items) emit(w, it);
              w.end_array();
              break;
            case json::Value::Kind::Object:
              w.begin_object();
              for (const auto& [k, m] : node.members) {
                w.key(k);
                emit(w, m);
              }
              w.end_object();
              break;
          }
        };
    json::Writer w(/*pretty=*/false);
    emit(w, val);
    return w.str();
  };
  if (const json::Value* p = v.find("report")) r.report_json = reemit(*p);
  if (const json::Value* p = v.find("verify")) r.verify_json = reemit(*p);
  if (const json::Value* p = v.find("model")) r.model_json = reemit(*p);
  if (const json::Value* p = v.find("tune")) r.tune_json = reemit(*p);
  if (const json::Value* p = v.find("stats")) r.stats_json = reemit(*p);
  if (const json::Value* p = v.find("lint")) r.lint_json = reemit(*p);
  out = std::move(r);
  return true;
}

// ------------------------------------------------------------ frame codec

std::string encode_frame(const std::string& payload) {
  require(payload.size() <= kMaxFrameBytes, "svc", "frame exceeds 64 MiB bound");
  const std::uint32_t n = static_cast<std::uint32_t>(payload.size());
  std::string out;
  out.reserve(4 + payload.size());
  out.push_back(static_cast<char>((n >> 24) & 0xff));
  out.push_back(static_cast<char>((n >> 16) & 0xff));
  out.push_back(static_cast<char>((n >> 8) & 0xff));
  out.push_back(static_cast<char>(n & 0xff));
  out += payload;
  return out;
}

namespace {

/// Read exactly `n` bytes; returns bytes read (short only on EOF/error).
std::size_t read_full(int fd, char* buf, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, buf + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      fail("svc", std::string("read: ") + std::strerror(errno));
    }
    if (r == 0) break;
    got += static_cast<std::size_t>(r);
  }
  return got;
}

}  // namespace

bool read_frame(int fd, std::string& payload) {
  char hdr[4];
  const std::size_t got = read_full(fd, hdr, 4);
  if (got == 0) return false;  // clean EOF between frames
  require(got == 4, "svc", "truncated frame header");
  const std::uint32_t n = (static_cast<std::uint32_t>(static_cast<unsigned char>(hdr[0])) << 24) |
                          (static_cast<std::uint32_t>(static_cast<unsigned char>(hdr[1])) << 16) |
                          (static_cast<std::uint32_t>(static_cast<unsigned char>(hdr[2])) << 8) |
                          static_cast<std::uint32_t>(static_cast<unsigned char>(hdr[3]));
  require(n <= kMaxFrameBytes, "svc", "frame exceeds 64 MiB bound");
  payload.resize(n);
  require(read_full(fd, payload.data(), n) == n, "svc", "truncated frame payload");
  return true;
}

void write_frame(int fd, const std::string& payload) {
  const std::string frame = encode_frame(payload);
  std::size_t sent = 0;
  while (sent < frame.size()) {
    // MSG_NOSIGNAL: a peer that disconnected mid-response must surface as
    // EPIPE, not deliver SIGPIPE and kill the whole process.
    const ssize_t r =
        ::send(fd, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      fail("svc", std::string("write: ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(r);
  }
}

}  // namespace dhpf::svc
