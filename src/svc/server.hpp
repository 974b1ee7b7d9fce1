// dhpf::svc socket transport: the dhpfd daemon's listener and the client.
//
// Transport: SOCK_STREAM over a Unix-domain socket. Each connection carries
// a sequence of length-prefixed JSON request frames (request.hpp); the
// server answers with response frames *as requests complete* — a cache hit
// is answered while later requests are still being read, a fill when its
// worker finishes — so responses to one connection may arrive out of
// request order, and clients correlate by the echoed request id. A frame
// that fails to decode gets a BadRequest response with id 0 (the id, if
// any, was part of what failed to decode).
//
// Threads per connection: a reader decodes frames and submits them to the
// Service (answering hits itself, inside submit), and a writer drains the
// connection's queue of encoded responses onto the socket. Workers and the
// reader only queue; the writer alone writes, so a client that is slow to
// read blocks its own writer and nothing else. Back-pressure: once a
// connection holds kMaxFrameBytes (64 MiB) of unwritten responses, its
// reader stops reading until the writer drains below that. A client must
// therefore start reading before it has more unread responses than that
// cap outstanding, or it deadlocks against itself (Client::batch writes a
// whole batch first, so a batch's responses must fit under the cap).
//
// Shutdown: stop() (or SIGTERM in dhpfd) drains gracefully — the service
// stops accepting (new requests answer ErrorCode::Shutdown), queued
// requests finish and their responses flush, then connections and the
// listener close. The socket file is unlinked on stop. Once the queued work
// is done, writers get kDrainGrace to flush; a connection whose client has
// still not read everything by then is shut down and its remaining
// responses dropped, so a client that stopped reading without closing
// cannot keep the daemon from exiting.
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "svc/request.hpp"
#include "svc/service.hpp"

namespace dhpf::svc {

/// How long stop() waits, after the last queued request has finished, for
/// clients to read their responses before it shuts their connections down.
inline constexpr std::chrono::seconds kDrainGrace{3};

struct ServerOptions {
  std::string socket_path;
  ServiceOptions service;
};

class Server {
 public:
  /// Bind + listen + start the accept thread. Throws dhpf::Error("svc")
  /// if the path is unusable (too long, bind failed).
  explicit Server(const ServerOptions& opt);
  ~Server();  ///< calls stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Graceful drain: reject new work, finish queued work, flush responses
  /// (for at most kDrainGrace), close every connection, join threads,
  /// unlink the socket. Idempotent.
  void stop();

  [[nodiscard]] const std::string& socket_path() const;
  [[nodiscard]] Service& service();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Blocking client for the daemon's socket. Each Client owns one
/// connection; it is not thread-safe (one request/batch at a time).
class Client {
 public:
  /// Connect to a dhpfd socket. Throws dhpf::Error("svc") on failure.
  explicit Client(const std::string& socket_path);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Send one request and wait for its response.
  Response roundtrip(const Request& req);

  /// Send every request, then collect every response; returned in request
  /// order (correlated by id — the batch's ids must be distinct, and any
  /// BadRequest id-0 response is matched to the first unanswered request).
  std::vector<Response> batch(std::vector<Request> reqs);

 private:
  int fd_ = -1;
};

/// The dhpfd main loop: block SIGINT/SIGTERM, run a Server on
/// `opt.socket_path`, wait for a signal, drain gracefully, and (unless
/// `quiet`) print the final service stats document to stderr. Returns the
/// process exit code. Call before spawning any other thread — the signal
/// mask must be in place first so every later thread inherits it.
int run_daemon(const ServerOptions& opt, bool quiet);

}  // namespace dhpf::svc
