#include "svc/server.hpp"

#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>

#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "support/diagnostics.hpp"
#include "trace/trace.hpp"

namespace dhpf::svc {

namespace {

int make_listener(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  require(path.size() < sizeof(addr.sun_path), "svc",
          "socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  require(fd >= 0, "svc", std::string("socket(): ") + std::strerror(errno));
  ::unlink(path.c_str());  // stale socket from a previous run
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    fail("svc", "bind(" + path + "): " + std::strerror(err));
  }
  if (::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(path.c_str());
    fail("svc", std::string("listen(): ") + std::strerror(err));
  }
  return fd;
}

/// Unwritten response bytes one connection may hold before its reader
/// stops reading requests: the bound on what a client that never reads
/// costs the daemon (plus the answers to requests already read).
constexpr std::size_t kMaxUnwrittenBytes = kMaxFrameBytes;

/// One connection's responses on their way out. Whichever thread answers a
/// request queues the encoded response here (answer); the connection's
/// writer thread is the only one that writes to the socket.
struct Outbox {
  std::mutex mu;
  std::condition_variable cv;  ///< signalled on every queue and dequeue
  std::deque<std::string> payloads;
  std::size_t bytes = 0;    ///< payload bytes queued or being written
  std::size_t pending = 0;  ///< requests read, response not yet queued
  bool closing = false;     ///< the reader has stopped: no more requests

  void expect_answer() {
    std::lock_guard<std::mutex> lock(mu);
    ++pending;
  }

  void answer(std::string payload) {
    std::lock_guard<std::mutex> lock(mu);
    bytes += payload.size();
    payloads.push_back(std::move(payload));
    --pending;
    cv.notify_all();
  }

  /// Write queued payloads in order until the reader has stopped and every
  /// request's response is out. After a failed write (the peer
  /// went away) the rest is dropped, still in order, so the reader's
  /// back-pressure wait always ends.
  void write_loop(int fd) {
    bool broken = false;
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      cv.wait(lock, [&] { return !payloads.empty() || (closing && pending == 0); });
      if (payloads.empty()) return;
      std::string payload = std::move(payloads.front());
      payloads.pop_front();
      lock.unlock();
      if (!broken) {
        try {
          write_frame(fd, payload);
        } catch (const dhpf::Error&) {
          broken = true;
        }
      }
      lock.lock();
      bytes -= payload.size();
      cv.notify_all();
    }
  }
};

}  // namespace

struct Server::Impl {
  explicit Impl(const ServerOptions& opt)
      : path(opt.socket_path), service(opt.service) {}

  std::string path;
  Service service;
  int listen_fd = -1;
  std::thread accept_thread;

  std::mutex mu;                      ///< guards conns (fds + done flags), stopped and accepted
  std::condition_variable conn_done;  ///< signalled when a serve thread retires
  struct Conn {
    int fd = -1;      ///< -1 once the serve thread has closed it
    bool done = false; ///< serve thread finished (fd closed); safe to join
    std::thread thread;
  };
  // std::list: serve threads hold references to their own entry, so node
  // addresses must survive insertion and reaping of other entries.
  std::list<Conn> conns;
  bool stopped = false;
  std::uint64_t accepted = 0;  ///< connections so far; names trace rings

  void accept_loop();
  void serve_connection(Conn& conn, std::uint64_t index);
};

void Server::Impl::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed: shutting down
    }
    std::lock_guard<std::mutex> lock(mu);
    if (stopped) {
      ::close(fd);
      return;
    }
    // Reap finished connections here so the list stays bounded by the
    // number of *live* connections over the daemon's lifetime.
    for (auto it = conns.begin(); it != conns.end();) {
      if (it->done) {
        if (it->thread.joinable()) it->thread.join();
        it = conns.erase(it);
      } else {
        ++it;
      }
    }
    conns.emplace_back();
    Conn& conn = conns.back();
    conn.fd = fd;
    conn.thread =
        std::thread([this, &conn, index = accepted++] { serve_connection(conn, index); });
  }
}

/// The connection's reader: decode each request frame and submit it. Cache
/// hits are answered on this thread (inside submit), fills on workers; every
/// answer goes to the connection's Outbox, which a writer thread drains.
void Server::Impl::serve_connection(Conn& conn, std::uint64_t index) {
  const int fd = conn.fd;
  trace::Recorder& rec = trace::Recorder::global();
  if (rec.enabled()) rec.set_thread_label("svc-conn" + std::to_string(index));
  auto out = std::make_shared<Outbox>();
  std::thread writer([fd, out] { out->write_loop(fd); });

  std::string payload;
  for (;;) {
    {
      // Back-pressure: past the cap, read nothing until the writer drains,
      // so a client that never reads stalls only its own connection.
      std::unique_lock<std::mutex> lock(out->mu);
      out->cv.wait(lock, [&] { return out->bytes < kMaxUnwrittenBytes; });
    }
    bool got = false;
    try {
      got = read_frame(fd, payload);
    } catch (const dhpf::Error&) {
      break;  // truncated/oversized frame: drop the connection
    }
    if (!got) break;  // clean EOF

    out->expect_answer();
    Request req;
    std::string error;
    if (!Request::from_json(payload, req, &error)) {
      Response resp;
      resp.ok = false;
      resp.code = ErrorCode::BadRequest;
      resp.error = error;
      out->answer(resp.to_json());
      continue;
    }
    service.submit(std::move(req), [out](Response resp) { out->answer(resp.to_json()); });
  }

  // Flush: the writer exits once every accepted request's response is
  // written (or dropped on a broken pipe).
  {
    std::lock_guard<std::mutex> lock(out->mu);
    out->closing = true;
    out->cv.notify_all();
  }
  writer.join();
  // Close and retire the entry under impl->mu: once fd is -1, stop() knows
  // the descriptor is gone and will not shutdown() a recycled fd number.
  std::lock_guard<std::mutex> lock(mu);
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
  conn.fd = -1;
  conn.done = true;
  conn_done.notify_all();
}

Server::Server(const ServerOptions& opt) : impl_(std::make_unique<Impl>(opt)) {
  impl_->listen_fd = make_listener(impl_->path);
  impl_->accept_thread = std::thread([this] { impl_->accept_loop(); });
}

Server::~Server() { stop(); }

void Server::stop() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (impl_->stopped) return;
    impl_->stopped = true;
  }
  // 1. Stop accepting: new requests (on still-open connections) answer
  //    Shutdown; the closed listener ends the accept thread.
  impl_->service.begin_drain();
  if (impl_->listen_fd >= 0) {
    ::shutdown(impl_->listen_fd, SHUT_RDWR);
    ::close(impl_->listen_fd);
  }
  if (impl_->accept_thread.joinable()) impl_->accept_thread.join();
  // Written only after the join: the accept loop reads listen_fd unlocked.
  impl_->listen_fd = -1;
  // 2. Unblock connection readers. A finished serve thread has already set
  //    its fd to -1 under mu, so a descriptor number the kernel recycled is
  //    never shut down here (nor in step 4).
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    for (Impl::Conn& c : impl_->conns)
      if (!c.done && c.fd >= 0) ::shutdown(c.fd, SHUT_RD);
  }
  // 3. Finish the work in flight: every request read has its response
  //    queued on its connection after this.
  impl_->service.drain();
  // 4. Let the writers flush for kDrainGrace. A connection still open after
  //    that belongs to a client that is not reading: shutting it down fails
  //    its writer's blocked write, and the writer drops the rest.
  {
    std::unique_lock<std::mutex> lock(impl_->mu);
    const auto all_done = [&] {
      for (const Impl::Conn& c : impl_->conns)
        if (!c.done) return false;
      return true;
    };
    if (!impl_->conn_done.wait_for(lock, kDrainGrace, all_done))
      for (Impl::Conn& c : impl_->conns)
        if (!c.done && c.fd >= 0) ::shutdown(c.fd, SHUT_RDWR);
  }
  // Join without holding mu (serve threads take it to retire their entry).
  // The accept thread is gone and serve threads never add or remove list
  // nodes, so iterating unlocked is safe.
  for (Impl::Conn& c : impl_->conns)
    if (c.thread.joinable()) c.thread.join();
  impl_->conns.clear();
  ::unlink(impl_->path.c_str());
}

const std::string& Server::socket_path() const { return impl_->path; }

Service& Server::service() { return impl_->service; }

Client::Client(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  require(socket_path.size() < sizeof(addr.sun_path), "svc",
          "socket path too long: " + socket_path);
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  require(fd_ >= 0, "svc", std::string("socket(): ") + std::strerror(errno));
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    fail("svc", "connect(" + socket_path + "): " + std::strerror(err));
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Response Client::roundtrip(const Request& req) {
  write_frame(fd_, req.to_json());
  std::string payload;
  require(read_frame(fd_, payload), "svc", "server closed the connection");
  Response resp;
  std::string error;
  require(Response::from_json(payload, resp, &error), "svc",
          "malformed response: " + error);
  return resp;
}

std::vector<Response> Client::batch(std::vector<Request> reqs) {
  for (const Request& r : reqs) write_frame(fd_, r.to_json());
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < reqs.size(); ++i) by_id.emplace(reqs[i].id, i);
  require(by_id.size() == reqs.size(), "svc", "batch request ids must be distinct");

  std::vector<Response> out(reqs.size());
  std::vector<bool> answered(reqs.size(), false);
  for (std::size_t n = 0; n < reqs.size(); ++n) {
    std::string payload;
    require(read_frame(fd_, payload), "svc",
            "server closed the connection mid-batch");
    Response resp;
    std::string error;
    require(Response::from_json(payload, resp, &error), "svc",
            "malformed response: " + error);
    auto it = by_id.find(resp.id);
    std::size_t slot;
    if (it != by_id.end() && !answered[it->second]) {
      slot = it->second;
    } else {
      // Undecodable request frames echo id 0: attribute to the first
      // request still waiting.
      slot = 0;
      while (slot < answered.size() && answered[slot]) ++slot;
      require(slot < answered.size(), "svc", "more responses than requests");
    }
    answered[slot] = true;
    out[slot] = std::move(resp);
  }
  return out;
}

int run_daemon(const ServerOptions& opt, bool quiet) {
  // A client that disconnects mid-response must not take down the daemon
  // (write_frame also passes MSG_NOSIGNAL; this covers any other fd write).
  ::signal(SIGPIPE, SIG_IGN);
  // Block the shutdown signals *before* the server spawns its threads, so
  // every thread inherits the mask and sigwait below is the sole receiver.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGINT);
  sigaddset(&mask, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &mask, nullptr);

  try {
    Server server(opt);
    if (!quiet)
      std::fprintf(stderr, "dhpfd: listening on %s (%d worker%s)\n",
                   server.socket_path().c_str(), server.service().workers(),
                   server.service().workers() == 1 ? "" : "s");
    int sig = 0;
    sigwait(&mask, &sig);
    if (!quiet)
      std::fprintf(stderr, "dhpfd: caught %s, draining\n",
                   sig == SIGTERM ? "SIGTERM" : "SIGINT");
    server.stop();
    if (!quiet)
      std::fprintf(stderr, "dhpfd: %s\n", server.service().stats_json().c_str());
  } catch (const dhpf::Error& e) {
    std::fprintf(stderr, "dhpfd: %s\n", e.what());
    return 1;
  }
  return 0;
}

}  // namespace dhpf::svc
