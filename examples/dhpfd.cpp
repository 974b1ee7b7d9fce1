// dhpfd — the dHPF compile daemon.
//
// Listens on a Unix-domain socket for length-prefixed JSON compile/verify/
// model/tune/stats requests (docs/compile-service.md), executes them on a
// work-stealing worker pool with a content-hash result cache, and drains
// gracefully on SIGTERM/SIGINT. `dhpfc --server=SOCK file.hpf` is the
// matching client; `dhpfc --serve=SOCK` runs this same loop with the full
// dhpfc flag surface.
//
// Exit codes: 0 clean shutdown, 1 startup/runtime error, 2 usage error.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cli/cli.hpp"
#include "svc/server.hpp"

namespace {

const char kUsage[] =
    "usage: dhpfd --socket=PATH [--workers=N] [--cache=N] [--quiet]\n"
    "  --socket=PATH  Unix-domain socket to listen on (required)\n"
    "  --workers=N    worker threads (default 0 = hardware concurrency)\n"
    "  --cache=N      result-cache capacity in entries (default 1024; 0 disables)\n"
    "  --quiet        no listening/drain/stats lines on stderr\n";

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  int workers = 0;
  int cache = 1024;
  bool quiet = false;

  const std::vector<std::string> args(argv + 1, argv + argc);
  for (const std::string& arg : args) {
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    bool ok = true;
    if (name == "--socket") {
      socket_path = value;
      ok = !value.empty();
    } else if (name == "--workers") {
      ok = dhpf::cli::parse_int(value, 0, 256, workers);
    } else if (name == "--cache") {
      ok = dhpf::cli::parse_int(value, 0, 1 << 20, cache);
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help") {
      std::fputs(kUsage, stdout);
      return 0;
    } else {
      std::fprintf(stderr, "dhpfd: unknown option: %s\n%s", arg.c_str(), kUsage);
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr, "dhpfd: bad value: %s\n%s", arg.c_str(), kUsage);
      return 2;
    }
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "dhpfd: --socket=PATH is required\n%s", kUsage);
    return 2;
  }

  dhpf::svc::ServerOptions opt;
  opt.socket_path = socket_path;
  opt.service.workers = workers;
  opt.service.cache_entries = static_cast<std::size_t>(cache);
  opt.service.enable_cache = cache > 0;
  return dhpf::svc::run_daemon(opt, quiet);
}
