// wheelsd — the persistent simulation daemon.
//
// Listens on a local AF_UNIX socket for newline-delimited JSON job requests
// (campaign / replay / fleet / synth), schedules them on the shared thread
// pool, and fronts everything with a digest-keyed result cache that
// survives restarts: resubmitting an identical job returns the cached
// bundle byte for byte without recomputing. Drive it with wheelsctl.
//
//   wheelsd [--socket PATH] [--cache DIR] [--queue N]
//           [--max-cache-bytes N] [--threads N]
//
// Flags override the WHEELS_SERVICE_* environment knobs (service/config.hpp).
// SIGINT/SIGTERM, or a client's shutdown op, stop the daemon cleanly.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/obs/metrics.hpp"
#include "service/config.hpp"
#include "service/server.hpp"

namespace {

volatile std::sig_atomic_t g_signal = 0;

void handle_signal(int) { g_signal = 1; }

long long parse_ll(const char* flag, const char* text) {
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0') {
    std::fprintf(stderr, "wheelsd: %s expects an integer, got \"%s\"\n", flag,
                 text);
    std::exit(2);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wheels::service;
  wheels::core::obs::flush_at_exit();
  ServiceConfig config = service_config_from_env();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "wheelsd: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--socket") {
      config.socket_path = next("--socket");
    } else if (arg == "--cache") {
      config.cache_dir = next("--cache");
    } else if (arg == "--queue") {
      config.queue_depth = static_cast<int>(parse_ll("--queue",
                                                     next("--queue")));
    } else if (arg == "--max-cache-bytes") {
      config.cache_max_bytes = static_cast<std::uint64_t>(
          parse_ll("--max-cache-bytes", next("--max-cache-bytes")));
    } else if (arg == "--threads") {
      config.threads =
          static_cast<int>(parse_ll("--threads", next("--threads")));
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: wheelsd [--socket PATH] [--cache DIR] [--queue N]\n"
          "               [--max-cache-bytes N] [--threads N]\n");
      return 0;
    } else {
      std::fprintf(stderr, "wheelsd: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (config.queue_depth < 1) {
    std::fprintf(stderr, "wheelsd: --queue must be >= 1\n");
    return 2;
  }

  Server server{ServerOptions{config}};
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::printf("wheelsd: listening on %s (cache %s)\n",
              config.socket_path.c_str(), config.cache_dir.c_str());
  std::fflush(stdout);
  while (!g_signal && !server.wait_for_shutdown_for(100)) {
  }
  server.stop();
  std::printf("wheelsd: stopped\n");
  return 0;
}
