// wheelsctl — command-line client for a running wheelsd.
//
//   wheelsctl [--socket PATH] submit KIND [key=value ...] [--wait] [--out DIR]
//   wheelsctl [--socket PATH] status ID
//   wheelsctl [--socket PATH] wait ID [--out DIR]
//   wheelsctl [--socket PATH] result ID [--out DIR]
//   wheelsctl [--socket PATH] cancel ID
//   wheelsctl [--socket PATH] stats
//   wheelsctl [--socket PATH] shutdown
//
// KIND is campaign | replay | fleet | synth; key=value arguments mirror the
// protocol's job keys ("seed=7", "scale=0.05", "bundle=dir", "cc=bbr",
// "grid=cc=cubic,bbr", ...). Job lines print machine-greppable fields —
// "job 3 state=done cache_hit=1 digest=..." — which the CI smoke job diffs.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/obs/metrics.hpp"
#include "service/client.hpp"

namespace {

using namespace wheels::service;

void print_status(const JobStatus& s) {
  std::printf("job %llu state=%s stage=%s cache_hit=%d",
              static_cast<unsigned long long>(s.id),
              std::string{job_state_name(s.state)}.c_str(), s.stage.c_str(),
              s.cache_hit ? 1 : 0);
  if (s.result) {
    std::printf(" digest=%s bytes=%llu", s.result->content_digest.c_str(),
                static_cast<unsigned long long>(s.result->bytes));
  }
  if (!s.error.empty()) std::printf(" error=%s", s.error.c_str());
  std::printf("\n");
}

void print_result(std::uint64_t id, bool cache_hit, const ResultInfo& r) {
  std::printf("job %llu cache_hit=%d digest=%s bytes=%llu path=%s\n",
              static_cast<unsigned long long>(id), cache_hit ? 1 : 0,
              r.content_digest.c_str(),
              static_cast<unsigned long long>(r.bytes), r.path.c_str());
}

std::uint64_t parse_id(const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') {
    std::fprintf(stderr, "wheelsctl: expected a job id, got \"%s\"\n", text);
    std::exit(2);
  }
  return v;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: wheelsctl [--socket PATH] <command>\n"
      "  submit KIND [key=value ...] [--wait] [--out DIR]\n"
      "  status ID | wait ID [--out DIR] | result ID [--out DIR]\n"
      "  cancel ID | stats | shutdown\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  wheels::core::obs::flush_at_exit();
  std::string socket_path = "wheelsd.sock";
  if (const char* env = std::getenv("WHEELS_SERVICE_SOCKET");
      env && *env) {
    socket_path = env;
  }
  int i = 1;
  if (i + 1 < argc && std::strcmp(argv[i], "--socket") == 0) {
    socket_path = argv[i + 1];
    i += 2;
  }
  if (i >= argc) return usage();
  const std::string command = argv[i++];

  try {
    Client client{socket_path};
    if (command == "submit") {
      if (i >= argc) return usage();
      JobSpec spec;
      const auto kind = parse_job_kind(argv[i]);
      if (!kind) {
        std::fprintf(stderr, "wheelsctl: unknown job kind \"%s\"\n", argv[i]);
        return 2;
      }
      spec.kind = *kind;
      ++i;
      bool wait = false;
      std::string out_dir;
      for (; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--wait") {
          wait = true;
        } else if (arg == "--out") {
          if (i + 1 >= argc) return usage();
          out_dir = argv[++i];
          wait = true;
        } else {
          apply_job_arg(spec, arg);
        }
      }
      JobStatus status = client.submit(spec);
      if (wait && !is_terminal(status.state)) {
        status = client.wait(status.id);
      }
      print_status(status);
      if (!out_dir.empty() && status.state == JobState::Done) {
        client.fetch(status.id, out_dir);
        std::printf("fetched %s\n", out_dir.c_str());
      }
      return status.state == JobState::Done || !wait ? 0 : 1;
    }
    if (command == "status" || command == "wait" || command == "cancel") {
      if (i >= argc) return usage();
      const std::uint64_t id = parse_id(argv[i++]);
      JobStatus status = command == "status" ? client.status(id)
                         : command == "wait" ? client.wait(id)
                                             : client.cancel(id);
      print_status(status);
      if (command == "wait" && i + 1 < argc &&
          std::strcmp(argv[i], "--out") == 0 &&
          status.state == JobState::Done) {
        client.fetch(id, argv[i + 1]);
        std::printf("fetched %s\n", argv[i + 1]);
      }
      return 0;
    }
    if (command == "result") {
      if (i >= argc) return usage();
      const std::uint64_t id = parse_id(argv[i++]);
      bool cache_hit = false;
      const ResultInfo info = client.result(id, &cache_hit);
      print_result(id, cache_hit, info);
      if (i + 1 < argc && std::strcmp(argv[i], "--out") == 0) {
        client.fetch(id, argv[i + 1]);
        std::printf("fetched %s\n", argv[i + 1]);
      }
      return 0;
    }
    if (command == "stats") {
      const StatsInfo stats = client.stats();
      for (const auto& [state, count] : stats.jobs_by_state) {
        std::printf("jobs.%s=%llu\n", state.c_str(),
                    static_cast<unsigned long long>(count));
      }
      std::printf("cache.entries=%llu\ncache.bytes=%llu\n",
                  static_cast<unsigned long long>(stats.cache_entries),
                  static_cast<unsigned long long>(stats.cache_bytes));
      for (const auto& [name, value] : stats.counters) {
        std::printf("%s=%llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
      }
      for (const std::string& warning : stats.cache_warnings) {
        std::printf("warning: %s\n", warning.c_str());
      }
      return 0;
    }
    if (command == "shutdown") {
      client.shutdown_server();
      std::printf("shutdown requested\n");
      return 0;
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wheelsctl: %s\n", e.what());
    return 1;
  }
}
