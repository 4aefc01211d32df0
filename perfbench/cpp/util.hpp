// Shared helpers of wheels_perf: clocks, process resource usage,
// a flat JSON writer, and the command-line/argument plumbing.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// getrusage(RUSAGE_SELF): user+sys CPU of every thread of the process, and
/// the process's peak resident set so far.
struct Usage {
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
};
Usage process_usage();

/// One flat JSON object, keys in insertion order. Doubles print with all
/// 17 significant digits.
class JsonObject {
 public:
  JsonObject& num(std::string_view key, double value);
  JsonObject& integer(std::string_view key, std::int64_t value);
  JsonObject& str(std::string_view key, std::string_view value);
  JsonObject& raw(std::string_view key, std::string_view json);
  std::string render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string json_quote(std::string_view text);
/// All 17 significant digits.
std::string json_number(double value);

/// `--key value` pairs after the subcommand. Throws on a dangling key.
std::map<std::string, std::string> parse_flags(int argc, char** argv,
                                               int first);

/// Required flag; throws std::runtime_error naming it when absent.
const std::string& flag(const std::map<std::string, std::string>& flags,
                        const std::string& key);

std::uint64_t parse_u64(const std::string& text);

/// splitmix64 — derives the independent per-item seeds of generated inputs.
std::uint64_t mix64(std::uint64_t x);

/// Median of `values` (which it sorts); 0 for an empty list.
double median(std::vector<double> values);

/// Whole-file read; throws when the file cannot be opened.
std::string read_file(const std::string& path);
void write_file(const std::string& path, std::string_view content);

/// Total size of the regular files directly in `dir`, in bytes.
std::uint64_t directory_bytes(const std::string& dir);

}  // namespace perfbench
