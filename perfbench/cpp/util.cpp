#include "util.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace fs = std::filesystem;

Usage process_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  Usage u;
  u.cpu_s = secs(ru.ru_utime) + secs(ru.ru_stime);
  u.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
  return u;
}

std::string json_quote(std::string_view text) {
  std::string out = "\"";
  for (const char ch : text) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
  return out;
}

std::string json_number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

JsonObject& JsonObject::num(std::string_view key, double value) {
  fields_.emplace_back(std::string{key}, json_number(value));
  return *this;
}

JsonObject& JsonObject::integer(std::string_view key, std::int64_t value) {
  fields_.emplace_back(std::string{key}, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::str(std::string_view key, std::string_view value) {
  fields_.emplace_back(std::string{key}, json_quote(value));
  return *this;
}

JsonObject& JsonObject::raw(std::string_view key, std::string_view json) {
  fields_.emplace_back(std::string{key}, std::string{json});
  return *this;
}

std::string JsonObject::render() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_quote(fields_[i].first);
    out += ": ";
    out += fields_[i].second;
  }
  out += "}";
  return out;
}

std::map<std::string, std::string> parse_flags(int argc, char** argv,
                                               int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::runtime_error{"expected --key value, got '" + key + "'"};
    }
    flags[key.substr(2)] = argv[i + 1];
  }
  return flags;
}

const std::string& flag(const std::map<std::string, std::string>& flags,
                        const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) {
    throw std::runtime_error{"missing --" + key};
  }
  return it->second;
}

std::uint64_t parse_u64(const std::string& text) {
  std::size_t used = 0;
  const unsigned long long v = std::stoull(text, &used);
  if (used != text.size()) {
    throw std::runtime_error{"not an unsigned integer: '" + text + "'"};
  }
  return v;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error{"cannot open " + path};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, std::string_view content) {
  std::ofstream out{path, std::ios::binary};
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  if (!out) throw std::runtime_error{"cannot write " + path};
}

std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const fs::directory_entry& e : fs::directory_iterator{dir}) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

}  // namespace perfbench
