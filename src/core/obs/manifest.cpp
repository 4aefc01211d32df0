#include "core/obs/manifest.hpp"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "core/sim_time.hpp"

namespace wheels::core::obs {

std::string library_version() {
#ifdef WHEELS_VERSION
  return WHEELS_VERSION;
#else
  return "0.0.0";
#endif
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

RunManifest make_run_manifest() {
  RunManifest m;
  m.library_version = library_version();
  using namespace std::chrono;
  const auto now_ms =
      duration_cast<milliseconds>(system_clock::now().time_since_epoch())
          .count();
  m.started_utc = format_timestamp(static_cast<UnixMillis>(now_ms), 0);
  return m;
}

void canonicalize_provenance(RunManifest& manifest) {
  manifest.started_utc = kCanonicalStartedUtc;
  manifest.threads = 1;
}

std::string RunManifest::to_json() const {
  char scale_buf[64];
  std::snprintf(scale_buf, sizeof(scale_buf), "%.17g", scale);
  std::string out = "{\n";
  out += "  \"seed\": " + std::to_string(seed) + ",\n";
  out += "  \"scale\": " + std::string(scale_buf) + ",\n";
  out += "  \"config_digest\": \"" + config_digest + "\",\n";
  out += "  \"threads\": " + std::to_string(threads) + ",\n";
  out += "  \"library_version\": \"" + library_version + "\",\n";
  out += "  \"started_utc\": \"" + started_utc + "\"\n";
  out += "}";
  return out;
}

void write_manifest(const RunManifest& manifest, const std::string& path) {
  std::ofstream os{path};
  if (!os) throw std::runtime_error{"manifest: cannot open " + path};
  os << manifest.to_json() << '\n';
  os.close();
  if (!os) throw std::runtime_error{"manifest: cannot write " + path};
}

namespace {

// to_json() emits a fixed flat schema, so the inverse is a keyed scan, not a
// general JSON parser. Values never contain escaped quotes or commas.
std::string_view raw_value(std::string_view json, const char* key) {
  const std::string needle = std::string{"\""} + key + "\":";
  const auto pos = json.find(needle);
  if (pos == std::string_view::npos) {
    throw std::runtime_error{std::string{"manifest: missing key \""} + key +
                             "\""};
  }
  std::size_t start = pos + needle.size();
  while (start < json.size() && json[start] == ' ') ++start;
  std::size_t end = start;
  while (end < json.size() && json[end] != ',' && json[end] != '\n' &&
         json[end] != '}') {
    ++end;
  }
  if (start == end) {
    throw std::runtime_error{std::string{"manifest: empty value for \""} +
                             key + "\""};
  }
  return json.substr(start, end - start);
}

std::string string_value(std::string_view json, const char* key) {
  const std::string_view raw = raw_value(json, key);
  if (raw.size() < 2 || raw.front() != '"' || raw.back() != '"') {
    throw std::runtime_error{std::string{"manifest: key \""} + key +
                             "\" is not a string"};
  }
  return std::string{raw.substr(1, raw.size() - 2)};
}

template <typename Convert>
auto number_value(std::string_view json, const char* key, Convert convert) {
  const std::string text{raw_value(json, key)};
  errno = 0;
  char* end = nullptr;
  const auto v = convert(text.c_str(), &end);
  if (end != text.c_str() + text.size() || errno == ERANGE) {
    throw std::runtime_error{std::string{"manifest: malformed value for \""} +
                             key + "\": '" + text + "'"};
  }
  return v;
}

}  // namespace

RunManifest parse_manifest(std::string_view json) {
  RunManifest m;
  m.seed = number_value(
      json, "seed", [](const char* s, char** e) { return std::strtoull(s, e, 10); });
  m.scale = number_value(
      json, "scale", [](const char* s, char** e) { return std::strtod(s, e); });
  m.config_digest = string_value(json, "config_digest");
  m.threads = static_cast<int>(number_value(
      json, "threads", [](const char* s, char** e) { return std::strtol(s, e, 10); }));
  m.library_version = string_value(json, "library_version");
  m.started_utc = string_value(json, "started_utc");
  return m;
}

RunManifest read_manifest(const std::string& path) {
  std::ifstream is{path};
  if (!is) throw std::runtime_error{"manifest: cannot open " + path};
  std::string json{std::istreambuf_iterator<char>{is},
                   std::istreambuf_iterator<char>{}};
  return parse_manifest(json);
}

}  // namespace wheels::core::obs
