#include "core/obs/manifest.hpp"

#include <chrono>
#include <climits>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "core/json.hpp"
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

RunManifest parse_manifest(std::string_view text) {
  const json::Doc doc{"manifest"};
  const json::Value root = doc.parse(text);
  doc.as(root, json::Value::Kind::Object, "a manifest object");
  RunManifest m;
  m.seed = doc.u64(doc.get(root, "seed"), "seed");
  m.scale = doc.num(root, "scale");
  m.config_digest = doc.str(root, "config_digest");
  const json::Value& threads = doc.get(root, "threads");
  const std::uint64_t n = doc.u64(threads, "threads");
  if (n > INT_MAX) {
    doc.fail(threads.line,
             "\"threads\" must be at most " + std::to_string(INT_MAX));
  }
  m.threads = static_cast<int>(n);
  m.library_version = doc.str(root, "library_version");
  m.started_utc = doc.str(root, "started_utc");
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
