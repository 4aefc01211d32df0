// RunManifest: provenance of one dataset bundle.
//
// The paper's release ships a ConsolidatedDb-equivalent dataset; a run
// manifest written alongside it (manifest.json) records *how* the data was
// produced — seed, config digest, resolved thread count, library version,
// UTC start time — so a released bundle can be re-generated bit-exactly.
// campaign::make_manifest fills the campaign-specific fields;
// measure::write_dataset writes the file with every bundle.
//
// Schema (all keys always present):
//   {"seed": u64, "scale": double, "config_digest": "16-hex-fnv1a64",
//    "threads": int, "library_version": "x.y.z",
//    "started_utc": "YYYY-MM-DD HH:MM:SS.mmm"}
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace wheels::core::obs {

struct RunManifest {
  std::uint64_t seed = 0;
  double scale = 0.0;
  /// FNV-1a 64 digest (hex64()) of the producer's canonical config string —
  /// two bundles with equal digest + seed came from identical configs.
  std::string config_digest;
  /// Resolved worker-thread count (informational; never affects the data).
  int threads = 0;
  std::string library_version;
  /// Wall-clock UTC start, "YYYY-MM-DD HH:MM:SS.mmm".
  std::string started_utc;

  std::string to_json() const;
};

/// The wheels library version (CMake project version).
std::string library_version();

/// FNV-1a 64-bit over `bytes` — the config-digest hash.
std::uint64_t fnv1a64(std::string_view bytes);

/// Lower-case 16-hex-digit rendering.
std::string hex64(std::uint64_t v);

/// A manifest with library_version and started_utc (now, wall clock) filled;
/// the producer fills the rest.
RunManifest make_run_manifest();

/// The pinned started_utc of a canonical-provenance bundle (the Unix epoch).
inline constexpr const char* kCanonicalStartedUtc = "1970-01-01 00:00:00.000";

/// Pin the two provenance fields that vary between byte-identical runs —
/// started_utc (wall clock) and threads (machine-dependent resolution) — to
/// fixed values (kCanonicalStartedUtc, 1). The wheelsd result cache writes
/// every bundle through this, so an identical (config, seed, input) request
/// reproduces the cached bundle byte for byte.
void canonicalize_provenance(RunManifest& manifest);

/// Write `manifest.to_json()` to `path`. Throws std::runtime_error when the
/// file cannot be opened or written.
void write_manifest(const RunManifest& manifest, const std::string& path);

/// Inverse of to_json() for the fixed schema above, read by core::json.
/// Throws std::runtime_error "manifest: line N: ..." naming the first
/// missing or malformed key.
RunManifest parse_manifest(std::string_view json);

/// Read and parse `path`. Throws std::runtime_error when the file cannot be
/// opened or fails to parse.
RunManifest read_manifest(const std::string& path);

}  // namespace wheels::core::obs
