// Bundle ingestion: reassemble a ConsolidatedDb from a dataset directory.
//
// The inverse of measure::write_dataset. Every table the writer emits is
// read back by measure::read_dataset_tables, which walks the writer's own
// file list through the strict measure readers, the manifest is parsed, and
// the assembled database passes measure::validate_or_throw before anything
// replays over it — a hand-edited or third-party bundle fails loudly, with
// the offending file and line.
#pragma once

#include <string>
#include <string_view>

#include "core/obs/manifest.hpp"
#include "measure/records.hpp"

namespace wheels::replay {

struct ReplayBundle {
  measure::ConsolidatedDb db;
  core::obs::RunManifest manifest;
};

/// Read the bundle at `directory` (the file set write_dataset produces).
/// Throws std::runtime_error — prefixed with the offending file — on a
/// missing file, malformed content, or a database that fails validation.
/// When `expected_config_digest` is non-empty it is checked against the
/// manifest's recorded digest, so a caller can verify the bundle was
/// produced by the configuration it is about to compare against.
ReplayBundle read_dataset(const std::string& directory,
                          std::string_view expected_config_digest = {});

}  // namespace wheels::replay
