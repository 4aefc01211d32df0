// Pluggable emulation-export backends and their registry.
//
// The mirror image of the ingest adapter registry (ingest/adapter.hpp): one
// EmuExporter per target emulator renders an EmuTimeline into that
// emulator's native artifact(s), and the registry maps backend names to
// exporters so `--backend` works for every registered backend and new
// emulators plug in without touching any caller. Three backends are built
// in:
//   mahimahi  packet-delivery-opportunity traces (.down/.up), the exact
//             inverse of the ingest mahimahi adapter;
//   netem     a tc qdisc/HTB shell script replaying the schedule with
//             timed `tc ... change` commands (ERRANT-style);
//   json      a versioned JSON schedule, doubles at max_digits10.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "export/timeline.hpp"

namespace wheels::emu {

/// One rendered output file: `suffix` is appended to the caller's output
/// base path (e.g. ".down"), `content` is the complete file body.
struct ExportArtifact {
  std::string suffix;
  std::string content;
};

class EmuExporter {
 public:
  virtual ~EmuExporter() = default;

  /// Registry key and `--backend` value, e.g. "mahimahi".
  virtual std::string_view name() const = 0;
  /// One-line description for --list-backends and docs.
  virtual std::string_view description() const = 0;
  /// Render the timeline into this backend's artifacts, inside an
  /// "export.render:<name>" span. Validates the timeline first; throws
  /// std::runtime_error on an unrenderable one.
  std::vector<ExportArtifact> render(const EmuTimeline& timeline) const;

 private:
  /// The backend's rendering of a validated timeline.
  virtual std::vector<ExportArtifact> do_render(
      const EmuTimeline& timeline) const = 0;
};

class ExporterRegistry {
 public:
  /// Register an exporter; throws on a duplicated name.
  void add(std::unique_ptr<EmuExporter> exporter);

  /// nullptr when no exporter has that name.
  const EmuExporter* find(std::string_view name) const;

  /// Exact-name lookup; throws std::runtime_error listing the known
  /// backends on an unknown name.
  const EmuExporter& resolve(std::string_view name) const;

  /// Registration order.
  std::vector<const EmuExporter*> exporters() const;

 private:
  std::vector<std::unique_ptr<EmuExporter>> exporters_;
};

/// The registry with every built-in backend (mahimahi, netem, json).
const ExporterRegistry& builtin_exporter_registry();

std::unique_ptr<EmuExporter> make_mahimahi_exporter();
std::unique_ptr<EmuExporter> make_netem_exporter();
std::unique_ptr<EmuExporter> make_json_exporter();

/// Render `timeline` through `exporter` and write each artifact to
/// `out_base` + suffix. Returns the paths written. Throws on I/O failure.
std::vector<std::string> write_export(const EmuExporter& exporter,
                                      const EmuTimeline& timeline,
                                      const std::string& out_base);

}  // namespace wheels::emu
