#include "export/roundtrip.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/obs/trace_export.hpp"
#include "export/exporter.hpp"
#include "ingest/adapter.hpp"

namespace wheels::emu {

RoundTripReport verify_mahimahi_roundtrip(const EmuTimeline& timeline) {
  const core::obs::ScopedSpan span{"export.verify", "export"};
  const std::unique_ptr<EmuExporter> exporter = make_mahimahi_exporter();
  const std::vector<ExportArtifact> artifacts = exporter->render(timeline);
  const ExportArtifact* down = nullptr;
  for (const ExportArtifact& a : artifacts) {
    if (a.suffix == ".down") down = &a;
  }
  if (down == nullptr) {
    throw std::runtime_error{"export: mahimahi backend emitted no .down"};
  }

  RoundTripReport report;
  report.ticks_checked = timeline.ticks.size();
  report.bound_mbps = 1500.0 * 8.0 /
                      (static_cast<double>(timeline.tick_ms) * 1e-3) / 1e6;

  std::vector<double> got(timeline.ticks.size(), 0.0);
  if (!down->content.empty()) {
    const ingest::TraceAdapter* adapter =
        ingest::builtin_registry().find("mahimahi");
    if (adapter == nullptr) {
      throw std::runtime_error{"export: no mahimahi ingest adapter"};
    }
    ingest::IngestOptions options;
    options.resample.tick_ms = timeline.tick_ms;
    std::istringstream is{down->content};
    const ingest::CanonicalTrace trace = adapter->parse(is, options);
    for (const replay::TraceSample& p : trace.points) {
      const std::size_t i = static_cast<std::size_t>(p.t / timeline.tick_ms);
      if (i < got.size()) got[i] = p.cap_dl;
    }
  }
  for (std::size_t i = 0; i < timeline.ticks.size(); ++i) {
    report.max_error_mbps =
        std::max(report.max_error_mbps,
                 std::fabs(got[i] - timeline.ticks[i].cap_dl));
  }
  return report;
}

}  // namespace wheels::emu
