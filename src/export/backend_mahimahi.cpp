// Mahimahi delivery-opportunity backend: the exact inverse of the ingest
// mahimahi adapter (ingest/adapters_mahimahi.cpp).
//
// One line per 1500 B (MTU) delivery opportunity, carrying its integer
// millisecond timestamp. Tick i of the timeline becomes
// round(cap * tick / 12000 bits) opportunities spread evenly across
// [i*tick, (i+1)*tick); re-ingesting the file windows them back at the same
// tick and recovers the capacity to within half an opportunity —
// kMtuBits / tick quantization, 0.024 Mbps at the default 500 ms tick
// (tests/test_export.cpp bounds this on randomized timelines). Ticks with
// zero opportunities before the first (or after the last) nonzero tick
// round-trip as recorded outages only when interior — the windowing anchor
// is the first timestamp, matching Mahimahi's own file semantics.
#include <charconv>
#include <cmath>
#include <string>

#include "export/exporter.hpp"

namespace wheels::emu {

namespace {

constexpr double kMtuBits = 1500.0 * 8.0;

long long opportunities(double cap_mbps, SimMillis tick_ms) {
  const double tick_s = static_cast<double>(tick_ms) * 1e-3;
  return std::llround(cap_mbps * 1e6 * tick_s / kMtuBits);
}

/// Render one direction: timestamps rebased to zero (start_ms is
/// provenance; mahimahi files start at their first opportunity). A
/// hundreds-of-Mbps link is thousands of opportunities per tick, so the
/// writer is sized and formatted for tens of millions of lines (one
/// counting pass to reserve, std::to_chars per line).
std::string render_direction(const EmuTimeline& tl, bool downlink) {
  const auto cap_of = [&](const apps::LinkTick& t) {
    return downlink ? t.cap_dl : t.cap_ul;
  };
  std::size_t total = 0;
  for (const apps::LinkTick& t : tl.ticks) {
    total += static_cast<std::size_t>(opportunities(cap_of(t), tl.tick_ms));
  }
  std::string out;
  out.reserve(total * 12);
  char buf[24];
  for (std::size_t i = 0; i < tl.ticks.size(); ++i) {
    const long long count = opportunities(cap_of(tl.ticks[i]), tl.tick_ms);
    const long long base = static_cast<long long>(i) *
                           static_cast<long long>(tl.tick_ms);
    for (long long j = 0; j < count; ++j) {
      // Even spread: opportunity j at base + floor(j * tick / count),
      // always inside this tick's window, non-decreasing across the file.
      const long long t =
          base + j * static_cast<long long>(tl.tick_ms) / count;
      const auto res = std::to_chars(buf, buf + sizeof(buf), t);
      out.append(buf, res.ptr);
      out.push_back('\n');
    }
  }
  return out;
}

class MahimahiExporter final : public EmuExporter {
 public:
  std::string_view name() const override { return "mahimahi"; }

  std::string_view description() const override {
    return "Mahimahi packet-delivery-opportunity traces (.down/.up, one "
           "integer ms timestamp per 1500 B opportunity)";
  }

 private:
  std::vector<ExportArtifact> do_render(
      const EmuTimeline& timeline) const override {
    return {
        {".down", render_direction(timeline, true)},
        {".up", render_direction(timeline, false)},
    };
  }
};

}  // namespace

std::unique_ptr<EmuExporter> make_mahimahi_exporter() {
  return std::make_unique<MahimahiExporter>();
}

}  // namespace wheels::emu
