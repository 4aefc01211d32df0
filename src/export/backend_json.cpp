// Versioned JSON schedule backend (CloudEmu-style): the machine-readable
// interchange form of an EmuTimeline.
//
// One tick object per line, doubles at max_digits10 (measure::csv_double),
// so any JSON reader recovers every value bit for bit — the same contract
// synth profiles keep. A tick's loss is tick_loss(), derived from its
// interruption as it is rendered. The schedule is version 1.
#include <string>

#include "core/json.hpp"
#include "export/exporter.hpp"
#include "measure/csv_export.hpp"
#include "measure/enum_names.hpp"

namespace wheels::emu {

namespace {

std::string render_schedule(const EmuTimeline& tl) {
  std::string out;
  out += "{\n";
  out += "  \"version\": 1,\n";
  out += "  \"tick_ms\": " + std::to_string(tl.tick_ms) + ",\n";
  out += "  \"start_ms\": " + std::to_string(tl.start_ms) + ",\n";
  out += "  \"ticks\": [\n";
  for (std::size_t i = 0; i < tl.ticks.size(); ++i) {
    const apps::LinkTick& t = tl.ticks[i];
    out += "    {\"cap_dl_mbps\": " + measure::csv_double(t.cap_dl) +
           ", \"cap_ul_mbps\": " + measure::csv_double(t.cap_ul) +
           ", \"rtt_ms\": " + measure::csv_double(t.rtt) +
           ", \"loss\": " + measure::csv_double(tick_loss(t, tl.tick_ms)) +
           ", \"tech\": \"" +
           core::json::escape(measure::names::to_name(t.tech)) + "\"}";
    out += i + 1 < tl.ticks.size() ? ",\n" : "\n";
  }
  out += "  ]\n";
  out += "}\n";
  return out;
}

class JsonExporter final : public EmuExporter {
 public:
  std::string_view name() const override { return "json"; }

  std::string_view description() const override {
    return "versioned JSON schedule (.json): one tick object per line, "
           "doubles at max_digits10";
  }

 private:
  std::vector<ExportArtifact> do_render(
      const EmuTimeline& timeline) const override {
    return {{".json", render_schedule(timeline)}};
  }
};

}  // namespace

std::unique_ptr<EmuExporter> make_json_exporter() {
  return std::make_unique<JsonExporter>();
}

}  // namespace wheels::emu
