// Export any simulator timeline to a network-emulator schedule.
//
//   ./export_trace --bundle DIR --backend mahimahi --out link
//       carrier timeline of a recorded/ingested bundle -> link.down/link.up
//   ./export_trace --bundle DIR --test 42 --backend netem --out run42
//       one recorded app session's exact per-tick trace -> run42.sh
//   ./export_trace --trace drive.csv --backend json --out drive
//       ingest an external trace file, export its timeline -> drive.json
//   ./export_trace --profile p.json --spec load=1.5 --backend netem --out rush
//       synthesize one drive cycle from a fitted profile, export it
//   ./export_trace --list-backends
//
// Options:
//   --backend B          mahimahi|netem|json (default mahimahi)
//   --out BASE           output base path; each backend appends its own
//                        suffix (.down/.up, .sh, .json). Required.
//   --bundle DIR         source: a dataset bundle directory
//     --carrier C        bundle: carrier timeline to export (default
//                        Verizon; ignored with --test)
//     --static           bundle: the static regime instead of moving
//     --test ID          bundle: one app session's recorded link_ticks
//   --trace FILE         source: an external trace file (ingest formats)
//     --format F         trace format, auto-sniffed by default
//     --up PATH          mahimahi paired uplink trace
//     --rtt MS           RTT fill for formats that record none (default 50)
//     --tech T           technology fill (default LTE)
//   --profile JSON       source: a fitted synth profile
//     --spec SPEC        scenario spec key=value[,...] (synth_trace syntax)
//     --seed N           sampling seed (default 1)
//   --tick MS            timeline tick (default 500)
//   --max-ticks N        export only the first N ticks (0 = all). A full
//                        drive at hundreds of Mbps is a multi-GB Mahimahi
//                        file; emulator sessions want a bounded window.
//   --verify-roundtrip   mahimahi only: re-ingest the .down artifact and
//                        check the one-opportunity-per-tick bound; exit 1
//                        on violation
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "core/obs/metrics.hpp"
#include "export/exporter.hpp"
#include "export/roundtrip.hpp"
#include "ingest/ingest.hpp"
#include "measure/enum_names.hpp"
#include "replay/ingest.hpp"
#include "synth/sample.hpp"

using namespace wheels;

namespace {

int usage() {
  std::cerr
      << "usage: export_trace --bundle DIR [--carrier C|--test ID] "
         "[--static] --out BASE\n"
         "       export_trace --trace FILE [--format F --up PATH] --out "
         "BASE\n"
         "       export_trace --profile JSON [--spec SPEC --seed N] --out "
         "BASE\n"
         "       export_trace --list-backends\n"
         "options: --backend mahimahi|netem|json --tick MS --rtt MS "
         "--tech T\n"
         "         --max-ticks N --verify-roundtrip\n";
  return 2;
}

int list_backends() {
  for (const emu::EmuExporter* e :
       emu::builtin_exporter_registry().exporters()) {
    std::cout << e->name() << "\t" << e->description() << '\n';
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  core::obs::flush_at_exit();
  try {
    std::string backend = "mahimahi";
    std::string out_base;
    std::string bundle_dir;
    std::string trace_path;
    std::string profile_path;
    std::string format = "auto";
    std::string spec_text;
    std::uint64_t seed = 1;
    radio::Carrier carrier = radio::Carrier::Verizon;
    bool use_static = false;
    bool have_test = false;
    std::uint32_t test_id = 0;
    bool verify = false;
    std::size_t max_ticks = 0;
    ingest::IngestOptions options;

    const auto value = [&](int& i) -> std::string {
      if (i + 1 >= argc) throw std::runtime_error{"missing value for " +
                                                  std::string{argv[i]}};
      return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--list-backends") return list_backends();
      if (arg == "--backend") {
        backend = value(i);
      } else if (arg == "--out") {
        out_base = value(i);
      } else if (arg == "--bundle") {
        bundle_dir = value(i);
      } else if (arg == "--carrier") {
        carrier = measure::names::parse_carrier(value(i));
      } else if (arg == "--static") {
        use_static = true;
      } else if (arg == "--test") {
        test_id = static_cast<std::uint32_t>(std::stoul(value(i)));
        have_test = true;
      } else if (arg == "--trace") {
        trace_path = value(i);
      } else if (arg == "--format") {
        format = value(i);
      } else if (arg == "--up") {
        options.mahimahi_uplink_path = value(i);
      } else if (arg == "--rtt") {
        options.default_rtt_ms = std::stod(value(i));
      } else if (arg == "--tech") {
        options.default_tech = measure::names::parse_technology(value(i));
      } else if (arg == "--profile") {
        profile_path = value(i);
      } else if (arg == "--spec") {
        spec_text = value(i);
      } else if (arg == "--seed") {
        seed = std::stoull(value(i));
      } else if (arg == "--tick") {
        options.resample.tick_ms = std::stoll(value(i));
      } else if (arg == "--max-ticks") {
        max_ticks = static_cast<std::size_t>(std::stoull(value(i)));
      } else if (arg == "--verify-roundtrip") {
        verify = true;
      } else {
        std::cerr << "unknown option " << arg << '\n';
        return usage();
      }
    }
    const int sources = (bundle_dir.empty() ? 0 : 1) +
                        (trace_path.empty() ? 0 : 1) +
                        (profile_path.empty() ? 0 : 1);
    if (sources != 1 || out_base.empty()) return usage();

    const emu::EmuExporter& exporter =
        emu::builtin_exporter_registry().resolve(backend);

    emu::EmuTimeline timeline;
    if (!bundle_dir.empty()) {
      const replay::ReplayBundle bundle = replay::read_dataset(bundle_dir);
      if (have_test) {
        timeline = emu::timeline_from_bundle_test(bundle.db, test_id);
        std::cout << "Exporting test " << test_id << "'s recorded trace ("
                  << timeline.ticks.size() << " ticks).\n";
      } else {
        timeline = emu::timeline_from_bundle(bundle.db, carrier, use_static);
        std::cout << "Exporting the " << measure::names::to_name(carrier)
                  << (use_static ? " static" : " moving") << " timeline ("
                  << timeline.ticks.size() << " ticks).\n";
      }
    } else if (!trace_path.empty()) {
      const ingest::CanonicalTrace trace = ingest::load_trace(
          ingest::builtin_registry(), format, trace_path, options);
      timeline =
          emu::timeline_from_canonical(trace, options.resample.tick_ms);
      std::cout << "Exporting " << trace_path << " ("
                << timeline.ticks.size() << " ticks).\n";
    } else {
      const synth::SynthProfile profile = synth::read_profile(profile_path);
      const synth::ScenarioSpec spec = synth::parse_scenario_spec(spec_text);
      const replay::ReplayBundle bundle =
          synth::sample_bundle(profile, spec, seed, 0, 1, 0);
      const radio::Carrier c =
          spec.carriers.empty() ? carrier : spec.carriers.front();
      timeline = emu::timeline_from_bundle(bundle.db, c);
      std::cout << "Exporting one synthesized "
                << measure::names::to_name(c) << " cycle ("
                << timeline.ticks.size() << " ticks).\n";
    }

    if (max_ticks > 0 && timeline.ticks.size() > max_ticks) {
      timeline.ticks.resize(max_ticks);
      std::cout << "Truncated to the first " << max_ticks << " ticks.\n";
    }

    const std::vector<std::string> paths =
        emu::write_export(exporter, timeline, out_base);
    for (const std::string& p : paths) std::cout << "Wrote " << p << '\n';

    if (verify) {
      if (exporter.name() != "mahimahi") {
        throw std::runtime_error{
            "--verify-roundtrip applies to the mahimahi backend only"};
      }
      const emu::RoundTripReport report =
          emu::verify_mahimahi_roundtrip(timeline);
      std::cout << "Round trip: max error "
                << report.max_error_mbps << " Mbps over "
                << report.ticks_checked << " ticks (bound "
                << report.bound_mbps << " Mbps).\n";
      if (!report.ok()) {
        std::cerr << "export_trace: round-trip bound violated\n";
        return 1;
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "export_trace: " << e.what() << '\n';
    return 1;
  }
}
