// Lift external trace files into replayable bundles.
//
//   ./ingest_trace TRACE                       sniff the format, ingest,
//                                              print the bundle summary
//   ./ingest_trace --format mahimahi TRACE.down --up TRACE.up
//   ./ingest_trace --join Verizon=a.csv,T-Mobile=b.csv --out bundle_dir
//   ./ingest_trace --list-formats
//
// Options:
//   --format F      auto|minimal|mahimahi|errant|monroe|paper (default auto)
//   --join SPEC     CARRIER=PATH[,CARRIER=PATH...] multi-carrier join
//                   (mutually exclusive with a positional TRACE)
//   --carrier C     carrier tag for single-trace ingest (default Verizon)
//   --up PATH       Mahimahi paired uplink trace
//   --rtt MS        RTT fill for formats that record none (default 50)
//   --tech T        technology when the format records none (default LTE)
//   --tick MS       resample tick (default 500)
//   --max-gap MS    gap that splits a trace into segments; 0 keeps one
//                   segment (default 10000)
//   --interp MODE   hold|linear between source samples (default hold)
//   --no-align      join: keep native clocks instead of re-basing to t=0
//   --trim          join: keep only the window every carrier covers
//   --chunk BYTES   bytes per read of the streaming line source (default
//                   1 MiB); peak memory is O(chunk), independent of the
//                   trace size
//   --shards N      join: parallel ingest shards, one per input file
//                   (default 1; 0 = WHEELS_THREADS/auto). Output is
//                   byte-identical at every shard count.
//   --replay        replay the bundle through ReplayCampaign and print the
//                   recorded-vs-replayed comparison
//   --out DIR       write the bundle as a dataset directory
#include <iostream>
#include <string>
#include <vector>

#include "core/obs/metrics.hpp"
#include "ingest/ingest.hpp"
#include "measure/csv_export.hpp"
#include "measure/enum_names.hpp"
#include "replay/replay_campaign.hpp"
#include "replay/report.hpp"

using namespace wheels;

namespace {

int usage() {
  std::cerr
      << "usage: ingest_trace [options] TRACE\n"
         "       ingest_trace [options] --join CARRIER=PATH[,...]\n"
         "       ingest_trace --list-formats\n"
         "options: --format F --carrier C --up PATH --rtt MS --tech T\n"
         "         --tick MS --max-gap MS --interp hold|linear\n"
         "         --no-align --trim --chunk BYTES --shards N\n"
         "         --replay --out DIR\n";
  return 2;
}

int list_formats() {
  for (const ingest::TraceAdapter* a : ingest::builtin_registry().adapters()) {
    std::cout << a->name() << "\t" << a->description() << '\n';
  }
  return 0;
}

void print_summary(const replay::ReplayBundle& bundle) {
  std::cout << "Bundle: " << bundle.db.tests.size() << " tests, "
            << bundle.db.kpis.size() << " KPI rows, " << bundle.db.rtts.size()
            << " RTT samples (digest " << bundle.manifest.config_digest
            << ").\n";
}

}  // namespace

int main(int argc, char** argv) {
  core::obs::flush_at_exit();
  try {
    std::string format = "auto";
    std::string join_spec;
    std::string trace_path;
    std::string out_dir;
    bool do_replay = false;
    ingest::IngestOptions options;
    ingest::JoinOptions join;

    const auto value = [&](int& i) -> std::string {
      if (i + 1 >= argc) throw std::runtime_error{"missing value for " +
                                                  std::string{argv[i]}};
      return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--list-formats") return list_formats();
      if (arg == "--format") {
        format = value(i);
      } else if (arg == "--join") {
        join_spec = value(i);
      } else if (arg == "--carrier") {
        options.carrier = measure::names::parse_carrier(value(i));
      } else if (arg == "--up") {
        options.mahimahi_uplink_path = value(i);
      } else if (arg == "--rtt") {
        options.default_rtt_ms = std::stod(value(i));
      } else if (arg == "--tech") {
        options.default_tech = measure::names::parse_technology(value(i));
      } else if (arg == "--tick") {
        options.resample.tick_ms = std::stoll(value(i));
      } else if (arg == "--max-gap") {
        options.resample.max_gap_ms = std::stoll(value(i));
      } else if (arg == "--interp") {
        options.resample.fill = replay::parse_hold_policy(value(i));
      } else if (arg == "--no-align") {
        join.align_clocks = false;
      } else if (arg == "--trim") {
        join.trim_to_overlap = true;
      } else if (arg == "--chunk") {
        options.chunk.chunk_bytes =
            static_cast<std::size_t>(std::stoull(value(i)));
      } else if (arg == "--shards") {
        options.threads = std::stoi(value(i));
      } else if (arg == "--replay") {
        do_replay = true;
      } else if (arg == "--out") {
        out_dir = value(i);
      } else if (!arg.empty() && arg[0] == '-') {
        std::cerr << "unknown option " << arg << '\n';
        return usage();
      } else if (trace_path.empty()) {
        trace_path = arg;
      } else {
        return usage();
      }
    }
    if (trace_path.empty() == join_spec.empty()) return usage();

    replay::ReplayBundle bundle;
    if (!join_spec.empty()) {
      const std::vector<ingest::JoinEntry> entries =
          ingest::parse_join_spec(join_spec);
      std::cout << "Joining " << entries.size() << " carrier trace(s):\n";
      for (const ingest::JoinEntry& e : entries) {
        std::cout << "  " << measure::names::to_name(e.carrier) << " <- "
                  << e.path << '\n';
      }
      bundle = ingest::ingest_join(format, entries, options, join);
    } else {
      // Sniff only when asked to: an explicit --format must work on files
      // the sniffer would reject.
      std::string resolved = format;
      if (format == "auto") {
        resolved = ingest::builtin_registry()
                       .resolve(format, ingest::sniff_file(trace_path))
                       .name();
      }
      std::cout << "Ingesting " << trace_path << " as "
                << measure::names::to_name(options.carrier) << " via the '"
                << resolved << "' adapter.\n";
      bundle = ingest::ingest_file(resolved, trace_path, options);
    }
    print_summary(bundle);

    if (!out_dir.empty()) {
      const auto files =
          measure::write_dataset(bundle.db, out_dir, bundle.manifest);
      std::cout << "Wrote " << files.size() << " files to " << out_dir
                << "/\n";
    }
    if (do_replay) {
      const replay::ReplayConfig cfg = replay::replay_config_from_env();
      const measure::ConsolidatedDb replayed =
          replay::ReplayCampaign{bundle, cfg}.run();
      replay::print_comparison(std::cout, "recorded",
                               replay::summarize(bundle.db), "replayed",
                               replay::summarize(replayed));
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "ingest_trace: " << e.what() << '\n';
    return 1;
  }
}
