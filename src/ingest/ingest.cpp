#include "ingest/ingest.hpp"

#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/obs/trace_export.hpp"
#include "ingest/adapters.hpp"
#include "measure/enum_names.hpp"
#include "replay/fleet.hpp"

namespace wheels::ingest {

namespace {

/// Resolve `format` against the registry, sniffing the file's head only for
/// "auto" — an explicit format must work on files the sniffer cannot score
/// (satellite-dish CSVs with reordered headers, unreadable-by-sniff pipes).
const TraceAdapter& resolve_adapter(const AdapterRegistry& registry,
                                    const std::string& format,
                                    const std::string& path) {
  try {
    if (format == "auto") {
      return registry.resolve(format, sniff_file(path));
    }
    return registry.resolve(format, SniffInput{});
  } catch (const std::runtime_error& e) {
    throw std::runtime_error{path + ": " + e.what()};
  }
}

/// Streamed parse of `path` through `adapter` into `sink`, with the adapter
/// errors prefixed "path: adapter: ...". The open error is not prefixed —
/// it already names the path.
void parse_path(const TraceAdapter& adapter, const std::string& path,
                const IngestOptions& options, PointSink& sink) {
  LineSource lines{path, options.chunk};
  try {
    adapter.parse_stream(lines, options, sink);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error{path + ": " + std::string{adapter.name()} + ": " +
                             e.what()};
  }
}

/// The paper adapter's rtts.csv resolution: the explicit option, or the
/// sibling pickup — a kpis.csv input next to an rtts.csv gets the overlay
/// without being asked.
std::string resolve_paper_rtts(const std::string& path,
                               const IngestOptions& options) {
  if (!options.paper_rtts_path.empty()) return options.paper_rtts_path;
  const std::filesystem::path p{path};
  if (p.filename() == "kpis.csv") {
    const std::filesystem::path sibling = p.parent_path() / "rtts.csv";
    std::error_code ec;
    if (std::filesystem::exists(sibling, ec)) {
      return sibling.string();
    }
  }
  return {};
}

}  // namespace

void stream_trace(const AdapterRegistry& registry, const std::string& format,
                  const std::string& path, const IngestOptions& options,
                  PointSink& sink) {
  const core::obs::ScopedSpan span{"ingest.parse", "ingest"};
  const TraceAdapter& adapter = resolve_adapter(registry, format, path);

  // Companion side-channels wrap the caller's sink so the main trace flows
  // through them without being materialized.
  PointSink* target = &sink;
  std::unique_ptr<PointSink> companion;
  if (adapter.name() == "mahimahi" && !options.mahimahi_uplink_path.empty()) {
    // The paired uplink is windowed into memory first — O(duration / tick),
    // not O(file bytes) — then merged positionally into the downlink stream.
    CollectSink up;
    parse_path(adapter, options.mahimahi_uplink_path, options, up);
    companion =
        make_mahimahi_uplink_merge(up.take(), options.resample.tick_ms, sink);
    target = companion.get();
  } else if (adapter.name() == "paper") {
    const std::string rtts_path = resolve_paper_rtts(path, options);
    if (!rtts_path.empty()) {
      std::ifstream rtts{rtts_path};
      if (!rtts) {
        throw std::runtime_error{"ingest: cannot open " + rtts_path};
      }
      try {
        companion = make_paper_rtt_overlay(rtts, options.carrier, sink);
      } catch (const std::runtime_error& e) {
        throw std::runtime_error{rtts_path + ": " + e.what()};
      }
      target = companion.get();
    }
  }

  parse_path(adapter, path, options, *target);
}

CanonicalTrace load_trace(const AdapterRegistry& registry,
                          const std::string& format, const std::string& path,
                          const IngestOptions& options) {
  CollectSink sink;
  stream_trace(registry, format, path, options, sink);
  return sink.take();
}

replay::ReplayBundle ingest_file(const std::string& format,
                                 const std::string& path,
                                 const IngestOptions& options) {
  std::vector<StreamSource> sources(1);
  sources[0].carrier = options.carrier;
  sources[0].name = "trace";
  sources[0].produce = [&format, &path, &options](PointSink& sink) {
    stream_trace(builtin_registry(), format, path, options, sink);
  };
  return join_streams(std::move(sources), JoinOptions{}, options.resample, 1);
}

replay::ReplayBundle load_fleet_bundle(const std::string& spec) {
  const replay::FleetSpec parsed = replay::parse_fleet_spec(spec);
  if (!parsed.is_trace) return replay::read_dataset(parsed.path);
  IngestOptions options;
  options.carrier = parsed.carrier;
  return ingest_file("minimal", parsed.path, options);
}

std::vector<JoinEntry> parse_join_spec(const std::string& spec) {
  std::vector<JoinEntry> entries;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    const std::size_t eq = item.find('=');
    if (item.empty() || eq == std::string::npos || eq == 0 ||
        eq + 1 == item.size()) {
      throw std::runtime_error{
          "join spec: expected CARRIER=PATH[,CARRIER=PATH...], got '" + spec +
          "'"};
    }
    JoinEntry entry;
    entry.carrier = measure::names::parse_carrier(item.substr(0, eq));
    entry.path = item.substr(eq + 1);
    entries.push_back(std::move(entry));
    pos = comma + 1;
    if (comma == spec.size()) break;
  }
  if (entries.empty()) {
    throw std::runtime_error{"join spec: empty"};
  }
  return entries;
}

replay::ReplayBundle ingest_join(const std::string& format,
                                 const std::vector<JoinEntry>& entries,
                                 const IngestOptions& options,
                                 const JoinOptions& join) {
  std::vector<StreamSource> sources;
  sources.reserve(entries.size());
  for (const JoinEntry& entry : entries) {
    IngestOptions per_carrier = options;
    per_carrier.carrier = entry.carrier;
    StreamSource source;
    source.carrier = entry.carrier;
    source.name = entry.path;
    source.produce = [&format, path = entry.path,
                      per_carrier](PointSink& sink) {
      stream_trace(builtin_registry(), format, path, per_carrier, sink);
    };
    sources.push_back(std::move(source));
  }
  return join_streams(std::move(sources), join, options.resample,
                      options.threads);
}

}  // namespace wheels::ingest
