#include "ingest/adapter.hpp"

#include <fstream>
#include <stdexcept>

#include "ingest/adapters.hpp"

namespace wheels::ingest {

CanonicalTrace TraceAdapter::parse(std::istream& is,
                                   const IngestOptions& options) const {
  LineSource lines{is, options.chunk};
  CollectSink sink;
  parse_stream(lines, options, sink);
  return sink.take();
}

void AdapterRegistry::add(std::unique_ptr<TraceAdapter> adapter) {
  for (const auto& existing : adapters_) {
    if (existing->name() == adapter->name()) {
      throw std::runtime_error{"adapter registry: duplicate format '" +
                               std::string{adapter->name()} + "'"};
    }
  }
  adapters_.push_back(std::move(adapter));
}

const TraceAdapter* AdapterRegistry::find(std::string_view name) const {
  for (const auto& adapter : adapters_) {
    if (adapter->name() == name) return adapter.get();
  }
  return nullptr;
}

std::vector<const TraceAdapter*> AdapterRegistry::adapters() const {
  std::vector<const TraceAdapter*> out;
  out.reserve(adapters_.size());
  for (const auto& adapter : adapters_) out.push_back(adapter.get());
  return out;
}

namespace {

std::string known_formats(const AdapterRegistry& registry) {
  std::string out;
  for (const TraceAdapter* adapter : registry.adapters()) {
    if (!out.empty()) out += '|';
    out += adapter->name();
  }
  return out;
}

}  // namespace

const TraceAdapter& AdapterRegistry::resolve(std::string_view format,
                                             const SniffInput& input) const {
  if (format == "auto") return sniff_or_throw(input);
  if (const TraceAdapter* adapter = find(format)) return *adapter;
  throw std::runtime_error{"unknown trace format '" + std::string{format} +
                           "' (expected auto|" + known_formats(*this) + ")"};
}

const TraceAdapter& AdapterRegistry::sniff_or_throw(
    const SniffInput& input) const {
  const TraceAdapter* best = nullptr;
  int best_score = 0;
  bool tied = false;
  for (const auto& adapter : adapters_) {
    const int score = adapter->sniff(input);
    if (score > best_score) {
      best = adapter.get();
      best_score = score;
      tied = false;
    } else if (score == best_score && score > 0) {
      tied = true;
    }
  }
  if (best == nullptr) {
    throw std::runtime_error{
        "cannot sniff trace format of '" + input.path +
        "' — pass an explicit format (" + known_formats(*this) + ")"};
  }
  if (tied) {
    throw std::runtime_error{"ambiguous trace format for '" + input.path +
                             "' — pass an explicit format (" +
                             known_formats(*this) + ")"};
  }
  return *best;
}

const AdapterRegistry& builtin_registry() {
  static const AdapterRegistry registry = [] {
    AdapterRegistry r;
    r.add(make_minimal_adapter());
    r.add(make_mahimahi_adapter());
    r.add(make_errant_adapter());
    r.add(make_monroe_adapter());
    r.add(make_paper_tables_adapter());
    return r;
  }();
  return registry;
}

SniffInput sniff_file(const std::string& path, std::size_t max_lines) {
  std::ifstream is{path, std::ios::binary};
  if (!is) {
    throw std::runtime_error{"cannot open " + path};
  }
  SniffInput input;
  input.path = path;
  // The head is a few short lines; one small block usually holds them all.
  LineSource lines{is, ChunkSpec{std::size_t{64} << 10}};
  LineRef line;
  while (input.head.size() < max_lines && lines.next(line)) {
    input.head.emplace_back(line.text);
  }
  return input;
}

}  // namespace wheels::ingest
