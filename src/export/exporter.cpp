#include "export/exporter.hpp"

#include <fstream>
#include <stdexcept>
#include <utility>

#include "core/obs/trace_export.hpp"

namespace wheels::emu {

std::vector<ExportArtifact> EmuExporter::render(
    const EmuTimeline& timeline) const {
  const core::obs::ScopedSpan span{"export.render:" + std::string{name()},
                                   "export"};
  validate_timeline(timeline);
  return do_render(timeline);
}

void ExporterRegistry::add(std::unique_ptr<EmuExporter> exporter) {
  for (const auto& e : exporters_) {
    if (e->name() == exporter->name()) {
      throw std::runtime_error{"export: duplicate backend name '" +
                               std::string{exporter->name()} + "'"};
    }
  }
  exporters_.push_back(std::move(exporter));
}

const EmuExporter* ExporterRegistry::find(std::string_view name) const {
  for (const auto& e : exporters_) {
    if (e->name() == name) return e.get();
  }
  return nullptr;
}

const EmuExporter& ExporterRegistry::resolve(std::string_view name) const {
  if (const EmuExporter* e = find(name)) return *e;
  std::string known;
  for (const auto& e : exporters_) {
    if (!known.empty()) known += ", ";
    known += e->name();
  }
  throw std::runtime_error{"export: unknown backend '" + std::string{name} +
                           "' (known: " + known + ")"};
}

std::vector<const EmuExporter*> ExporterRegistry::exporters() const {
  std::vector<const EmuExporter*> out;
  out.reserve(exporters_.size());
  for (const auto& e : exporters_) out.push_back(e.get());
  return out;
}

const ExporterRegistry& builtin_exporter_registry() {
  static const ExporterRegistry* registry = [] {
    auto* r = new ExporterRegistry;
    r->add(make_mahimahi_exporter());
    r->add(make_netem_exporter());
    r->add(make_json_exporter());
    return r;
  }();
  return *registry;
}

std::vector<std::string> write_export(const EmuExporter& exporter,
                                      const EmuTimeline& timeline,
                                      const std::string& out_base) {
  std::vector<std::string> paths;
  for (const ExportArtifact& a : exporter.render(timeline)) {
    const std::string path = out_base + a.suffix;
    std::ofstream os{path, std::ios::binary};
    if (!os) {
      throw std::runtime_error{"export: cannot open " + path +
                               " for writing"};
    }
    os << a.content;
    if (!os) {
      throw std::runtime_error{"export: write failed for " + path};
    }
    paths.push_back(path);
  }
  return paths;
}

}  // namespace wheels::emu
