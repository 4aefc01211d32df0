// google-benchmark: streamed ingest throughput. The line source and the
// incremental adapters are the multi-GB on-ramp; this tracks MB/s through
// the raw line layer, the full parse→resample→bundle pipeline, the
// in-memory parse the export round-trip verify runs, and the chunked
// bundle read (replay::read_dataset) at one and four threads.
// SetBytesProcessed makes the MB/s column first-class, so a reader
// regression shows up as a rate, not a guess.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <utility>

#include "campaign/campaign.hpp"
#include "ingest/adapters.hpp"
#include "ingest/ingest.hpp"
#include "ingest/line_source.hpp"
#include "measure/csv_export.hpp"
#include "replay/ingest.hpp"

namespace {

using namespace wheels;

/// A synthetic Mahimahi trace of roughly `target_bytes`, written once per
/// process into the temp directory: bursty integer-ms delivery
/// opportunities, the shape the stress path cares about.
std::string mahimahi_fixture(std::size_t target_bytes) {
  static std::string path;
  static std::size_t built_bytes = 0;
  if (!path.empty() && built_bytes == target_bytes) return path;
  path = (std::filesystem::temp_directory_path() /
          ("wheels_bench_ingest_" + std::to_string(target_bytes) + ".down"))
             .string();
  built_bytes = target_bytes;
  std::ofstream os{path, std::ios::binary};
  std::mt19937 rng{42};
  long long t = 0;
  std::size_t written = 0;
  std::string line;
  while (written < target_bytes) {
    t += static_cast<long long>(rng() % 7);
    const int burst = 1 + static_cast<int>(rng() % 4);
    line = std::to_string(t);
    line += '\n';
    for (int i = 0; i < burst && written < target_bytes; ++i) {
      os << line;
      written += line.size();
    }
  }
  return path;
}

void BM_LineSourceLines(benchmark::State& state) {
  const std::string path = mahimahi_fixture(16 << 20);
  const auto size = std::filesystem::file_size(path);
  for (auto _ : state) {
    ingest::LineSource source{path, ingest::ChunkSpec{}};
    ingest::LineRef line;
    std::size_t lines = 0;
    while (source.next(line)) ++lines;
    benchmark::DoNotOptimize(lines);
  }
  state.SetBytesProcessed(static_cast<int64_t>(size) * state.iterations());
}
BENCHMARK(BM_LineSourceLines)->Unit(benchmark::kMillisecond);

void BM_IngestMahimahiBundle(benchmark::State& state) {
  const std::string path = mahimahi_fixture(16 << 20);
  const auto size = std::filesystem::file_size(path);
  const ingest::IngestOptions options;
  for (auto _ : state) {
    const auto bundle = ingest::ingest_file("mahimahi", path, options);
    benchmark::DoNotOptimize(bundle.db.kpis.size());
  }
  state.SetBytesProcessed(static_cast<int64_t>(size) * state.iterations());
}
BENCHMARK(BM_IngestMahimahiBundle)->Unit(benchmark::kMillisecond);

/// The export round-trip verify path: a rendered Mahimahi trace held in
/// memory, parsed through TraceAdapter::parse(std::istream&).
void BM_IngestMahimahiIstream(benchmark::State& state) {
  const std::string path = mahimahi_fixture(16 << 20);
  std::ifstream file{path, std::ios::binary};
  std::ostringstream content;
  content << file.rdbuf();
  const std::string text = std::move(content).str();
  const ingest::TraceAdapter& adapter =
      *ingest::builtin_registry().find("mahimahi");
  const ingest::IngestOptions options;
  for (auto _ : state) {
    std::istringstream is{text};
    const ingest::CanonicalTrace trace = adapter.parse(is, options);
    benchmark::DoNotOptimize(trace.points.size());
  }
  state.SetBytesProcessed(static_cast<int64_t>(text.size()) *
                          state.iterations());
}
BENCHMARK(BM_IngestMahimahiIstream)->Unit(benchmark::kMillisecond);

void BM_IngestMinimalCsvBundle(benchmark::State& state) {
  static std::string path = [] {
    const std::string p = (std::filesystem::temp_directory_path() /
                           "wheels_bench_ingest_minimal.csv")
                              .string();
    std::ofstream os{p, std::ios::binary};
    os << "t_ms,cap_dl_mbps,cap_ul_mbps,rtt_ms\n";
    std::mt19937 rng{7};
    long long t = 0;
    for (int i = 0; i < 400'000; ++i) {
      t += 100 + static_cast<long long>(rng() % 900);
      os << t << ',' << (rng() % 4000) / 10.0 << ',' << (rng() % 800) / 10.0
         << ',' << 1 + rng() % 150 << '\n';
    }
    return p;
  }();
  const auto size = std::filesystem::file_size(path);
  ingest::IngestOptions options;
  for (auto _ : state) {
    const auto bundle = ingest::ingest_file("minimal", path, options);
    benchmark::DoNotOptimize(bundle.db.kpis.size());
  }
  state.SetBytesProcessed(static_cast<int64_t>(size) * state.iterations());
}
BENCHMARK(BM_IngestMinimalCsvBundle)->Unit(benchmark::kMillisecond);

/// A scale-0.2 campaign bundle (~38 MB), written once per process into the
/// temp directory.
const std::string& dataset_fixture() {
  static const std::string dir = [] {
    const std::string d = (std::filesystem::temp_directory_path() /
                           "wheels_bench_read_dataset")
                              .string();
    std::filesystem::remove_all(d);
    campaign::CampaignConfig cfg;
    cfg.scale = 0.2;
    (void)measure::write_dataset(campaign::DriveCampaign{cfg}.run(), d,
                                 campaign::make_manifest(cfg));
    return d;
  }();
  return dir;
}

/// replay::read_dataset of the fixture bundle with the pool
/// WHEELS_THREADS = range(0) wide.
void BM_ReadDataset(benchmark::State& state) {
  const std::string& dir = dataset_fixture();
  std::uintmax_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator{dir}) {
    bytes += entry.file_size();
  }
  const char* saved = std::getenv("WHEELS_THREADS");
  const std::string restore = saved != nullptr ? saved : "";
  ::setenv("WHEELS_THREADS", std::to_string(state.range(0)).c_str(), 1);
  for (auto _ : state) {
    replay::ReplayBundle bundle = replay::read_dataset(dir);
    benchmark::DoNotOptimize(bundle);
  }
  if (saved != nullptr) {
    ::setenv("WHEELS_THREADS", restore.c_str(), 1);
  } else {
    ::unsetenv("WHEELS_THREADS");
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes) * state.iterations());
}
BENCHMARK(BM_ReadDataset)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
