// The streamed ingest path: block reading, incremental adapters, and the
// invariance contract of the pipeline.
//
// The hard compatibility contract under test: for every fixture, every
// block size and every shard count, the streaming pipeline produces a
// bundle byte-identical (manifest digest and every table) to the same
// ingest at the default block size and one shard.
#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/obs/metrics.hpp"
#include "ingest/adapters.hpp"
#include "ingest/ingest.hpp"
#include "ingest/line_source.hpp"
#include "ingest_helpers.hpp"
#include "measure/csv_export.hpp"

namespace wheels::ingest {
namespace {

const std::string kFixtures = WHEELS_INGEST_FIXTURE_DIR;

std::string fixture(const std::string& name) { return kFixtures + "/" + name; }

std::string error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

/// Every byte of bundle content that write_dataset would emit, minus the
/// wall-clock manifest fields: the equality the contract is stated over.
std::string bundle_fingerprint(const replay::ReplayBundle& bundle) {
  std::ostringstream os;
  os << bundle.manifest.config_digest << '\n';
  measure::write_tests_csv(os, bundle.db);
  measure::write_kpis_csv(os, bundle.db);
  measure::write_rtts_csv(os, bundle.db);
  measure::write_summary_csv(os, bundle.db);
  return os.str();
}

struct NumberedLine {
  std::string text;
  std::size_t number;
  bool operator==(const NumberedLine&) const = default;
};

/// The trace dialect, spelled out over std::getline: every non-blank,
/// non-'#' line with one trailing CR stripped, numbered physically, and the
/// end of input numbered one past the last line.
std::vector<NumberedLine> lines_via_reference(const std::string& path) {
  std::ifstream is{path, std::ios::binary};
  EXPECT_TRUE(static_cast<bool>(is)) << path;
  std::vector<NumberedLine> out;
  std::size_t number = 0;
  std::string line;
  while (std::getline(is, line)) {
    ++number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line.front() == '#') continue;
    out.push_back({line, number});
  }
  out.push_back({"<eof>", number + 1});
  return out;
}

std::vector<NumberedLine> lines_via_source(const std::string& path,
                                           const ChunkSpec& spec) {
  LineSource source{path, spec};
  std::vector<NumberedLine> out;
  LineRef line;
  while (source.next(line)) {
    out.push_back({std::string{line.text}, line.number});
  }
  out.push_back({"<eof>", source.line_number()});
  return out;
}

std::string write_temp(const std::string& name, const std::string& content) {
  const std::string path =
      (std::filesystem::path{::testing::TempDir()} / name).string();
  std::ofstream os{path, std::ios::binary};
  os << content;
  return path;
}

// --- line source ------------------------------------------------------------

TEST(LineSourceTest, MatchesGetlineOracleAcrossBlockSizes) {
  const std::vector<std::string> files{
      "minimal.csv",  "mahimahi.down",      "mahimahi.up",
      "errant.csv",   "monroe.csv",         "paper/kpis.csv",
      "paper/rtts.csv", "minimal_reordered.csv"};
  for (const std::string& file : files) {
    const std::vector<NumberedLine> expected =
        lines_via_reference(fixture(file));
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                    std::size_t{7}, std::size_t{64},
                                    std::size_t{1} << 20}) {
      ChunkSpec spec;
      spec.chunk_bytes = chunk;
      EXPECT_EQ(lines_via_source(fixture(file), spec), expected)
          << file << " chunk=" << chunk;
    }
  }
}

TEST(LineSourceTest, FinalLineWithoutNewlineSurvivesEveryChunkSize) {
  const std::string path =
      write_temp("no_trailing_newline.txt", "alpha\nbeta\r\ngamma");
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{4},
                                  std::size_t{1} << 20}) {
    ChunkSpec spec;
    spec.chunk_bytes = chunk;
    const std::vector<NumberedLine> got = lines_via_source(path, spec);
    const std::vector<NumberedLine> want{
        {"alpha", 1}, {"beta", 2}, {"gamma", 3}, {"<eof>", 4}};
    EXPECT_EQ(got, want) << "chunk=" << chunk;
  }
}

TEST(LineSourceTest, EmptyAndCommentOnlyFiles) {
  ChunkSpec spec;
  {
    LineSource source{write_temp("empty.txt", ""), spec};
    LineRef line;
    EXPECT_FALSE(source.next(line));
    EXPECT_EQ(source.line_number(), 1u);
  }
  {
    LineSource source{write_temp("comments.txt", "# a\n\n# b\n"), spec};
    LineRef line;
    EXPECT_FALSE(source.next(line));
    EXPECT_EQ(source.line_number(), 4u);  // past the final physical line
  }
  EXPECT_NE(error_of([&] { LineSource s{fixture("missing.csv"), spec}; })
                .find("ingest: cannot open"),
            std::string::npos);
}

TEST(LineSourceTest, ObsCountersTrackBytesAndChunks) {
  const std::uintmax_t size =
      std::filesystem::file_size(fixture("minimal.csv"));
  core::obs::MetricsRegistry::global().reset();
  ChunkSpec spec;
  spec.chunk_bytes = 16;
  LineSource reader{fixture("minimal.csv"), spec};
  LineRef line;
  while (reader.next(line)) {
  }
  const auto snapshot = core::obs::MetricsRegistry::global().snapshot();
  std::uint64_t bytes = 0;
  std::uint64_t chunks = 0;
  for (const auto& [name, value] : snapshot.counters) {
    if (name == "ingest.bytes_read") bytes = value;
    if (name == "ingest.chunks") chunks = value;
  }
  EXPECT_EQ(bytes, size);
  EXPECT_EQ(chunks, (size + 15) / 16);
}

// --- chunk-size and shard-count invariance ---------------------------------

TEST(IngestStreamTest, StreamingBundleIsChunkSizeInvariantForEveryFixture) {
  const std::vector<std::pair<std::string, std::string>> cases{
      {"minimal.csv", "minimal"},   {"mahimahi.down", "mahimahi"},
      {"errant.csv", "errant"},     {"monroe.csv", "monroe"},
      {"paper/kpis.csv", "paper"},  {"mahimahi_late.down", "mahimahi"},
      {"minimal_reordered.csv", "minimal"}};
  for (const auto& [file, format] : cases) {
    const IngestOptions options;
    const std::string expected =
        bundle_fingerprint(ingest_file(format, fixture(file), options));
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{17}}) {
      IngestOptions streamed = options;
      streamed.chunk.chunk_bytes = chunk;
      const replay::ReplayBundle bundle =
          ingest_file(format, fixture(file), streamed);
      EXPECT_EQ(bundle_fingerprint(bundle), expected)
          << file << " chunk=" << chunk;
    }
  }
}

TEST(IngestStreamTest, MahimahiUplinkMergeIsChunkSizeInvariant) {
  IngestOptions options;
  options.mahimahi_uplink_path = fixture("mahimahi.up");
  const replay::ReplayBundle reference =
      ingest_file("mahimahi", fixture("mahimahi.down"), options);
  IngestOptions streamed = options;
  streamed.chunk.chunk_bytes = 5;
  const replay::ReplayBundle bundle =
      ingest_file("mahimahi", fixture("mahimahi.down"), streamed);
  EXPECT_EQ(bundle_fingerprint(bundle), bundle_fingerprint(reference));
}

TEST(IngestStreamTest, ThreeCarrierJoinByteIdenticalAcrossShardsAndPaths) {
  // Both join paths (plain and trimmed) at odd chunks and 1 or 4 shards
  // against the same join at the default chunk and one shard.
  const std::vector<JoinEntry> entries{
      {radio::Carrier::Verizon, fixture("minimal.csv")},
      {radio::Carrier::TMobile, fixture("monroe.csv")},
      {radio::Carrier::Att, fixture("errant.csv")},
  };
  for (const bool trim : {false, true}) {
    JoinOptions join;
    join.trim_to_overlap = trim;
    const std::string expected =
        bundle_fingerprint(ingest_join("auto", entries, IngestOptions{}, join));
    for (const int threads : {1, 4}) {
      IngestOptions streamed;
      streamed.threads = threads;
      streamed.chunk.chunk_bytes = 11;
      const replay::ReplayBundle bundle =
          ingest_join("auto", entries, streamed, join);
      EXPECT_EQ(bundle_fingerprint(bundle), expected)
          << "trim=" << trim << " threads=" << threads;
    }
  }
}

TEST(IngestStreamTest, RandomMinimalTracesRoundTripAtOddChunkSizes) {
  std::mt19937 rng{20260807};
  std::uniform_real_distribution<double> value{0.5, 400.0};
  std::ostringstream os;
  os << "t_ms,cap_dl_mbps,cap_ul_mbps,rtt_ms\n";
  SimMillis t = 0;
  for (int i = 0; i < 500; ++i) {
    t += 100 + static_cast<SimMillis>(rng() % 900);
    os << t << ',' << value(rng) << ',' << value(rng) << ',' << value(rng)
       << '\n';
  }
  const std::string path = write_temp("random_minimal.csv", os.str());

  const IngestOptions options;
  const std::string expected =
      bundle_fingerprint(ingest_file("minimal", path, options));
  for (const std::size_t chunk : {std::size_t{13}, std::size_t{257}}) {
    IngestOptions streamed = options;
    streamed.chunk.chunk_bytes = chunk;
    EXPECT_EQ(bundle_fingerprint(ingest_file("minimal", path, streamed)),
              expected)
        << "chunk=" << chunk;
  }
}

// --- counters ---------------------------------------------------------------

std::uint64_t rows_emitted() {
  for (const auto& [name, value] :
       core::obs::MetricsRegistry::global().snapshot().counters) {
    if (name == "ingest.rows_emitted") return value;
  }
  return 0;
}

TEST(IngestStreamTest, RowsEmittedCountsEveryProducedPoint) {
  const std::vector<JoinEntry> entries{
      {radio::Carrier::Verizon, fixture("minimal.csv")},
      {radio::Carrier::TMobile, fixture("monroe.csv")},
      {radio::Carrier::Att, fixture("errant.csv")},
  };
  const auto delta = [](const std::function<void()>& ingest) {
    const std::uint64_t before = rows_emitted();
    ingest();
    return rows_emitted() - before;
  };
  // 4 + 3 + 3 parsed points.
  EXPECT_EQ(delta([&] {
              (void)ingest_join("auto", entries, IngestOptions{}, {});
            }),
            10u);
  // The trim bounds pre-pass produces every source a second time.
  JoinOptions trim;
  trim.trim_to_overlap = true;
  EXPECT_EQ(delta([&] {
              (void)ingest_join("auto", entries, IngestOptions{}, trim);
            }),
            20u);
  // 3 downlink windows, plus the 2 uplink windows read before them.
  IngestOptions pair;
  pair.mahimahi_uplink_path = fixture("mahimahi.up");
  EXPECT_EQ(delta([&] {
              (void)ingest_file("mahimahi", fixture("mahimahi.down"), pair);
            }),
            5u);
}

// --- the adapter bugs that blocked multi-GB traces --------------------------

TEST(IngestStreamTest, MahimahiEpochTimestampsStayBounded) {
  // Pre-fix, the dense window vector was resized to timestamp/tick entries —
  // an epoch-millisecond clock meant ~3.4 billion counters. Now the first
  // timestamp anchors the windowing and the parse is O(1).
  IngestOptions options;
  const CanonicalTrace trace = load_trace(
      builtin_registry(), "mahimahi", fixture("mahimahi_epoch.down"), options);
  ASSERT_EQ(trace.points.size(), 3u);
  EXPECT_EQ(trace.points[0].t, 1'717'000'000'000);
  EXPECT_EQ(trace.points[1].t, 1'717'000'000'500);
  EXPECT_EQ(trace.points[2].t, 1'717'000'001'000);
  // 3 opportunities in the first window, an empty (outage) window, then 1.
  EXPECT_DOUBLE_EQ(trace.points[0].cap_dl, 3 * 1500 * 8 / 0.5 / 1e6);
  EXPECT_DOUBLE_EQ(trace.points[1].cap_dl, 0.0);
  EXPECT_DOUBLE_EQ(trace.points[2].cap_dl, 1 * 1500 * 8 / 0.5 / 1e6);

  // And the whole pipeline holds: the bundle aligns the epoch clock to t=0.
  const replay::ReplayBundle bundle =
      ingest_file("mahimahi", fixture("mahimahi_epoch.down"), options);
  EXPECT_EQ(bundle.db.rtts.front().t, 0);
}

TEST(IngestStreamTest, MahimahiLateStartDropsLeadingEmptyWindows) {
  IngestOptions options;
  const CanonicalTrace trace = load_trace(
      builtin_registry(), "mahimahi", fixture("mahimahi_late.down"), options);
  ASSERT_EQ(trace.points.size(), 2u);
  EXPECT_EQ(trace.points[0].t, 1000);  // not t=0: no synthetic leading outage
  EXPECT_EQ(trace.points[1].t, 1500);
  EXPECT_DOUBLE_EQ(trace.points[0].cap_dl, 2 * 1500 * 8 / 0.5 / 1e6);
  EXPECT_DOUBLE_EQ(trace.points[1].cap_dl, 1 * 1500 * 8 / 0.5 / 1e6);
}

TEST(IngestStreamTest, ExplicitFormatSkipsSniffing) {
  // The sniffer cannot score the reordered header; pre-fix, load_trace
  // sniffed unconditionally and an explicit --format could not save it.
  IngestOptions options;
  const std::string err = error_of([&] {
    (void)load_trace(builtin_registry(), "auto",
                     fixture("minimal_reordered.csv"), options);
  });
  EXPECT_NE(err.find("cannot sniff"), std::string::npos);

  const CanonicalTrace trace =
      load_trace(builtin_registry(), "minimal",
                 fixture("minimal_reordered.csv"), options);
  ASSERT_EQ(trace.points.size(), 3u);
  EXPECT_DOUBLE_EQ(trace.points[1].cap_dl, 60.0);
}

TEST(IngestStreamTest, ResampleRejectsNonMonotonicInput) {
  const auto trace_of = [](std::vector<SimMillis> ts) {
    CanonicalTrace trace;
    for (const SimMillis t : ts) {
      replay::TraceSample p;
      p.t = t;
      p.cap_dl = 1.0;
      p.cap_ul = 1.0;
      p.rtt = 50.0;
      trace.points.push_back(p);
    }
    return trace;
  };
  for (const replay::HoldPolicy fill :
       {replay::HoldPolicy::Hold, replay::HoldPolicy::Interpolate}) {
    ResampleSpec spec;
    spec.fill = fill;
    // Pre-fix, equal adjacent timestamps divided by zero under Interpolate
    // instead of failing loudly.
    const std::string dup = error_of(
        [&] { (void)helpers::resample_all(trace_of({0, 500, 500}), spec); });
    EXPECT_NE(dup.find("resample: point 3: duplicate time 500"),
              std::string::npos);
    const std::string back = error_of(
        [&] { (void)helpers::resample_all(trace_of({0, 500, 250}), spec); });
    EXPECT_NE(back.find("resample: point 3: time going backwards"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace wheels::ingest
