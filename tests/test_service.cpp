// The wheelsd service test harness: every assertion drives a real in-process
// Server over its AF_UNIX socket through the service::Client library — the
// same code path wheelsctl uses — so the wire protocol, the scheduler, and
// the digest-keyed result cache are exercised end to end.
//
// Coverage map:
//   ServiceRoundTrip.*    submit -> progress -> result for all four job kinds;
//                         a failed job's multi-line error reaches wait()
//   ServiceCache.*        hit/miss semantics, key derivation, eviction,
//                         restart persistence
//   ServiceRecovery.*     torn index lines and torn objects after a kill;
//                         closed connections keep no thread
//   ServiceProtocol.*     exact error strings for malformed requests, exact
//                         64-bit seeds, wheelsctl arguments = JSON keys, one
//                         parser per replay-knob value
//   ServiceQueue.*        bounded admission and cancellation (paused server);
//                         the bound counts every job not yet started
//   ServiceEnv.*          WHEELS_SERVICE_* knob validation
//   ServiceConcurrency.*  concurrent submission byte-identical to serial; a
//                         free worker takes the next job; watch writes one
//                         line per change (in the tsan_smoke ctest filter)

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "core/obs/manifest.hpp"
#include "measure/enum_names.hpp"
#include "replay/fleet.hpp"
#include "replay/ingest.hpp"
#include "service/cache.hpp"
#include "service/client.hpp"
#include "service/config.hpp"
#include "service/jobs.hpp"
#include "service/server.hpp"
#include "synth/fit.hpp"
#include "synth/profile.hpp"

namespace wheels::service {
namespace {

namespace fs = std::filesystem;

const std::string& test_root() {
  static const std::string dir = [] {
    const std::string d =
        "/tmp/wheels-service-test-" + std::to_string(::getpid());
    fs::remove_all(d);
    fs::create_directories(d);
    return d;
  }();
  return dir;
}

std::string fresh_dir(const std::string& name) {
  const std::string d = test_root() + "/" + name;
  fs::remove_all(d);
  fs::create_directories(d);
  return d;
}

/// A campaign spec small enough to compute in ~a second: golden scale, no
/// apps, no static battery.
JobSpec quick_campaign(std::uint64_t seed) {
  JobSpec spec;
  spec.kind = JobKind::Campaign;
  spec.seed = seed;
  spec.scale = 0.02;
  spec.apps = false;
  spec.run_static = false;
  return spec;
}

/// A campaign that takes ~1 s in Release, long enough for short jobs
/// submitted after it to finish first whenever a worker is free.
JobSpec slow_campaign(std::uint64_t seed) {
  JobSpec spec = quick_campaign(seed);
  spec.scale = 0.2;
  spec.apps = true;
  return spec;
}

const std::string& golden_bundle() {
  static const std::string dir = WHEELS_GOLDEN_DIR "/bundle";
  return dir;
}

/// A synth profile fitted from the golden bundle, written once per process.
const std::string& profile_path() {
  static const std::string path = [] {
    const synth::SynthProfile profile =
        synth::fit_profile(replay::read_dataset(golden_bundle()));
    const std::string p = test_root() + "/profile.json";
    synth::write_profile(profile, p);
    return p;
  }();
  return path;
}

JobSpec quick_replay(std::uint64_t seed) {
  JobSpec spec;
  spec.kind = JobKind::Replay;
  spec.seed = seed;
  spec.bundles = {golden_bundle()};
  spec.knobs.cc = transport::CcAlgo::Bbr;
  return spec;
}

JobSpec quick_synth(std::uint64_t seed) {
  JobSpec spec;
  spec.kind = JobKind::Synth;
  spec.seed = seed;
  spec.profile = profile_path();
  spec.cycles = 1;
  spec.scenario = "duration_s=30";
  return spec;
}

/// An in-process daemon bound to a unique socket under the test root.
struct Daemon {
  explicit Daemon(const std::string& name, int threads = 2,
                  int queue_depth = 64, bool paused = false,
                  std::string cache_dir = {}) {
    ServerOptions options;
    options.config.socket_path = test_root() + "/" + name + ".sock";
    options.config.cache_dir =
        cache_dir.empty() ? fresh_dir(name + "-cache") : std::move(cache_dir);
    options.config.queue_depth = queue_depth;
    options.config.cache_max_bytes = 0;  // unlimited unless a test caps it
    options.config.threads = threads;
    options.start_paused = paused;
    server = std::make_unique<Server>(std::move(options));
    server->start();
  }
  Client connect() { return Client{server->config().socket_path}; }
  std::unique_ptr<Server> server;
};

std::uint64_t counter(
    const std::vector<std::pair<std::string, std::uint64_t>>& counters,
    std::string_view name) {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

std::string file_bytes(const fs::path& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

/// The daemon-side error string of a call expected to fail.
std::string thrown(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "<no error>";
}

/// The status lines of a `watch` on job `id`, read from a raw connection up
/// to the terminal one (or the daemon's close); `meanwhile` runs once the
/// request is sent.
std::vector<JobStatus> watch_lines(
    const Daemon& d, std::uint64_t id,
    const std::function<void()>& meanwhile = [] {}) {
  const std::string& path = d.server->config().socket_path;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  const std::string request =
      R"({"v": 1, "op": "watch", "id": )" + std::to_string(id) + "}\n";
  EXPECT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  meanwhile();
  std::vector<JobStatus> lines;
  std::string buffer;
  while (lines.empty() || !is_terminal(lines.back().state)) {
    const std::size_t nl = buffer.find('\n');
    if (nl != std::string::npos) {
      lines.push_back(parse_status_response(buffer.substr(0, nl)));
      buffer.erase(0, nl + 1);
      continue;
    }
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return lines;
}

/// The number on this process's `key` line of /proc/self/status ("VmSize"
/// in KiB, "Threads"); -1 when absent.
long long proc_status(const std::string& key) {
  std::ifstream in{"/proc/self/status"};
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::stoll(line.substr(key.size() + 1));
    }
  }
  return -1;
}

// --- ServiceRoundTrip -----------------------------------------------------

TEST(ServiceRoundTrip, CampaignSubmitProgressResult) {
  Daemon d{"campaign-rt"};
  Client c = d.connect();
  const JobStatus ack = c.submit(quick_campaign(1));
  EXPECT_GE(counter(ack.counters, "service.jobs_submitted"), 1u);
  const JobStatus done = c.wait(ack.id);
  EXPECT_EQ(done.state, JobState::Done);
  EXPECT_FALSE(done.cache_hit);
  ASSERT_TRUE(done.result.has_value());
  EXPECT_EQ(done.result->content_digest.size(), 16u);

  bool cache_hit = true;
  const ResultInfo info = c.result(ack.id, &cache_hit);
  EXPECT_FALSE(cache_hit);
  EXPECT_NE(std::find(info.files.begin(), info.files.end(), "manifest.json"),
            info.files.end());
  EXPECT_GE(info.files.size(), 10u);

  // The fetched bundle is a valid dataset with canonical provenance.
  const std::string out = test_root() + "/campaign-rt-out";
  c.fetch(ack.id, out);
  const replay::ReplayBundle bundle = replay::read_dataset(out);
  EXPECT_EQ(bundle.manifest.seed, 1u);
  EXPECT_EQ(bundle.manifest.started_utc, core::obs::kCanonicalStartedUtc);
  EXPECT_EQ(bundle.manifest.threads, 1);
}

TEST(ServiceRoundTrip, ReplaySubmitRoundTrip) {
  Daemon d{"replay-rt"};
  Client c = d.connect();
  const JobStatus done = c.wait(c.submit(quick_replay(3)).id);
  ASSERT_EQ(done.state, JobState::Done) << done.error;
  const std::string out = test_root() + "/replay-rt-out";
  c.fetch(done.id, out);
  const replay::ReplayBundle replayed = replay::read_dataset(out);
  EXPECT_EQ(replayed.manifest.seed, 3u);
  // The replay's digest is its own (knob cell + source identity), not the
  // source bundle's.
  const replay::ReplayBundle source = replay::read_dataset(golden_bundle());
  EXPECT_NE(replayed.manifest.config_digest, source.manifest.config_digest);
}

TEST(ServiceRoundTrip, FleetSubmitRoundTrip) {
  Daemon d{"fleet-rt"};
  Client c = d.connect();
  JobSpec spec;
  spec.kind = JobKind::Fleet;
  spec.seed = 4;
  spec.bundles = {golden_bundle()};
  spec.grid = {"cc=cubic,bbr"};
  const JobStatus done = c.wait(c.submit(spec).id);
  ASSERT_EQ(done.state, JobState::Done) << done.error;
  const ResultInfo info = c.result(done.id);
  EXPECT_EQ(info.files, (std::vector<std::string>{"fleet.csv",
                                                  "manifest.json"}));
  const std::string out = test_root() + "/fleet-rt-out";
  c.fetch(done.id, out);
  const std::string csv = file_bytes(fs::path{out} / "fleet.csv");
  EXPECT_EQ(csv.rfind("cell,carrier,metric", 0), 0u);
}

TEST(ServiceRoundTrip, SynthSubmitRoundTrip) {
  Daemon d{"synth-rt"};
  Client c = d.connect();
  const JobStatus done = c.wait(c.submit(quick_synth(5)).id);
  ASSERT_EQ(done.state, JobState::Done) << done.error;
  const std::string out = test_root() + "/synth-rt-out";
  c.fetch(done.id, out);
  const replay::ReplayBundle bundle = replay::read_dataset(out);
  EXPECT_EQ(bundle.manifest.seed, 5u);
  EXPECT_EQ(bundle.manifest.started_utc, core::obs::kCanonicalStartedUtc);
}

TEST(ServiceRoundTrip, FailedJobReportsItsMultiLineError) {
  // A bundle that fails measure::validate: one RTT sample set to -5.
  const std::string bundle = fresh_dir("invalid-bundle");
  JobSpec source = quick_campaign(121);
  source.scale = 0.005;
  run_job(source, bundle);
  const fs::path rtts = fs::path{bundle} / "rtts.csv";
  std::string csv = file_bytes(rtts);
  // The first row's fifth column: test_id,t,carrier,tech,rtt,...
  std::size_t field = csv.find('\n') + 1;
  for (int i = 0; i < 4; ++i) field = csv.find(',', field) + 1;
  ASSERT_LT(field, csv.size());
  csv.replace(field, csv.find(',', field) - field, "-5");
  std::ofstream{rtts, std::ios::binary | std::ios::trunc} << csv;

  Daemon d{"failed-rt"};
  Client c = d.connect();
  JobSpec replay = quick_replay(122);
  replay.bundles = {bundle};
  // The error spans lines; its status line must still be one line.
  const JobStatus done = c.wait(c.submit(replay).id);
  EXPECT_EQ(done.state, JobState::Failed);
  EXPECT_NE(done.error.find("failed validation:\n  - "), std::string::npos)
      << done.error;
  EXPECT_EQ(c.status(done.id).error, done.error);
}

// --- ServiceCache ---------------------------------------------------------

TEST(ServiceCache, IdenticalRequestServedFromCacheByteIdentical) {
  Daemon d{"cache-hit"};
  Client c = d.connect();
  const JobStatus first = c.wait(c.submit(quick_campaign(11)).id);
  ASSERT_EQ(first.state, JobState::Done);
  const std::uint64_t hits0 =
      counter(c.stats().counters, "service.cache_hits");
  const std::uint64_t computed0 =
      counter(c.stats().counters, "service.jobs_computed");
  const std::string run1 = test_root() + "/cache-hit-run1";
  c.fetch(first.id, run1);

  // The identical request completes in the submit fast path: Done, no
  // recompute, the obs hit counter ticks.
  const JobStatus second = c.submit(quick_campaign(11));
  EXPECT_EQ(second.state, JobState::Done);
  EXPECT_TRUE(second.cache_hit);
  ASSERT_TRUE(second.result.has_value());
  EXPECT_EQ(second.result->content_digest, first.result->content_digest);
  EXPECT_EQ(counter(c.stats().counters, "service.cache_hits"), hits0 + 1);
  EXPECT_EQ(counter(c.stats().counters, "service.jobs_computed"), computed0);

  // Byte identity, file by file.
  const std::string run2 = test_root() + "/cache-hit-run2";
  const ResultInfo info = c.fetch(second.id, run2);
  for (const std::string& name : info.files) {
    EXPECT_EQ(file_bytes(fs::path{run1} / name),
              file_bytes(fs::path{run2} / name))
        << name;
  }
}

TEST(ServiceCache, EveryCampaignKnobChangeMisses) {
  Daemon d{"cache-knobs"};
  Client c = d.connect();
  const JobStatus base = c.wait(c.submit(quick_campaign(31)).id);
  ASSERT_EQ(base.state, JobState::Done);

  std::vector<JobSpec> variants;
  variants.push_back(quick_campaign(32));  // seed
  variants.push_back(quick_campaign(31));
  variants.back().scale = 0.04;  // scale
  variants.push_back(quick_campaign(31));
  variants.back().idle = 2;  // any other digested knob
  for (const JobSpec& spec : variants) {
    const JobStatus ack = c.submit(spec);
    EXPECT_FALSE(ack.cache_hit);
    const JobStatus done = c.wait(ack.id);
    EXPECT_EQ(done.state, JobState::Done) << done.error;
    EXPECT_FALSE(done.cache_hit);
    EXPECT_NE(done.result->content_digest, base.result->content_digest);
  }
  // The unchanged request still hits.
  EXPECT_TRUE(c.submit(quick_campaign(31)).cache_hit);
}

TEST(ServiceCache, ReplayKnobChangesMiss) {
  Daemon d{"cache-replay-knobs"};
  Client c = d.connect();
  const JobStatus base = c.wait(c.submit(quick_replay(7)).id);
  ASSERT_EQ(base.state, JobState::Done) << base.error;
  EXPECT_TRUE(c.submit(quick_replay(7)).cache_hit);

  JobSpec tier = quick_replay(7);
  tier.knobs.max_tier = radio::Technology::Lte;  // tier cap
  const JobStatus tiered = c.wait(c.submit(tier).id);
  EXPECT_EQ(tiered.state, JobState::Done) << tiered.error;
  EXPECT_FALSE(tiered.cache_hit);
  EXPECT_NE(tiered.result->content_digest, base.result->content_digest);

  JobSpec cc = quick_replay(7);
  cc.knobs.cc = transport::CcAlgo::Cubic;  // congestion control
  EXPECT_FALSE(c.submit(cc).cache_hit);
}

TEST(ServiceCache, KeyDerivationPinsConfigSeedAndInput) {
  const CacheKey base = cache_key(quick_campaign(1));
  EXPECT_EQ(base.kind, JobKind::Campaign);
  EXPECT_EQ(base.seed, 1u);
  EXPECT_EQ(base.input_digest, "-");  // self-contained job

  // Seed moves the seed component but not the config digest (the campaign
  // digest canonical includes the seed; the key keeps them separable for
  // the index's sake).
  const CacheKey seeded = cache_key(quick_campaign(2));
  EXPECT_EQ(seeded.seed, 2u);
  EXPECT_NE(seeded.dir_name(), base.dir_name());

  JobSpec scaled = quick_campaign(1);
  scaled.scale = 0.04;
  EXPECT_NE(cache_key(scaled).config_digest, base.config_digest);

  // Replay keys pin the *source bundle identity* as input.
  const CacheKey replay_key = cache_key(quick_replay(7));
  EXPECT_NE(replay_key.input_digest, "-");
  JobSpec knobbed = quick_replay(7);
  knobbed.knobs.max_tier = radio::Technology::Lte;
  EXPECT_EQ(cache_key(knobbed).input_digest, replay_key.input_digest);
  EXPECT_NE(cache_key(knobbed).config_digest, replay_key.config_digest);

  // Synth keys pin the profile file bytes: an edited profile is a miss even
  // with identical knobs.
  const CacheKey synth_base = cache_key(quick_synth(9));
  const std::string edited = test_root() + "/edited-profile.json";
  fs::copy_file(profile_path(), edited,
                fs::copy_options::overwrite_existing);
  std::ofstream{edited, std::ios::app} << "\n";
  JobSpec synth_edited = quick_synth(9);
  synth_edited.profile = edited;
  EXPECT_NE(cache_key(synth_edited).input_digest, synth_base.input_digest);
  EXPECT_EQ(cache_key(synth_edited).config_digest, synth_base.config_digest);
}

TEST(ServiceCache, FleetSpecsParseOneWayForKeyAndLoader) {
  const std::string root = fresh_dir("fleet-specs");
  JobSpec spec;
  spec.kind = JobKind::Fleet;
  spec.seed = 3;

  // A bundle directory with '@' in its name is a bundle: keyed by its
  // manifest and loaded by the job.
  const std::string at_dir = root + "/v@1";
  fs::copy(golden_bundle(), at_dir, fs::copy_options::recursive);
  spec.bundles = {at_dir};
  EXPECT_NE(cache_key(spec).input_digest, "-");
  run_job(spec, root + "/at-out");
  EXPECT_TRUE(fs::exists(fs::path{root} / "at-out" / "fleet.csv"));

  // An unknown carrier after ".csv" fails the key and the job alike.
  const std::string trace = root + "/x.csv";
  std::ofstream{trace} << "t_ms,cap_dl_mbps,cap_ul_mbps,rtt_ms\n0,50,5,60\n";
  spec.bundles = {trace + "@sprint"};
  const std::string key_error = thrown([&] { (void)cache_key(spec); });
  EXPECT_NE(key_error.find("unknown carrier name 'sprint'"),
            std::string::npos)
      << key_error;
  EXPECT_EQ(thrown([&] { run_job(spec, root + "/sprint-out"); }), key_error);

  // The carrier suffix is part of a trace's identity.
  spec.bundles = {trace};
  const CacheKey plain = cache_key(spec);
  spec.bundles = {trace + "@T-Mobile"};
  EXPECT_NE(cache_key(spec).input_digest, plain.input_digest);
}

TEST(ServiceCache, EvictsLeastRecentlyUsedPastByteBound) {
  const std::string root = fresh_dir("evict-cache");
  const auto staged = [&](const std::string& name, std::size_t bytes) {
    const std::string dir = root + "/" + name;
    fs::create_directories(dir);
    std::ofstream{dir + "/data.csv", std::ios::binary}
        << std::string(bytes, 'x');
    return dir;
  };
  const auto key_of = [](std::uint64_t seed) {
    CacheKey key;
    key.kind = JobKind::Campaign;
    key.config_digest = "cfg";
    key.seed = seed;
    key.input_digest = "-";
    return key;
  };
  ResultCache cache{root, 1000};
  cache.publish(key_of(1), staged("stage-a", 600));
  EXPECT_EQ(cache.entries(), 1u);
  cache.publish(key_of(2), staged("stage-b", 600));
  // 1200 > 1000: the oldest entry is evicted, its directory removed.
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_FALSE(cache.lookup(key_of(1)).has_value());
  EXPECT_TRUE(cache.lookup(key_of(2)).has_value());
  EXPECT_FALSE(fs::exists(root + "/" + key_of(1).dir_name()));

  // The rewritten index survives a restart with only the survivor.
  ResultCache reopened{root, 1000};
  EXPECT_EQ(reopened.entries(), 1u);
  EXPECT_TRUE(reopened.warnings().empty());
  EXPECT_TRUE(reopened.lookup(key_of(2)).has_value());
}

TEST(ServiceCache, RestartServesFromDiskByteIdentically) {
  const std::string cache_dir = fresh_dir("restart-cache");
  std::string digest;
  {
    Daemon d{"restart-a", 2, 64, false, cache_dir};
    Client c = d.connect();
    const JobStatus done = c.wait(c.submit(quick_campaign(41)).id);
    ASSERT_EQ(done.state, JobState::Done);
    digest = done.result->content_digest;
    d.server->stop();
  }
  Daemon d{"restart-b", 2, 64, false, cache_dir};
  Client c = d.connect();
  const JobStatus hit = c.submit(quick_campaign(41));
  EXPECT_EQ(hit.state, JobState::Done);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.result->content_digest, digest);
}

// --- ServiceRecovery ------------------------------------------------------

TEST(ServiceRecovery, TornIndexLineIsRejectedAndRecomputed) {
  const std::string cache_dir = fresh_dir("torn-index-cache");
  std::string digest;
  {
    Daemon d{"torn-index-a", 2, 64, false, cache_dir};
    Client c = d.connect();
    const JobStatus done = c.wait(c.submit(quick_campaign(51)).id);
    ASSERT_EQ(done.state, JobState::Done);
    digest = done.result->content_digest;
    d.server->stop();
  }
  // A daemon killed mid-append leaves a torn trailing line (and possibly an
  // orphan stage directory).
  std::ofstream{cache_dir + "/index.txt", std::ios::app}
      << R"({"v": 1, "kind": "campaign", "config)";
  fs::create_directories(cache_dir + "/stage-99");

  Daemon d{"torn-index-b", 2, 64, false, cache_dir};
  Client c = d.connect();
  const StatsInfo stats = c.stats();
  ASSERT_EQ(stats.cache_warnings.size(), 1u);
  EXPECT_EQ(stats.cache_warnings[0],
            "cache index: line 2: unterminated string");
  EXPECT_FALSE(fs::exists(cache_dir + "/stage-99"));  // orphan removed
  // The intact entry still serves; the torn line cost nothing but itself.
  const JobStatus hit = c.submit(quick_campaign(51));
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.result->content_digest, digest);
  // The index was compacted: a re-open reports no warnings.
  d.server->stop();
  Daemon d2{"torn-index-c", 2, 64, false, cache_dir};
  EXPECT_TRUE(d2.server->cache().warnings().empty());
}

TEST(ServiceRecovery, TornObjectIsDroppedAndRecomputed) {
  const std::string cache_dir = fresh_dir("torn-object-cache");
  std::string digest;
  {
    Daemon d{"torn-object-a", 2, 64, false, cache_dir};
    Client c = d.connect();
    const JobStatus done = c.wait(c.submit(quick_campaign(61)).id);
    ASSERT_EQ(done.state, JobState::Done);
    digest = done.result->content_digest;
    d.server->stop();
  }
  // Corrupt one byte of the published object — a torn write the index's
  // content digest catches on the next lookup.
  const CacheKey key = cache_key(quick_campaign(61));
  std::ofstream{cache_dir + "/" + key.dir_name() + "/manifest.json",
                std::ios::trunc}
      << "torn";

  Daemon d{"torn-object-b", 2, 64, false, cache_dir};
  Client c = d.connect();
  const JobStatus ack = c.submit(quick_campaign(61));
  EXPECT_FALSE(ack.cache_hit);  // mismatch detected, entry dropped
  const JobStatus done = c.wait(ack.id);
  EXPECT_EQ(done.state, JobState::Done) << done.error;
  EXPECT_FALSE(done.cache_hit);
  EXPECT_EQ(done.result->content_digest, digest);  // recomputed identically
  const StatsInfo stats = c.stats();
  ASSERT_EQ(stats.cache_warnings.size(), 1u);
  EXPECT_EQ(stats.cache_warnings[0].rfind("cache entry " + key.dir_name() +
                                              ": content digest mismatch",
                                          0),
            0u);
}

TEST(ServiceRecovery, IndexErrorsCarryExactLineNumbers) {
  const std::string root = fresh_dir("index-errors");
  std::ofstream{root + "/index.txt"}
      << R"({"v": 2, "kind": "campaign", "config": "c", "seed": 1, "input": "-", "bytes": 1, "content": "d", "dir": "x"})"
      << "\n"
      << R"({"v": 1, "kind": "frobnicate", "config": "c", "seed": 1, "input": "-", "bytes": 1, "content": "d", "dir": "x"})"
      << "\n"
      << "garbage\n"
      << R"({"v": 1, "kind": "campaign")"
      << "\n";
  ResultCache cache{root, 0};
  EXPECT_EQ(cache.entries(), 0u);
  const std::vector<std::string> warnings = cache.warnings();
  ASSERT_EQ(warnings.size(), 4u);
  EXPECT_EQ(warnings[0],
            "cache index: line 1: unsupported cache index version 2 (this "
            "daemon writes 1)");
  EXPECT_EQ(warnings[1],
            "cache index: line 2: unknown job kind \"frobnicate\"");
  EXPECT_EQ(warnings[2], "cache index: line 3: expected a value");
  EXPECT_EQ(warnings[3], "cache index: line 4: unexpected end of input");
}

TEST(ServiceRecovery, ClosedConnectionsReleaseTheirThreads) {
  // Each connection has its own thread, whose ~8 MiB stack stays mapped
  // until the thread is joined: a closed connection must not keep it.
  Daemon d{"closed-conns"};
  const long long threads = proc_status("Threads");
  const auto one_connection = [&] {
    d.connect().stats();
    // Let its thread exit before the next one starts, so that each reuses
    // the malloc arena of the one before and only stacks can grow VmSize.
    for (int ms = 0; ms < 1000 && proc_status("Threads") > threads; ++ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds{1});
    }
  };
  one_connection();
  const long long before = proc_status("VmSize");
  ASSERT_GT(before, 0);
  for (int i = 0; i < 256; ++i) one_connection();
  EXPECT_LT(proc_status("VmSize") - before, 128 << 10)
      << "VmSize grew from " << before << " kB";
}

// --- ServiceProtocol ------------------------------------------------------

TEST(ServiceProtocol, MalformedRequestsFailWithExactStrings) {
  Daemon d{"protocol"};
  Client c = d.connect();
  const auto err = [&](const std::string& line) {
    return thrown([&] { parse_ok_response(c.raw_request(line)); });
  };
  EXPECT_EQ(err(R"({"v": 2, "op": "stats"})"),
            "protocol: line 1: unsupported protocol version 2 (this daemon "
            "speaks 1)");
  EXPECT_EQ(err(R"({"v": 1, "op": "frobnicate"})"),
            "protocol: line 1: unknown op \"frobnicate\"");
  EXPECT_EQ(
      err(R"({"v": 1, "op": "submit", "job": {"kind": "frobnicate"}})"),
      "protocol: line 1: unknown job kind \"frobnicate\"");
  EXPECT_EQ(err(R"({"v": 1, "op": "submit"})"),
            "protocol: line 1: missing key \"job\"");
  EXPECT_EQ(err(R"({"v": 1, "op":)"),
            "protocol: line 1: unexpected end of input");
  EXPECT_EQ(err("garbage"), "protocol: line 1: expected a value");
  EXPECT_EQ(err(R"({"v": 1, "op": "stats", "id": 1})"),
            "protocol: line 1: unknown key \"id\" for op \"stats\"");
  EXPECT_EQ(
      err(R"({"v": 1, "op": "submit", "job": {"kind": "replay", "scale": 2}})"),
      "protocol: line 1: key \"scale\" does not apply to replay jobs");
  EXPECT_EQ(
      err(R"({"v": 1, "op": "submit", "job": {"kind": "replay"}})"),
      "protocol: line 1: replay job needs \"bundle\"");
  EXPECT_EQ(
      err(R"({"v": 1, "op": "submit", "job": {"kind": "fleet", "ci": 300}})"),
      "protocol: line 1: key \"ci\" does not apply to fleet jobs");
}

TEST(ServiceProtocol, JobAndResultErrorsNameTheJob) {
  Daemon d{"protocol-jobs", 2, 64, /*paused=*/true};
  Client c = d.connect();
  EXPECT_EQ(thrown([&] { c.status(42); }), "status: no such job 42");
  EXPECT_EQ(thrown([&] { c.result(42); }), "result: no such job 42");
  EXPECT_EQ(thrown([&] { c.cancel(42); }), "cancel: no such job 42");

  const JobStatus ack = c.submit(quick_campaign(71));
  EXPECT_EQ(ack.state, JobState::Queued);
  EXPECT_EQ(thrown([&] { c.result(ack.id); }),
            "result: job " + std::to_string(ack.id) + " is queued");
  const JobStatus cancelled = c.cancel(ack.id);
  EXPECT_EQ(cancelled.state, JobState::Cancelled);
  EXPECT_EQ(thrown([&] { c.result(ack.id); }),
            "result: job " + std::to_string(ack.id) + " is cancelled");
}

TEST(ServiceProtocol, SubmitWithMissingInputFails) {
  Daemon d{"protocol-input"};
  Client c = d.connect();
  JobSpec spec = quick_replay(1);
  spec.bundles = {test_root() + "/no-such-bundle"};
  const std::string error = thrown([&] { c.submit(spec); });
  EXPECT_NE(error.find("no-such-bundle"), std::string::npos) << error;
}

TEST(ServiceProtocol, SpecJsonRoundTripsForEveryKind) {
  std::vector<JobSpec> specs;
  specs.push_back(quick_campaign(7));
  specs.back().ues = 50;
  specs.back().scheduler = ran::SchedulerKind::RoundRobin;
  specs.push_back(quick_replay(8));
  specs.back().knobs.max_tier = radio::Technology::Lte;
  specs.back().policy = replay::HoldPolicy::Interpolate;
  JobSpec fleet;
  fleet.kind = JobKind::Fleet;
  fleet.seed = 9;
  fleet.bundles = {"a", "b"};
  fleet.grid = {"cc=cubic,bbr", "tier=recorded,LTE"};
  specs.push_back(fleet);
  specs.push_back(quick_synth(10));

  for (const JobSpec& spec : specs) {
    const Request req = parse_request(
        R"({"v": 1, "op": "submit", "job": )" + spec.to_json() + "}");
    EXPECT_EQ(req.op, Request::Op::Submit);
    EXPECT_EQ(req.job.to_json(), spec.to_json());
  }
}

TEST(ServiceProtocol, SeedsRoundTripExactly) {
  for (const std::uint64_t seed : {(1ull << 53) + 1, ~0ull}) {
    const JobSpec spec = quick_campaign(seed);
    const Request req = parse_request(
        R"({"v": 1, "op": "submit", "job": )" + spec.to_json() + "}");
    EXPECT_EQ(req.job.seed, seed);
    EXPECT_EQ(req.job.to_json(), spec.to_json());
    JobSpec cli;
    apply_job_arg(cli, "seed=" + std::to_string(seed));
    EXPECT_EQ(cli.seed, seed);
  }
  for (const std::string bad : {"18446744073709551616", "-1", "1.5", "1e3"}) {
    EXPECT_EQ(thrown([&] {
                parse_request(
                    R"({"v": 1, "op": "submit", "job": {"kind": "campaign", )"
                    R"("seed": )" +
                    bad + "}}");
              }),
              "protocol: line 1: \"seed\" must be an unsigned 64-bit integer "
              "in plain digits, got '" + bad + "'");
    JobSpec cli;
    EXPECT_EQ(thrown([&] { apply_job_arg(cli, "seed=" + bad); }),
              "job argument \"seed=" + bad +
                  "\": line 1: \"seed\" must be an unsigned 64-bit integer "
                  "in plain digits, got '" + bad + "'");
  }

  // The cache index keeps the seed exactly too: an entry published under
  // 2^64 - 1 is found again after a restart.
  const std::string root = fresh_dir("seed-index");
  const std::string staged = fresh_dir("seed-index-stage");
  std::ofstream{staged + "/data.csv"} << "x\n";
  CacheKey key;
  key.kind = JobKind::Campaign;
  key.config_digest = "cfg";
  key.seed = ~0ull;
  key.input_digest = "-";
  ResultCache{root, 0}.publish(key, staged);
  ResultCache reopened{root, 0};
  EXPECT_TRUE(reopened.warnings().empty());
  EXPECT_TRUE(reopened.lookup(key).has_value());
}

TEST(ServiceProtocol, CliArgumentsBuildTheJsonSpec) {
  // Every key of each kind as a wheelsctl argument beside the same value in
  // a request, applied in order (a later list value replaces the earlier
  // one in JSON, as the CLI's repeated list arguments accumulate).
  struct Key {
    std::string arg;
    std::string json;
  };
  struct Kind {
    JobKind kind;
    std::vector<Key> keys;
    std::string canonical;  // to_json, as the table-free renderer wrote it
  };
  const std::vector<Kind> kinds = {
      {JobKind::Campaign,
       {{"seed=7", R"("seed": 7)"},
        {"scale=0.05", R"("scale": 0.05)"},
        {"apps=0", R"("apps": false)"},
        {"stride=2", R"("stride": 2)"},
        {"static=false", R"("static": false)"},
        {"idle=3", R"("idle": 3)"},
        {"ues=50", R"("ues": 50)"},
        {"sched=rr", R"("sched": "rr")"}},
       R"({"kind": "campaign", "seed": 7, "scale": 0.050000000000000003, )"
       R"("apps": false, "stride": 2, "static": false, "idle": 3, "ues": 50, )"
       R"("sched": "rr"})"},
      {JobKind::Replay,
       {{"bundle=b", R"("bundle": "b")"},
        {"seed=8", R"("seed": 8)"},
        {"cc=bbr", R"("cc": "bbr")"},
        {"server=edge", R"("server": "edge")"},
        {"tier=LTE", R"("tier": "LTE")"},
        {"interp=linear", R"("interp": "linear")"}},
       R"({"kind": "replay", "seed": 8, "bundle": "b", "cc": "bbr", )"
       R"("server": "edge", "tier": "LTE", "interp": "linear"})"},
      {JobKind::Fleet,
       {{"bundle=a", R"("bundles": ["a"])"},
        {"bundles=b", R"("bundles": ["a", "b"])"},
        {"seed=9", R"("seed": 9)"},
        {"grid=cc=cubic,bbr", R"("grid": ["cc=cubic,bbr"])"},
        {"grid=tier=recorded,LTE",
         R"("grid": ["cc=cubic,bbr", "tier=recorded,LTE"])"},
        {"interp=linear", R"("interp": "linear")"}},
       R"({"kind": "fleet", "seed": 9, "bundles": ["a", "b"], )"
       R"("grid": ["cc=cubic,bbr", "tier=recorded,LTE"], "interp": "linear"})"},
      {JobKind::Synth,
       {{"profile=p.json", R"("profile": "p.json")"},
        {"seed=10", R"("seed": 10)"},
        {"cycles=2", R"("cycles": 2)"},
        {"spec=duration_s=30", R"("spec": "duration_s=30")"}},
       R"({"kind": "synth", "seed": 10, "profile": "p.json", "cycles": 2, )"
       R"("spec": "duration_s=30"})"},
  };
  for (const Kind& k : kinds) {
    const std::string kind{job_kind_name(k.kind)};
    JobSpec cli;
    cli.kind = k.kind;
    std::string json = R"({"v": 1, "op": "submit", "job": {"kind": ")" + kind +
                       "\"";
    for (const Key& key : k.keys) {
      apply_job_arg(cli, key.arg);
      json += ", " + key.json;
      EXPECT_EQ(cli.to_json(), parse_request(json + "}}").job.to_json())
          << key.arg;
    }
    EXPECT_EQ(cli.to_json(), k.canonical);

    // A key of another kind is refused, not dropped.
    if (k.kind != JobKind::Fleet) {
      JobSpec spec;
      spec.kind = k.kind;
      EXPECT_EQ(thrown([&] { apply_job_arg(spec, "grid=cc=bbr"); }),
                "unknown job argument \"grid\" for " + kind + " jobs");
    }
  }
}

TEST(ServiceProtocol, KnobValuesParseOneWayEverywhere) {
  const auto from_env = [](const char* name, const std::string& value) {
    ::setenv(name, value.c_str(), 1);
    const replay::ReplayConfig cfg = replay::replay_config_from_env();
    ::unsetenv(name);
    return cfg;
  };
  const auto from_grid = [](const std::string& axis) {
    replay::KnobGrid grid;
    replay::apply_grid_axis(grid, axis);
    return grid;
  };
  const auto from_arg = [](const std::string& arg) {
    JobSpec spec;
    spec.kind = JobKind::Replay;
    apply_job_arg(spec, arg);
    return spec;
  };
  // Every value name decodes to one enum in the env reader, the fleet grid
  // and the job keys (wheelsctl's arguments decode as the wire does).
  for (const auto cc : {transport::CcAlgo::Cubic, transport::CcAlgo::Bbr}) {
    const std::string name{transport::cc_algo_name(cc)};
    EXPECT_EQ(from_env("WHEELS_REPLAY_CC", name).knobs.cc, cc);
    ASSERT_EQ(from_grid("cc=" + name).cc.size(), 1u);
    EXPECT_EQ(from_grid("cc=" + name).cc[0], cc);
    EXPECT_EQ(from_arg("cc=" + name).knobs.cc, cc);
  }
  for (const auto server : measure::names::kAllServerKinds) {
    const std::string name{net::server_kind_name(server)};
    EXPECT_EQ(from_env("WHEELS_REPLAY_SERVER", name).knobs.server, server);
    ASSERT_EQ(from_grid("server=" + name).server.size(), 1u);
    EXPECT_EQ(from_grid("server=" + name).server[0], server);
    EXPECT_EQ(from_arg("server=" + name).knobs.server, server);
  }
  for (const auto tier : radio::kAllTechnologies) {
    const std::string name{radio::technology_name(tier)};
    EXPECT_EQ(from_env("WHEELS_REPLAY_MAX_TIER", name).knobs.max_tier, tier);
    ASSERT_EQ(from_grid("tier=" + name).max_tier.size(), 1u);
    EXPECT_EQ(from_grid("tier=" + name).max_tier[0], tier);
    EXPECT_EQ(from_arg("tier=" + name).knobs.max_tier, tier);
  }
  const std::pair<const char*, replay::HoldPolicy> policies[] = {
      {"hold", replay::HoldPolicy::Hold},
      {"linear", replay::HoldPolicy::Interpolate}};
  for (const auto& [name, policy] : policies) {
    EXPECT_EQ(from_env("WHEELS_REPLAY_INTERP", name).policy, policy);
    EXPECT_EQ(from_arg(std::string{"interp="} + name).policy, policy);
  }
  // An unknown value fails with one message from the grid and the wire.
  for (const std::string axis : {"cc", "server", "tier"}) {
    const std::string grid_prefix = "fleet grid: " + axis + "=warp: ";
    const std::string grid_error = thrown([&] { from_grid(axis + "=warp"); });
    const std::string wire_prefix = "protocol: line 1: ";
    const std::string wire_error = thrown([&] {
      parse_request(R"({"v": 1, "op": "submit", "job": {"kind": "replay", )"
                    R"("bundle": "b", ")" + axis + R"(": "warp"}})");
    });
    ASSERT_EQ(grid_error.rfind(grid_prefix, 0), 0u) << grid_error;
    ASSERT_EQ(wire_error.rfind(wire_prefix, 0), 0u) << wire_error;
    EXPECT_EQ(grid_error.substr(grid_prefix.size()),
              wire_error.substr(wire_prefix.size()));
  }
}

// --- ServiceQueue ---------------------------------------------------------

TEST(ServiceQueue, BoundedAdmissionRejectsAndCancelFrees) {
  Daemon d{"queue", 2, /*queue_depth=*/2, /*paused=*/true};
  Client c = d.connect();
  const JobStatus j1 = c.submit(quick_campaign(81));
  const JobStatus j2 = c.submit(quick_campaign(82));
  EXPECT_EQ(j1.state, JobState::Queued);
  EXPECT_EQ(j2.state, JobState::Queued);
  EXPECT_EQ(thrown([&] { c.submit(quick_campaign(83)); }),
            "submit: queue full (depth 2)");

  // Cancelling a queued job frees its slot immediately.
  EXPECT_EQ(c.cancel(j1.id).state, JobState::Cancelled);
  const JobStatus j4 = c.submit(quick_campaign(84));
  EXPECT_EQ(j4.state, JobState::Queued);

  d.server->resume();
  EXPECT_EQ(c.wait(j2.id).state, JobState::Done);
  EXPECT_EQ(c.wait(j4.id).state, JobState::Done);
  EXPECT_EQ(c.status(j1.id).state, JobState::Cancelled);  // stayed cancelled
}

TEST(ServiceQueue, BoundCountsEveryJobNotYetStarted) {
  Daemon d{"queue-exact", 1, /*queue_depth=*/2, /*paused=*/true};
  Client c = d.connect();
  const JobSpec synths[] = {quick_synth(111), quick_synth(112),
                            quick_synth(113)};
  const JobStatus slow = c.submit(slow_campaign(110));
  const JobStatus first = c.submit(synths[0]);
  d.server->resume();
  while (c.status(slow.id).state == JobState::Queued) {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  }
  // The one worker holds the campaign; the synth job has not started and
  // still takes a queue slot.
  ASSERT_EQ(c.status(slow.id).state, JobState::Running);
  EXPECT_EQ(c.status(first.id).state, JobState::Queued);
  EXPECT_EQ(c.submit(synths[1]).state, JobState::Queued);
  EXPECT_EQ(thrown([&] { c.submit(synths[2]); }),
            "submit: queue full (depth 2)");
}

// --- ServiceEnv -----------------------------------------------------------

TEST(ServiceEnv, GarbageKnobsWarnAndKeepDefaults) {
  const auto config_with = [](const char* name, const char* value) {
    ::setenv(name, value, 1);
    const ServiceConfig cfg = service_config_from_env();
    ::unsetenv(name);
    return cfg;
  };
  const ServiceConfig defaults = service_config_from_env();
  EXPECT_EQ(defaults.socket_path, "wheelsd.sock");
  EXPECT_EQ(defaults.cache_dir, "wheelsd-cache");
  EXPECT_EQ(defaults.queue_depth, 64);
  EXPECT_EQ(defaults.cache_max_bytes, 1ull << 30);

  EXPECT_EQ(config_with("WHEELS_SERVICE_QUEUE", "17").queue_depth, 17);
  EXPECT_EQ(config_with("WHEELS_SERVICE_QUEUE", "abc").queue_depth, 64);
  EXPECT_EQ(config_with("WHEELS_SERVICE_QUEUE", "12abc").queue_depth, 64);
  // Zero spelled "00": ignore_env reports each (name, value) pair once per
  // process, and the config.ignored test in test_obs.cpp counts "0".
  EXPECT_EQ(config_with("WHEELS_SERVICE_QUEUE", "00").queue_depth, 64);
  EXPECT_EQ(config_with("WHEELS_SERVICE_QUEUE", "-3").queue_depth, 64);

  EXPECT_EQ(
      config_with("WHEELS_SERVICE_CACHE_MAX_BYTES", "4096").cache_max_bytes,
      4096u);
  EXPECT_EQ(
      config_with("WHEELS_SERVICE_CACHE_MAX_BYTES", "junk").cache_max_bytes,
      1ull << 30);
  EXPECT_EQ(
      config_with("WHEELS_SERVICE_CACHE_MAX_BYTES", "-1").cache_max_bytes,
      1ull << 30);
  EXPECT_EQ(
      config_with("WHEELS_SERVICE_CACHE_MAX_BYTES", "0").cache_max_bytes,
      0u);

  EXPECT_EQ(config_with("WHEELS_SERVICE_SOCKET", "/tmp/w.sock").socket_path,
            "/tmp/w.sock");
  EXPECT_EQ(config_with("WHEELS_SERVICE_CACHE_DIR", "/tmp/wc").cache_dir,
            "/tmp/wc");
}

// --- ServiceConcurrency (tsan_smoke) --------------------------------------

TEST(ServiceConcurrency, MixedBatchByteIdenticalToSerialAtEveryWidth) {
  // Serial reference: each job's entry point run directly, no daemon.
  std::vector<JobSpec> specs = {quick_campaign(91), quick_campaign(92),
                                quick_replay(93), quick_synth(94)};
  std::vector<std::string> reference;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string dir =
        fresh_dir("serial-ref-" + std::to_string(i));
    run_job(specs[i], dir);
    reference.push_back(digest_directory(dir));
  }

  for (const int threads : {1, 2, 4}) {
    Daemon d{"conc-w" + std::to_string(threads), threads};
    std::vector<std::string> digests(specs.size());
    std::vector<std::thread> clients;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      clients.emplace_back([&, i] {
        Client c = d.connect();
        const JobStatus done = c.wait(c.submit(specs[i]).id);
        if (done.state == JobState::Done) {
          digests[i] = done.result->content_digest;
        }
      });
    }
    for (std::thread& t : clients) t.join();
    EXPECT_EQ(digests, reference) << "threads=" << threads;
  }
}

TEST(ServiceConcurrency, FreeWorkerTakesTheNextJob) {
  Daemon d{"free-worker", 2};
  Client c = d.connect();
  const JobSpec synths[] = {quick_synth(102), quick_synth(103)};
  const JobStatus slow = c.submit(slow_campaign(101));
  // The second worker runs both synth jobs, one after the other, while the
  // first still runs the campaign: no job waits for a job it did not follow.
  for (const JobSpec& spec : synths) {
    const JobStatus done = c.wait(c.submit(spec).id);
    EXPECT_EQ(done.state, JobState::Done) << done.error;
  }
  EXPECT_FALSE(is_terminal(c.status(slow.id).state));
  EXPECT_EQ(c.wait(slow.id).state, JobState::Done);
}

TEST(ServiceConcurrency, WatchWritesOneLinePerChange) {
  Daemon d{"watch-lines", 1, 64, /*paused=*/true};
  Client c = d.connect();
  const JobStatus queued = c.submit(quick_campaign(131));
  // A paused daemon does not move the queued job: its stream holds the
  // first line, written at once, and the cancel's line, nothing between.
  const std::vector<JobStatus> cancelled = watch_lines(d, queued.id, [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds{200});
    c.cancel(queued.id);
  });
  ASSERT_EQ(cancelled.size(), 2u);
  EXPECT_EQ(cancelled[0].state, JobState::Queued);
  EXPECT_EQ(cancelled[1].state, JobState::Cancelled);

  d.server->resume();
  const std::vector<JobStatus> lines =
      watch_lines(d, c.submit(quick_synth(132)).id);
  ASSERT_FALSE(lines.empty());
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_TRUE(lines[i].state != lines[i - 1].state ||
                lines[i].stage != lines[i - 1].stage)
        << "line " << i << " repeats stage " << lines[i].stage;
  }
  EXPECT_EQ(lines.back().state, JobState::Done) << lines.back().error;
}

TEST(ServiceConcurrency, ConcurrentIdenticalSubmissionsShareOneEntry) {
  Daemon d{"conc-dedupe", 4};
  constexpr int kClients = 6;
  std::vector<std::string> digests(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      Client c = d.connect();
      const JobStatus done = c.wait(c.submit(quick_synth(95)).id);
      if (done.state == JobState::Done) {
        digests[i] = done.result->content_digest;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int i = 1; i < kClients; ++i) {
    EXPECT_EQ(digests[i], digests[0]);
  }
  EXPECT_FALSE(digests[0].empty());
  // However the race resolved, exactly one cache entry exists.
  EXPECT_EQ(d.server->cache().entries(), 1u);
}

}  // namespace
}  // namespace wheels::service
