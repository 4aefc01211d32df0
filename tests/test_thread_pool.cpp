#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/env.hpp"
#include "core/obs/metrics.hpp"
#include "core/thread_pool.hpp"

namespace wheels::core {
namespace {

/// Saves and restores WHEELS_THREADS so these tests cannot leak state into
/// the campaign tests that also honour it.
class ThreadPoolEnv : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* v = std::getenv("WHEELS_THREADS");
    had_value_ = v != nullptr;
    if (had_value_) saved_ = v;
    unsetenv("WHEELS_THREADS");
  }
  void TearDown() override {
    if (had_value_) {
      setenv("WHEELS_THREADS", saved_.c_str(), 1);
    } else {
      unsetenv("WHEELS_THREADS");
    }
  }

 private:
  bool had_value_ = false;
  std::string saved_;
};

TEST_F(ThreadPoolEnv, ExplicitRequestWinsOverEnv) {
  setenv("WHEELS_THREADS", "2", 1);
  EXPECT_EQ(resolve_threads(5), 5);
}

TEST_F(ThreadPoolEnv, ReadsValidEnvValue) {
  setenv("WHEELS_THREADS", "3", 1);
  EXPECT_EQ(resolve_threads(0), 3);
}

TEST_F(ThreadPoolEnv, MalformedEnvFallsBackToAuto) {
  // Under the old atoi parsing, "abc" read as 0 and silently meant auto;
  // now it warns and must still resolve to a usable count.
  for (const char* bad : {"abc", "4x", "", " 3", "3 ", "2.5"}) {
    setenv("WHEELS_THREADS", bad, 1);
    EXPECT_GE(resolve_threads(0), 1) << "value: '" << bad << "'";
  }
}

TEST_F(ThreadPoolEnv, OutOfRangeEnvFallsBackToAuto) {
  for (const char* bad : {"0", "-4", "5000", "99999999999999999999"}) {
    setenv("WHEELS_THREADS", bad, 1);
    EXPECT_GE(resolve_threads(0), 1) << "value: '" << bad << "'";
  }
}

TEST_F(ThreadPoolEnv, MalformedValueWarnsAndCountsOncePerRun) {
  // A run resolves its thread count more than once (export_dataset does
  // three times); one bad value is still one dropped knob.
  const auto ignored = [] {
    const obs::MetricsRegistry::Snapshot snap =
        obs::MetricsRegistry::global().snapshot();
    const std::uint64_t* v = snap.find_counter("config.ignored");
    return v != nullptr ? *v : 0;
  };
  setenv("WHEELS_THREADS", "once-per-run", 1);
  const std::uint64_t before = ignored();
  for (int i = 0; i < 3; ++i) EXPECT_GE(resolve_threads(0), 1);
  EXPECT_EQ(ignored(), before + 1);
}

TEST_F(ThreadPoolEnv, EnvIntParsesFullStringOnly) {
  setenv("WHEELS_THREADS", "42", 1);
  const auto v = env_int("WHEELS_THREADS");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42);

  setenv("WHEELS_THREADS", "-17", 1);
  ASSERT_TRUE(env_int("WHEELS_THREADS").has_value());
  EXPECT_EQ(*env_int("WHEELS_THREADS"), -17);

  for (const char* bad : {"42x", "x42", "4 2", "", "0x10",
                          "99999999999999999999"}) {
    setenv("WHEELS_THREADS", bad, 1);
    EXPECT_FALSE(env_int("WHEELS_THREADS").has_value())
        << "value: '" << bad << "'";
  }
  unsetenv("WHEELS_THREADS");
  EXPECT_FALSE(env_int("WHEELS_THREADS").has_value());
}

TEST_F(ThreadPoolEnv, EnvDoubleParsesFullStringOnly) {
  setenv("WHEELS_THREADS", "0.25", 1);
  const auto v = env_double("WHEELS_THREADS");
  ASSERT_TRUE(v.has_value());
  EXPECT_DOUBLE_EQ(*v, 0.25);

  setenv("WHEELS_THREADS", "1e-3", 1);
  ASSERT_TRUE(env_double("WHEELS_THREADS").has_value());
  EXPECT_DOUBLE_EQ(*env_double("WHEELS_THREADS"), 1e-3);

  for (const char* bad : {"0.25stuff", "", "one", "1e999"}) {
    setenv("WHEELS_THREADS", bad, 1);
    EXPECT_FALSE(env_double("WHEELS_THREADS").has_value())
        << "value: '" << bad << "'";
  }
}

TEST_F(ThreadPoolEnv, PoolHonoursResolvedCountUnderEnv) {
  setenv("WHEELS_THREADS", "2", 1);
  ThreadPool pool{resolve_threads(0)};
  EXPECT_EQ(pool.threads(), 2);
  std::vector<int> hits(16, 0);
  pool.run_indexed(hits.size(), [&hits](std::size_t i) { ++hits[i]; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, RunIndexedRethrowsTheLowestFailingJob) {
  // `run(jobs, job)` runs one batch in which jobs 3 and 7 throw.
  const auto expect_job_3_rethrown = [](const auto& run,
                                        const std::string& where) {
    std::vector<std::atomic<int>> ran(10);
    try {
      run(ran.size(), [&ran](std::size_t i) {
        ++ran[i];
        if (i == 3 || i == 7) {
          throw std::runtime_error{"job " + std::to_string(i)};
        }
      });
      ADD_FAILURE() << "no exception, " << where;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string{e.what()}, "job 3") << where;
    }
    // A failing job does not stop the others.
    for (const auto& r : ran) EXPECT_EQ(r.load(), 1) << where;
  };
  for (const int threads : {1, 4}) {
    expect_job_3_rethrown(
        [threads](std::size_t jobs, const auto& job) {
          run_indexed(threads, jobs, job);
        },
        "threads=" + std::to_string(threads));
  }

  // On a persistent pool the batch after a throwing one still runs every
  // job exactly once and throws nothing.
  ThreadPool pool{4};
  expect_job_3_rethrown(
      [&pool](std::size_t jobs, const auto& job) {
        pool.run_indexed(jobs, job);
      },
      "persistent pool");
  std::vector<int> hits(10, 0);
  pool.run_indexed(hits.size(), [&hits](std::size_t i) { ++hits[i]; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

// Thousands of back-to-back tiny batches give a worker that wakes late every
// chance to run a finished batch's job or to claim the next batch's indices
// with the old job. Each job adds its batch's own increment to its own slot,
// so either shows up as a wrong slot value (and as a race under
// ThreadSanitizer).
TEST(ThreadPoolTest, ManySmallBatchesRunEachJobOnce) {
  ThreadPool pool{4};
  std::vector<int> hits(5, 0);
  for (int batch = 0; batch < 20000; ++batch) {
    const std::size_t jobs = 1 + static_cast<std::size_t>(batch % 5);
    const int step = batch + 1;
    std::fill(hits.begin(), hits.end(), 0);
    pool.run_indexed(jobs, [&hits, step](std::size_t i) { hits[i] += step; });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i], i < jobs ? step : 0)
          << "batch " << batch << ", slot " << i;
    }
  }
}

}  // namespace
}  // namespace wheels::core
