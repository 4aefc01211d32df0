#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/env.hpp"
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
  EXPECT_EQ(pool.workers(), 2);
  std::vector<int> hits(16, 0);
  std::vector<ThreadPool::Task> tasks;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    tasks.push_back([&hits, i] { ++hits[i]; });
  }
  pool.run_batch(std::move(tasks));
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, RunIndexedRethrowsTheLowestFailingJob) {
  for (const int threads : {1, 4}) {
    std::vector<std::atomic<int>> ran(10);
    try {
      run_indexed(threads, ran.size(), [&](std::size_t i) {
        ++ran[i];
        if (i == 3 || i == 7) {
          throw std::runtime_error{"job " + std::to_string(i)};
        }
      });
      ADD_FAILURE() << "no exception, threads=" << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string{e.what()}, "job 3") << "threads=" << threads;
    }
    // A failing job does not stop the others.
    for (const auto& r : ran) EXPECT_EQ(r.load(), 1) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace wheels::core
