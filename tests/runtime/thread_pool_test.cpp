#include "fbdcsim/runtime/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace fbdcsim::runtime {
namespace {

TEST(ThreadPoolTest, ZeroTasksReturnsImmediately) {
  ThreadPool pool{4};
  bool called = false;
  pool.parallel_for_each(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, OneTaskRuns) {
  ThreadPool pool{4};
  std::atomic<int> calls{0};
  pool.parallel_for_each(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  ThreadPool pool{4};
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> seen(kCount);
  pool.parallel_for_each(kCount, [&](std::size_t i) { ++seen[i]; });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(seen[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ManyMoreTasksThanQueueCapacity) {
  // The bounded queue throttles the poster; all tasks still run.
  ThreadPool pool{2};
  std::atomic<std::int64_t> sum{0};
  constexpr std::size_t kCount = 10'000;
  pool.parallel_for_each(kCount, [&](std::size_t i) {
    sum += static_cast<std::int64_t>(i);
  });
  EXPECT_EQ(sum.load(), static_cast<std::int64_t>(kCount) * (kCount - 1) / 2);
}

TEST(ThreadPoolTest, ParallelMapPreservesOrder) {
  ThreadPool pool{4};
  std::vector<int> in(257);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = static_cast<int>(i);
  const auto out = pool.parallel_map(in, [](const int& x) { return x * x; });
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) EXPECT_EQ(out[i], in[i] * in[i]);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool{4};
  EXPECT_THROW(
      pool.parallel_for_each(100,
                             [&](std::size_t i) {
                               if (i == 37) throw std::runtime_error{"task 37 failed"};
                             }),
      std::runtime_error);
}

TEST(ThreadPoolTest, LowestIndexExceptionWins) {
  // Every task throws; the surfaced error must be task 0's regardless of
  // scheduling, so failures are reproducible.
  ThreadPool pool{8};
  try {
    pool.parallel_for_each(64, [&](std::size_t i) {
      throw std::runtime_error{std::to_string(i)};
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "0");
  }
}

TEST(ThreadPoolTest, PoolIsReusableAfterException) {
  ThreadPool pool{2};
  EXPECT_THROW(pool.parallel_for_each(
                   8, [](std::size_t) { throw std::runtime_error{"boom"}; }),
               std::runtime_error);
  std::atomic<int> calls{0};
  pool.parallel_for_each(8, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 8);
}

TEST(ThreadPoolTest, PostRunsTask) {
  ThreadPool pool{1};
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  pool.post([&] {
    std::lock_guard<std::mutex> lk{mu};
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lk{mu};
  cv.wait(lk, [&] { return done; });
  EXPECT_TRUE(done);
}

TEST(EnvThreadCountTest, HonorsValidOverride) {
  ::setenv("FBDCSIM_THREADS", "3", 1);
  EXPECT_EQ(env_thread_count(), 3);
  ::unsetenv("FBDCSIM_THREADS");
}

TEST(EnvThreadCountTest, RejectsMalformedValues) {
  for (const char* bad : {"abc", "-2", "0", "4x", ""}) {
    ::setenv("FBDCSIM_THREADS", bad, 1);
    EXPECT_GE(env_thread_count(), 1) << bad;
    // Malformed values fall back to hardware concurrency, never crash.
  }
  ::unsetenv("FBDCSIM_THREADS");
  EXPECT_GE(env_thread_count(), 1);
}

TEST(EnvThreadCountTest, DiagnosesEachMalformedValueOnce) {
  const auto lines = [](const std::string& s) {
    return static_cast<int>(std::count(s.begin(), s.end(), '\n'));
  };
  ::unsetenv("FBDCSIM_THREADS");
  const int fallback = env_thread_count();  // hardware concurrency
  ::setenv("FBDCSIM_THREADS", "bogus-once", 1);
  testing::internal::CaptureStderr();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(env_thread_count(), fallback);
  const std::string first = testing::internal::GetCapturedStderr();
  EXPECT_EQ(lines(first), 1) << first;
  EXPECT_NE(first.find("'bogus-once'"), std::string::npos) << first;

  ::setenv("FBDCSIM_THREADS", "also-bogus", 1);
  testing::internal::CaptureStderr();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(env_thread_count(), fallback);
  ::setenv("FBDCSIM_THREADS", "bogus-once", 1);
  EXPECT_EQ(env_thread_count(), fallback);
  const std::string second = testing::internal::GetCapturedStderr();
  EXPECT_EQ(lines(second), 1) << second;
  EXPECT_NE(second.find("'also-bogus'"), std::string::npos) << second;
  ::unsetenv("FBDCSIM_THREADS");
}

}  // namespace
}  // namespace fbdcsim::runtime
