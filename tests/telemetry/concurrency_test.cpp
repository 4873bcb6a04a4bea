// Concurrency semantics of the sharded metric primitives. These tests run
// in the Debug+TSan CI job alongside the runtime/ suite: the sharded cells
// and merge-on-snapshot discipline must be provably race-free, not just
// numerically right.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "fbdcsim/telemetry/telemetry.h"

namespace fbdcsim::telemetry {
namespace {

TEST(TelemetryConcurrencyTest, ConcurrentCounterAddsLoseNothing) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c", Kind::kSim);
  constexpr int kThreads = 8;
  constexpr std::int64_t kPerThread = 100'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::int64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

/// Runs `threads` threads that each claim their shard, wait until all have
/// started, then call `body(t)` with their index t. Returns each thread's
/// shard.
template <typename Body>
std::vector<std::size_t> run_concurrently(int threads, const Body& body) {
  std::vector<std::size_t> shards(static_cast<std::size_t>(threads));
  std::atomic<int> ready{0};
  std::vector<std::thread> pool;
  pool.reserve(shards.size());
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      shards[static_cast<std::size_t>(t)] = detail::this_thread_shard();
      ready.fetch_add(1);
      while (ready.load() < threads) std::this_thread::yield();
      body(t);
    });
  }
  for (auto& t : pool) t.join();
  return shards;
}

/// Adds 1 to `c` `per_thread` times on each of `threads` threads.
std::vector<std::size_t> add_concurrently(Counter& c, int threads, std::int64_t per_thread) {
  return run_concurrently(threads, [&c, per_thread](int) {
    for (std::int64_t i = 0; i < per_thread; ++i) c.add();
  });
}

/// The i-th value thread t observes: spread over exact and log bins, and
/// distinct per thread so the extremes come from different threads.
std::int64_t sample_value(int t, std::int64_t i) { return (i * 37 + t * 1'001) % 70'000; }

/// Observes sample_value(t, i) for i < per_thread on each of `threads`
/// threads, then checks every bin, the count, the sum and the extremes
/// against a plain serial tally.
std::vector<std::size_t> expect_exact_histogram(int threads, std::int64_t per_thread) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h", Kind::kSim);
  const auto shards = run_concurrently(threads, [&h, per_thread](int t) {
    for (std::int64_t i = 0; i < per_thread; ++i) h.observe(sample_value(t, i));
  });
  std::vector<std::int64_t> bins(Histogram::kBins, 0);
  std::int64_t sum = 0;
  std::int64_t mn = std::numeric_limits<std::int64_t>::max();
  std::int64_t mx = std::numeric_limits<std::int64_t>::min();
  for (int t = 0; t < threads; ++t) {
    for (std::int64_t i = 0; i < per_thread; ++i) {
      const std::int64_t v = sample_value(t, i);
      ++bins[Histogram::bin_for(v)];
      sum += v;
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
  }
  const Snapshot snap = reg.snapshot();
  const auto* hv = snap.histogram("h");
  EXPECT_NE(hv, nullptr);
  if (hv == nullptr) return shards;
  EXPECT_EQ(hv->count, threads * per_thread);
  EXPECT_EQ(hv->sum, static_cast<double>(sum));
  EXPECT_EQ(hv->min, mn);
  EXPECT_EQ(hv->max, mx);
  EXPECT_EQ(hv->bins, bins);
  return shards;
}

TEST(TelemetryConcurrencyTest, OwnedShardsCountExactly) {
  // Slots are claimed once per process. ctest runs each case in its own
  // process, so these threads are among the first kShards - 1 to claim.
  MetricsRegistry reg;
  Counter& c = reg.counter("c", Kind::kSim);
  constexpr int kThreads = 6;
  constexpr std::int64_t kPerThread = 200'000;
  const auto shards = add_concurrently(c, kThreads, kPerThread);
  std::set<std::size_t> owned;
  for (const std::size_t s : shards) {
    if (s != detail::kSharedShard) {
      EXPECT_TRUE(owned.insert(s).second) << "shard " << s;
    }
  }
  if (owned.empty()) GTEST_SKIP() << "earlier threads in this process claimed every owned shard";
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  c.add(5);
  EXPECT_EQ(c.value(), kThreads * kPerThread + 5);
}

TEST(TelemetryConcurrencyTest, MoreThreadsThanShardsShareTheLastOneExactly) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c", Kind::kSim);
  constexpr int kThreads = 3 * static_cast<int>(detail::kShards);
  constexpr std::int64_t kPerThread = 20'000;
  const auto shards = add_concurrently(c, kThreads, kPerThread);
  // At most kShards - 1 threads per process ever own a shard; the rest of
  // these, at least 2 * kShards + 1, share the last one through fetch_add.
  const auto shared = std::count(shards.begin(), shards.end(), detail::kSharedShard);
  EXPECT_GE(shared, kThreads - static_cast<int>(detail::kSharedShard));
  std::set<std::size_t> owned;
  for (const std::size_t s : shards) {
    ASSERT_LT(s, detail::kShards);
    if (s != detail::kSharedShard) {
      EXPECT_TRUE(owned.insert(s).second) << "shard " << s;
    }
  }
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(TelemetryConcurrencyTest, HistogramOnOwnedShardsIsExact) {
  // As in OwnedShardsCountExactly, these threads are among the process's
  // first, so they own their shards.
  const auto shards = expect_exact_histogram(6, 100'000);
  std::set<std::size_t> owned;
  for (const std::size_t s : shards) {
    if (s != detail::kSharedShard) {
      EXPECT_TRUE(owned.insert(s).second) << "shard " << s;
    }
  }
  if (owned.empty()) {
    GTEST_SKIP() << "earlier threads in this process claimed every owned shard";
  }
}

TEST(TelemetryConcurrencyTest, HistogramOnTheSharedShardIsExact) {
  constexpr int kThreads = 3 * static_cast<int>(detail::kShards);
  const auto shards = expect_exact_histogram(kThreads, 10'000);
  const auto shared = std::count(shards.begin(), shards.end(), detail::kSharedShard);
  EXPECT_GE(shared, kThreads - static_cast<int>(detail::kSharedShard));
}

TEST(TelemetryConcurrencyTest, ConcurrentHistogramObservesSumExactly) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h", Kind::kWall);
  constexpr int kThreads = 4;
  constexpr std::int64_t kPerThread = 50'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (std::int64_t i = 0; i < kPerThread; ++i) h.observe(t + 1);
    });
  }
  for (auto& t : threads) t.join();
  const Snapshot snap = reg.snapshot();
  const auto* hv = snap.histogram("h");
  ASSERT_NE(hv, nullptr);
  EXPECT_EQ(hv->count, kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(hv->sum, static_cast<double>(kPerThread) * (1 + 2 + 3 + 4));
  EXPECT_EQ(hv->min, 1);
  EXPECT_EQ(hv->max, kThreads);
}

TEST(TelemetryConcurrencyTest, SnapshotDuringMutationIsRaceFree) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c", Kind::kSim);
  Gauge& g = reg.gauge("g", Kind::kWall);
  Histogram& h = reg.histogram("h", Kind::kWall);
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      for (std::int64_t i = 0; i < 20'000; ++i) {
        c.add();
        g.update_max(i);
        h.observe(i & 1023);
      }
    });
  }
  std::int64_t last_seen = 0;
  for (int i = 0; i < 50; ++i) {
    const Snapshot snap = reg.snapshot();
    const std::int64_t now = snap.counter("c")->value;
    EXPECT_GE(now, last_seen);  // counters only grow
    last_seen = now;
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(reg.snapshot().counter("c")->value, 4 * 20'000);
}

TEST(TelemetryConcurrencyTest, RegistrationRacesResolveToOneHandle) {
  MetricsRegistry reg;
  std::vector<Counter*> handles(8, nullptr);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < handles.size(); ++t) {
    threads.emplace_back([&reg, &handles, t] {
      handles[t] = &reg.counter("shared", Kind::kSim);
      handles[t]->add();
    });
  }
  for (auto& t : threads) t.join();
  for (const Counter* h : handles) EXPECT_EQ(h, handles[0]);
  EXPECT_EQ(handles[0]->value(), 8);
}

TEST(TelemetryConcurrencyTest, SpansOnManyThreadsAllRecord) {
  Tracer tracer;
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        TraceSpan outer{"outer", tracer};
        TraceSpan inner{"inner", tracer};
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto events = tracer.events();
  ASSERT_EQ(events.size(),
            static_cast<std::size_t>(kThreads) * kSpansPerThread * 2);
  // Depth bookkeeping is per thread: every event is depth 0 or 1, never
  // contaminated by a sibling thread.
  for (const TraceEvent& e : events) EXPECT_LE(e.depth, 1u);
}

}  // namespace
}  // namespace fbdcsim::telemetry
