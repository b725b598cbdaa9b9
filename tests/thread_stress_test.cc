// Stress tests for the real-thread executor: randomized loop shapes, many
// short jobs, worker-local accumulation under contention — the scenarios
// where job-lifetime and wakeup bugs hide.

#include <atomic>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "parallel/parallel_ops.h"
#include "parallel/thread_pool.h"

namespace hpa::parallel {
namespace {

TEST(ThreadStressTest, RandomizedLoopShapes) {
  ThreadPoolExecutor exec(4);
  Rng rng(321);
  for (int round = 0; round < 300; ++round) {
    size_t n = rng.NextBounded(5000);
    size_t grain = rng.NextBounded(64);  // 0 = auto
    std::atomic<uint64_t> sum{0};
    exec.ParallelFor(0, n, grain, WorkHint{},
                     [&](int, size_t b, size_t e) {
                       uint64_t local = 0;
                       for (size_t i = b; i < e; ++i) local += i + 1;
                       sum.fetch_add(local, std::memory_order_relaxed);
                     });
    EXPECT_EQ(sum.load(), n * (n + 1) / 2) << "round " << round;
  }
}

TEST(ThreadStressTest, ManyTinyJobsBackToBack) {
  ThreadPoolExecutor exec(3);
  uint64_t total = 0;
  for (int round = 0; round < 2000; ++round) {
    std::atomic<uint64_t> sum{0};
    exec.ParallelFor(0, 7, 1, WorkHint{}, [&](int, size_t b, size_t e) {
      sum.fetch_add(e - b, std::memory_order_relaxed);
    });
    total += sum.load();
  }
  EXPECT_EQ(total, 2000u * 7u);
}

TEST(ThreadStressTest, WorkerLocalUnderHeavyContention) {
  ThreadPoolExecutor exec(4);
  WorkerLocal<uint64_t> counters(exec);
  const size_t n = 200000;
  exec.ParallelFor(0, n, 13, WorkHint{}, [&](int w, size_t b, size_t e) {
    counters.Get(w) += e - b;
  });
  uint64_t sum = 0;
  counters.ForEach([&](uint64_t& c) { sum += c; });
  EXPECT_EQ(sum, n);
}

TEST(ThreadStressTest, ReduceMatchesSerialOnSkewedWork) {
  ThreadPoolExecutor exec(4);
  Rng rng(99);
  std::vector<uint32_t> data(50000);
  for (auto& d : data) d = static_cast<uint32_t>(rng.NextBounded(1000));
  uint64_t expected = std::accumulate(data.begin(), data.end(), uint64_t{0});

  for (int round = 0; round < 20; ++round) {
    uint64_t got = ParallelReduce<uint64_t>(
        exec, 0, data.size(), 0, WorkHint{},
        [&](uint64_t& acc, size_t b, size_t e) {
          for (size_t i = b; i < e; ++i) {
            // Skewed per-item cost exercises dynamic self-scheduling.
            volatile uint32_t spin = data[i] % 37;
            while (spin > 0) spin = spin - 1;
            acc += data[i];
          }
        },
        [](uint64_t& into, const uint64_t& from) { into += from; });
    EXPECT_EQ(got, expected) << "round " << round;
  }
}

TEST(ThreadStressTest, PoolsCanCoexist) {
  // Multiple pools alive at once must not cross wires.
  ThreadPoolExecutor a(2), b(3);
  std::atomic<uint64_t> sa{0}, sb{0};
  a.ParallelFor(0, 1000, 7, WorkHint{}, [&](int, size_t lo, size_t hi) {
    sa.fetch_add(hi - lo, std::memory_order_relaxed);
  });
  b.ParallelFor(0, 2000, 11, WorkHint{}, [&](int, size_t lo, size_t hi) {
    sb.fetch_add(hi - lo, std::memory_order_relaxed);
  });
  a.ParallelFor(0, 500, 3, WorkHint{}, [&](int, size_t lo, size_t hi) {
    sa.fetch_add(hi - lo, std::memory_order_relaxed);
  });
  EXPECT_EQ(sa.load(), 1500u);
  EXPECT_EQ(sb.load(), 2000u);
}

TEST(ThreadStressTest, TreeReduceUnderRealThreads) {
  ThreadPoolExecutor exec(4);
  const size_t dim = 512;
  for (int round = 0; round < 50; ++round) {
    WorkerLocal<std::vector<uint64_t>> slots(exec, [&] {
      return std::vector<uint64_t>(dim);
    });
    const size_t n = 10000;
    exec.ParallelFor(0, n, 0, WorkHint{}, [&](int w, size_t b, size_t e) {
      auto& v = slots.Get(w);
      for (size_t i = b; i < e; ++i) v[i % dim] += i;
    });
    ParallelTreeReduce(exec, slots, /*parts=*/8, WorkHint{},
                       [&](std::vector<uint64_t>& into,
                           std::vector<uint64_t>& from, size_t part,
                           size_t parts) {
                         size_t lo = dim * part / parts;
                         size_t hi = dim * (part + 1) / parts;
                         for (size_t i = lo; i < hi; ++i) into[i] += from[i];
                       });
    uint64_t total = 0;
    for (uint64_t v : slots.Get(0)) total += v;
    EXPECT_EQ(total, n * (n - 1) / 2) << "round " << round;
  }
}

TEST(ThreadStressTest, CreateDestroyChurn) {
  for (int round = 0; round < 30; ++round) {
    ThreadPoolExecutor exec(1 + round % 4);
    std::atomic<int> hits{0};
    exec.ParallelFor(0, 64, 4, WorkHint{},
                     [&](int, size_t, size_t) { hits.fetch_add(1); });
    EXPECT_EQ(hits.load(), 16);
  }
}

}  // namespace
}  // namespace hpa::parallel
