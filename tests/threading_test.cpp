#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "prof/metrics.hpp"
#include "threading/affinity.hpp"
#include "threading/barrier.hpp"
#include "threading/fiber.hpp"
#include "threading/thread_pool.hpp"

namespace mcl::threading {
namespace {

// --- affinity ------------------------------------------------------------------

TEST(Affinity, LogicalCpuCountPositive) { EXPECT_GE(logical_cpu_count(), 1); }

TEST(Affinity, PinCurrentThreadToCpu0) {
  EXPECT_TRUE(pin_current_thread(0));
  const auto cpus = current_affinity();
  ASSERT_EQ(cpus.size(), 1u);
  EXPECT_EQ(cpus[0], 0);
}

TEST(Affinity, PinRejectsAbsurdCpu) {
  EXPECT_FALSE(pin_current_thread(-1));
  EXPECT_FALSE(pin_current_thread(1 << 20));
}

TEST(AffinityParse, SimpleList) {
  const auto cpus = parse_affinity_list("0 3 1");
  ASSERT_TRUE(cpus.has_value());
  EXPECT_EQ(*cpus, (std::vector<int>{0, 3, 1}));
}

TEST(AffinityParse, RangesAndStrides) {
  EXPECT_EQ(*parse_affinity_list("1-4"), (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(*parse_affinity_list("0-6:2"), (std::vector<int>{0, 2, 4, 6}));
  EXPECT_EQ(*parse_affinity_list("0,2, 5-6"), (std::vector<int>{0, 2, 5, 6}));
}

TEST(AffinityParse, RejectsMalformed) {
  EXPECT_FALSE(parse_affinity_list("").has_value());
  EXPECT_FALSE(parse_affinity_list("a-b").has_value());
  EXPECT_FALSE(parse_affinity_list("4-1").has_value());
  EXPECT_FALSE(parse_affinity_list("1-5:0").has_value());
}

// --- barrier ---------------------------------------------------------------------

TEST(SpinBarrier, SynchronizesPhases) {
  constexpr int kThreads = 4;
  constexpr int kPhases = 50;
  SpinBarrier barrier(kThreads);
  std::atomic<int> phase_counts[kPhases];
  for (auto& c : phase_counts) c.store(0);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int p = 0; p < kPhases; ++p) {
        phase_counts[p].fetch_add(1);
        barrier.arrive_and_wait();
        // After the barrier every thread must observe the full count.
        EXPECT_EQ(phase_counts[p].load(), kThreads);
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& t : threads) t.join();
}

TEST(SpinBarrier, SinglePartyNeverBlocks) {
  SpinBarrier barrier(1);
  for (int i = 0; i < 10; ++i) barrier.arrive_and_wait();
}

// --- thread pool ------------------------------------------------------------------

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelRunCoversAllIndicesExactlyOnce) {
  ThreadPool pool(3);
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_run(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelRunChunked) {
  ThreadPool pool(2);
  constexpr std::size_t kN = 1003;  // not a multiple of the chunk
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_run(kN, [&](std::size_t i) { hits[i].fetch_add(1); }, 64);
  int total = 0;
  for (auto& h : hits) total += h.load();
  EXPECT_EQ(total, static_cast<int>(kN));
}

TEST(ThreadPool, ParallelRunZeroCount) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_run(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, RepeatedBatchesAllComplete) {
  // Regression: successive batches reuse stack addresses; generations must
  // keep workers participating (and results exact) every time.
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_run(100, [&](std::size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 4950u) << "round " << round;
  }
}

TEST(ThreadPool, SmallBatchesWakeSleepingWorkers) {
  // Regression for the lost-wakeup race: the batch used to be published and
  // notified without holding the pool mutex, so a worker could evaluate the
  // wait predicate, miss the notify, and sleep through the whole batch — the
  // caller then silently executed every index alone (participants == 1).
  // Each index waits (bounded) for a second participant, so a woken worker
  // always gets a chance to claim work before the batch drains.
  ThreadPool pool(2);
  int multi = 0;
  constexpr int kRounds = 300;
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<int> started{0};
    const RunStats stats = pool.parallel_run(8, [&](std::size_t) {
      started.fetch_add(1, std::memory_order_relaxed);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(10);
      while (started.load(std::memory_order_relaxed) < 2 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    });
    if (stats.participants >= 2) ++multi;
  }
  // Allow a little scheduler noise, but sleeping through batches must not
  // be a steady-state behavior.
  EXPECT_GE(multi, kRounds * 9 / 10);
}

/// The `pool.wakes` counter in a metrics snapshot.
std::uint64_t pool_wakes() {
  for (const auto& c : prof::snapshot().counters) {
    if (c.name == "pool.wakes") return c.value;
  }
  return 0;
}

TEST(ThreadPool, BatchWakesOnlyItsWorkers) {
  // A batch wakes the workers of its span and no others: 100 width-2
  // batches (the caller plus worker 0) on a 4-worker pool wake about 100
  // worker-times. Waking every sleeper would read about 400.
  struct MetricsOn {
    MetricsOn() {
      prof::reset();
      prof::set_enabled(true);
    }
    ~MetricsOn() { prof::set_enabled(false); }
  } metrics;
  ThreadPool pool(4);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const std::uint64_t before = pool_wakes();
  constexpr int kBatches = 100;
  for (int round = 0; round < kBatches; ++round) {
    pool.parallel_ranges_on({0, 1}, 2, [](std::size_t, std::size_t) {});
    // Long enough for worker 0 to go back to sleep.
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const std::uint64_t wakes = pool_wakes() - before;
  EXPECT_GE(wakes, kBatches / 2);
  EXPECT_LE(wakes, kBatches * 3 / 2);
}

TEST(ThreadPool, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.parallel_run(64, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, ThreadCountDefaultsToHardware) {
  ThreadPool pool;
  EXPECT_EQ(pool.thread_count(),
            static_cast<std::size_t>(logical_cpu_count()));
}

// --- fibers -------------------------------------------------------------------------

TEST(Fiber, AllFibersRun) {
  std::vector<int> hits(100, 0);
  run_fiber_group(100, [&](std::size_t i, FiberYield&) { hits[i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
}

TEST(Fiber, BarrierAlignsPhases) {
  // Every fiber writes phase 0 data, barriers, then reads a neighbor's
  // phase-0 value. Without a real barrier the neighbor's slot would still
  // be the sentinel.
  constexpr std::size_t kN = 37;
  std::vector<int> slot(kN, -1);
  std::vector<int> seen(kN, -2);
  run_fiber_group(kN, [&](std::size_t i, FiberYield& yield) {
    slot[i] = static_cast<int>(i);
    yield.barrier();
    seen[i] = slot[(i + 1) % kN];
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(seen[i], static_cast<int>((i + 1) % kN));
  }
}

TEST(Fiber, ManyBarrierPhases) {
  constexpr std::size_t kN = 16;
  constexpr int kPhases = 25;
  std::vector<int> counters(kN, 0);
  run_fiber_group(kN, [&](std::size_t i, FiberYield& yield) {
    for (int p = 0; p < kPhases; ++p) {
      ++counters[i];
      yield.barrier();
      // All fibers must have finished this phase.
      for (std::size_t j = 0; j < kN; ++j) EXPECT_GE(counters[j], p + 1);
      yield.barrier();
    }
  });
}

TEST(Fiber, PropagatesException) {
  EXPECT_THROW(
      run_fiber_group(8,
                      [&](std::size_t i, FiberYield&) {
                        if (i == 3) throw std::runtime_error("kernel fault");
                      }),
      std::runtime_error);
}

TEST(Fiber, ZeroFibersIsNoop) {
  run_fiber_group(0, [](std::size_t, FiberYield&) { FAIL(); });
}

TEST(Fiber, StacksSurviveDeepUsage) {
  // Each fiber uses a few KB of stack; ensures stack sizing and reuse work.
  std::vector<double> out(32, 0.0);
  run_fiber_group(
      32,
      [&](std::size_t i, FiberYield& yield) {
        volatile double local[512];
        for (int j = 0; j < 512; ++j) local[j] = static_cast<double>(j + i);
        yield.barrier();
        double sum = 0;
        for (int j = 0; j < 512; ++j) sum += local[j];
        out[i] = sum;
      },
      64 * 1024);
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_DOUBLE_EQ(out[i], 512.0 * 511.0 / 2.0 + 512.0 * static_cast<double>(i));
  }
  release_fiber_stacks();
}

}  // namespace
}  // namespace mcl::threading

// --- work stealing ---------------------------------------------------------------

namespace mcl::threading {
namespace {

TEST(WorkStealing, CoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 20'000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_run(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(WorkStealing, ChunkedAndUnevenCounts) {
  ThreadPool pool(3);
  for (std::size_t n : {1u, 7u, 100u, 1003u}) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_run(n, [&](std::size_t i) { sum.fetch_add(i + 1); }, 16);
    ASSERT_EQ(sum.load(), n * (n + 1) / 2) << "n=" << n;
  }
}

TEST(WorkStealing, SkewedWorkloadStillCompletes) {
  // All the work piles into the first slot's range; thieves must spread it.
  ThreadPool pool(4);
  constexpr std::size_t kN = 4096;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_run(
      kN,
      [&](std::size_t i) {
        if (i < kN / 8) {  // heavy head
          volatile double sink = 0;
          for (int j = 0; j < 2000; ++j) sink += j;
        }
        hits[i].fetch_add(1);
      },
      1);
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(WorkStealing, RepeatedBatchesStayExact) {
  ThreadPool pool(4);
  for (int round = 0; round < 30; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_run(257, [&](std::size_t i) { sum.fetch_add(i); }, 4);
    ASSERT_EQ(sum.load(), 256u * 257u / 2u) << "round " << round;
  }
}

TEST(WorkStealing, CallerFinishesWhileAWorkerIsHeld) {
  // Regression: thieves refused any remainder smaller than 2 * chunk, so a
  // batch waited for that slot's owner. With the owner held by a submit()
  // task, the caller could not finish alone, breaking the promise that the
  // calling thread guarantees completion.
  ThreadPool pool(2);
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> held{false};
  std::atomic<bool> task_done{false};
  pool.submit([&] {
    held.store(true);
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return release; });
    task_done.store(true);
  });
  while (!held.load()) std::this_thread::yield();
  // Releases the held worker after 2 s even if the batch never returns.
  std::thread watchdog([&] {
    std::unique_lock lock(mutex);
    cv.wait_for(lock, std::chrono::seconds(2), [&] { return release; });
    release = true;
    cv.notify_all();
  });

  constexpr std::size_t kN = 100;
  std::vector<std::atomic<int>> hits(kN);
  const auto t0 = std::chrono::steady_clock::now();
  pool.parallel_run(kN, [&](std::size_t i) { hits[i].fetch_add(1); }, 8);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  const bool finished_while_held = !task_done.load();
  {
    std::lock_guard lock(mutex);
    release = true;
  }
  cv.notify_all();
  watchdog.join();
  pool.wait_idle();

  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
  EXPECT_TRUE(finished_while_held);
  EXPECT_LT(elapsed, std::chrono::seconds(1));
}

}  // namespace
}  // namespace mcl::threading

// --- run statistics --------------------------------------------------------------

namespace mcl::threading {
namespace {

TEST(RunStatistics, AllIndicesAccounted) {
  ThreadPool pool(3);
  const RunStats stats = pool.parallel_run(1000, [](std::size_t) {}, 8);
  EXPECT_GE(stats.participants, 1u);
  EXPECT_LE(stats.participants, 4u);  // 3 workers + caller
  EXPECT_GE(stats.max_per_participant, 1000u / 4u);
  EXPECT_GE(stats.imbalance, 1.0);
}

TEST(RunStatistics, SingleParticipantPerfectlyBalanced) {
  ThreadPool pool(1);  // one worker + the caller; tiny batch -> often 1 party
  const RunStats stats =
      pool.parallel_run(1, [](std::size_t) {}, 1);
  EXPECT_EQ(stats.participants, 1u);
  EXPECT_DOUBLE_EQ(stats.imbalance, 1.0);
  EXPECT_EQ(stats.max_per_participant, 1u);
}

TEST(RunStatistics, ZeroCountEmptyStats) {
  ThreadPool pool(2);
  const RunStats stats = pool.parallel_run(0, [](std::size_t) {});
  EXPECT_EQ(stats.participants, 0u);
}

}  // namespace
}  // namespace mcl::threading

// --- range dispatch -------------------------------------------------------------

namespace mcl::threading {
namespace {

/// Indices executed, reconstructed from RunStats (max * participants is
/// exactly imbalance * total).
std::size_t stats_total(const RunStats& s) {
  if (s.participants == 0) return 0;
  return static_cast<std::size_t>(
      std::llround(static_cast<double>(s.max_per_participant) *
                   static_cast<double>(s.participants) / s.imbalance));
}

/// Runs parallel_ranges_on(span, count, chunk) and checks that
/// every index ran exactly once, that every call was a non-empty range of
/// at most `chunk` indices, and that RunStats counts `count` indices.
void expect_ranges_cover(ThreadPool& pool, WorkerSpan span, std::size_t count,
                         std::size_t chunk) {
  std::vector<std::atomic<int>> hits(count);
  std::atomic<int> bad_ranges{0};
  std::atomic<std::size_t> calls{0};
  const RunStats stats = pool.parallel_ranges_on(
      span, count,
      [&](std::size_t begin, std::size_t end) {
        calls.fetch_add(1, std::memory_order_relaxed);
        if (begin >= end || end - begin > chunk || end > count) {
          bad_ranges.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      },
      chunk);
  const std::string where =
      "count=" + std::to_string(count) + " chunk=" + std::to_string(chunk);
  EXPECT_EQ(bad_ranges.load(), 0) << where;
  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << where << " index " << i;
  }
  EXPECT_GE(calls.load(), (count + chunk - 1) / chunk) << where;
  EXPECT_EQ(stats_total(stats), count) << where;
  EXPECT_LE(stats.max_per_participant, count) << where;
}

TEST(ThreadPool, RangesCoverEveryIndexOnce) {
  ThreadPool pool(3);
  for (std::size_t chunk : {1u, 7u, 64u}) {
    for (std::size_t count : {1u, 6u, 7u, 64u, 1003u}) {
      expect_ranges_cover(pool, {0, pool.thread_count()}, count, chunk);
    }
  }
}

TEST(ThreadPool, RangesChunkLargerThanCount) {
  ThreadPool pool(2);
  expect_ranges_cover(pool, {0, pool.thread_count()}, 50, 500);
}

TEST(ThreadPool, RangesStayInsideSubSpan) {
  ThreadPool pool(4);
  const WorkerSpan span{1, 3};
  for (std::size_t chunk : {1u, 7u, 64u}) {
    expect_ranges_cover(pool, span, 2000, chunk);
    std::atomic<int> outside{0};
    pool.parallel_ranges_on(
        span, 2000,
        [&](std::size_t, std::size_t) {
          const int w = pool.worker_index_here();
          // -1 is the calling thread, which always participates.
          if (w != -1 && !span.contains(static_cast<std::size_t>(w))) {
            outside.fetch_add(1);
          }
        },
        chunk);
    EXPECT_EQ(outside.load(), 0) << "chunk " << chunk;
  }
}

TEST(ThreadPool, RangesOnSubSpanCoverEachIndexOnce) {
  ThreadPool pool(4);
  for (std::size_t chunk : {1u, 7u, 64u, 5000u}) {
    constexpr std::size_t kN = 1003;
    std::vector<std::atomic<int>> hits(kN);
    const RunStats stats = pool.parallel_ranges_on(
        {2, 4}, kN,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
        },
        chunk);
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "chunk " << chunk << " index " << i;
    }
    EXPECT_EQ(stats_total(stats), kN) << "chunk " << chunk;
    EXPECT_LE(stats.participants, 3u);  // 2 span workers + caller
  }
}

TEST(ThreadPool, CountPast32BitsRunsAsSubBatches) {
  // Slot ranges pack into 32 bits, so this count runs as consecutive
  // sub-batches. The body only records ranges: a few dozen claims, not
  // 2^32 calls.
  ThreadPool pool(2);
  constexpr std::size_t kCount = (std::size_t{1} << 32) + 5;
  std::mutex mutex;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  const RunStats stats = pool.parallel_ranges_on(
      {0, pool.thread_count()}, kCount,
      [&](std::size_t begin, std::size_t end) {
        std::lock_guard lock(mutex);
        ranges.emplace_back(begin, end);
      },
      std::size_t{1} << 28);
  std::sort(ranges.begin(), ranges.end());
  std::size_t next = 0;
  for (const auto& [begin, end] : ranges) {
    ASSERT_EQ(begin, next) << "gap or overlap at " << begin;
    ASSERT_LT(begin, end);
    next = end;
  }
  EXPECT_EQ(next, kCount);
  EXPECT_LT(ranges.size(), 64u);
  EXPECT_EQ(stats_total(stats), kCount);
  EXPECT_LE(stats.max_per_participant, kCount);
}

/// Start of slot `s` of `slots` over [0, count): the caller
/// owns slot 0 and worker i slot i - span.begin + 1.
std::size_t slot_start(std::size_t s, std::size_t slots, std::size_t count) {
  return s * (count / slots) + std::min(s, count % slots);
}

/// Runs repeated batches over `span`, recording every call's
/// range per thread, and checks that each thread's first range starts at
/// its own slot's start (so a relaunch gives every thread the groups it had
/// last time) and that RunStats counts every index.
void expect_first_ranges_at_own_slots(ThreadPool& pool, WorkerSpan span,
                                      std::size_t count, std::size_t chunk) {
  const std::size_t slots = span.size() + 1;
  for (int round = 0; round < 20; ++round) {
    // Entry 0 is the caller, entry i + 1 worker i; each thread appends only
    // to its own entry.
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>> calls(
        pool.thread_count() + 1);
    const RunStats stats = pool.parallel_ranges_on(
        span, count,
        [&](std::size_t begin, std::size_t end) {
          calls[static_cast<std::size_t>(pool.worker_index_here() + 1)]
              .emplace_back(begin, end);
        },
        chunk);
    const std::string where = "span=[" + std::to_string(span.begin) + "," +
                              std::to_string(span.end) + ") count=" +
                              std::to_string(count) + " chunk=" +
                              std::to_string(chunk) + " round " +
                              std::to_string(round);
    ASSERT_FALSE(calls[0].empty()) << where;
    EXPECT_EQ(calls[0].front().first, 0u) << where;
    for (std::size_t w = 0; w < pool.thread_count(); ++w) {
      if (calls[w + 1].empty()) continue;
      ASSERT_TRUE(span.contains(w)) << where << " worker " << w;
      EXPECT_EQ(calls[w + 1].front().first,
                slot_start(w - span.begin + 1, slots, count))
          << where << " worker " << w;
    }
    EXPECT_EQ(stats_total(stats), count) << where;
  }
}

TEST(WorkStealing, EachThreadStartsAtItsOwnSlice) {
  ThreadPool pool(4);
  for (const WorkerSpan span : {WorkerSpan{0, 4}, WorkerSpan{1, 3}}) {
    for (std::size_t chunk : {1u, 7u}) {
      for (std::size_t count : {2u, 3u, 64u, 1003u}) {
        expect_first_ranges_at_own_slots(pool, span, count, chunk);
      }
    }
  }
}

}  // namespace
}  // namespace mcl::threading
