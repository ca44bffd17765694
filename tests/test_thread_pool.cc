// Hard-edge tests for the work-stealing pool: nested fan-out, exception
// propagation, shutdown semantics, steal-heavy stress, zero-allocation
// steady state, and the BlockingScope spare-worker liveness guarantee.
#include "support/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/metrics.h"

namespace tnp {
namespace support {
namespace {

std::int64_t CounterValue(const std::string& name) {
  return metrics::Registry::Global().GetCounter(name).value();
}

TEST(ParseThreadCountEnv, RejectsUnsetAndEmpty) {
  EXPECT_EQ(ParseThreadCountEnv(nullptr, 4), 0);
  EXPECT_EQ(ParseThreadCountEnv("", 4), 0);
}

TEST(ParseThreadCountEnv, RejectsMalformed) {
  EXPECT_EQ(ParseThreadCountEnv("abc", 4), 0);
  EXPECT_EQ(ParseThreadCountEnv("4x", 4), 0);
  EXPECT_EQ(ParseThreadCountEnv(" ", 4), 0);
  EXPECT_EQ(ParseThreadCountEnv("1e3", 4), 0);
}

TEST(ParseThreadCountEnv, RejectsNonPositive) {
  EXPECT_EQ(ParseThreadCountEnv("0", 4), 0);
  EXPECT_EQ(ParseThreadCountEnv("-3", 4), 0);
}

TEST(ParseThreadCountEnv, AcceptsAndClamps) {
  EXPECT_EQ(ParseThreadCountEnv("2", 4), 2);
  EXPECT_EQ(ParseThreadCountEnv("16", 4), 16);   // == 4x hardware: allowed
  EXPECT_EQ(ParseThreadCountEnv("17", 4), 16);   // above: clamped
  EXPECT_EQ(ParseThreadCountEnv("9999", 1), 4);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4, {/*queue_capacity=*/256, /*max_spares=*/8, "tp_cover"});
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(0, 257, [&](std::int64_t i) { hits[static_cast<std::size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyAndReversedRanges) {
  ThreadPool pool(2, {/*queue_capacity=*/256, /*max_spares=*/8, "tp_empty"});
  std::atomic<int> calls{0};
  pool.ParallelFor(5, 5, [&](std::int64_t) { calls++; });
  pool.ParallelFor(9, 3, [&](std::int64_t) { calls++; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, AutoGrainPostsFourChunksPerThread) {
  // grain 0 splits the range into 4 chunks per worker (capped at the range);
  // this count is deterministic and is what bench_snapshot gates on.
  ThreadPool pool(2, {/*queue_capacity=*/256, /*max_spares=*/8, "tp_grain"});
  const std::int64_t before = CounterValue("tp_grain/parallel_for/chunks");
  pool.ParallelFor(0, 64, [](std::int64_t) {});
  EXPECT_EQ(CounterValue("tp_grain/parallel_for/chunks") - before, 8);
}

TEST(ThreadPool, ExplicitGrainIsAMinimumWorkFloor) {
  ThreadPool pool(4, {/*queue_capacity=*/256, /*max_spares=*/8, "tp_floor"});
  const std::int64_t before = CounterValue("tp_floor/parallel_for/chunks");
  pool.ParallelFor(0, 64, [](std::int64_t) {}, /*grain_size=*/32);
  EXPECT_EQ(CounterValue("tp_floor/parallel_for/chunks") - before, 2);
}

TEST(ThreadPool, NestedParallelForFansOut) {
  // A nested ParallelFor from inside a worker must parallelize (help-first
  // join), not serialize on the calling worker.
  ThreadPool pool(4, {/*queue_capacity=*/256, /*max_spares=*/8, "tp_nested"});
  std::mutex mutex;
  std::set<std::thread::id> threads;
  std::atomic<int> total{0};
  pool.ParallelFor(0, 4, [&](std::int64_t) {
    ParallelFor(0, 16, [&](std::int64_t) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        threads.insert(std::this_thread::get_id());
      }
      total++;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }, /*grain_size=*/1);
  }, /*grain_size=*/1);
  EXPECT_EQ(total.load(), 64);
  EXPECT_GE(threads.size(), 2u) << "nested chunks all ran on one thread";
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  ThreadPool pool(4, {/*queue_capacity=*/256, /*max_spares=*/8, "tp_throw"});
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.ParallelFor(0, 64, [&](std::int64_t i) {
        ran++;
        if (i == 7) throw std::runtime_error("chunk failed");
      }, /*grain_size=*/1),
      std::runtime_error);
  // failed() short-circuits remaining chunks, and the group resets after the
  // rethrow so the pool stays usable.
  std::atomic<int> after{0};
  pool.ParallelFor(0, 8, [&](std::int64_t) { after++; });
  EXPECT_EQ(after.load(), 8);
}

TEST(ThreadPool, TaskGroupWaitRethrowsAndResets) {
  ThreadPool pool(2, {/*queue_capacity=*/256, /*max_spares=*/8, "tp_group"});
  TaskGroup group(&pool);
  group.Run(+[] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(group.Wait(), std::runtime_error);
  // The group is reusable after the error was consumed.
  group.Run(+[] {});
  group.Wait();
}

TEST(ThreadPool, SubmitAndPostAfterShutdownThrow) {
  ThreadPool pool(2, {/*queue_capacity=*/256, /*max_spares=*/8, "tp_stopped"});
  pool.Shutdown();
  EXPECT_THROW(pool.Submit([] {}), Error);
  EXPECT_THROW(pool.Post(+[] {}), Error);
  // ParallelFor degrades to inline instead of throwing.
  std::atomic<int> ran{0};
  pool.ParallelFor(0, 4, [&](std::int64_t) { ran++; });
  EXPECT_EQ(ran.load(), 4);
}

TEST(ThreadPool, ShutdownDrainsEveryAcceptedTask) {
  std::atomic<int> ran{0};
  constexpr int kTasks = 200;
  {
    ThreadPool pool(2, {/*queue_capacity=*/16, /*max_spares=*/8, "tp_drain"});
    for (int i = 0; i < kTasks; ++i) {
      pool.Post([&ran] { ran++; });
    }
    pool.Shutdown();
  }
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(ThreadPool, ConstructDestroyStressNeverHangs) {
  // Regression for a lost wakeup: Shutdown() must notify sleepers under the
  // sleep mutex, or a worker between its predicate check and wait() misses
  // the notify and join() blocks forever. Fresh pools shut down while their
  // workers are still heading for the cv, which is exactly that window.
  for (int i = 0; i < 4000; ++i) {
    ThreadPool pool(2, {/*queue_capacity=*/16, /*max_spares=*/0, "tp_churn"});
  }
}

TEST(ThreadPool, StealHeavyStressIsCorrect) {
  // Uneven chunk costs force idle workers to steal; the range must still be
  // covered exactly once. (Also the TSan target for the steal path.)
  ThreadPool pool(4, {/*queue_capacity=*/64, /*max_spares=*/8, "tp_steal"});
  constexpr std::int64_t kN = 4096;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  for (int round = 0; round < 8; ++round) {
    pool.ParallelFor(0, kN, [&](std::int64_t i) {
      hits[static_cast<std::size_t>(i)]++;
      if (i % 512 == 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
    }, /*grain_size=*/1);
  }
  for (const auto& h : hits) EXPECT_EQ(h.load(), 8);
  EXPECT_GE(CounterValue("tp_steal/executed"), 8);
}

TEST(ThreadPool, SteadyStateSubmitPathDoesNotAllocate) {
  // After warm-up, ParallelFor must neither spill to the overflow list nor
  // touch the heap-task path: the whole dispatch lives in the inline slots.
  ThreadPool pool(4, {/*queue_capacity=*/256, /*max_spares=*/8, "tp_zalloc"});
  std::atomic<std::int64_t> sink{0};
  pool.ParallelFor(0, 1024, [&](std::int64_t i) { sink += i; });  // warm-up
  const std::int64_t overflow_before = CounterValue("tp_zalloc/overflow");
  const std::int64_t heap_before = CounterValue("tp_zalloc/heap_tasks");
  for (int round = 0; round < 100; ++round) {
    pool.ParallelFor(0, 1024, [&](std::int64_t i) { sink += i; });
  }
  EXPECT_EQ(CounterValue("tp_zalloc/overflow") - overflow_before, 0);
  EXPECT_EQ(CounterValue("tp_zalloc/heap_tasks") - heap_before, 0);
}

TEST(ThreadPool, BlockingScopeSpawnsSpareForLiveness) {
  // One worker; task A parks inside a BlockingScope waiting for task B,
  // which can only run if the pool back-fills a spare worker. Without the
  // scope this deadlocks.
  ThreadPool pool(1, {/*queue_capacity=*/256, /*max_spares=*/8, "tp_spare"});
  std::promise<void> unblock;
  std::shared_future<void> gate = unblock.get_future().share();
  std::future<void> a = pool.Submit([gate] {
    ThreadPool::BlockingScope blocking;
    gate.wait();
  });
  std::future<void> b = pool.Submit([&unblock] { unblock.set_value(); });
  ASSERT_EQ(a.wait_for(std::chrono::seconds(20)), std::future_status::ready);
  b.get();
  a.get();
  EXPECT_GE(CounterValue("tp_spare/spares_spawned"), 1);
}

TEST(ThreadPool, CurrentWorkerIndexIdentifiesWorkers) {
  EXPECT_EQ(ThreadPool::CurrentWorkerIndex(), -1);
  ThreadPool pool(3, {/*queue_capacity=*/256, /*max_spares=*/8, "tp_index"});
  std::mutex mutex;
  std::set<int> indices;
  pool.ParallelFor(0, 64, [&](std::int64_t) {
    std::lock_guard<std::mutex> lock(mutex);
    indices.insert(ThreadPool::CurrentWorkerIndex());
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }, /*grain_size=*/1);
  for (int index : indices) {
    // The joining caller help-executes chunks at index -1; workers (spares
    // included) are in [0, 3 + max_spares).
    EXPECT_GE(index, -1);
    EXPECT_LT(index, 3 + 8);
  }
}

TEST(ThreadPool, ScopedPoolRoutesFreeFunctions) {
  ThreadPool pool(2, {/*queue_capacity=*/256, /*max_spares=*/8, "tp_scoped"});
  const std::int64_t before = CounterValue("tp_scoped/parallel_for/chunks");
  {
    ScopedPool scope(pool);
    EXPECT_EQ(&CurrentPool(), &pool);
    ParallelFor(0, 64, [](std::int64_t) {});
  }
  EXPECT_EQ(CounterValue("tp_scoped/parallel_for/chunks") - before, 8);
  EXPECT_NE(&CurrentPool(), &pool);
}

TEST(ThreadPool, NumThreadsGaugePublished) {
  ThreadPool pool(3, {/*queue_capacity=*/256, /*max_spares=*/8, "tp_gauge"});
  EXPECT_EQ(metrics::Registry::Global().GetGauge("tp_gauge/num_threads").value(), 3.0);
  EXPECT_EQ(pool.num_threads(), 3);
}

}  // namespace
}  // namespace support
}  // namespace tnp
