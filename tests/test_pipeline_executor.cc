// The threaded pipeline executor: ordering, packet dropping, resource
// exclusivity, genuine wall-clock overlap of resource-disjoint stages, and
// the observability surface (queue-depth gauges, per-stage spans).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>

#include "core/pipeline_executor.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace tnp {
namespace core {
namespace {

TEST(PipelineExecutor, PreservesOrder) {
  using P = Pipeline<int>;
  std::vector<P::Stage> stages;
  stages.push_back(P::Stage{"inc", {sim::Resource::kCpu},
                            [](int v) -> std::optional<int> { return v + 1; }});
  stages.push_back(P::Stage{"dbl", {sim::Resource::kApu},
                            [](int v) -> std::optional<int> { return v * 2; }});
  P pipeline(std::move(stages));
  std::vector<int> inputs;
  for (int i = 0; i < 32; ++i) inputs.push_back(i);
  const std::vector<int> outputs = pipeline.Run(std::move(inputs));
  ASSERT_EQ(outputs.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(outputs[static_cast<std::size_t>(i)], (i + 1) * 2);
}

TEST(PipelineExecutor, DropsFilteredPackets) {
  using P = Pipeline<int>;
  std::vector<P::Stage> stages;
  stages.push_back(P::Stage{"filter-odd", {sim::Resource::kCpu},
                            [](int v) -> std::optional<int> {
                              if (v % 2 == 1) return std::nullopt;
                              return v;
                            }});
  stages.push_back(P::Stage{"pass", {sim::Resource::kCpu},
                            [](int v) -> std::optional<int> { return v; }});
  P pipeline(std::move(stages));
  const std::vector<int> outputs = pipeline.Run({0, 1, 2, 3, 4, 5});
  EXPECT_EQ(outputs, (std::vector<int>{0, 2, 4}));
}

TEST(PipelineExecutor, EmptyInputCompletes) {
  using P = Pipeline<int>;
  std::vector<P::Stage> stages;
  stages.push_back(
      P::Stage{"s", {sim::Resource::kCpu}, [](int v) -> std::optional<int> { return v; }});
  P pipeline(std::move(stages));
  EXPECT_TRUE(pipeline.Run({}).empty());
}

TEST(PipelineExecutor, ResourceExclusivityEnforced) {
  // Two stages share the CPU resource; at no instant may both hold it.
  std::atomic<int> holders{0};
  std::atomic<bool> violated{false};
  const auto critical = [&](int v) -> std::optional<int> {
    if (holders.fetch_add(1) != 0) violated = true;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    holders.fetch_sub(1);
    return v;
  };
  using P = Pipeline<int>;
  std::vector<P::Stage> stages;
  stages.push_back(P::Stage{"a", {sim::Resource::kCpu}, critical});
  stages.push_back(P::Stage{"b", {sim::Resource::kCpu}, critical});
  P pipeline(std::move(stages));
  std::vector<int> inputs(64, 1);
  pipeline.Run(std::move(inputs));
  EXPECT_FALSE(violated.load());
}

TEST(PipelineExecutor, DisjointResourcesOverlapInWallClock) {
  // Proof of overlap without a wall-clock bound: the "apu" stage, while it
  // runs packet i, waits until the "cpu" stage has started packet i + 1.
  // That can only happen if the two stages run at the same time; if they
  // could not, every wait would run into its timeout and fail the test.
  constexpr int kPackets = 16;
  constexpr auto kTimeout = std::chrono::seconds(10);
  std::mutex mutex;
  std::condition_variable cv;
  int cpu_started = 0;  // packets the cpu stage has begun
  int overlaps = 0;     // apu runs that saw the next packet start on the cpu
  bool timed_out = false;

  using P = Pipeline<int>;
  std::vector<P::Stage> stages;
  stages.push_back(P::Stage{"cpu", {sim::Resource::kCpu}, [&](int v) -> std::optional<int> {
                              std::lock_guard<std::mutex> lock(mutex);
                              cpu_started = std::max(cpu_started, v + 1);
                              cv.notify_all();
                              return v;
                            }});
  stages.push_back(P::Stage{"apu", {sim::Resource::kApu}, [&](int v) -> std::optional<int> {
                              if (v + 1 == kPackets) return v;  // no next packet
                              std::unique_lock<std::mutex> lock(mutex);
                              if (timed_out) return v;  // already failed: do not wait again
                              if (cv.wait_for(lock, kTimeout,
                                              [&] { return cpu_started >= v + 2; })) {
                                ++overlaps;
                              } else {
                                timed_out = true;
                              }
                              return v;
                            }});
  P pipeline(std::move(stages));
  std::vector<int> inputs;
  for (int i = 0; i < kPackets; ++i) inputs.push_back(i);
  const std::vector<int> outputs = pipeline.Run(std::move(inputs));
  ASSERT_EQ(outputs.size(), static_cast<std::size_t>(kPackets));
  EXPECT_FALSE(timed_out) << "cpu never started the next packet while apu ran: no overlap";
  EXPECT_EQ(overlaps, kPackets - 1);
}

TEST(PipelineExecutor, MultiResourceStageBlocksBoth) {
  std::atomic<bool> violated{false};
  std::atomic<int> cpu_holders{0};
  using P = Pipeline<int>;
  std::vector<P::Stage> stages;
  stages.push_back(P::Stage{"both", {sim::Resource::kCpu, sim::Resource::kApu},
                            [&](int v) -> std::optional<int> {
                              if (cpu_holders.fetch_add(1) != 0) violated = true;
                              std::this_thread::sleep_for(std::chrono::microseconds(100));
                              cpu_holders.fetch_sub(1);
                              return v;
                            }});
  stages.push_back(P::Stage{"cpu-only", {sim::Resource::kCpu},
                            [&](int v) -> std::optional<int> {
                              if (cpu_holders.fetch_add(1) != 0) violated = true;
                              std::this_thread::sleep_for(std::chrono::microseconds(100));
                              cpu_holders.fetch_sub(1);
                              return v;
                            }});
  P pipeline(std::move(stages));
  std::vector<int> inputs(32, 0);
  pipeline.Run(std::move(inputs));
  EXPECT_FALSE(violated.load());
}

TEST(PipelineExecutor, SingleStageWorks) {
  using P = Pipeline<std::string>;
  std::vector<P::Stage> stages;
  stages.push_back(P::Stage{"suffix", {sim::Resource::kCpu},
                            [](std::string s) -> std::optional<std::string> {
                              return s + "!";
                            }});
  P pipeline(std::move(stages));
  const auto out = pipeline.Run({"a", "b"});
  EXPECT_EQ(out, (std::vector<std::string>{"a!", "b!"}));
}

TEST(PipelineExecutor, QueueDepthGaugesPopulated) {
  using P = Pipeline<int>;
  std::vector<P::Stage> stages;
  stages.push_back(P::Stage{"gauge-a", {sim::Resource::kCpu},
                            [](int v) -> std::optional<int> {
                              std::this_thread::sleep_for(std::chrono::microseconds(100));
                              return v;
                            }});
  stages.push_back(P::Stage{"gauge-b", {sim::Resource::kApu},
                            [](int v) -> std::optional<int> { return v; }});
  P pipeline(std::move(stages), /*queue_capacity=*/2);
  std::vector<int> inputs(16, 0);
  pipeline.Run(std::move(inputs));

  auto& registry = support::metrics::Registry::Global();
  // One gauge per inter-stage queue, plus the output queue.
  for (const char* name : {"pipeline/queue/gauge-a/depth", "pipeline/queue/gauge-b/depth",
                           "pipeline/queue/out/depth"}) {
    const support::metrics::Gauge* gauge = registry.FindGauge(name);
    ASSERT_NE(gauge, nullptr) << name;
    // 16 packets flowed through a capacity-2 queue: the high-watermark must
    // have seen at least one item, and the drained queue reads zero.
    EXPECT_GE(gauge->max(), 1.0) << name;
    EXPECT_EQ(gauge->value(), 0.0) << name;
  }
  // Per-stage latency histograms see every packet regardless of tracing.
  const support::metrics::Histogram* stage_us =
      registry.FindHistogram("pipeline/stage/gauge-a/us");
  ASSERT_NE(stage_us, nullptr);
  EXPECT_GE(stage_us->count(), 16);
}

TEST(PipelineExecutor, PerStageSpansRecorded) {
  auto& tracer = support::Tracer::Global();
  tracer.Clear();
  const support::Tracer::ScopedEnable enable;
  const std::uint64_t start_seq = tracer.sequence();

  using P = Pipeline<int>;
  std::vector<P::Stage> stages;
  stages.push_back(P::Stage{"span-a", {sim::Resource::kCpu},
                            [](int v) -> std::optional<int> { return v; }});
  stages.push_back(P::Stage{"span-b", {sim::Resource::kApu},
                            [](int v) -> std::optional<int> { return v; }});
  P pipeline(std::move(stages));
  std::vector<int> inputs(8, 0);
  pipeline.Run(std::move(inputs));

  std::set<std::string> names;
  int counter_samples = 0;
  for (const auto& event : tracer.EventsSince(start_seq)) {
    if (std::string(event.category) != "pipeline") continue;
    if (event.phase == support::TracePhase::kCounter) {
      ++counter_samples;
      continue;
    }
    names.insert(event.name);
  }
  // dequeue/run/enqueue spans for both stages (the last stage's enqueue
  // feeds the output queue).
  for (const char* expected :
       {"span-a:dequeue", "span-a:run", "span-a:enqueue", "span-b:dequeue", "span-b:run",
        "span-b:enqueue"}) {
    EXPECT_EQ(names.count(expected), 1u) << expected;
  }
  // Queue-depth counter track samples on every push/pop.
  EXPECT_GT(counter_samples, 0);
}

TEST(PipelineExecutor, InjectedLocksIsolateIndependentPipelines) {
  // Two pipelines whose stages claim the "CPU" but represent independent
  // devices (e.g. a serving executor and a test pipeline): with private
  // injected ResourceLocks their stages may run concurrently, while the
  // shared Global() instance must keep serializing them. Observed via a
  // cross-pipeline concurrency counter (not wall-clock, which is noisy
  // under a loaded test machine).
  std::atomic<int> holders{0};
  std::atomic<int> max_holders{0};
  const auto observing = [&](int v) -> std::optional<int> {
    const int now = holders.fetch_add(1) + 1;
    int seen = max_holders.load();
    while (now > seen && !max_holders.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    holders.fetch_sub(1);
    return v;
  };
  using P = Pipeline<int>;
  const auto run_pair = [&](ResourceLocks* locks_a, ResourceLocks* locks_b) {
    holders = 0;
    max_holders = 0;
    std::vector<P::Stage> stages_a;
    stages_a.push_back(P::Stage{"hog-a", {sim::Resource::kCpu}, observing});
    std::vector<P::Stage> stages_b;
    stages_b.push_back(P::Stage{"hog-b", {sim::Resource::kCpu}, observing});
    P a(std::move(stages_a), /*queue_capacity=*/4, locks_a);
    P b(std::move(stages_b), /*queue_capacity=*/4, locks_b);
    std::thread ta([&] { a.Run(std::vector<int>(8, 0)); });
    std::thread tb([&] { b.Run(std::vector<int>(8, 0)); });
    ta.join();
    tb.join();
    return max_holders.load();
  };

  ResourceLocks locks_a;
  ResourceLocks locks_b;
  // Private lock sets: 8 x 2ms sleeps per pipeline overlap at some instant.
  EXPECT_EQ(run_pair(&locks_a, &locks_b), 2) << "private locks must not serialize";
  // Defaulted to Global(): the shared CPU mutex admits one holder ever.
  EXPECT_EQ(run_pair(nullptr, nullptr), 1) << "Global() locks must still serialize";
}

TEST(PipelineExecutor, BoundedQueueDoesNotDeadlock) {
  // More packets than total queue capacity; completes without deadlock.
  using P = Pipeline<int>;
  std::vector<P::Stage> stages;
  for (int s = 0; s < 4; ++s) {
    stages.push_back(P::Stage{"s" + std::to_string(s), {sim::Resource::kCpu},
                              [](int v) -> std::optional<int> { return v + 1; }});
  }
  P pipeline(std::move(stages), /*queue_capacity=*/2);
  std::vector<int> inputs(200, 0);
  const auto outputs = pipeline.Run(std::move(inputs));
  ASSERT_EQ(outputs.size(), 200u);
  EXPECT_EQ(outputs[0], 4);
}

}  // namespace
}  // namespace core
}  // namespace tnp
