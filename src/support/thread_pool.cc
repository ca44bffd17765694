#include "support/thread_pool.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "support/profiler.h"
#include "support/trace.h"

namespace tnp {
namespace support {

namespace {

// Worker identity: which pool (if any) owns the calling thread, and the
// thread's stable slot index inside it. Joiners and CurrentPool() route on
// these; spare workers get indices past num_threads().
thread_local ThreadPool* g_worker_pool = nullptr;
thread_local int g_worker_index = -1;

// ScopedPool override for non-worker threads (benches, tests).
thread_local ThreadPool* g_scoped_pool = nullptr;

// Configure() target for the lazily-created global pool.
std::atomic<int> g_configured_threads{0};
std::atomic<bool> g_global_created{false};

// Each chunk is at most 1/(kChunksPerThread * num_threads) of the range, so
// a late-arriving or stalled worker still leaves enough chunks to steal.
constexpr std::int64_t kChunksPerThread = 4;

int HardwareConcurrency() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 4 : static_cast<int>(hc);
}

int DefaultThreadCount() {
  const int hw = HardwareConcurrency();
  const int configured = g_configured_threads.load(std::memory_order_relaxed);
  if (configured > 0) return std::min(configured, 4 * hw);
  const int parsed = ParseThreadCountEnv(std::getenv("TNP_NUM_THREADS"), hw);
  return parsed > 0 ? parsed : hw;
}

// The ParallelFor chunk body: trivially copyable so it rides the inline task
// slot. The FunctionRef keeps pointing at the caller's lambda, which outlives
// the chunk because ParallelFor blocks in TaskGroup::Wait.
struct ChunkTask {
  FunctionRef<void(std::int64_t)> fn;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  TaskGroup* group = nullptr;

  void operator()() const {
    for (std::int64_t i = lo; i < hi && !group->failed(); ++i) fn(i);
  }
};
static_assert(std::is_trivially_copyable_v<ChunkTask>);
static_assert(sizeof(ChunkTask) <= detail::kInlineTaskBytes);

}  // namespace

int ParseThreadCountEnv(const char* text, int hardware) {
  if (text == nullptr || *text == '\0') return 0;
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) {
    TNP_LOG(WARNING) << "ignoring malformed TNP_NUM_THREADS value \"" << text
                     << "\" (expected a positive integer)";
    return 0;
  }
  if (parsed <= 0) {
    TNP_LOG(WARNING) << "ignoring non-positive TNP_NUM_THREADS value " << parsed;
    return 0;
  }
  const long max_threads = 4L * hardware;
  if (parsed > max_threads) {
    TNP_LOG(WARNING) << "clamping TNP_NUM_THREADS=" << parsed << " to "
                     << max_threads << " (4x hardware concurrency of "
                     << hardware << ")";
    return static_cast<int>(max_threads);
  }
  return static_cast<int>(parsed);
}

// ------------------------------------------------------------------ TaskGroup

TaskGroup::TaskGroup(ThreadPool* pool)
    : pool_(pool != nullptr ? pool : &CurrentPool()) {}

TaskGroup::~TaskGroup() { WaitImpl(/*rethrow=*/false); }

void TaskGroup::Wait() { WaitImpl(/*rethrow=*/true); }

void TaskGroup::WaitImpl(bool rethrow) {
  for (;;) {
    detail::Task task;
    if (pool_->TakeGroupTask(this, &task)) {
      pool_->Execute(task, /*stolen=*/false);
      continue;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    if (outstanding_ == 0) break;
    // Every completion notifies: a wakeup with tasks still outstanding means
    // "rescan the deques" — one of our tasks may be queued with all workers
    // busy elsewhere, and the joiner must run it itself to guarantee
    // progress.
    cv_.wait(lock);
    if (outstanding_ == 0) break;
  }
  if (rethrow) {
    std::exception_ptr error;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      error = error_;
      error_ = nullptr;
      failed_.store(false, std::memory_order_relaxed);
    }
    if (error) std::rethrow_exception(error);
  }
}

void TaskGroup::OnDone(std::exception_ptr error) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (error && !error_) {
    error_ = error;
    failed_.store(true, std::memory_order_relaxed);
  }
  --outstanding_;
  cv_.notify_all();
}

// ------------------------------------------------------------------ ThreadPool

ThreadPool::ThreadPool(int num_threads) : ThreadPool(num_threads, Options{}) {}

ThreadPool::ThreadPool(int num_threads, Options options)
    : options_(std::move(options)),
      target_(num_threads),
      max_workers_(num_threads + std::max(0, options_.max_spares)),
      deques_(static_cast<std::size_t>(num_threads +
                                       std::max(0, options_.max_spares))) {
  TNP_CHECK_GT(num_threads, 0);
  TNP_CHECK_GT(options_.queue_capacity, 0u);
  auto& registry = metrics::Registry::Global();
  executed_ = &registry.GetCounter(options_.name + "/executed");
  steals_ = &registry.GetCounter(options_.name + "/steals");
  overflow_count_ = &registry.GetCounter(options_.name + "/overflow");
  heap_tasks_ = &registry.GetCounter(options_.name + "/heap_tasks");
  chunks_ = &registry.GetCounter(options_.name + "/parallel_for/chunks");
  spares_spawned_ = &registry.GetCounter(options_.name + "/spares_spawned");
  blocked_gauge_ = &registry.GetGauge(options_.name + "/blocked");
  registry.GetGauge(options_.name + "/num_threads")
      .Set(static_cast<double>(target_));
  for (std::size_t i = 0; i < deques_.size(); ++i) {
    deques_[i].ring.resize(options_.queue_capacity);
    deques_[i].depth = &registry.GetGauge(options_.name + "/worker" +
                                          std::to_string(i) + "/depth");
  }
  std::lock_guard<std::mutex> lock(workers_mutex_);
  workers_.reserve(static_cast<std::size_t>(max_workers_));
  for (int i = 0; i < target_; ++i) SpawnWorkerLocked();
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::SpawnWorkerLocked() {
  const int index = num_workers_++;
  workers_.emplace_back([this, index] { WorkerLoop(index); });
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool(DefaultThreadCount());
  g_global_created.store(true, std::memory_order_relaxed);
  return pool;
}

bool ThreadPool::Configure(int num_threads) {
  if (num_threads <= 0) {
    TNP_LOG(WARNING) << "ThreadPool::Configure ignoring non-positive thread "
                     << "count " << num_threads;
    return false;
  }
  if (g_global_created.load(std::memory_order_relaxed)) {
    TNP_LOG(WARNING) << "ThreadPool::Configure(" << num_threads
                     << ") ignored: the global pool is already running with "
                     << Global().num_threads() << " threads";
    return false;
  }
  g_configured_threads.store(num_threads, std::memory_order_relaxed);
  return true;
}

int ThreadPool::CurrentWorkerIndex() { return g_worker_index; }

ThreadPool& CurrentPool() {
  if (g_worker_pool != nullptr) return *g_worker_pool;
  if (g_scoped_pool != nullptr) return *g_scoped_pool;
  return ThreadPool::Global();
}

ScopedPool::ScopedPool(ThreadPool& pool) : previous_(g_scoped_pool) {
  g_scoped_pool = &pool;
}

ScopedPool::~ScopedPool() { g_scoped_pool = previous_; }

bool ThreadPool::TryEnqueue(const detail::Task& task) {
  // Workers (their own deque, LIFO end) keep nested work cache-hot; external
  // threads scatter round-robin across the primary deques so every worker
  // has something local to pop before it must steal.
  std::size_t target_deque;
  if (g_worker_pool == this && g_worker_index >= 0) {
    target_deque = static_cast<std::size_t>(g_worker_index);
  } else {
    target_deque = next_victim_.fetch_add(1, std::memory_order_relaxed) %
                   static_cast<std::size_t>(target_);
  }
  Deque& dq = deques_[target_deque];
  {
    std::lock_guard<std::mutex> lock(dq.mutex);
    // The stopping check lives under the deque mutex: Shutdown() sets the
    // flag and then locks every deque while draining, so a push either
    // observes stopping here or lands before the drain sweep — no task is
    // ever silently dropped.
    if (stopping_.load(std::memory_order_acquire)) return false;
    if (dq.count < dq.ring.size()) {
      dq.ring[(dq.head + dq.count) % dq.ring.size()] = task;
      ++dq.count;
      dq.depth->Set(static_cast<double>(dq.count));
      pending_.fetch_add(1, std::memory_order_release);
      WakeOne();
      return true;
    }
  }
  // Ring full: spill to the allocating overflow list rather than blocking.
  {
    std::lock_guard<std::mutex> lock(overflow_mutex_);
    if (stopping_.load(std::memory_order_acquire)) return false;
    overflow_.push_back(task);
  }
  overflow_count_->Increment();
  pending_.fetch_add(1, std::memory_order_release);
  WakeOne();
  return true;
}

void ThreadPool::WakeOne() {
  // sleepers_ is only written under sleep_mutex_; a racy read here can only
  // miss a *just-started* sleeper, which re-checks pending_ before waiting.
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    if (sleepers_ == 0) return;
  }
  sleep_cv_.notify_one();
}

bool ThreadPool::FindTask(int worker_index, detail::Task* out, bool* stolen) {
  *stolen = false;
  // 1. Own deque, LIFO end: most recently pushed (nested, cache-hot) first.
  {
    Deque& dq = deques_[static_cast<std::size_t>(worker_index)];
    std::lock_guard<std::mutex> lock(dq.mutex);
    if (dq.count > 0) {
      --dq.count;
      *out = dq.ring[(dq.head + dq.count) % dq.ring.size()];
      dq.depth->Set(static_cast<double>(dq.count));
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  // 2. Overflow spill.
  {
    std::lock_guard<std::mutex> lock(overflow_mutex_);
    if (!overflow_.empty()) {
      *out = overflow_.front();
      overflow_.pop_front();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  // 3. Steal from the FIFO end of another deque: the oldest task is the
  // coarsest-grained work and the least likely to be cache-hot anywhere.
  // The scan publishes as "stealing" so the sampling profiler can tell
  // steal pressure from genuine idleness.
  profiler::StateScope steal_state(profiler::ThreadState::kStealing);
  const std::size_t n = deques_.size();
  for (std::size_t offset = 1; offset < n; ++offset) {
    Deque& victim =
        deques_[(static_cast<std::size_t>(worker_index) + offset) % n];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (victim.count > 0) {
      *out = victim.ring[victim.head];
      victim.head = (victim.head + 1) % victim.ring.size();
      --victim.count;
      victim.depth->Set(static_cast<double>(victim.count));
      pending_.fetch_sub(1, std::memory_order_relaxed);
      *stolen = true;
      return true;
    }
  }
  return false;
}

bool ThreadPool::TakeGroupTask(TaskGroup* group, detail::Task* out) {
  // Joiner help-execution: extract a task *of this group only*. Scans each
  // deque from the LIFO end (a joining worker's own nested chunks sit
  // there). Restricting to the group is what keeps join deadlock-free — a
  // foreign task could block on a lock the joiner holds.
  const std::size_t n = deques_.size();
  const std::size_t start =
      g_worker_index >= 0 ? static_cast<std::size_t>(g_worker_index) : 0;
  for (std::size_t offset = 0; offset < n; ++offset) {
    Deque& dq = deques_[(start + offset) % n];
    std::lock_guard<std::mutex> lock(dq.mutex);
    for (std::size_t k = 0; k < dq.count; ++k) {
      const std::size_t idx =
          (dq.head + dq.count - 1 - k) % dq.ring.size();
      if (dq.ring[idx].group != group) continue;
      *out = dq.ring[idx];
      // Fill the hole with the LIFO-end task and shrink; chunk execution
      // order within a group carries no ordering contract.
      dq.ring[idx] = dq.ring[(dq.head + dq.count - 1) % dq.ring.size()];
      --dq.count;
      dq.depth->Set(static_cast<double>(dq.count));
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  {
    std::lock_guard<std::mutex> lock(overflow_mutex_);
    for (auto it = overflow_.begin(); it != overflow_.end(); ++it) {
      if (it->group != group) continue;
      *out = *it;
      overflow_.erase(it);
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void ThreadPool::Execute(detail::Task& task, bool stolen) {
  executed_->Increment();
  if (stolen) steals_->Increment();
  // Publish "running" for the sampler (restored to the caller's state on
  // exit — idle for a worker between tasks, running for a help-executing
  // joiner already inside a task).
  profiler::StateScope run_state(profiler::ThreadState::kRunning);
  std::exception_ptr error;
  {
    // The span must be fully recorded before OnDone: a joiner observing
    // completion may immediately export the trace, and any span the task
    // emitted that is parented to this one must find it there.
    TraceContextScope context(task.trace);
    TNP_TRACE_SCOPE("pool", options_.name + ":task",
                    TraceArg("worker", g_worker_index),
                    TraceArg("stolen", stolen));
    try {
      task.invoke(task.storage);
    } catch (...) {
      error = std::current_exception();
    }
  }
  if (task.group != nullptr) {
    task.group->OnDone(error);
  } else if (error) {
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& e) {
      TNP_LOG(ERROR) << "detached pool task threw: " << e.what();
    } catch (...) {
      TNP_LOG(ERROR) << "detached pool task threw a non-std exception";
    }
  }
}

void ThreadPool::WorkerLoop(int index) {
  g_worker_pool = this;
  g_worker_index = index;
  // Profiler slot under the shared "pool" root (a literal, never this
  // pool's name: the fold table outlives temporary pools). Released
  // automatically when the worker thread exits.
  profiler::RegisterThread("pool");
  for (;;) {
    detail::Task task;
    bool stolen = false;
    if (FindTask(index, &task, &stolen)) {
      Execute(task, stolen);
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    if (pending_.load(std::memory_order_acquire) > 0) continue;
    if (stopping_.load(std::memory_order_acquire)) return;
    ++sleepers_;
    sleep_cv_.wait(lock, [this] {
      return pending_.load(std::memory_order_acquire) > 0 ||
             stopping_.load(std::memory_order_acquire);
    });
    --sleepers_;
  }
}

void ThreadPool::OnBlockingEnter() {
  const int blocked = blocked_.fetch_add(1, std::memory_order_relaxed) + 1;
  blocked_gauge_->Set(static_cast<double>(blocked));
  profiler::SetThreadState(profiler::ThreadState::kBlocked);
  std::lock_guard<std::mutex> lock(workers_mutex_);
  if (stopping_.load(std::memory_order_acquire)) return;
  // Back-fill: keep `target_` workers runnable while tasks park, up to the
  // spare budget. Spares are never retired — they idle on the sleep cv and
  // are joined at shutdown.
  if (num_workers_ - blocked_.load(std::memory_order_relaxed) < target_ &&
      num_workers_ < max_workers_) {
    SpawnWorkerLocked();
    spares_spawned_->Increment();
  }
}

void ThreadPool::OnBlockingExit() {
  const int blocked = blocked_.fetch_sub(1, std::memory_order_relaxed) - 1;
  blocked_gauge_->Set(static_cast<double>(blocked));
  // Blocking scopes only open inside running tasks, so "running" is the
  // state being returned to.
  profiler::SetThreadState(profiler::ThreadState::kRunning);
}

ThreadPool::BlockingScope::BlockingScope() {
  if (g_worker_pool != nullptr) {
    pool_ = g_worker_pool;
    pool_->OnBlockingEnter();
  }
}

ThreadPool::BlockingScope::~BlockingScope() {
  if (pool_ != nullptr) pool_->OnBlockingExit();
}

ThreadPool::BlockingScope& ThreadPool::BlockingScope::operator=(
    BlockingScope&& other) noexcept {
  if (this != &other) {
    if (pool_ != nullptr) pool_->OnBlockingExit();
    pool_ = other.pool_;
    other.pool_ = nullptr;
  }
  return *this;
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  // Control-plane path: type-erased callable + future, both heap-allocated.
  // The inline slot carries only the pointer, so the data plane is shared
  // with Post; the allocation is counted to keep steady-state paths honest.
  heap_tasks_->Increment();
  auto* packaged = new std::packaged_task<void()>(std::move(task));
  std::future<void> future = packaged->get_future();
  struct SubmitTask {
    std::packaged_task<void()>* packaged;
    void operator()() const {
      (*packaged)();
      delete packaged;
    }
  };
  detail::Task slot;
  slot.invoke = +[](void* storage) { (*static_cast<SubmitTask*>(storage))(); };
  slot.group = nullptr;
  slot.trace = CurrentTraceContext();
  ::new (static_cast<void*>(slot.storage)) SubmitTask{packaged};
  if (!TryEnqueue(slot)) {
    delete packaged;
    TNP_THROW(kRuntimeError) << "ThreadPool::Submit after shutdown";
  }
  return future;
}

void ThreadPool::ParallelFor(std::int64_t begin, std::int64_t end,
                             FunctionRef<void(std::int64_t)> fn,
                             std::int64_t grain_size) {
  if (begin >= end) return;
  const std::int64_t range = end - begin;
  if (target_ <= 1 || stopping_.load(std::memory_order_acquire)) {
    for (std::int64_t i = begin; i < end; ++i) fn(i);
    return;
  }
  // Auto grain: split into ~kChunksPerThread chunks per worker so stolen
  // work stays coarse; an explicit grain_size is a minimum-work floor.
  const std::int64_t max_chunks =
      kChunksPerThread * static_cast<std::int64_t>(target_);
  std::int64_t grain = grain_size > 0
                           ? grain_size
                           : std::max<std::int64_t>(1, (range + max_chunks - 1) /
                                                           max_chunks);
  const std::int64_t chunks =
      std::min<std::int64_t>((range + grain - 1) / grain, max_chunks);
  if (chunks <= 1) {
    for (std::int64_t i = begin; i < end; ++i) fn(i);
    return;
  }
  const std::int64_t chunk = (range + chunks - 1) / chunks;
  TaskGroup group(this);
  std::int64_t posted = 0;
  for (std::int64_t lo = begin; lo < end; lo += chunk) {
    const std::int64_t hi = std::min(end, lo + chunk);
    group.Run(ChunkTask{fn, lo, hi, &group});
    ++posted;
  }
  chunks_->Increment(posted);
  group.Wait();
}

void ThreadPool::Shutdown() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    return;  // idempotent
  }
  {
    // Notify under the sleep mutex: a worker that has evaluated its wait
    // predicate but not yet blocked would otherwise miss this wakeup, and
    // join() below would wait forever.
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    sleep_cv_.notify_all();
  }
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(workers_mutex_);
    workers.swap(workers_);
  }
  // Workers drain every queued task before exiting (they only return when
  // stopping && nothing found), so after the joins the deques can hold at
  // most pushes that raced the stopping flag — run those here so shutdown
  // is deterministic: everything accepted gets executed.
  for (auto& worker : workers) worker.join();
  for (std::size_t i = 0; i < deques_.size(); ++i) {
    for (;;) {
      detail::Task task;
      bool found = false;
      {
        Deque& dq = deques_[i];
        std::lock_guard<std::mutex> lock(dq.mutex);
        if (dq.count > 0) {
          --dq.count;
          task = dq.ring[(dq.head + dq.count) % dq.ring.size()];
          dq.depth->Set(static_cast<double>(dq.count));
          pending_.fetch_sub(1, std::memory_order_relaxed);
          found = true;
        }
      }
      if (!found) break;
      Execute(task, /*stolen=*/false);
    }
  }
  for (;;) {
    detail::Task task;
    bool found = false;
    {
      std::lock_guard<std::mutex> lock(overflow_mutex_);
      if (!overflow_.empty()) {
        task = overflow_.front();
        overflow_.pop_front();
        pending_.fetch_sub(1, std::memory_order_relaxed);
        found = true;
      }
    }
    if (!found) break;
    Execute(task, /*stolen=*/false);
  }
}

}  // namespace support
}  // namespace tnp
