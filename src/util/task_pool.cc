#include "util/task_pool.h"

#include <algorithm>

#include "util/assert.h"

namespace hydra::util {

namespace {

// The pool whose batch the current thread is executing (nullptr outside
// drain_batch). Both workers and the participating caller set it, so a
// body that re-enters parallel_for *on the same pool* is caught before
// it deadlocks waiting on workers that are all busy running the outer
// batch. Distinct pools may nest, so the guard compares identity, not
// mere presence.
thread_local const TaskPool* tl_current_pool = nullptr;

}  // namespace

TaskPool::TaskPool(unsigned concurrency) {
  if (concurrency == 0) {
    concurrency = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(concurrency - 1);
  for (unsigned t = 1; t < concurrency; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

TaskPool::~TaskPool() {
  {
    const MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void TaskPool::drain_batch() {
  const TaskPool* const prev = tl_current_pool;
  tl_current_pool = this;
  for (std::size_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
       i < batch_count_;
       i = cursor_.fetch_add(1, std::memory_order_relaxed)) {
    (*batch_body_)(i);
  }
  tl_current_pool = prev;
}

void TaskPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    {
      const MutexLock lock(mutex_);
      while (!stopping_ && generation_ == seen) work_cv_.wait(mutex_);
      if (stopping_) return;
      seen = generation_;
    }
    drain_batch();
    {
      const MutexLock lock(mutex_);
      // The caller waits for every worker to pass through the batch —
      // even one that woke to an already-drained cursor — so the next
      // batch can never overlap this one.
      if (--busy_workers_ == 0) idle_cv_.notify_one();
    }
  }
}

void TaskPool::parallel_for(std::size_t count,
                            const std::function<void(std::size_t)>& body) {
  HYDRA_ASSERT(body != nullptr);
  if (workers_.empty() || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  // A nested batch on the same pool would block forever: the outer
  // batch's workers are the threads the inner one would wait for.
  HYDRA_ASSERT_MSG(tl_current_pool != this,
                   "nested parallel_for on the same TaskPool");
  {
    const MutexLock lock(mutex_);
    HYDRA_ASSERT_MSG(batch_body_ == nullptr, "parallel_for re-entered");
    batch_count_ = count;
    batch_body_ = &body;
    cursor_.store(0, std::memory_order_relaxed);
    busy_workers_ = workers_.size();
    ++generation_;
  }
  work_cv_.notify_all();
  drain_batch();
  const MutexLock lock(mutex_);
  while (busy_workers_ != 0) idle_cv_.wait(mutex_);
  batch_body_ = nullptr;
  batch_count_ = 0;
}

}  // namespace hydra::util
