// Persistent worker pool for data-parallel fan-out: spawn the threads
// once, then run indexed batches across them as often as needed.
// app::sweep_experiments runs one batch per grid, each point a whole
// simulation on one worker; simulations themselves never start threads.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace hydra::util {

// A fixed set of worker threads executing one indexed batch at a time.
// The calling thread participates in every batch, so a pool of
// concurrency 1 spawns no threads at all and parallel_for degenerates
// to a plain serial loop — callers never need a separate code path for
// "threading disabled".
class TaskPool {
 public:
  // Total concurrency, calling thread included: a pool of concurrency c
  // spawns c − 1 workers. 0 resolves to the hardware concurrency (at
  // least 1).
  explicit TaskPool(unsigned concurrency = 0);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  unsigned concurrency() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  // Runs body(0) .. body(count − 1), each exactly once, spread across
  // the pool by dynamic work stealing over a shared cursor; returns
  // once every call has finished (all worker writes are visible to the
  // caller afterwards). `body` must not throw and must not re-enter the
  // pool — one batch runs at a time.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body);

 private:
  void worker_loop();
  // Claims and runs batch indices until the cursor runs out. Reads the
  // batch fields without holding mutex_: the generation handshake (the
  // caller writes them under the lock before bumping generation_, the
  // worker re-reads them only after observing the bump under the same
  // lock) publishes them, which the analysis cannot follow.
  void drain_batch() NO_THREAD_SAFETY_ANALYSIS;

  Mutex mutex_;
  CondVar work_cv_;  // workers wait here for a batch
  CondVar idle_cv_;  // the caller waits here for workers
  std::uint64_t generation_ GUARDED_BY(mutex_) = 0;  // bumped per batch
  bool stopping_ GUARDED_BY(mutex_) = false;
  std::size_t busy_workers_ GUARDED_BY(mutex_) = 0;
  // The current batch. Written under mutex_ before workers wake, read
  // by them after observing the generation bump under the same mutex
  // (see drain_batch for why the analysis gets an escape there).
  std::size_t batch_count_ GUARDED_BY(mutex_) = 0;
  const std::function<void(std::size_t)>* batch_body_
      GUARDED_BY(mutex_) = nullptr;
  std::atomic<std::size_t> cursor_{0};
  std::vector<std::thread> workers_;
};

}  // namespace hydra::util
