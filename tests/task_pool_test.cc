// util::TaskPool: the persistent worker pool behind the sweep driver.
// The contract under test: every index of a batch runs exactly once,
// worker writes are visible to the caller after parallel_for returns,
// the pool is reusable across batches, and a concurrency-1 pool
// degenerates to an inline serial loop. Runs under TSan in CI (label:
// threads).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "util/task_pool.h"

namespace hydra {
namespace {

TEST(TaskPool, RunsEveryIndexExactlyOnce) {
  util::TaskPool pool(4);
  constexpr std::size_t kCount = 10'000;
  std::vector<std::atomic<std::uint32_t>> hits(kCount);
  pool.parallel_for(kCount, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1u) << "index " << i;
  }
}

TEST(TaskPool, WorkerWritesAreVisibleAfterReturn) {
  // Plain (non-atomic) writes to disjoint slots, read back by the
  // caller: the batch barrier must publish them. TSan verifies the
  // synchronization, the sum verifies the data.
  util::TaskPool pool(4);
  constexpr std::size_t kCount = 4096;
  std::vector<std::uint64_t> slots(kCount, 0);
  pool.parallel_for(kCount, [&](std::size_t i) { slots[i] = i + 1; });
  const auto sum = std::accumulate(slots.begin(), slots.end(),
                                   std::uint64_t{0});
  EXPECT_EQ(sum, kCount * (kCount + 1) / 2);
}

TEST(TaskPool, ReusableAcrossManyBatches) {
  util::TaskPool pool(3);
  std::atomic<std::uint64_t> total{0};
  for (int batch = 0; batch < 100; ++batch) {
    pool.parallel_for(17, [&](std::size_t i) {
      total.fetch_add(i, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 100u * (16 * 17 / 2));
}

TEST(TaskPool, SerialPoolRunsInlineOnTheCaller) {
  util::TaskPool pool(1);
  EXPECT_EQ(pool.concurrency(), 1u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(64);
  pool.parallel_for(ran.size(), [&](std::size_t i) {
    ran[i] = std::this_thread::get_id();
  });
  for (const auto id : ran) EXPECT_EQ(id, caller);
}

TEST(TaskPool, ConcurrencyResolution) {
  EXPECT_EQ(util::TaskPool(4).concurrency(), 4u);
  EXPECT_EQ(util::TaskPool(2).concurrency(), 2u);
  // 0 resolves to the hardware concurrency — at least one.
  EXPECT_GE(util::TaskPool(0).concurrency(), 1u);
}

TEST(TaskPool, EmptyAndSingletonBatches) {
  util::TaskPool pool(4);
  std::atomic<int> runs{0};
  pool.parallel_for(0, [&](std::size_t) { runs.fetch_add(1); });
  EXPECT_EQ(runs.load(), 0);
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    runs.fetch_add(1);
  });
  EXPECT_EQ(runs.load(), 1);
}

TEST(TaskPool, NestedParallelForOnTheSamePoolDies) {
  // Re-entering parallel_for on the pool currently draining this task
  // would deadlock (the inner batch waits on workers that are all busy
  // in the outer batch), so the pool traps it instead. The pool is
  // constructed inside the death statement: threadsafe-style death
  // tests re-execute the test body in a fresh process, and worker
  // threads must not leak across that boundary.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        util::TaskPool pool(2);
        pool.parallel_for(4, [&](std::size_t) {
          pool.parallel_for(2, [](std::size_t) {});
        });
      },
      "nested parallel_for on the same TaskPool");
}

TEST(TaskPool, NestingAcrossDistinctPoolsIsLegal) {
  // The guard is per-pool identity, not a blanket "no pool inside a
  // pool": a batch body may drive a pool of its own.
  util::TaskPool outer(2);
  std::atomic<std::uint32_t> inner_runs{0};
  outer.parallel_for(4, [&](std::size_t) {
    util::TaskPool inner(2);
    inner.parallel_for(8, [&](std::size_t) {
      inner_runs.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_runs.load(), 32u);
}

TEST(TaskPool, UnevenWorkStaysBalanced) {
  // Dynamic stealing: one slow index must not serialize the rest. This
  // is a liveness smoke test, not a timing assertion — it passes by
  // terminating.
  util::TaskPool pool(4);
  std::atomic<std::uint64_t> done{0};
  pool.parallel_for(256, [&](std::size_t i) {
    volatile std::uint64_t spin = (i % 7 == 0) ? 20'000 : 100;
    while (spin > 0) spin = spin - 1;
    done.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(done.load(), 256u);
}

}  // namespace
}  // namespace hydra
