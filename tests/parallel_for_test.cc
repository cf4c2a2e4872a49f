// util::parallel_for: the fork-join behind the sweep driver. The
// contract under test: every index runs exactly once, helper writes are
// visible to the caller after the call returns, the caller plus
// min(threads, count) − 1 helpers share the work (0 threads meaning the
// hardware concurrency), one thread runs the loop inline, and a body may
// call parallel_for again. Runs under TSan in CI (label: threads).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "util/parallel_for.h"

namespace hydra {
namespace {

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 10'000;
  std::vector<std::atomic<std::uint32_t>> hits(kCount);
  util::parallel_for(kCount, 4, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1u) << "index " << i;
  }
}

TEST(ParallelFor, HelperWritesAreVisibleAfterReturn) {
  // Plain (non-atomic) writes to disjoint slots, read back by the
  // caller: joining the helpers must publish them. TSan verifies the
  // synchronization, the sum verifies the data.
  constexpr std::size_t kCount = 4096;
  std::vector<std::uint64_t> slots(kCount, 0);
  util::parallel_for(kCount, 4, [&](std::size_t i) { slots[i] = i + 1; });
  const auto sum = std::accumulate(slots.begin(), slots.end(),
                                   std::uint64_t{0});
  EXPECT_EQ(sum, kCount * (kCount + 1) / 2);
}

TEST(ParallelFor, ManyCallsInARow) {
  // Each call forks and joins its own helpers; nothing carries over.
  std::atomic<std::uint64_t> total{0};
  for (int call = 0; call < 100; ++call) {
    util::parallel_for(17, 3, [&](std::size_t i) {
      total.fetch_add(i, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 100u * (16 * 17 / 2));
}

TEST(ParallelFor, OneThreadRunsInlineOnTheCaller) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(64);
  util::parallel_for(ran.size(), 1, [&](std::size_t i) {
    ran[i] = std::this_thread::get_id();
  });
  for (const auto id : ran) EXPECT_EQ(id, caller);
}

// Runs `count` indices on `threads`, each index waiting (up to 10 s)
// until all `count` have started, and returns how many distinct threads
// ran them. Only `count` concurrent threads can pass the rendezvous in
// time, so fewer threads show up as fewer distinct ids.
std::size_t threads_at_rendezvous(std::size_t count, unsigned threads) {
  std::atomic<std::size_t> arrived{0};
  std::vector<std::thread::id> ran(count);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  util::parallel_for(count, threads, [&](std::size_t i) {
    ran[i] = std::this_thread::get_id();
    arrived.fetch_add(1);
    while (arrived.load() < count &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  });
  return std::set<std::thread::id>(ran.begin(), ran.end()).size();
}

TEST(ParallelFor, StartsOneThreadPerIndexUpToTheLimit) {
  EXPECT_EQ(threads_at_rendezvous(3, 3), 3u);
  EXPECT_EQ(threads_at_rendezvous(2, 8), 2u);
  // 0 resolves to the hardware concurrency — at least one.
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(threads_at_rendezvous(cores, 0), cores);
}

TEST(ParallelFor, EmptyAndSingletonRanges) {
  std::atomic<int> runs{0};
  util::parallel_for(0, 4, [&](std::size_t) { runs.fetch_add(1); });
  EXPECT_EQ(runs.load(), 0);
  const auto caller = std::this_thread::get_id();
  util::parallel_for(1, 4, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    runs.fetch_add(1);
  });
  EXPECT_EQ(runs.load(), 1);
}

TEST(ParallelFor, NestedCallsAreLegal) {
  // Every call owns its helpers, so a body may fork and join again.
  std::atomic<std::uint32_t> inner_runs{0};
  util::parallel_for(4, 2, [&](std::size_t) {
    util::parallel_for(8, 2, [&](std::size_t) {
      inner_runs.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_runs.load(), 32u);
}

TEST(ParallelFor, UnevenWorkStaysBalanced) {
  // Dynamic claiming: one slow index must not serialize the rest. This
  // is a liveness smoke test, not a timing assertion — it passes by
  // terminating.
  std::atomic<std::uint64_t> done{0};
  util::parallel_for(256, 4, [&](std::size_t i) {
    volatile std::uint64_t spin = (i % 7 == 0) ? 20'000 : 100;
    while (spin > 0) spin = spin - 1;
    done.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(done.load(), 256u);
}

}  // namespace
}  // namespace hydra
