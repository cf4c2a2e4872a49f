// BufferPool unit and edge tests: recycling really reuses storage, a
// block freed on another thread joins that thread's free lists, a
// finished thread's lists pass to the next new thread, double frees die
// loudly, and the typed facades (PoolAllocator / PooledVector /
// make_pooled / SmallFn) behave like their std counterparts. Every
// check is by pointer identity: the free lists are LIFO, so a block
// freed and requested again in the same size class on the same thread
// comes straight back. Registered under the `threads` ctest label, so
// TSan runs it as well as ASan.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "util/alloc_stats.h"
#include "util/pool.h"
#include "util/small_fn.h"

namespace hydra::util {
namespace {

TEST(BufferPool, RecycleReturnsTheSameBlockLifo) {
  void* p = BufferPool::allocate(100);
  ASSERT_NE(p, nullptr);
  BufferPool::deallocate(p);
  void* q = BufferPool::allocate(100);
  // Same size class, same thread, nothing allocated in between: the
  // free list is LIFO, so the recycled block is the one just returned.
  EXPECT_EQ(p, q);
  BufferPool::deallocate(q);
}

TEST(BufferPool, SizeClassesDoNotAlias) {
  void* small = BufferPool::allocate(50);
  void* large = BufferPool::allocate(1000);
  BufferPool::deallocate(small);
  BufferPool::deallocate(large);
  // Each class recycles its own returns.
  EXPECT_EQ(BufferPool::allocate(50), small);
  EXPECT_EQ(BufferPool::allocate(1000), large);
  BufferPool::deallocate(small);
  BufferPool::deallocate(large);
}

TEST(BufferPool, PayloadsAreAligned) {
  for (const std::size_t bytes : {1u, 17u, 64u, 100u, 4096u}) {
    void* p = BufferPool::allocate(bytes);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % BufferPool::kAlignment,
              0u)
        << bytes;
    BufferPool::deallocate(p);
  }
}

TEST(BufferPool, OversizeFallsThroughToHeap) {
  // Past the largest class the block comes from operator new, still
  // behind a header: ASan checks that the whole payload is addressable
  // and that deallocate hands the block back to operator delete.
  const std::size_t bytes = BufferPool::kMaxBlockBytes + 1;
  void* p = BufferPool::allocate(bytes);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % BufferPool::kAlignment, 0u);
  std::memset(p, 0xab, bytes);
  BufferPool::deallocate(p);
}

TEST(BufferPool, BlockFreedOnAnotherThreadJoinsThatThreadsLists) {
  constexpr std::size_t kBytes = 300;
  void* block = BufferPool::allocate(kBytes);
  void* reused = nullptr;
  // The freeing thread's next allocation in the class pops the block
  // it just freed: the free went onto its own list, not back to ours.
  std::thread([block, &reused] {
    BufferPool::deallocate(block);
    reused = BufferPool::allocate(kBytes);
    BufferPool::deallocate(reused);
  }).join();
  EXPECT_EQ(reused, block);
  // Nor is the block on this thread's lists.
  void* mine = BufferPool::allocate(kBytes);
  EXPECT_NE(mine, block);
  BufferPool::deallocate(mine);
}

TEST(BufferPool, NextThreadAdoptsAFinishedThreadsLists) {
  constexpr std::size_t kBytes = 700;
  void* freed = nullptr;
  std::thread([&freed] {
    freed = BufferPool::allocate(kBytes);
    BufferPool::deallocate(freed);
  }).join();
  // The first thread parked its lists on exit, with `freed` on top of
  // its class; only a thread holding those lists can be handed it.
  void* adopted = nullptr;
  std::thread([&adopted] {
    adopted = BufferPool::allocate(kBytes);
    BufferPool::deallocate(adopted);
  }).join();
  EXPECT_EQ(adopted, freed);
}

TEST(BufferPoolDeathTest, DoubleFreeAborts) {
  void* p = BufferPool::allocate(64);
  BufferPool::deallocate(p);
  EXPECT_DEATH(BufferPool::deallocate(p), "assertion failed");
  // Leave the (freed) block where it is: it is live on the free list.
}

TEST(PooledVector, GrowsAndRecyclesThroughThePool) {
  const void* storage = nullptr;
  std::size_t bytes = 0;
  {
    PooledVector<std::uint32_t> v;
    for (std::uint32_t i = 0; i < 1000; ++i) v.push_back(i);
    for (std::uint32_t i = 0; i < 1000; ++i) ASSERT_EQ(v[i], i);
    storage = v.data();
    bytes = v.capacity() * sizeof(std::uint32_t);
  }
  // The final buffer went back to the pool last, so it tops its class.
  void* p = BufferPool::allocate(bytes);
  EXPECT_EQ(p, storage);
  BufferPool::deallocate(p);
}

TEST(PoolAllocator, OverAlignedTypesBypassThePool) {
  struct alignas(64) Wide {
    double lanes[8];
  };
  // No size class guarantees 64-byte alignment, so the allocator takes
  // the aligned operator new instead (ASan checks that it pairs with
  // the aligned delete).
  std::vector<Wide, PoolAllocator<Wide>> v(4);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 64, 0u);
}

TEST(ArenaPool, MakePooledConstructsAndRecycles) {
  auto p = make_pooled<std::pair<int, int>>(3, 4);
  EXPECT_EQ(p->first, 3);
  EXPECT_EQ(p->second, 4);
  const void* raw = p.get();
  p.reset();  // control block + object return to the pool together
  auto q = make_pooled<std::pair<int, int>>(5, 6);
  EXPECT_EQ(static_cast<const void*>(q.get()), raw);
}

TEST(SmallFn, InlineCaptureInvokes) {
  int hits = 0;
  SmallFn fn([&hits] { ++hits; });
  EXPECT_TRUE(static_cast<bool>(fn));
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFn, LargeCaptureBoxesThroughThePool) {
  std::array<std::uint8_t, 128> payload{};
  payload[0] = 42;
  payload[127] = 7;
  int sum = 0;
  const auto body = [payload, &sum] { sum = payload[0] + payload[127]; };
  // Put a known block on top of the box's size class: boxing takes it.
  void* top = BufferPool::allocate(sizeof(body));
  BufferPool::deallocate(top);
  {
    SmallFn fn(body);
    void* next = BufferPool::allocate(sizeof(body));
    EXPECT_NE(next, top) << "the box holds it";
    BufferPool::deallocate(next);
    fn();
  }
  EXPECT_EQ(sum, 49);
  // Destroying the SmallFn returned the box last.
  void* again = BufferPool::allocate(sizeof(body));
  EXPECT_EQ(again, top);
  BufferPool::deallocate(again);
}

TEST(SmallFn, MoveTransfersAndEmptiesTheSource) {
  int hits = 0;
  SmallFn a([&hits] { ++hits; });
  SmallFn b(std::move(a));
  EXPECT_EQ(a, nullptr);
  EXPECT_NE(b, nullptr);
  b();
  EXPECT_EQ(hits, 1);
  a = std::move(b);
  EXPECT_EQ(b, nullptr);
  a();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFn, DestroysCapturesExactlyOnce) {
  const auto token = std::make_shared<int>(1);
  // Inline: the shared_ptr capture fits the 48-byte buffer.
  {
    SmallFn fn([token] {});
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
  // Boxed: pad the capture past the inline buffer.
  {
    std::array<std::uint8_t, 64> pad{};
    SmallFn fn([token, pad] { (void)pad; });
    EXPECT_EQ(token.use_count(), 2);
    SmallFn moved(std::move(fn));
    EXPECT_EQ(token.use_count(), 2);  // relocation is not a copy
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(SmallFn, NullStatesCompareAndAssignLikeStdFunction) {
  SmallFn fn;
  EXPECT_FALSE(static_cast<bool>(fn));
  EXPECT_EQ(fn, nullptr);
  fn = SmallFn([] {});
  EXPECT_NE(fn, nullptr);
  fn = SmallFn(nullptr);
  EXPECT_EQ(fn, nullptr);
}

TEST(SmallFnDeathTest, InvokingEmptyAborts) {
  SmallFn fn;
  EXPECT_DEATH(fn(), "empty SmallFn");
}

TEST(AllocStats, CountsOperatorNewTraffic) {
  const auto before = alloc_snapshot();
  // Direct operator-new call: a new-*expression* here could legally be
  // elided as unused (GCC does at -O2), which is exactly a miscount.
  void* block = ::operator new(10'000);
  const auto after = alloc_snapshot();
  ::operator delete(block);
  EXPECT_GE(after.allocations, before.allocations + 1);
  EXPECT_GE(after.bytes, before.bytes + 10'000);
  EXPECT_GT(peak_rss_kb(), 0u);
}

}  // namespace
}  // namespace hydra::util
