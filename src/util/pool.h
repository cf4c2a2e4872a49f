// Recycling memory subsystem for the simulation hot path.
//
// `BufferPool` is a size-classed free-list allocator with thread-affine
// shards: every thread that allocates gets its own shard (a set of
// per-class singly-linked free lists fed by 64 KiB slabs), so the fast
// path — pop a recycled block, or bump-carve a fresh one — takes no
// lock and touches no shared cache line. Blocks remember their owning
// shard in a 16-byte header; freeing from the owning thread pushes onto
// the local free list, freeing from any other thread pushes onto the
// owner's lock-free MPSC return stack, which the owner drains the next
// time it allocates. This composes with the sharded medium and parallel
// sweeps: TaskPool workers recycle among themselves without ever
// contending with the main thread.
//
// Shards live in a process-lifetime registry (guarded by an annotated
// util::Mutex — the one lock, taken only on thread birth/death and in
// stats()); a thread that exits returns its shard to an idle list for
// the next new thread, so a block's owner pointer can never dangle.
//
// Pooling can be toggled off at runtime (`set_pooling_enabled(false)`)
// for heap-vs-pool ablations; the block header records where each
// block actually came from, so toggling between an allocation and its
// matching free is always safe. Determinism contract: the pool hands
// out storage only — event order, RNG streams and trace digests are
// bit-identical pooled or not, which tests/pool_determinism_test.cc
// pins across every delivery backend.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace hydra::util {

// Counters aggregated over every shard. Within one thread the counts
// are exact and deterministic for a deterministic allocation sequence
// (the serial-mode ablation bench gates on them); across threads the
// per-shard counters are relaxed atomics, so a snapshot taken while
// workers run is approximate but race-free.
struct PoolStats {
  std::uint64_t requests = 0;        // calls routed through the pool API
  std::uint64_t recycled = 0;        // served by reusing a returned block
  std::uint64_t fresh = 0;           // bump-carved from a slab
  std::uint64_t heap = 0;            // passthrough (pooling off / oversize)
  std::uint64_t remote_returns = 0;  // frees from a non-owning thread
  std::uint64_t slab_bytes = 0;      // slab capacity reserved so far
  std::uint64_t shards = 0;          // shards ever created
};

class BufferPool {
 public:
  // Payloads whose block (payload + header) exceeds the largest size
  // class fall through to the heap regardless of the enabled flag.
  static constexpr std::size_t kMaxBlockBytes = 64 * 1024;
  // Returned payloads are aligned to this (block headers are 16 bytes
  // and size classes are powers of two ≥ 64).
  static constexpr std::size_t kAlignment = 16;

  // Returns storage for `bytes` payload bytes, recycled when possible.
  // Never returns nullptr (throws std::bad_alloc like operator new).
  static void* allocate(std::size_t bytes);
  // Returns a block to its owning shard (or the heap). Accepts only
  // pointers obtained from allocate(); nullptr is a no-op.
  static void deallocate(void* payload) noexcept;

  static void set_enabled(bool on) noexcept;
  static bool enabled() noexcept;

  static PoolStats stats();
};

// Runtime ablation toggle (bench/tests): when off, every allocate() is
// a heap passthrough, so "pooled vs heap" runs differ only in storage
// origin. Affects allocations made after the call; outstanding blocks
// free correctly either way.
inline void set_pooling_enabled(bool on) noexcept {
  BufferPool::set_enabled(on);
}
inline bool pooling_enabled() noexcept { return BufferPool::enabled(); }

// Minimal allocator over the global BufferPool, for containers and
// std::allocate_shared on the hot path. Stateless: all instances are
// interchangeable, so moves/swaps of pooled containers never copy.
template <class T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() noexcept = default;
  template <class U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT(runtime/explicit)

  T* allocate(std::size_t n) {
    if constexpr (alignof(T) > BufferPool::kAlignment) {
      // Over-aligned types skip the pool (no size class guarantees
      // their alignment); none sit on the hot path.
      return static_cast<T*>(
          ::operator new(n * sizeof(T), std::align_val_t{alignof(T)}));
    } else {
      return static_cast<T*>(BufferPool::allocate(n * sizeof(T)));
    }
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if constexpr (alignof(T) > BufferPool::kAlignment) {
      ::operator delete(p, n * sizeof(T), std::align_val_t{alignof(T)});
    } else {
      BufferPool::deallocate(p);
    }
  }
};

template <class A, class B>
constexpr bool operator==(const PoolAllocator<A>&,
                          const PoolAllocator<B>&) noexcept {
  return true;
}
template <class A, class B>
constexpr bool operator!=(const PoolAllocator<A>&,
                          const PoolAllocator<B>&) noexcept {
  return false;
}

// A std::vector whose storage recycles through the BufferPool.
template <class T>
using PooledVector = std::vector<T, PoolAllocator<T>>;

// Typed facade over the BufferPool for shared simulation objects
// (packets, PDUs, transmissions): one allocation holds the control
// block and the object, and both recycle through the owning shard when
// the last reference drops — on whichever thread that happens.
template <class T>
class ArenaPool {
 public:
  template <class... Args>
  static std::shared_ptr<T> make(Args&&... args) {
    return std::allocate_shared<T>(PoolAllocator<T>{},
                                   std::forward<Args>(args)...);
  }
};

// Convenience spelling: make_pooled<T>(...) ≡ ArenaPool<T>::make(...).
template <class T, class... Args>
std::shared_ptr<T> make_pooled(Args&&... args) {
  return ArenaPool<T>::make(std::forward<Args>(args)...);
}

}  // namespace hydra::util
