// Recycling memory for the simulation hot path.
//
// `BufferPool` is a size-classed free-list allocator with one set of
// free lists per thread: a list per power-of-two size class from 64 B
// to 64 KiB, fed by 64 KiB slabs. allocate pops a recycled block or
// bump-carves a fresh one from the thread's slab; deallocate pushes the
// block onto the calling thread's list. Neither takes a lock or touches
// an atomic. A simulation runs wholly on one thread (the event loop is
// serial, and app::sweep_experiments runs each point on one worker), so
// blocks return to the thread that carved them. A block freed on
// another thread simply joins that thread's lists.
//
// Every block carries a 16-byte header holding its size class and a
// live/free magic, so a double free trips an assertion instead of
// corrupting a list. Requests whose block (payload + header) would
// exceed 64 KiB go to the heap.
//
// Lists outlive their thread: a finishing thread parks them in a
// process-lifetime registry (guarded by an annotated util::Mutex, taken
// only at thread birth and death), and the next new thread adopts them.
// Later sweep workers therefore reuse warm slabs, and every slab stays
// reachable for leak checkers.
//
// Determinism contract: the pool hands out storage only. Event order,
// RNG streams and trace digests never depend on where a block came
// from.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace hydra::util {

class BufferPool {
 public:
  // Payloads whose block (payload + header) exceeds the largest size
  // class fall through to the heap.
  static constexpr std::size_t kMaxBlockBytes = 64 * 1024;
  // Returned payloads are aligned to this (block headers are 16 bytes
  // and size classes are powers of two ≥ 64).
  static constexpr std::size_t kAlignment = 16;

  // Returns storage for `bytes` payload bytes, recycled when possible.
  // Never returns nullptr (throws std::bad_alloc like operator new).
  static void* allocate(std::size_t bytes);
  // Returns a block to the calling thread's free lists (or the heap).
  // Accepts only pointers obtained from allocate(); nullptr is a no-op.
  static void deallocate(void* payload) noexcept;
};

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

// Shared simulation objects (packets, PDUs, transmissions) from the
// BufferPool: one allocation holds the control block and the object, and
// both recycle together when the last reference drops.
template <class T, class... Args>
std::shared_ptr<T> make_pooled(Args&&... args) {
  return std::allocate_shared<T>(PoolAllocator<T>{},
                                 std::forward<Args>(args)...);
}

}  // namespace hydra::util
