#include "util/pool.h"

#include <cstddef>
#include <cstdint>

#include "util/assert.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace hydra::util {
namespace {

// Block layout: [BlockHeader][payload...]. The header survives while
// the block sits on a free list (the list link reuses the payload
// bytes), so a stale or double free trips the magic check instead of
// corrupting a list.
constexpr std::uint32_t kMagicLive = 0x48504f4cu;  // "HPOL": handed out
constexpr std::uint32_t kMagicFree = 0x46524545u;  // "FREE": on a list
constexpr std::uint32_t kMagicHeap = 0x48454150u;  // "HEAP": oversize

constexpr std::size_t kMinClassBytes = 64;
constexpr std::size_t kNumClasses = 11;  // 64 B … 64 KiB, powers of two
constexpr std::size_t kSlabBytes = 64 * 1024;

constexpr std::size_t class_bytes(std::size_t cls) {
  return kMinClassBytes << cls;
}
static_assert(class_bytes(kNumClasses - 1) == BufferPool::kMaxBlockBytes);

struct alignas(BufferPool::kAlignment) BlockHeader {
  std::uint32_t size_class;  // index into the class table
  std::uint32_t magic;
};
static_assert(sizeof(BlockHeader) == BufferPool::kAlignment);
static_assert(alignof(std::max_align_t) <= BufferPool::kAlignment);

// Smallest class whose block holds `need` bytes (header included).
std::size_t class_for(std::size_t need) {
  std::size_t cls = 0;
  while (class_bytes(cls) < need) ++cls;
  return cls;
}

// Free-list link, overlaid on the payload bytes of a returned block.
struct FreeBlock {
  FreeBlock* next;
};

FreeBlock* link_of(BlockHeader* h) {
  return reinterpret_cast<FreeBlock*>(h + 1);
}
BlockHeader* header_of(FreeBlock* link) {
  return reinterpret_cast<BlockHeader*>(link) - 1;
}

// One thread's free lists and slab cursor. Only the thread holding the
// set touches it; a set changes hands only through the registry lock
// (parked by a finished thread, adopted by a new one), which orders the
// old holder's writes before the new holder's reads.
class FreeLists {
 public:
  void* allocate(std::size_t cls) {
    if (FreeBlock* link = free_[cls]) {
      free_[cls] = link->next;
      BlockHeader* h = header_of(link);
      HYDRA_ASSERT_MSG(h->magic == kMagicFree, "pool free-list corruption");
      h->magic = kMagicLive;
      return h + 1;
    }
    auto* h = static_cast<BlockHeader*>(carve(class_bytes(cls)));
    h->size_class = static_cast<std::uint32_t>(cls);
    h->magic = kMagicLive;
    return h + 1;
  }

  void recycle(BlockHeader* h) {
    h->magic = kMagicFree;
    FreeBlock* link = link_of(h);
    link->next = free_[h->size_class];
    free_[h->size_class] = link;
  }

 private:
  void* carve(std::size_t bytes) {
    if (bytes > kSlabBytes / 4) {
      // Big classes get a dedicated slab; sharing the bump region with
      // them would strand most of a slab on every crossing.
      void* raw = ::operator new(bytes);
      slabs_.push_back(raw);
      return raw;
    }
    if (slab_remaining_ < bytes) {
      void* raw = ::operator new(kSlabBytes);
      slabs_.push_back(raw);
      cursor_ = static_cast<std::byte*>(raw);
      slab_remaining_ = kSlabBytes;
    }
    void* out = cursor_;
    cursor_ += bytes;
    slab_remaining_ -= bytes;
    return out;
  }

  FreeBlock* free_[kNumClasses] = {};
  std::byte* cursor_ = nullptr;
  std::size_t slab_remaining_ = 0;
  // Slab base pointers. Slabs live for the process (their blocks may
  // sit on any thread's lists), and staying reachable from the registry
  // keeps leak checkers quiet about the intentional cache.
  std::vector<void*> slabs_;
};

// Process-lifetime registry of free-list sets. Deliberately leaked:
// blocks on one set's lists may have been carved from another's slabs,
// so no set is ever destroyed.
struct Registry {
  Mutex mu;
  std::vector<FreeLists*> all GUARDED_BY(mu);     // every set ever made
  std::vector<FreeLists*> parked GUARDED_BY(mu);  // left by finished threads
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked by design, see above
  return *r;
}

// The calling thread's set. Trivially destructible, so reads stay valid
// after the thread's Lease has parked the set: a late pool call from a
// thread_local destroyed after the Lease adopts a set again, which then
// stays with the finished thread (still reachable from `all`).
thread_local FreeLists* tl_lists = nullptr;

// Parks the thread's set in the registry when the thread finishes.
struct Lease {
  Lease() = default;
  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;
  ~Lease() {
    if (tl_lists == nullptr) return;  // adoption threw
    Registry& reg = registry();
    MutexLock lock(reg.mu);
    reg.parked.push_back(tl_lists);
    tl_lists = nullptr;
  }
};

// First pool call on a thread: take a parked set, or make one.
FreeLists* adopt_lists() {
  static thread_local Lease lease;  // its destructor parks the set
  (void)lease;
  Registry& reg = registry();
  MutexLock lock(reg.mu);
  if (!reg.parked.empty()) {
    FreeLists* lists = reg.parked.back();
    reg.parked.pop_back();
    return lists;
  }
  auto* lists = new FreeLists;  // kept in the registry, never destroyed
  reg.all.push_back(lists);
  return lists;
}

FreeLists& local_lists() {
  if (tl_lists == nullptr) [[unlikely]] tl_lists = adopt_lists();
  return *tl_lists;
}

}  // namespace

void* BufferPool::allocate(std::size_t bytes) {
  const std::size_t need = bytes + sizeof(BlockHeader);
  if (need <= kMaxBlockBytes) return local_lists().allocate(class_for(need));
  auto* h = static_cast<BlockHeader*>(::operator new(need));
  h->size_class = kNumClasses;
  h->magic = kMagicHeap;
  return h + 1;
}

void BufferPool::deallocate(void* payload) noexcept {
  if (payload == nullptr) return;
  auto* h = static_cast<BlockHeader*>(payload) - 1;
  if (h->magic == kMagicLive) {
    local_lists().recycle(h);
    return;
  }
  HYDRA_ASSERT_MSG(h->magic == kMagicHeap,
                   "BufferPool::deallocate double free or corruption");
  ::operator delete(h);
}

}  // namespace hydra::util
