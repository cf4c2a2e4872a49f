// Move-only type-erased `void()` callables for the scheduler hot path.
//
// std::function costs a heap allocation for any capture over ~16 bytes
// (libstdc++), and the medium's fan-out callback captures 24.
// BasicSmallFn stores captures up to a fixed size inline and boxes
// larger ones through the BufferPool (the calling thread's free lists),
// so steady-state event scheduling allocates nothing from the system
// heap. Two sizes are in use:
//   - SmallFn, 48 inline bytes (64 in all), enough for every callback the
//     simulator schedules today. Constructed once, moved into its run's
//     block (a schedule_at event is a run of one), invoked there once
//     per event and destroyed after the last.
//   - sim::Timer's callback, one pointer inline (16 bytes in all): a
//     protocol object's `[this]` lambda. It stays in its timer for the
//     timer's life, and a simulation holds tens of thousands of timers.
// Move-only (no copy), matching how both are used.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "util/assert.h"
#include "util/pool.h"

namespace hydra::util {

// `kBytes` of inline capture storage aligned to `kAlign`; a boxed
// capture's pointer takes its place.
template <std::size_t kBytes, std::size_t kAlign>
class BasicSmallFn {
  static_assert(kBytes >= sizeof(void*) && kAlign >= alignof(void*));

 public:
  static constexpr std::size_t kInlineBytes = kBytes;

  BasicSmallFn() noexcept = default;
  BasicSmallFn(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  template <class F,
            class = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, BasicSmallFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  BasicSmallFn(F&& fn) {  // NOLINT(runtime/explicit): drop-in for std::function
    emplace<std::decay_t<F>>(std::forward<F>(fn));
  }

  BasicSmallFn(BasicSmallFn&& other) noexcept { move_from(other); }
  BasicSmallFn& operator=(BasicSmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  BasicSmallFn(const BasicSmallFn&) = delete;
  BasicSmallFn& operator=(const BasicSmallFn&) = delete;
  ~BasicSmallFn() { reset(); }

  void operator()() {
    HYDRA_ASSERT_MSG(ops_ != nullptr, "invoking an empty SmallFn");
    ops_->invoke(storage());
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }
  friend bool operator==(const BasicSmallFn& f, std::nullptr_t) noexcept {
    return f.ops_ == nullptr;
  }
  friend bool operator!=(const BasicSmallFn& f, std::nullptr_t) noexcept {
    return f.ops_ != nullptr;
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-construct into dst's storage from src's, then destroy src's.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  // Inline iff it fits, is sufficiently aligned, and relocates without
  // throwing (the move constructor must be noexcept for BasicSmallFn's
  // own noexcept moves); everything else is boxed through the
  // BufferPool.
  template <class F>
  static constexpr bool kInline =
      sizeof(F) <= kInlineBytes && alignof(F) <= kAlign &&
      std::is_nothrow_move_constructible_v<F>;

  template <class F>
  static constexpr Ops kInlineOps = {
      [](void* s) { (*static_cast<F*>(s))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) F(std::move(*static_cast<F*>(src)));
        static_cast<F*>(src)->~F();
      },
      [](void* s) noexcept { static_cast<F*>(s)->~F(); },
  };

  template <class F>
  static constexpr Ops kBoxedOps = {
      [](void* s) { (**static_cast<F**>(s))(); },
      [](void* dst, void* src) noexcept {
        *static_cast<F**>(dst) = *static_cast<F**>(src);
      },
      [](void* s) noexcept {
        F* boxed = *static_cast<F**>(s);
        boxed->~F();
        BufferPool::deallocate(boxed);
      },
  };

  template <class F, class Arg>
  void emplace(Arg&& fn) {
    if constexpr (kInline<F>) {
      ::new (storage()) F(std::forward<Arg>(fn));
      ops_ = &kInlineOps<F>;
    } else {
      static_assert(alignof(F) <= BufferPool::kAlignment,
                    "over-aligned callables are not supported");
      void* box = BufferPool::allocate(sizeof(F));
      ::new (box) F(std::forward<Arg>(fn));
      *static_cast<void**>(storage()) = box;
      ops_ = &kBoxedOps<F>;
    }
  }

  void move_from(BasicSmallFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage(), other.storage());
      other.ops_ = nullptr;
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage());
      ops_ = nullptr;
    }
  }

  void* storage() noexcept { return buf_; }

  const Ops* ops_ = nullptr;
  alignas(kAlign) unsigned char buf_[kInlineBytes];
};

using SmallFn = BasicSmallFn<48, alignof(std::max_align_t)>;
static_assert(sizeof(SmallFn) == 64);

}  // namespace hydra::util
