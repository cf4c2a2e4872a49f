// One-shot re-armable timer bound to a Scheduler.
//
// Protocol machines (MAC ACK timeout, TCP RTO, DCF backoff slots, delayed
// aggregation, the PHY's end of transmission) own Timers as members;
// destruction cancels any pending firing, so a destroyed protocol object
// can never be called back.
//
// The timer keeps its callback and its firing's key, (deadline, sequence
// number); from its first queued entry on, the scheduler keeps one
// pointer to it. Arming draws the next sequence number, exactly where a
// schedule_at call would, so a timer orders like the event it replaces.
// A heap entry is pushed only when the timer has none queued at or
// before the new deadline: a queued entry with an earlier key reaches
// the root first and there re-keys itself to the timer's firing with one
// sift. Cancelling only clears the armed flag, and the scheduler drops a
// disarmed timer's entry when it surfaces. The callback never moves.
#pragma once

#include <cstdint>
#include <utility>

#include "sim/scheduler.h"
#include "util/small_fn.h"

namespace hydra::sim {

class Timer {
 public:
  // One pointer inline, enough for a protocol object's `[this]` lambda;
  // a larger capture is boxed through the BufferPool.
  using Callback = util::BasicSmallFn<sizeof(void*), alignof(void*)>;

  Timer(Scheduler& sched, Callback on_fire)
      : sched_(sched), on_fire_(std::move(on_fire)) {}

  ~Timer() {
    cancel();
    if (index_ != kUnindexed) sched_.remove_timer(index_);
  }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  // (Re)arms the timer to fire `delay` from now, replacing any pending
  // firing.
  void arm(Duration delay) { sched_.arm(*this, sched_.now() + delay); }

  // Disarms the timer. Returns whether a firing was pending.
  bool cancel() {
    if (!armed_) return false;
    armed_ = false;
    --sched_.pending_count_;
    return true;
  }

  bool pending() const { return armed_; }
  // Deadline of the pending firing; meaningful only while pending().
  TimePoint deadline() const { return deadline_; }

 private:
  friend class Scheduler;

  Scheduler& sched_;
  Callback on_fire_;
  // The pending firing's key.
  TimePoint deadline_;
  std::uint64_t seq_ = 0;
  // The key of the timer's queued heap entry, if queued_seq_ != 0. Other
  // entries of the timer may still be queued, left behind by a re-arm
  // earlier; their sequence numbers never match this one.
  TimePoint queued_at_;
  std::uint64_t queued_seq_ = 0;
  // The timer's index in the scheduler's table, taken when its first
  // entry is queued.
  static constexpr std::uint32_t kUnindexed = UINT32_MAX;
  std::uint32_t index_ = kUnindexed;
  bool armed_ = false;
};
// flood_10k holds about 80k timers, eight per node.
static_assert(sizeof(Timer) <= 64);

}  // namespace hydra::sim
