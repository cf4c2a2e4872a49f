// One-shot re-armable timer bound to a Scheduler.
//
// Protocol machines (MAC ACK timeout, TCP RTO, DCF backoff slots, delayed
// aggregation) own Timers as members; destruction cancels any pending
// firing, so a destroyed protocol object can never be called back.
#pragma once

#include <functional>
#include <utility>

#include "sim/scheduler.h"

namespace hydra::sim {

class Timer {
 public:
  Timer(Scheduler& sched, std::function<void()> on_fire)
      : sched_(sched), on_fire_(std::move(on_fire)) {}

  ~Timer() { cancel(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  // (Re)arms the timer to fire `delay` from now. An already-pending firing
  // is cancelled first.
  void arm(Duration delay) {
    cancel();
    deadline_ = sched_.now() + delay;
    id_ = sched_.schedule_at(deadline_, [this] {
      id_ = EventId();
      on_fire_();
    });
  }

  void cancel() {
    if (id_.valid()) {
      sched_.cancel(id_);
      id_ = EventId();
    }
  }

  bool pending() const { return id_.valid(); }
  // Deadline of the pending firing; meaningful only while pending().
  TimePoint deadline() const { return deadline_; }

 private:
  Scheduler& sched_;
  std::function<void()> on_fire_;
  EventId id_;
  TimePoint deadline_;
};

}  // namespace hydra::sim
