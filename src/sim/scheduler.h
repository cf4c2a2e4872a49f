// Discrete-event scheduler: events run one at a time in (time, sequence)
// order on the calling thread. A simulation lives wholly on one thread —
// its scheduler, medium and nodes, and the BufferPool free lists their
// packets and callbacks recycle through.
//
// Two kinds of event share the one heap. A run, the events of one
// schedule_run call or of one schedule_at or schedule_in call, is
// fire-and-forget: its events always run. An event that may be
// cancelled or moved belongs to a sim::Timer (timer.h), which keeps its
// own callback and key and re-uses its queued heap entry across
// re-arms.
#pragma once

#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "sim/time.h"
#include "util/small_fn.h"

namespace hydra::sim {

class Timer;

// Single-threaded event loop. Events scheduled for the same instant run
// in scheduling order (FIFO), which keeps protocol traces deterministic.
class Scheduler {
 public:
  // Move-only with inline capture storage (boxed through the
  // BufferPool past 48 bytes), so scheduling an event allocates nothing
  // from the system heap in steady state. Accepts any void() callable,
  // like std::function, but is never copied: it moves into its run's
  // block once and runs there.
  using Callback = util::SmallFn;

  Scheduler() = default;
  // Destroys every queued run's callback. Every Timer bound to the
  // scheduler must be gone by then.
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  TimePoint now() const { return now_; }

  // Schedules `cb` to run at absolute time `at` (must not be in the
  // past): a run of one.
  void schedule_at(TimePoint at, Callback cb);
  // Schedules `cb` to run `delay` from now.
  void schedule_in(Duration delay, Callback cb);

  // Commits `count` events at `times`, which must be nondecreasing and
  // not in the past, under `count` contiguous sequence numbers, so they
  // order exactly like `count` schedule_at calls in time order. `cb`
  // runs once per event, in that order, and the run waits as one heap
  // entry, its next event, whatever its size. The medium commits each
  // transmission's delivery fan-out this way. `cb` and a copy of `times`
  // live in one pooled block that never moves, so `cb` runs in place and
  // keeps its state between events; it dies after the last event.
  void schedule_run(const TimePoint* times, std::size_t count, Callback cb);

  // The time of the next live event, dropping the entries that timers
  // left behind off the front of the queue on the way; nullopt when no
  // live event is left.
  std::optional<TimePoint> peek_next_time();

  // Runs events until the queue is empty. Returns the number executed.
  std::size_t run();
  // Runs events with time <= deadline; leaves later events queued and
  // advances now() to the deadline. Returns the number executed.
  std::size_t run_until(TimePoint deadline);
  // Executes at most one event. Returns false if the queue is empty.
  bool step();

  // Live events: the queued runs' events plus armed timers.
  std::size_t pending_events() const { return pending_count_; }
  std::uint64_t executed_events() const { return executed_; }

 private:
  // A Timer arms and disarms itself through the private members below, and
  // the scheduler reads and re-keys the timer's state at the root.
  friend class Timer;

  // An event's key. `ref` is the address of a run's block, whose bit 0
  // is clear, or (the index of a timer in timers_ << 1) | 1. Sifting
  // moves 24 plain bytes, never a callable.
  struct Entry {
    TimePoint at;
    std::uint64_t seq;  // tie-breaker: FIFO among same-time events
    std::uintptr_t ref;
  };
  static_assert(std::is_trivially_copyable_v<Entry>);
  static_assert(sizeof(Entry) == 24);
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  // A queued run's block, from the BufferPool: the callback, the index
  // of the event at the run's head, the event count, and then the
  // events' times. The block never moves, so the callback runs in place
  // while the scheduler grows under it.
  struct Run {
    Callback cb;
    std::uint32_t head = 0;
    std::uint32_t count = 0;
    TimePoint* times() { return reinterpret_cast<TimePoint*>(this + 1); }
  };
  static_assert(std::is_trivially_copyable_v<TimePoint>);
  static_assert(sizeof(Run) % alignof(TimePoint) == 0);
  static_assert(alignof(Run) > 1);  // a block's address leaves bit 0 clear
  static bool is_timer(const Entry& entry) { return (entry.ref & 1) != 0; }
  static Run* run_of(const Entry& entry) {
    // NOLINTNEXTLINE(performance-no-int-to-ptr): the block's own address
    return reinterpret_cast<Run*>(entry.ref);
  }

  // Timer hooks. A timer takes the next index into timers_ when it
  // first queues an entry and keeps it for life; a destroyed timer's
  // index is never handed out again.
  std::uint32_t add_timer(Timer* timer);
  void remove_timer(std::uint32_t index);
  void arm(Timer& timer, TimePoint at);

  void push(Entry entry);
  void pop_and_run();
  void pop_root();
  void sift_down(Entry entry);
  // The timer whose live queued entry a timer entry is; null for a
  // stale entry, which the caller drops.
  Timer* live_timer(const Entry& entry);
  void sweep();
  static void release(Run* run);

  TimePoint now_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t pending_count_ = 0;
  // The head of every queued run, in heap order, and each timer's queued
  // entry. A run is the events of one schedule_run call, or one
  // schedule_at event; its head is its earliest event, and its one
  // entry owns its block. Running a run's head puts its next event in
  // its place. A timer's entry may carry an older, earlier key than the
  // timer's firing: it re-keys itself at the root. Entries a timer left
  // behind (it was cancelled, re-armed earlier or destroyed) are dropped
  // at the root, or by a sweep once the heap holds more than twice as
  // many entries as live events.
  std::vector<Entry> heap_;
  // Every timer that has queued an entry, by index, null once the timer
  // is destroyed: eight bytes of scheduler state per timer the world
  // ever indexed.
  std::vector<Timer*> timers_;
};

}  // namespace hydra::sim
