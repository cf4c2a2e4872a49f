// Discrete-event scheduler: events run one at a time in (time, sequence)
// order on the calling thread. A simulation lives wholly on one thread —
// its scheduler, medium and nodes, and the BufferPool free lists their
// packets and callbacks recycle through.
#pragma once

#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "sim/time.h"
#include "util/small_fn.h"

namespace hydra::sim {

// Opaque handle for cancelling a scheduled event: a slot index stamped
// with the slot's generation, so a handle goes stale the moment its
// event runs or is cancelled and the slot is reused. Id 0 is "invalid".
class EventId {
 public:
  constexpr EventId() = default;
  constexpr bool valid() const { return id_ != 0; }
  friend constexpr auto operator<=>(EventId, EventId) = default;

 private:
  friend class Scheduler;
  constexpr explicit EventId(std::uint64_t id) : id_(id) {}
  std::uint64_t id_ = 0;
};

// Single-threaded event loop. Events scheduled for the same instant run
// in scheduling order (FIFO), which keeps protocol traces deterministic.
class Scheduler {
 public:
  // Move-only with inline capture storage (boxed through the
  // BufferPool past 48 bytes), so scheduling an event allocates nothing
  // from the system heap in steady state. Accepts any void() callable,
  // like std::function, but is never copied: it moves into its event's
  // slot once and out once to run, or into its run's block for good.
  using Callback = util::SmallFn;

  Scheduler() = default;
  // Destroys every queued callback, a run's included.
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  TimePoint now() const { return now_; }

  // Schedules `cb` to run at absolute time `at` (must not be in the past).
  EventId schedule_at(TimePoint at, Callback cb);
  // Schedules `cb` to run `delay` from now.
  EventId schedule_in(Duration delay, Callback cb);

  // Commits `count` events at `times`, which must be nondecreasing and
  // not in the past, under `count` contiguous sequence numbers, so they
  // order exactly like `count` schedule_at calls in time order. `cb`
  // runs once per event, in that order, and the run waits as one heap
  // entry, its next event, whatever its size. The medium commits each
  // transmission's delivery fan-out this way. `cb` and a copy of `times`
  // live in one pooled block that never moves, so `cb` runs in place and
  // keeps its state between events; it dies after the last event.
  // Fire-and-forget: a run's events have no EventId and cannot be
  // cancelled.
  void schedule_run(const TimePoint* times, std::size_t count, Callback cb);

  // Cancels a pending event. Returns false if the event already ran, was
  // already cancelled, or the id is invalid.
  bool cancel(EventId id);

  // True while the event is still queued (not yet run, not cancelled).
  // Stale-handle-safe, like cancel(): a reused slot reports false.
  bool pending(EventId id) const;

  // The time of the next live event, dropping any cancelled events off
  // the front of the queue on the way; nullopt when the queue is empty.
  std::optional<TimePoint> peek_next_time();

  // Runs events until the queue is empty. Returns the number executed.
  std::size_t run();
  // Runs events with time <= deadline; leaves later events queued and
  // advances now() to the deadline. Returns the number executed.
  std::size_t run_until(TimePoint deadline);
  // Executes at most one event. Returns false if the queue is empty.
  bool step();

  std::size_t pending_events() const { return pending_count_; }
  std::uint64_t executed_events() const { return executed_; }

 private:
  // An event's key. The callback waits in slots_[slot] (or in the block
  // of the run the slot keys), so sifting moves 24 plain bytes rather
  // than a type-erased callable.
  struct Entry {
    TimePoint at;
    std::uint64_t seq;   // tie-breaker: FIFO among same-time events
    std::uint32_t slot;  // index into slots_
  };
  static_assert(std::is_trivially_copyable_v<Entry>);
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  // A queued run's block, from the BufferPool: the callback, the index
  // of the event at the run's head, the event count, and then the
  // events' times. The slot holds a pointer to it, so the callback stays
  // put while slots_ grows under it.
  struct Run {
    Callback cb;
    std::uint32_t head = 0;
    std::uint32_t count = 0;
    TimePoint* times() { return reinterpret_cast<TimePoint*>(this + 1); }
  };
  static_assert(std::is_trivially_copyable_v<TimePoint>);
  static_assert(sizeof(Run) % alignof(TimePoint) == 0);
  // One queued event's slot: a schedule_at event's callback, or the
  // block of the run whose head this slot keys. `generation` stamps the
  // EventId handed out for the slot's current occupant; vacating the
  // slot bumps it, so cancel() can tell "still pending" from "already
  // ran / already cancelled / slot reused" with two array loads instead
  // of hash-set lookups.
  struct Slot {
    Callback cb;
    Run* run = nullptr;
    std::uint32_t generation = 1;
    bool pending = false;
  };
  static_assert(sizeof(Slot) <= 80);

  void pop_and_run();
  void pop_root();
  void sift_down(Entry entry);
  void sweep();
  std::uint32_t acquire_slot();
  Callback vacate(std::uint32_t slot);
  static void release(Run* run);

  TimePoint now_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t pending_count_ = 0;
  // The head of every queued run, in heap order. A run is the events of
  // one schedule_run call, or one schedule_at event; its head is its
  // earliest event, so the heap's root is the earliest queued event.
  // Running a run's head puts its next event in its place. Cancelling is
  // lazy: a cancelled event stays queued as a tombstone, and is dropped
  // when it surfaces at the root or when cancel() sweeps the heap, once
  // its heads outnumber twice the live events. Only a schedule_at event
  // can be cancelled, so every tombstone is a run of one and leaves the
  // heap whole.
  std::vector<Entry> heap_;
  // Slot storage grows to the high-water mark of concurrently scheduled
  // events and is then recycled through the free list.
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  // The slots of the tombstones a sweep has unlinked but not yet freed.
  std::vector<std::uint32_t> swept_;
};

}  // namespace hydra::sim
