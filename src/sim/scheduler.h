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
  // slot once and out once to run.
  using Callback = util::SmallFn;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  TimePoint now() const { return now_; }

  // Schedules `cb` to run at absolute time `at` (must not be in the past).
  EventId schedule_at(TimePoint at, Callback cb);
  // Schedules `cb` to run `delay` from now.
  EventId schedule_in(Duration delay, Callback cb);

  // One event of a batch commit.
  struct BatchEvent {
    TimePoint at;
    Callback cb;
  };
  // Commits every event of `events` (in order — the sequence numbers are
  // assigned contiguously, so same-instant FIFO semantics match N
  // schedule_at calls exactly) as one sorted run that enters the heap
  // through its earliest event: one push, whatever the batch's size. The
  // medium uses this to commit a whole transmission's delivery fan-out
  // at once. Fire-and-forget: a batch event has no EventId and cannot be
  // cancelled. `events` is left cleared for reuse.
  void schedule_batch(std::vector<BatchEvent>& events);

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
  // An event's key. The callback waits in slots_[slot], so sifting moves
  // 24 plain bytes rather than a type-erased callable.
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
  // The slot of `Slot::next` after a run's last event.
  static constexpr std::uint32_t kEndOfRun = UINT32_MAX;
  // One queued event's slot: it holds the callback until the event
  // surfaces, and `next`, the key of the following event of its run
  // (slot kEndOfRun after the last). `generation` stamps the EventId
  // handed out for the slot's current occupant; vacating the slot bumps
  // it, so cancel() can tell "still pending" from "already ran / already
  // cancelled / slot reused" with two array loads instead of hash-set
  // lookups.
  struct Slot {
    Callback cb;
    Entry next{};
    std::uint32_t generation = 1;
    bool pending = false;
  };

  void pop_and_run();
  void pop_head();
  void sift_down(Entry entry);
  void sweep();
  std::uint32_t acquire_slot();
  Callback vacate(std::uint32_t slot);

  TimePoint now_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t pending_count_ = 0;
  // The head of every queued run, in heap order. A run is a batch sorted
  // by (time, seq) and chained through Slot::next, or one schedule_at
  // event; its head is its earliest event, so the heap's root is the
  // earliest queued event. Popping a head puts its run's next event in
  // its place. Cancelling is lazy: a cancelled event stays queued as a
  // tombstone, and is dropped when it surfaces at the root or when
  // cancel() sweeps the heap, once its heads outnumber twice the live
  // events. Only a schedule_at event can be cancelled, so every
  // tombstone is a run of one and leaves the heap whole.
  std::vector<Entry> heap_;
  // Slot storage grows to the high-water mark of concurrently scheduled
  // events and is then recycled through the free list.
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  // The slot of the last tombstone a sweep has unlinked but not yet
  // freed, chained to the earlier ones through Slot::next.
  std::uint32_t swept_ = kEndOfRun;
};

}  // namespace hydra::sim
