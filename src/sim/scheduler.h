// Discrete-event scheduler: a stable min-heap of (time, sequence) events
// run one at a time on the calling thread. A simulation lives wholly on
// one thread — its scheduler, medium and nodes, and the BufferPool free
// lists their packets and callbacks recycle through.
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
  // schedule_at calls exactly) and restores the heap in one pass when
  // the batch is large relative to it, instead of N sift-ups. The medium
  // uses this to commit a whole transmission's delivery fan-out at once.
  // With `ids`, the EventId of every committed event is appended in
  // batch order (the ids cost nothing extra — batch events already
  // occupy cancel slots), so callers can cancel individual deliveries
  // later; without it the batch is fire-and-forget. `events` is left
  // cleared for reuse; `ids` is appended to, not cleared.
  void schedule_batch(std::vector<BatchEvent>& events,
                      std::vector<EventId>* ids = nullptr);

  // Cancels a pending event. Returns false if the event already ran, was
  // already cancelled, or the id is invalid.
  bool cancel(EventId id);

  // True while the event is still queued (not yet run, not cancelled).
  // Stale-handle-safe, like cancel(): a reused slot reports false.
  bool pending(EventId id) const;

  // The time of the next live event, dropping any cancelled entries off
  // the head of the queue on the way; nullopt when the queue is empty.
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
  // A heap key. The callback waits in slots_[slot], so sifting moves
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
  // One queued event's slot: it holds the callback until the event
  // surfaces. `generation` stamps the EventId handed out for the slot's
  // current occupant; vacating the slot bumps it, so cancel() can tell
  // "still pending" from "already ran / already cancelled / slot reused"
  // with two array loads instead of hash-set lookups.
  struct Slot {
    Callback cb;
    std::uint32_t generation = 1;
    bool pending = false;
  };

  void pop_and_run();
  std::uint32_t acquire_slot();
  void vacate(std::uint32_t slot);

  TimePoint now_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t pending_count_ = 0;
  // Kept in heap order by the std::*_heap algorithms (not a
  // priority_queue: batch commits need to append a run of entries and
  // restore the invariant in one make_heap pass).
  std::vector<Entry> heap_;
  // Slot storage grows to the high-water mark of concurrently scheduled
  // events and is then recycled through the free list; cancelled heap
  // entries are dropped lazily when popped.
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace hydra::sim
