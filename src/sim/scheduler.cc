#include "sim/scheduler.h"

#include <algorithm>
#include <memory>
#include <new>
#include <utility>

#include "util/assert.h"
#include "util/pool.h"

namespace hydra::sim {

namespace {

constexpr std::uint64_t pack_id(std::uint32_t generation,
                                std::uint32_t slot) {
  return (std::uint64_t{generation} << 32) | slot;
}

}  // namespace

Scheduler::~Scheduler() {
  // A slot's callback dies with slots_; a queued run's block is ours to
  // free.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (Run* run = std::exchange(slots_[i].run, nullptr)) release(run);
  }
}

std::uint32_t Scheduler::acquire_slot() {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].pending = true;
  ++pending_count_;
  return slot;
}

EventId Scheduler::schedule_at(TimePoint at, Callback cb) {
  HYDRA_ASSERT_MSG(at >= now_, "cannot schedule into the past");
  HYDRA_ASSERT(cb != nullptr);
  const std::uint32_t slot = acquire_slot();
  slots_[slot].cb = std::move(cb);
  heap_.push_back(Entry{at, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  // generation >= 1 always, so a packed id is never 0 (the invalid id).
  return EventId(pack_id(slots_[slot].generation, slot));
}

EventId Scheduler::schedule_in(Duration delay, Callback cb) {
  HYDRA_ASSERT_MSG(!delay.is_negative(), "negative delay");
  return schedule_at(now_ + delay, std::move(cb));
}

void Scheduler::schedule_run(const TimePoint* times, std::size_t count,
                             Callback cb) {
  HYDRA_ASSERT(cb != nullptr);
  if (count == 0) return;
  HYDRA_ASSERT_MSG(times[0] >= now_, "cannot schedule into the past");
  HYDRA_ASSERT_MSG(std::is_sorted(times, times + count),
                   "run times must be nondecreasing");
  HYDRA_ASSERT(count <= UINT32_MAX);
  void* block =
      util::BufferPool::allocate(sizeof(Run) + count * sizeof(TimePoint));
  Run* run = ::new (block) Run{std::move(cb), 0,
                               static_cast<std::uint32_t>(count)};
  std::uninitialized_copy_n(times, count, run->times());
  // One slot keys the whole run; every event counts as pending.
  const std::uint32_t slot = acquire_slot();
  pending_count_ += count - 1;
  slots_[slot].run = run;
  heap_.push_back(Entry{times[0], next_seq_, slot});
  next_seq_ += count;
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

bool Scheduler::cancel(EventId id) {
  // A stale generation means the event already ran (or was already
  // cancelled) and the slot moved on; cancelling it is a no-op that must
  // report failure.
  if (!pending(id)) return false;
  // Lazy deletion: clear the pending flag and leave the tombstone queued.
  slots_[static_cast<std::uint32_t>(id.id_)].pending = false;
  --pending_count_;
  // Sweeping every heap entry costs O(heap), and a sweep leaves at most
  // pending_count_ heads, so the next one is due only after about as many
  // cancels again: O(1) per cancel.
  if (heap_.size() > 2 * pending_count_) sweep();
  return true;
}

bool Scheduler::pending(EventId id) const {
  if (!id.valid()) return false;
  const auto slot = static_cast<std::uint32_t>(id.id_);
  const auto generation = static_cast<std::uint32_t>(id.id_ >> 32);
  if (slot >= slots_.size()) return false;
  const auto& s = slots_[slot];
  return s.generation == generation && s.pending;
}

Scheduler::Callback Scheduler::vacate(std::uint32_t slot) {
  auto& s = slots_[slot];
  // Handed back rather than destroyed here: a callback's captures may
  // schedule or cancel events as they die, or the callback is about to
  // run and may grow slots_, so it must leave the slot vector first.
  Callback cb = std::move(s.cb);
  s.run = nullptr;
  s.pending = false;
  // Bumping the generation invalidates every id handed out for this
  // occupancy. Wrap-around after 2^32 reuses of one slot is accepted:
  // a handle would have to be held across four billion rearms of the
  // same slot to alias.
  ++s.generation;
  if (s.generation == 0) s.generation = 1;  // keep packed ids non-zero
  free_slots_.push_back(slot);
  return cb;
}

void Scheduler::release(Run* run) {
  // The callback's captures may schedule or cancel events as they die;
  // the block has left its slot by now.
  run->~Run();
  util::BufferPool::deallocate(run);
}

void Scheduler::sift_down(Entry entry) {
  // Moves `entry` down from the root's hole until no child is earlier.
  const std::size_t size = heap_.size();
  std::size_t hole = 0;
  for (std::size_t child = 1; child < size; child = 2 * hole + 1) {
    if (child + 1 < size && Later{}(heap_[child], heap_[child + 1])) ++child;
    if (!Later{}(entry, heap_[child])) break;
    heap_[hole] = heap_[child];
    hole = child;
  }
  heap_[hole] = entry;
}

void Scheduler::pop_root() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
}

void Scheduler::sweep() {
  // A dead head is a cancelled run of one, so it drops out whole.
  swept_.reserve(heap_.size());
  std::size_t kept = 0;
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    const Entry entry = heap_[i];
    if (slots_[entry.slot].pending) {
      heap_[kept++] = entry;
    } else {
      swept_.push_back(entry.slot);
    }
  }
  heap_.resize(kept);
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  // Only now, with the heap whole, free the tombstones' slots and destroy
  // their callbacks, whose captures may cancel or schedule as they die.
  // A sweep nested in that drains the same list.
  while (!swept_.empty()) {
    const std::uint32_t slot = swept_.back();
    swept_.pop_back();
    vacate(slot);
  }
}

std::optional<TimePoint> Scheduler::peek_next_time() {
  while (!heap_.empty()) {
    const Entry head = heap_.front();
    if (slots_[head.slot].pending) return head.at;
    pop_root();
    vacate(head.slot);  // the dropped callback dies here, heap whole
  }
  return std::nullopt;
}

void Scheduler::pop_and_run() {
  // peek_next_time() has just found the root live.
  const Entry entry = heap_.front();
  HYDRA_ASSERT(entry.at >= now_);
  now_ = entry.at;
  ++executed_;
  --pending_count_;
  Run* run = slots_[entry.slot].run;
  if (run == nullptr) {
    pop_root();
    Callback cb = vacate(entry.slot);
    cb();
    return;
  }
  // A run's next event takes the root's place, and the callback runs in
  // its block, which no growth of slots_ moves. After the last event the
  // slot is free before the call and the block after it.
  if (++run->head < run->count) {
    sift_down(Entry{run->times()[run->head], entry.seq + 1, entry.slot});
    run->cb();
    return;
  }
  pop_root();
  vacate(entry.slot);
  run->cb();
  release(run);
}

std::size_t Scheduler::run() {
  const auto before = executed_;
  while (peek_next_time()) pop_and_run();
  return executed_ - before;
}

std::size_t Scheduler::run_until(TimePoint deadline) {
  const auto before = executed_;
  for (;;) {
    const auto next = peek_next_time();
    if (!next || *next > deadline) break;
    pop_and_run();
  }
  if (now_ < deadline) now_ = deadline;
  return executed_ - before;
}

bool Scheduler::step() {
  if (!peek_next_time()) return false;
  pop_and_run();
  return true;
}

}  // namespace hydra::sim
