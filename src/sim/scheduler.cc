#include "sim/scheduler.h"

#include <algorithm>

#include "util/assert.h"

namespace hydra::sim {

namespace {

constexpr std::uint64_t pack_id(std::uint32_t generation,
                                std::uint32_t slot) {
  return (std::uint64_t{generation} << 32) | slot;
}

}  // namespace

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
  slots_[slot].next.slot = kEndOfRun;  // a run of one
  heap_.push_back(Entry{at, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  // generation >= 1 always, so a packed id is never 0 (the invalid id).
  return EventId(pack_id(slots_[slot].generation, slot));
}

EventId Scheduler::schedule_in(Duration delay, Callback cb) {
  HYDRA_ASSERT_MSG(!delay.is_negative(), "negative delay");
  return schedule_at(now_ + delay, std::move(cb));
}

void Scheduler::schedule_batch(std::vector<BatchEvent>& events) {
  if (events.empty()) return;
  const std::size_t existing = heap_.size();
  for (auto& event : events) {
    HYDRA_ASSERT_MSG(event.at >= now_, "cannot schedule into the past");
    HYDRA_ASSERT(event.cb != nullptr);
    const std::uint32_t slot = acquire_slot();
    slots_[slot].cb = std::move(event.cb);
    heap_.push_back(Entry{event.at, next_seq_++, slot});
  }
  events.clear();
  // Sort the batch's keys in the heap's tail into one run, chain each
  // event to its successor, and keep only the earliest in the heap.
  const auto run = heap_.begin() + static_cast<std::ptrdiff_t>(existing);
  std::sort(run, heap_.end(),
            [](const Entry& a, const Entry& b) { return Later{}(b, a); });
  for (auto it = run; it + 1 != heap_.end(); ++it) {
    slots_[it->slot].next = *(it + 1);
  }
  slots_[heap_.back().slot].next.slot = kEndOfRun;
  heap_.resize(existing + 1);
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

void Scheduler::pop_head() {
  // The run's next event takes the root's place; a finished run leaves
  // the heap.
  const Entry next = slots_[heap_.front().slot].next;
  if (next.slot != kEndOfRun) {
    sift_down(next);
  } else {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

void Scheduler::sweep() {
  // A dead head is a cancelled run of one, so it drops out whole, and
  // its `next`, which ended the run, links it into the swept_ list.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    const Entry entry = heap_[i];
    if (slots_[entry.slot].pending) {
      heap_[kept++] = entry;
    } else {
      slots_[entry.slot].next.slot = swept_;
      swept_ = entry.slot;
    }
  }
  heap_.resize(kept);
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  // Only now, with the heap whole, free the tombstones' slots and destroy
  // their callbacks, whose captures may cancel or schedule as they die.
  // A sweep nested in that drains the same list.
  while (swept_ != kEndOfRun) {
    const std::uint32_t slot = swept_;
    swept_ = slots_[slot].next.slot;
    vacate(slot);
  }
}

std::optional<TimePoint> Scheduler::peek_next_time() {
  while (!heap_.empty()) {
    const Entry head = heap_.front();
    if (slots_[head.slot].pending) return head.at;
    pop_head();
    vacate(head.slot);  // the dropped callback dies here, heap whole
  }
  return std::nullopt;
}

void Scheduler::pop_and_run() {
  // peek_next_time() has just found the root live.
  const Entry entry = heap_.front();
  pop_head();
  --pending_count_;
  Callback cb = vacate(entry.slot);
  HYDRA_ASSERT(entry.at >= now_);
  now_ = entry.at;
  ++executed_;
  cb();
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
