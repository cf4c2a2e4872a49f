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
  heap_.push_back(Entry{at, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  // generation >= 1 always, so a packed id is never 0 (the invalid id).
  return EventId(pack_id(slots_[slot].generation, slot));
}

EventId Scheduler::schedule_in(Duration delay, Callback cb) {
  HYDRA_ASSERT_MSG(!delay.is_negative(), "negative delay");
  return schedule_at(now_ + delay, std::move(cb));
}

void Scheduler::schedule_batch(std::vector<BatchEvent>& events,
                               std::vector<EventId>* ids) {
  if (events.empty()) return;
  const std::size_t existing = heap_.size();
  heap_.reserve(existing + events.size());
  if (ids) ids->reserve(ids->size() + events.size());
  for (auto& event : events) {
    HYDRA_ASSERT_MSG(event.at >= now_, "cannot schedule into the past");
    HYDRA_ASSERT(event.cb != nullptr);
    const std::uint32_t slot = acquire_slot();
    slots_[slot].cb = std::move(event.cb);
    if (ids) ids->push_back(EventId(pack_id(slots_[slot].generation, slot)));
    heap_.push_back(Entry{event.at, next_seq_++, slot});
  }
  // Restore the heap invariant: k sift-ups cost O(k log n) and one
  // make_heap pass costs O(n), so a batch that is small next to the
  // heap sifts and a dominating one (a large delivery fan-out into a
  // quiet heap) heapifies in one sweep.
  if (events.size() >= existing / 8) {
    std::make_heap(heap_.begin(), heap_.end(), Later{});
  } else {
    for (std::size_t i = existing; i < heap_.size(); ++i) {
      std::push_heap(heap_.begin(),
                     heap_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                     Later{});
    }
  }
  events.clear();
}

bool Scheduler::cancel(EventId id) {
  // A stale generation means the event already ran (or was already
  // cancelled) and the slot moved on; cancelling it is a no-op that must
  // report failure.
  if (!pending(id)) return false;
  // Lazy deletion: clear the pending flag; the heap entry is dropped
  // (and the slot vacated, destroying the callback) when it surfaces.
  slots_[static_cast<std::uint32_t>(id.id_)].pending = false;
  --pending_count_;
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

void Scheduler::vacate(std::uint32_t slot) {
  auto& s = slots_[slot];
  // Destroys a cancelled event's callback; a run event's was already
  // moved out.
  s.cb = nullptr;
  s.pending = false;
  // Bumping the generation invalidates every id handed out for this
  // occupancy. Wrap-around after 2^32 reuses of one slot is accepted:
  // a handle would have to be held across four billion rearms of the
  // same slot to alias.
  ++s.generation;
  if (s.generation == 0) s.generation = 1;  // keep packed ids non-zero
  free_slots_.push_back(slot);
}

std::optional<TimePoint> Scheduler::peek_next_time() {
  while (!heap_.empty()) {
    if (slots_[heap_.front().slot].pending) return heap_.front().at;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    vacate(heap_.back().slot);
    heap_.pop_back();
  }
  return std::nullopt;
}

void Scheduler::pop_and_run() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry entry = heap_.back();
  heap_.pop_back();
  const bool live = slots_[entry.slot].pending;
  // Moved out before the call: running it may schedule events, which
  // can grow slots_ and reuse this slot.
  Callback cb = std::move(slots_[entry.slot].cb);
  vacate(entry.slot);
  if (!live) return;  // cancelled; already discounted from pending_count_
  --pending_count_;
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
