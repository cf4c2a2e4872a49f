#include "sim/scheduler.h"

#include <algorithm>
#include <memory>
#include <new>
#include <utility>

#include "sim/timer.h"
#include "util/assert.h"
#include "util/pool.h"

namespace hydra::sim {

Scheduler::~Scheduler() {
  // A queued run's one entry owns its block; a timer entry owns nothing.
  for (const Entry& entry : heap_) {
    if (!is_timer(entry)) release(run_of(entry));
  }
}

void Scheduler::release(Run* run) {
  run->~Run();
  util::BufferPool::deallocate(run);
}

void Scheduler::push(Entry entry) {
  heap_.push_back(entry);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void Scheduler::schedule_at(TimePoint at, Callback cb) {
  schedule_run(&at, 1, std::move(cb));
}

void Scheduler::schedule_in(Duration delay, Callback cb) {
  HYDRA_ASSERT_MSG(!delay.is_negative(), "negative delay");
  schedule_at(now_ + delay, std::move(cb));
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
  // One entry keys the whole run; every event counts as pending.
  pending_count_ += count;
  push(Entry{times[0], next_seq_, reinterpret_cast<std::uintptr_t>(run)});
  next_seq_ += count;
}

std::uint32_t Scheduler::add_timer(Timer* timer) {
  HYDRA_ASSERT(timers_.size() < Timer::kUnindexed);
  timers_.push_back(timer);
  return static_cast<std::uint32_t>(timers_.size() - 1);
}

void Scheduler::remove_timer(std::uint32_t index) {
  // Entries of the timer still queued find no timer and are dropped.
  timers_[index] = nullptr;
}

void Scheduler::arm(Timer& timer, TimePoint at) {
  HYDRA_ASSERT_MSG(at >= now_, "cannot schedule into the past");
  if (!timer.armed_) {
    timer.armed_ = true;
    ++pending_count_;
  }
  timer.deadline_ = at;
  timer.seq_ = next_seq_++;
  // A queued entry at or before `at` has an earlier key, (at' <= at,
  // seq' < seq), so it reaches the root before the firing is due and
  // re-keys itself there.
  if (timer.queued_seq_ != 0 && timer.queued_at_ <= at) return;
  // Re-armed earlier, or nothing queued: queue the firing itself. An
  // entry queued later is left behind and dropped when it surfaces.
  if (timer.index_ == Timer::kUnindexed) timer.index_ = add_timer(&timer);
  timer.queued_at_ = at;
  timer.queued_seq_ = timer.seq_;
  push(Entry{at, timer.seq_, (std::uintptr_t{timer.index_} << 1) | 1});
  // Sweeping every heap entry costs O(heap), and a sweep leaves at most
  // one entry per live event, so the next one is due only after about as
  // many stale entries again: O(1) per arm.
  if (heap_.size() > 2 * pending_count_) sweep();
}

Timer* Scheduler::live_timer(const Entry& entry) {
  Timer* timer = timers_[entry.ref >> 1];
  // Left behind by a re-arm earlier, or by a destroyed timer.
  if (timer == nullptr || timer->queued_seq_ != entry.seq) return nullptr;
  if (timer->armed_) return timer;
  // A cancelled timer's entry: the timer forgets it as it is dropped.
  timer->queued_seq_ = 0;
  return nullptr;
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
  // Only timer entries go stale, and each is a single event, so every
  // run stays whole.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    const Entry entry = heap_[i];
    if (!is_timer(entry) || live_timer(entry) != nullptr) {
      heap_[kept++] = entry;
    }
  }
  heap_.resize(kept);
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

std::optional<TimePoint> Scheduler::peek_next_time() {
  while (!heap_.empty()) {
    const Entry head = heap_.front();
    // A run's events always run.
    if (!is_timer(head)) return head.at;
    Timer* timer = live_timer(head);
    if (timer == nullptr) {
      pop_root();
    } else if (head.seq == timer->seq_) {
      return head.at;
    } else {
      // Queued before the timer was re-armed later: take the firing's
      // key in place.
      timer->queued_at_ = timer->deadline_;
      timer->queued_seq_ = timer->seq_;
      sift_down(Entry{timer->deadline_, timer->seq_, head.ref});
    }
  }
  return std::nullopt;
}

void Scheduler::pop_and_run() {
  // peek_next_time() has just found the root live and keyed for its
  // event.
  const Entry entry = heap_.front();
  HYDRA_ASSERT(entry.at >= now_);
  now_ = entry.at;
  ++executed_;
  --pending_count_;
  if (is_timer(entry)) {
    Timer& timer = *timers_[entry.ref >> 1];
    pop_root();
    timer.queued_seq_ = 0;
    timer.armed_ = false;
    // Runs in place: the callback may re-arm the timer, or destroy it
    // with its owner, and nothing here touches the timer after the call.
    timer.on_fire_();
    return;
  }
  // A run's next event takes the root's place, and the callback runs in
  // its block, which nothing moves. After the last event the entry
  // leaves the heap before the call and the block after it.
  Run* run = run_of(entry);
  if (++run->head < run->count) {
    sift_down(Entry{run->times()[run->head], entry.seq + 1, entry.ref});
    run->cb();
    return;
  }
  pop_root();
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
