// Edge cases of the discrete-event scheduler: cancellation semantics,
// FIFO ordering at one instant, run_until clock handling, pending-event
// accounting under cancellations, peek_next_time, schedule_run (the
// medium's delivery fan-out path) against N schedule_at calls, runs
// queued under cancels and sweeps, and the ownership of callbacks parked
// in the scheduler's slots and runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "sim/scheduler.h"
#include "util/small_fn.h"

namespace hydra::sim {
namespace {

TEST(SchedulerEdge, CancelAfterRunReturnsFalse) {
  Scheduler sched;
  int runs = 0;
  const auto id = sched.schedule_in(Duration::millis(1), [&] { ++runs; });
  EXPECT_EQ(sched.run(), 1u);
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(sched.cancel(id));  // already executed
}

TEST(SchedulerEdge, CancelTwiceReturnsFalseTheSecondTime) {
  Scheduler sched;
  const auto id = sched.schedule_in(Duration::millis(1), [] {});
  EXPECT_TRUE(sched.cancel(id));
  EXPECT_FALSE(sched.cancel(id));
  EXPECT_EQ(sched.run(), 0u);
}

TEST(SchedulerEdge, InvalidIdCancelReturnsFalse) {
  Scheduler sched;
  EXPECT_FALSE(sched.cancel(EventId{}));
}

TEST(SchedulerEdge, SameInstantEventsRunInSchedulingOrder) {
  Scheduler sched;
  std::vector<int> order;
  const auto at = TimePoint::at(Duration::millis(5));
  for (int i = 0; i < 8; ++i) {
    sched.schedule_at(at, [&order, i] { order.push_back(i); });
  }
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(SchedulerEdge, FifoHoldsForEventsScheduledFromCallbacks) {
  Scheduler sched;
  std::vector<int> order;
  const auto at = TimePoint::at(Duration::millis(5));
  sched.schedule_at(at, [&] {
    order.push_back(0);
    // Same-instant event scheduled while running: goes to the back.
    sched.schedule_at(at, [&] { order.push_back(2); });
  });
  sched.schedule_at(at, [&] { order.push_back(1); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SchedulerEdge, RunUntilAdvancesNowAndKeepsLaterEventsQueued) {
  Scheduler sched;
  int early = 0, late = 0;
  sched.schedule_in(Duration::millis(10), [&] { ++early; });
  sched.schedule_in(Duration::millis(30), [&] { ++late; });
  const auto deadline = TimePoint::at(Duration::millis(20));
  EXPECT_EQ(sched.run_until(deadline), 1u);
  EXPECT_EQ(early, 1);
  EXPECT_EQ(late, 0);
  EXPECT_EQ(sched.now(), deadline);  // clock lands on the deadline
  EXPECT_EQ(sched.pending_events(), 1u);
  EXPECT_EQ(sched.run(), 1u);
  EXPECT_EQ(late, 1);
}

TEST(SchedulerEdge, PendingEventsExcludesCancellations) {
  Scheduler sched;
  const auto a = sched.schedule_in(Duration::millis(1), [] {});
  sched.schedule_in(Duration::millis(2), [] {});
  const auto c = sched.schedule_in(Duration::millis(3), [] {});
  EXPECT_EQ(sched.pending_events(), 3u);
  EXPECT_TRUE(sched.cancel(a));
  EXPECT_TRUE(sched.cancel(c));
  EXPECT_EQ(sched.pending_events(), 1u);
  // Only the surviving event executes and the counters settle.
  EXPECT_EQ(sched.run(), 1u);
  EXPECT_EQ(sched.pending_events(), 0u);
  EXPECT_EQ(sched.executed_events(), 1u);
}

TEST(SchedulerEdge, PeekNextTimeSkipsCancelledHeads) {
  Scheduler sched;
  EXPECT_EQ(sched.peek_next_time(), std::nullopt);
  const auto a = sched.schedule_in(Duration::millis(1), [] {});
  sched.schedule_in(Duration::millis(2), [] {});
  EXPECT_EQ(sched.peek_next_time(), TimePoint::at(Duration::millis(1)));
  // Cancelling the head must not leave a stale peek: the tombstone is
  // dropped and the next live event surfaces.
  EXPECT_TRUE(sched.cancel(a));
  EXPECT_EQ(sched.peek_next_time(), TimePoint::at(Duration::millis(2)));
  EXPECT_EQ(sched.run(), 1u);
  EXPECT_EQ(sched.peek_next_time(), std::nullopt);
}

// ---------------------------------------------------------------------
// schedule_run. Every transmission's delivery fan-out commits through
// it, so it must be indistinguishable from N schedule_at calls in time
// order.
// ---------------------------------------------------------------------

// A run callback that records the next of `labels` at each event.
auto record_run(std::vector<int>& order, std::vector<int> labels) {
  return [&order, labels = std::move(labels), next = std::size_t{0}]() mutable {
    order.push_back(labels[next++]);
  };
}

// Event times for the order tests: a scrambled spread with many
// repeats, so run events tie with queued ones and with each other.
TimePoint spread_time(std::size_t i) {
  return TimePoint::at(
      Duration::micros(static_cast<std::int64_t>((i * 11) % 37)));
}

// Queues `before` labelled events through schedule_at, then `run_size`
// more either as one run or through schedule_at one by one in time
// order, then `after` more through schedule_at, and returns the labels
// in execution order. Every time is drawn from spread_time, so the run
// ties with events scheduled before and after it.
std::vector<int> run_order(std::size_t before, std::size_t run_size,
                           std::size_t after, bool use_run) {
  Scheduler sched;
  std::vector<int> order;
  int label = 0;
  const auto schedule_one = [&](TimePoint at) {
    sched.schedule_at(at, [&order, l = label] { order.push_back(l); });
    ++label;
  };
  // Queued events start at 1 us, so the run's time-0 event is the strict
  // minimum: a run entry left out of heap order would not run first.
  // (Pops re-sift the heap's tail, which hides any misplaced entry that
  // is not the minimum.)
  for (std::size_t i = 0; i < before; ++i) {
    schedule_one(spread_time(i) + Duration::micros(1));
  }
  std::vector<TimePoint> times;
  for (std::size_t j = 0; j < run_size; ++j) {
    times.push_back(spread_time(j * 3));
  }
  std::sort(times.begin(), times.end());
  if (use_run) {
    std::vector<int> labels(run_size);
    std::iota(labels.begin(), labels.end(), label);
    label += static_cast<int>(run_size);
    sched.schedule_run(times.data(), times.size(),
                       record_run(order, std::move(labels)));
  } else {
    for (const auto at : times) schedule_one(at);
  }
  for (std::size_t i = 0; i < after; ++i) schedule_one(spread_time(i * 5));
  EXPECT_EQ(sched.run(), before + run_size + after);
  return order;
}

TEST(SchedulerEdge, BatchAtABusyInstantRunsAfterQueuedEventsInBatchOrder) {
  Scheduler sched;
  std::vector<int> order;
  const auto at = TimePoint::at(Duration::millis(5));
  sched.schedule_at(at, [&] { order.push_back(0); });
  sched.schedule_at(at, [&] { order.push_back(1); });
  const std::vector<TimePoint> times(4, at);
  sched.schedule_run(times.data(), times.size(),
                     record_run(order, {2, 3, 4, 5}));
  // Scheduled after the run, so it runs after every run event too.
  sched.schedule_at(at, [&] { order.push_back(6); });
  EXPECT_EQ(sched.run(), 7u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
}

TEST(SchedulerEdge, RunOrdersLikeScheduleAtCallsAmidTies) {
  // Events before and after the run tie with its events at many
  // instants; the run's block of sequence numbers must sit between them.
  const auto ran = run_order(40, 30, 40, true);
  EXPECT_EQ(ran, run_order(40, 30, 40, false));
  EXPECT_EQ(ran.size(), 110u);
  EXPECT_EQ(run_order(0, 30, 40, true), run_order(0, 30, 40, false));
}

TEST(SchedulerEdge, SmallBatchMatchesScheduleAtOrder) {
  // 10 events into a heap of 800: the run merges with many queued runs
  // of one.
  const auto ran = run_order(800, 10, 0, true);
  EXPECT_EQ(ran, run_order(800, 10, 0, false));
  EXPECT_EQ(ran.size(), 810u);
}

TEST(SchedulerEdge, LargeBatchMatchesScheduleAtOrder) {
  // 300 events into a heap of 800, and into an empty heap, where the
  // run is the whole queue.
  const auto ran = run_order(800, 300, 0, true);
  EXPECT_EQ(ran, run_order(800, 300, 0, false));
  EXPECT_EQ(ran.size(), 1100u);
  EXPECT_EQ(run_order(0, 300, 0, true), run_order(0, 300, 0, false));
}

TEST(SchedulerEdge, RunCountsEveryEventAsPending) {
  Scheduler sched;
  sched.schedule_in(Duration::millis(1), [] {});
  const std::array<TimePoint, 2> times{TimePoint::at(Duration::millis(2)),
                                       TimePoint::at(Duration::millis(3))};
  sched.schedule_run(times.data(), times.size(), [] {});
  EXPECT_EQ(sched.pending_events(), 3u);

  sched.schedule_run(times.data(), 0, [] {});  // an empty run: nothing
  EXPECT_EQ(sched.pending_events(), 3u);
  EXPECT_EQ(sched.run_until(TimePoint::at(Duration::millis(2))), 2u);
  EXPECT_EQ(sched.pending_events(), 1u);
  EXPECT_EQ(sched.run(), 1u);
  EXPECT_EQ(sched.executed_events(), 3u);
}

TEST(SchedulerEdgeDeathTest, RunWithOutOfOrderTimesAborts) {
  Scheduler sched;
  const std::array<TimePoint, 3> times{TimePoint::at(Duration::millis(1)),
                                       TimePoint::at(Duration::millis(3)),
                                       TimePoint::at(Duration::millis(2))};
  EXPECT_DEATH(sched.schedule_run(times.data(), times.size(), [] {}),
               "nondecreasing");
}

// ---------------------------------------------------------------------
// Runs and the sweep. A run waits as one heap entry, its earliest
// event. Only a schedule_at event can be
// cancelled, so a tombstone is a run of one: it drops out whole, whether
// it surfaces at the front of the queue or is swept once tombstones
// outnumber live events, and every run stays whole.
// ---------------------------------------------------------------------

TEST(SchedulerEdge, SweepDropsCancelledSingletonsAndKeepsARunWhole) {
  Scheduler sched;
  std::vector<int> order;
  // Labels in scheduling order with their times, for the expected order.
  std::vector<std::pair<std::int64_t, int>> queued;
  auto record = [&order](int label) {
    return [&order, label] { order.push_back(label); };
  };
  // 64 runs of one, every 8th left live: cancelling the other 56 leaves
  // tombstones far outnumbering live events, so a sweep must run.
  std::vector<EventId> singles;
  for (int i = 0; i < 64; ++i) {
    singles.push_back(sched.schedule_at(
        TimePoint::at(Duration::micros(i)), record(i)));
    queued.emplace_back(i, i);
  }
  // A run of five; its head is the 10 us event.
  const std::array<std::int64_t, 5> micros{10, 20, 33, 40, 55};
  std::vector<TimePoint> times;
  std::vector<int> labels;
  for (std::size_t j = 0; j < micros.size(); ++j) {
    times.push_back(TimePoint::at(Duration::micros(micros[j])));
    labels.push_back(100 + static_cast<int>(j));
    queued.emplace_back(micros[j], labels.back());
  }
  sched.schedule_run(times.data(), times.size(),
                     record_run(order, std::move(labels)));
  std::vector<int> cancelled;
  for (int i = 0; i < 64; ++i) {
    if (i % 8 == 0) continue;
    EXPECT_TRUE(sched.cancel(singles[static_cast<std::size_t>(i)]));
    cancelled.push_back(i);
  }
  EXPECT_EQ(sched.pending_events(), 8u + 5u);

  std::stable_sort(queued.begin(), queued.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<int> expected;
  for (const auto& [at, label] : queued) {
    if (std::find(cancelled.begin(), cancelled.end(), label) ==
        cancelled.end()) {
      expected.push_back(label);
    }
  }
  EXPECT_EQ(sched.run(), 13u);
  EXPECT_EQ(order, expected);
  EXPECT_EQ(sched.pending_events(), 0u);
}

// Cancels its target when destroyed (and not when moved from, since a
// moved-from unique_ptr is null), recording whether the cancel took.
struct CancelOnDestroy {
  Scheduler& sched;
  EventId target;
  int& cancels;
  ~CancelOnDestroy() {
    if (sched.cancel(target)) ++cancels;
  }
};

TEST(SchedulerEdge, SweepSurvivesACancelFromADestroyedCapture) {
  Scheduler sched;
  // Four victims, each the target of two killers, whose captures cancel
  // it as they die. Cancelling every killer forces sweeps, and each dying
  // capture's cancel may start another sweep while one is under way.
  constexpr int kVictims = 4;
  std::array<int, kVictims> runs{};
  std::array<int, kVictims> cancels{};
  std::array<EventId, kVictims> victims;
  for (int v = 0; v < kVictims; ++v) {
    victims[static_cast<std::size_t>(v)] =
        sched.schedule_at(TimePoint::at(Duration::millis(1 + 2 * v)),
                          [&runs, v] { ++runs[static_cast<std::size_t>(v)]; });
  }
  int killer_runs = 0;
  std::vector<EventId> killers;
  for (int k = 0; k < 2 * kVictims; ++k) {
    const auto v = static_cast<std::size_t>(k % kVictims);
    auto guard =
        std::make_unique<CancelOnDestroy>(sched, victims[v], cancels[v]);
    killers.push_back(sched.schedule_at(
        TimePoint::at(Duration::millis(k)),
        [&killer_runs, guard = std::move(guard)] { ++killer_runs; }));
  }
  for (const auto id : killers) EXPECT_TRUE(sched.cancel(id));
  // Fresh events reuse every freed slot: a slot freed twice would give
  // two of them one slot, and one would never run.
  constexpr int kProbes = 16;
  std::array<int, kProbes> probe_runs{};
  for (int p = 0; p < kProbes; ++p) {
    sched.schedule_at(TimePoint::at(Duration::millis(p)), [&probe_runs, p] {
      ++probe_runs[static_cast<std::size_t>(p)];
    });
  }

  sched.run();
  EXPECT_EQ(killer_runs, 0);
  for (std::size_t v = 0; v < kVictims; ++v) {
    EXPECT_EQ(runs[v] + cancels[v], 1) << "victim " << v;
  }
  for (std::size_t p = 0; p < kProbes; ++p) {
    EXPECT_EQ(probe_runs[p], 1) << "probe " << p;
  }
  EXPECT_EQ(sched.pending_events(), 0u);
}

TEST(SchedulerEdge, RunUntilStopsInsideARun) {
  Scheduler sched;
  int runs = 0;
  std::vector<TimePoint> times;
  for (int i = 0; i < 4; ++i) {
    times.push_back(TimePoint::at(Duration::millis(10 * (i + 1))));
  }
  sched.schedule_run(times.data(), times.size(), [&runs] { ++runs; });
  const auto deadline = TimePoint::at(Duration::millis(25));
  EXPECT_EQ(sched.run_until(deadline), 2u);
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(sched.now(), deadline);
  EXPECT_EQ(sched.pending_events(), 2u);
  EXPECT_EQ(sched.peek_next_time(), TimePoint::at(Duration::millis(30)));
  EXPECT_EQ(sched.run(), 2u);
  EXPECT_EQ(runs, 4);
}

// ---------------------------------------------------------------------
// Callback ownership. A queued event's callback waits in its slot, and
// the slot vector grows while callbacks run, so a running callback must
// not live in it. Under ASan, an inline callback run in place reads its
// captures from freed storage once it has grown the scheduler; a boxed
// callback's captures never move, so its test covers the boxed path. A
// run's callback runs in place in the run's own block, which no growth
// moves, and dies after the run's last event or with the scheduler.
// ---------------------------------------------------------------------

constexpr int kGrowth = 4096;

// Runs one callback that captures `values`, schedules kGrowth events
// (growing the heap and the slot vector under itself) and only then
// reads its captures; returns their sum. `kInline` states whether the
// captures fit SmallFn's inline buffer.
template <bool kInline, std::size_t N>
std::uint64_t sum_after_growth(const std::array<std::uint64_t, N>& values) {
  Scheduler sched;
  std::uint64_t sum = 0;
  auto grow = [&sched, &sum, values] {
    for (int i = 0; i < kGrowth; ++i) {
      sched.schedule_in(Duration::millis(1), [] {});
    }
    sum = std::accumulate(values.begin(), values.end(), std::uint64_t{0});
  };
  static_assert((sizeof(grow) <= util::SmallFn::kInlineBytes) == kInline);
  sched.schedule_in(Duration::millis(1), std::move(grow));
  EXPECT_EQ(sched.run(), kGrowth + 1u);
  return sum;
}

TEST(SchedulerEdge, InlineCallbackThatGrowsTheSchedulerKeepsItsCaptures) {
  EXPECT_EQ(sum_after_growth<true>(std::array<std::uint64_t, 3>{1, 2, 3}),
            6u);
}

TEST(SchedulerEdge, BoxedCallbackThatGrowsTheSchedulerKeepsItsCaptures) {
  std::array<std::uint64_t, 16> values{};  // 128 bytes
  std::iota(values.begin(), values.end(), std::uint64_t{1});
  EXPECT_EQ(sum_after_growth<false>(values), 136u);
}

TEST(SchedulerEdge, RunCallbackThatGrowsTheSchedulerKeepsItsCaptures) {
  Scheduler sched;
  const std::array<std::uint64_t, 3> values{1, 2, 3};
  std::vector<std::uint64_t> sums;
  auto grow = [&sched, &sums, values] {
    for (int i = 0; i < kGrowth; ++i) {
      sched.schedule_in(Duration::millis(1), [] {});
    }
    sums.push_back(
        std::accumulate(values.begin(), values.end(), std::uint64_t{0}));
  };
  static_assert(sizeof(grow) <= util::SmallFn::kInlineBytes);
  const std::array<TimePoint, 3> times{TimePoint::at(Duration::millis(1)),
                                       TimePoint::at(Duration::millis(1)),
                                       TimePoint::at(Duration::millis(2))};
  sched.schedule_run(times.data(), times.size(), std::move(grow));
  EXPECT_EQ(sched.run(), 3u * kGrowth + 3u);
  EXPECT_EQ(sums, (std::vector<std::uint64_t>{6, 6, 6}));
}

TEST(SchedulerEdge, DestroyingTheSchedulerReleasesQueuedRunsOnce) {
  auto token = std::make_shared<int>(0);
  const auto at = [](int ms) { return TimePoint::at(Duration::millis(ms)); };
  {
    Scheduler sched;
    const std::array<TimePoint, 2> finished{at(1), at(2)};
    const std::array<TimePoint, 3> started{at(1), at(2), at(3)};
    const std::array<TimePoint, 2> waiting{at(5), at(6)};
    sched.schedule_run(finished.data(), finished.size(), [token] { ++*token; });
    sched.schedule_run(started.data(), started.size(), [token] { ++*token; });
    sched.schedule_run(waiting.data(), waiting.size(), [token] { ++*token; });
    EXPECT_EQ(token.use_count(), 4);

    EXPECT_EQ(sched.run_until(at(2)), 4u);
    EXPECT_EQ(*token, 4);
    // The finished run's captures die after its last event; the started
    // and the waiting run keep theirs.
    EXPECT_EQ(token.use_count(), 3);
  }
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(*token, 4);
}

TEST(SchedulerEdge, EveryCallbackIsDestroyedExactlyOnce) {
  auto token = std::make_shared<int>(0);
  {
    Scheduler sched;
    sched.schedule_in(Duration::millis(1), [token] { ++*token; });
    const auto cancelled =
        sched.schedule_in(Duration::millis(2), [token] { ++*token; });
    sched.schedule_in(Duration::millis(10), [token] { ++*token; });
    EXPECT_EQ(token.use_count(), 4);
    EXPECT_TRUE(sched.cancel(cancelled));

    EXPECT_EQ(sched.run_until(TimePoint::at(Duration::millis(5))), 1u);
    EXPECT_EQ(*token, 1);
    // The run event's captures die after its call, the cancelled
    // event's when its tombstone surfaces or is swept; the later event
    // keeps its.
    EXPECT_EQ(token.use_count(), 2);
  }
  // Destroying the scheduler destroys the still-pending callback.
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(*token, 1);
}

}  // namespace
}  // namespace hydra::sim
