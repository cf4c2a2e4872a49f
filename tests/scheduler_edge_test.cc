// Edge cases of the discrete-event scheduler: timer cancellation,
// re-arms later and earlier and the entries they re-key or leave behind,
// FIFO ordering at one instant, run_until clock handling, pending-event
// accounting under cancellations, peek_next_time, schedule_run (the
// medium's delivery fan-out path) against N schedule_at calls, runs
// queued beside stale timer entries and sweeps, and the ownership of
// callbacks parked in the scheduler's run blocks and in timers.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <numeric>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/scheduler.h"
#include "sim/timer.h"
#include "util/alloc_stats.h"
#include "util/small_fn.h"

namespace hydra::sim {
namespace {

TimePoint at_ms(std::int64_t ms) { return TimePoint::at(Duration::millis(ms)); }

// Only a timer's firing can be cancelled; schedule_at events always run.
TEST(SchedulerEdge, CancelAfterRunReturnsFalse) {
  Scheduler sched;
  int runs = 0;
  Timer t(sched, [&] { ++runs; });
  t.arm(Duration::millis(1));
  EXPECT_EQ(sched.run(), 1u);
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(t.cancel());  // already fired
  EXPECT_EQ(sched.pending_events(), 0u);
}

TEST(SchedulerEdge, CancelTwiceReturnsFalseTheSecondTime) {
  Scheduler sched;
  Timer t(sched, [] {});
  t.arm(Duration::millis(1));
  EXPECT_TRUE(t.cancel());
  EXPECT_FALSE(t.cancel());
  EXPECT_EQ(sched.pending_events(), 0u);
  EXPECT_EQ(sched.run(), 0u);
}

TEST(SchedulerEdge, InvalidIdCancelReturnsFalse) {
  // Nothing to cancel before the first arm, nor once a cancelled
  // firing's entry has surfaced and been dropped.
  Scheduler sched;
  Timer t(sched, [] {});
  EXPECT_FALSE(t.cancel());
  t.arm(Duration::millis(1));
  EXPECT_TRUE(t.cancel());
  EXPECT_EQ(sched.run(), 0u);
  EXPECT_FALSE(t.cancel());
  EXPECT_EQ(sched.pending_events(), 0u);
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
  Timer a(sched, [] {});
  Timer b(sched, [] {});
  Timer c(sched, [] {});
  a.arm(Duration::millis(1));
  b.arm(Duration::millis(2));
  c.arm(Duration::millis(3));
  EXPECT_EQ(sched.pending_events(), 3u);
  EXPECT_TRUE(a.cancel());
  EXPECT_TRUE(c.cancel());
  EXPECT_EQ(sched.pending_events(), 1u);
  // A re-armed timer counts once, however often it is re-armed.
  c.arm(Duration::millis(4));
  c.arm(Duration::millis(5));
  EXPECT_EQ(sched.pending_events(), 2u);
  // Only the live firings execute and the counters settle.
  EXPECT_EQ(sched.run(), 2u);
  EXPECT_EQ(sched.pending_events(), 0u);
  EXPECT_EQ(sched.executed_events(), 2u);
}

TEST(SchedulerEdge, PeekNextTimeSkipsCancelledHeads) {
  Scheduler sched;
  EXPECT_EQ(sched.peek_next_time(), std::nullopt);
  Timer a(sched, [] {});
  a.arm(Duration::millis(1));
  sched.schedule_in(Duration::millis(2), [] {});
  EXPECT_EQ(sched.peek_next_time(), at_ms(1));
  // Cancelling the head must not leave a stale peek: its entry is
  // dropped and the next live event surfaces.
  EXPECT_TRUE(a.cancel());
  EXPECT_EQ(sched.peek_next_time(), at_ms(2));
  // Nor may a timer re-armed later be peeked at its queued entry's time.
  Timer b(sched, [] {});
  b.arm(Duration::micros(500));
  b.arm(Duration::micros(1500));
  EXPECT_EQ(sched.peek_next_time(), TimePoint::at(Duration::micros(1500)));
  EXPECT_EQ(sched.run(), 2u);
  EXPECT_EQ(sched.peek_next_time(), std::nullopt);
}

// ---------------------------------------------------------------------
// Timers. A timer keeps its key, (deadline, the sequence number its arm
// drew), and at most one queued entry it counts as its own, at or
// before that key. A re-arm later leaves the entry to re-key itself at
// the root; a re-arm earlier queues a new entry and leaves the old one
// behind; the scheduler finds the timer through its table index, which
// a destroyed timer nulls and no later timer takes.
// ---------------------------------------------------------------------

// Records (label, time) when it runs.
using Log = std::vector<std::pair<int, TimePoint>>;
auto record(Log& log, const Scheduler& sched, int label) {
  return [&log, &sched, label] { log.emplace_back(label, sched.now()); };
}

TEST(SchedulerEdge, TimerReArmedLaterFiresOnceAtTheLaterTime) {
  Scheduler sched;
  Log log;
  Timer t(sched, record(log, sched, 0));
  t.arm(Duration::millis(5));
  // Queued between the two arms, so its sequence number is lower than
  // the firing's: it runs first at 10 ms.
  sched.schedule_at(at_ms(10), record(log, sched, 1));
  t.arm(Duration::millis(10));
  // Queued after the re-arm: it runs after the firing.
  sched.schedule_at(at_ms(10), record(log, sched, 2));
  // Re-armed to the very instant of its queued entry: the same entry
  // must still wait for the event queued between.
  Timer u(sched, record(log, sched, 3));
  u.arm(Duration::millis(12));
  sched.schedule_at(at_ms(12), record(log, sched, 4));
  u.arm(Duration::millis(12));
  EXPECT_EQ(sched.pending_events(), 5u);

  EXPECT_EQ(sched.run_until(at_ms(9)), 0u);  // nothing at 5 ms
  EXPECT_EQ(sched.run(), 5u);
  EXPECT_EQ(log, (Log{{1, at_ms(10)},
                      {0, at_ms(10)},
                      {2, at_ms(10)},
                      {4, at_ms(12)},
                      {3, at_ms(12)}}));
  EXPECT_EQ(sched.pending_events(), 0u);
}

TEST(SchedulerEdge, TimerReArmedEarlierFiresOnceAtTheEarlierTime) {
  Scheduler sched;
  Log log;
  Timer t(sched, record(log, sched, 0));
  t.arm(Duration::millis(10));
  t.arm(Duration::millis(5));  // leaves the 10 ms entry behind
  // Between the two deadlines, so the firing must not wait for the old
  // entry to surface. It arms the timer again for 10 ms, after the event
  // queued there: the entry left behind at 10 ms surfaces first and must
  // not fire it.
  sched.schedule_at(at_ms(7), [&] {
    log.emplace_back(1, sched.now());
    t.arm(Duration::millis(3));
  });
  sched.schedule_at(at_ms(10), record(log, sched, 2));
  EXPECT_EQ(sched.pending_events(), 3u);

  EXPECT_EQ(sched.run(), 4u);
  EXPECT_EQ(log, (Log{{0, at_ms(5)}, {1, at_ms(7)}, {2, at_ms(10)},
                      {0, at_ms(10)}}));
  EXPECT_EQ(sched.pending_events(), 0u);
}

TEST(SchedulerEdge, DestroyedTimersEntryNeverFiresTheTimerReusingItsIndex) {
  Scheduler sched;
  Log log;
  auto old_timer = std::make_unique<Timer>(sched, record(log, sched, 0));
  old_timer->arm(Duration::millis(10));
  old_timer.reset();  // destroyed with its entry queued
  EXPECT_EQ(sched.pending_events(), 0u);
  sched.schedule_at(at_ms(10), record(log, sched, 1));
  // Takes the next table index, never the destroyed timer's, and fires
  // at the old entry's instant, after the event queued before it.
  Timer fresh(sched, record(log, sched, 2));
  fresh.arm(Duration::millis(10));
  // A destroyed timer whose index nobody takes: its entry is dropped
  // without reading the timer.
  auto lone = std::make_unique<Timer>(sched, record(log, sched, 3));
  lone->arm(Duration::millis(20));
  lone.reset();

  EXPECT_EQ(sched.run(), 2u);
  EXPECT_EQ(log, (Log{{1, at_ms(10)}, {2, at_ms(10)}}));
  EXPECT_EQ(sched.pending_events(), 0u);
}

TEST(SchedulerEdge, TimerReArmsFromItsOwnCallback) {
  Scheduler sched;
  Log log;
  Timer* self = nullptr;
  int fires = 0;
  Timer t(sched, [&] {
    log.emplace_back(0, sched.now());
    ++fires;
    // The first firing, at 5 ms, re-arms for 10 ms, where the entry a
    // re-arm earlier left behind still waits; the second re-arms for the
    // same instant, behind the event queued there meanwhile.
    if (fires == 1) self->arm(Duration::millis(5));
    if (fires == 2) {
      sched.schedule_in(Duration::zero(), record(log, sched, 2));
      self->arm(Duration::zero());
    }
  });
  self = &t;
  t.arm(Duration::millis(10));
  t.arm(Duration::millis(5));
  sched.schedule_at(at_ms(10), record(log, sched, 1));

  EXPECT_EQ(sched.run(), 5u);
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(log, (Log{{0, at_ms(5)},
                      {1, at_ms(10)},
                      {0, at_ms(10)},
                      {2, at_ms(10)},
                      {0, at_ms(10)}}));
}

TEST(SchedulerEdge, TimerCallbackThatDestroysItsOwner) {
  // Run under ASan: the scheduler must not touch the timer after its
  // callback, which frees the timer, the callback's box and the entry's
  // table index.
  struct Owner {
    Owner(Scheduler& sched, std::unique_ptr<Owner>& self, int& fires)
        : timer(sched, [&self, &fires] {
            ++fires;
            self.reset();
          }) {}
    Timer timer;
  };
  Scheduler sched;
  int fires = 0;
  std::unique_ptr<Owner> owner;
  owner = std::make_unique<Owner>(sched, owner, fires);
  // Re-armed earlier and then later: one entry to re-key and one left
  // behind, both still queued when the owner dies.
  owner->timer.arm(Duration::millis(10));
  owner->timer.arm(Duration::millis(2));
  owner->timer.arm(Duration::millis(4));
  Log log;
  sched.schedule_at(at_ms(4), record(log, sched, 1));
  sched.schedule_at(at_ms(12), record(log, sched, 2));

  EXPECT_EQ(sched.run(), 3u);
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(owner, nullptr);
  EXPECT_EQ(log, (Log{{1, at_ms(4)}, {2, at_ms(12)}}));
  EXPECT_EQ(sched.pending_events(), 0u);
}

TEST(SchedulerEdge, TimerWhoseEntryWasDroppedQueuesAFreshOne) {
  // A cancelled timer forgets its entry as the entry is dropped, at the
  // root or by a sweep, so a later re-arm queues a new one.
  Scheduler sched;
  int fires = 0;
  Timer t(sched, [&] { ++fires; });
  t.arm(Duration::millis(1));
  t.cancel();
  EXPECT_EQ(sched.run_until(at_ms(2)), 0u);  // dropped at the root
  t.arm(Duration::millis(1));
  EXPECT_EQ(sched.run(), 1u);
  EXPECT_EQ(fires, 1);

  Timer w(sched, [] {});
  t.arm(Duration::millis(1));
  w.arm(Duration::millis(1));
  t.cancel();
  w.cancel();
  // u's firing is the only live event, so its arm finds two stale
  // entries beside its own and sweeps t's and w's out.
  Timer u(sched, [] {});
  u.arm(Duration::millis(5));
  t.arm(Duration::millis(3));
  EXPECT_EQ(sched.run(), 2u);
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(sched.now(), TimePoint::at(Duration::millis(8)));
}

TEST(SchedulerEdge, TenThousandReArmsEachEarlierFireOnceInABoundedQueue) {
  Scheduler sched;
  std::vector<TimePoint> fired;
  Timer t(sched, [&] { fired.push_back(sched.now()); });
  constexpr int kReArms = 10'000;
  const auto before = util::alloc_snapshot();
  for (int i = 0; i < kReArms; ++i) {
    t.arm(Duration::micros(kReArms - i));
  }
  const auto after = util::alloc_snapshot();
  EXPECT_EQ(sched.pending_events(), 1u);
  // Every re-arm queues an entry and leaves the last behind; the sweep
  // drops them once they outnumber the live events, so the heap stays a
  // few entries deep. Unswept, its 10k 24-byte keys would allocate more
  // than 240 kB.
  EXPECT_LT(after.bytes - before.bytes, 4096u);
  EXPECT_EQ(sched.run(), 1u);
  EXPECT_EQ(fired,
            (std::vector<TimePoint>{TimePoint::at(Duration::micros(1))}));
  EXPECT_EQ(sched.pending_events(), 0u);
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
// event. Only a timer's entry goes stale, and a timer's entry is a
// single event: it drops out whole, whether it surfaces at the front of
// the queue or is swept once stale entries outnumber live events, and
// every run stays whole.
// ---------------------------------------------------------------------

TEST(SchedulerEdge, SweepDropsCancelledSingletonsAndKeepsARunWhole) {
  Scheduler sched;
  std::vector<int> order;
  // (time, label, live) in scheduling order, for the expected order.
  std::vector<std::tuple<std::int64_t, int, bool>> queued;
  auto push_label = [&order](int label) {
    return [&order, label] { order.push_back(label); };
  };
  // 64 timers, every 8th left armed: cancelling the other 56 leaves
  // their entries far outnumbering live events, so the next arm that
  // queues an entry sweeps.
  std::vector<std::unique_ptr<Timer>> timers;
  for (int i = 0; i < 64; ++i) {
    timers.push_back(std::make_unique<Timer>(sched, push_label(i)));
    timers.back()->arm(Duration::micros(i));
    queued.emplace_back(i, i, true);
  }
  // A run of five; its head is the 10 us event.
  const std::array<std::int64_t, 5> micros{10, 20, 33, 40, 55};
  std::vector<TimePoint> times;
  std::vector<int> labels;
  for (std::size_t j = 0; j < micros.size(); ++j) {
    times.push_back(TimePoint::at(Duration::micros(micros[j])));
    labels.push_back(100 + static_cast<int>(j));
    queued.emplace_back(micros[j], labels.back(), true);
  }
  sched.schedule_run(times.data(), times.size(),
                     record_run(order, std::move(labels)));
  for (int i = 0; i < 64; ++i) {
    if (i % 8 == 0) continue;
    EXPECT_TRUE(timers[static_cast<std::size_t>(i)]->cancel());
    std::get<2>(queued[static_cast<std::size_t>(i)]) = false;
  }
  EXPECT_EQ(sched.pending_events(), 8u + 5u);
  // Re-armed later than its queued entry, timer 9 keeps that entry
  // through the sweep; re-armed earlier, timer 17 queues a new entry,
  // and that push sweeps the old one out with the cancelled ones.
  timers[9]->arm(Duration::micros(70));
  queued.emplace_back(70, 9, true);
  timers[17]->arm(Duration::micros(3));
  queued.emplace_back(3, 17, true);
  EXPECT_EQ(sched.pending_events(), 8u + 5u + 2u);

  std::stable_sort(queued.begin(), queued.end(),
                   [](const auto& a, const auto& b) {
                     return std::get<0>(a) < std::get<0>(b);
                   });
  std::vector<int> expected;
  for (const auto& [at, label, live] : queued) {
    if (live) expected.push_back(label);
  }
  EXPECT_EQ(sched.run(), 15u);
  EXPECT_EQ(order, expected);
  EXPECT_EQ(sched.pending_events(), 0u);
}

// Cancels its target when destroyed (and not when moved from, since a
// moved-from unique_ptr is null), recording whether the cancel took, and
// re-arms `echo` earlier than before, queueing an entry that may sweep.
struct CancelOnDestroy {
  Timer& target;
  int& cancels;
  Timer& echo;
  int& echo_delay_ms;
  ~CancelOnDestroy() {
    if (target.cancel()) ++cancels;
    echo.arm(Duration::millis(--echo_delay_ms));
  }
};

TEST(SchedulerEdge, SweepSurvivesACancelFromADestroyedCapture) {
  Scheduler sched;
  // Four victim timers, each the target of two killers whose captures
  // cancel it as they die: a timer destroyed with its entry queued, and
  // a schedule_at event whose capture dies after it runs, inside the
  // loop. Each dying capture also re-arms the echo timer earlier, so
  // stale entries pile up and sweeps run among the dead killers' entries.
  constexpr int kVictims = 4;
  std::array<int, kVictims> runs{};
  std::array<int, kVictims> cancels{};
  std::vector<std::unique_ptr<Timer>> victims;
  for (int v = 0; v < kVictims; ++v) {
    victims.push_back(std::make_unique<Timer>(
        sched, [&runs, v] { ++runs[static_cast<std::size_t>(v)]; }));
    victims.back()->arm(Duration::millis(20 + 2 * v));
  }
  int echoes = 0;
  int echo_delay_ms = 100;
  Timer echo(sched, [&echoes] { ++echoes; });
  int killer_runs = 0;
  std::vector<std::unique_ptr<Timer>> killers;
  for (int k = 0; k < kVictims; ++k) {
    const auto v = static_cast<std::size_t>(k);
    killers.push_back(std::make_unique<Timer>(
        sched, [&killer_runs, guard = std::make_unique<CancelOnDestroy>(
                                  *victims[v], cancels[v], echo,
                                  echo_delay_ms)] { ++killer_runs; }));
    killers.back()->arm(Duration::millis(k));
    sched.schedule_at(at_ms(10 + k),
                      [guard = std::make_unique<CancelOnDestroy>(
                           *victims[(v + 1) % kVictims],
                           cancels[(v + 1) % kVictims], echo,
                           echo_delay_ms)] {});
  }
  killers.clear();
  // Fresh timers take new table indices after the destroyed killers':
  // each fires once among the dead timers' entries.
  constexpr int kProbes = 16;
  std::array<int, kProbes> probe_runs{};
  std::vector<std::unique_ptr<Timer>> probes;
  for (int p = 0; p < kProbes; ++p) {
    probes.push_back(std::make_unique<Timer>(sched, [&probe_runs, p] {
      ++probe_runs[static_cast<std::size_t>(p)];
    }));
    probes.back()->arm(Duration::millis(p));
  }

  sched.run();
  EXPECT_EQ(killer_runs, 0);
  for (std::size_t v = 0; v < kVictims; ++v) {
    EXPECT_EQ(runs[v] + cancels[v], 1) << "victim " << v;
  }
  for (std::size_t p = 0; p < kProbes; ++p) {
    EXPECT_EQ(probe_runs[p], 1) << "probe " << p;
  }
  EXPECT_EQ(echoes, 1);
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
// Callback ownership. A queued event's callback waits in its run's
// block from the BufferPool (a schedule_at event's in a block of one
// event) and runs there, in place, while it schedules events into
// blocks of their own; the block is freed only after the call. A boxed
// callback's captures live in a box of their own, so its test covers
// the boxed path. A callback dies after its run's last event, or when
// the scheduler dies and releases the blocks still queued.
// ---------------------------------------------------------------------

constexpr int kGrowth = 4096;

// Runs one callback that captures `values`, schedules kGrowth events
// (growing the heap and taking kGrowth blocks under itself) and only
// then reads its captures; returns their sum. `kInline` states whether
// the captures fit SmallFn's inline buffer.
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
    auto cancelled =
        std::make_unique<Timer>(sched, [token] { ++*token; });
    cancelled->arm(Duration::millis(2));
    sched.schedule_in(Duration::millis(10), [token] { ++*token; });
    Timer late(sched, [token] { ++*token; });
    late.arm(Duration::millis(10));
    // Past SmallFn's inline buffer, so the capture is boxed.
    const std::array<std::uint64_t, 8> pad{};
    auto boxed = [token, pad] { *token += 1 + static_cast<int>(pad[0]); };
    static_assert(sizeof(boxed) > util::SmallFn::kInlineBytes);
    sched.schedule_in(Duration::millis(20), std::move(boxed));
    EXPECT_EQ(token.use_count(), 6);
    EXPECT_TRUE(cancelled->cancel());

    EXPECT_EQ(sched.run_until(TimePoint::at(Duration::millis(5))), 1u);
    EXPECT_EQ(*token, 1);
    // The event that ran loses its captures after its call. A timer's
    // callback lives as long as the timer, cancelled or not, and the
    // timer's entry holds none of it.
    EXPECT_EQ(token.use_count(), 5);
    cancelled.reset();
    EXPECT_EQ(token.use_count(), 4);
  }
  // Destroying the scheduler releases the still-queued events' blocks,
  // which destroys their callbacks, the boxed one's box included; the
  // timer destroyed its own callback first.
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(*token, 1);
}

}  // namespace
}  // namespace hydra::sim
