// Unit tests: time arithmetic, event scheduler, timers, RNG.
#include <gtest/gtest.h>

#include <vector>

#include "sim/rng.h"
#include "sim/scheduler.h"
#include "sim/simulation.h"
#include "sim/time.h"
#include "sim/timer.h"

namespace hydra::sim {
namespace {

TEST(Duration, UnitConstruction) {
  EXPECT_EQ(Duration::micros(1).ns(), 1'000);
  EXPECT_EQ(Duration::millis(1).ns(), 1'000'000);
  EXPECT_EQ(Duration::seconds(1).ns(), 1'000'000'000);
  EXPECT_EQ(Duration::from_seconds(0.5).ns(), 500'000'000);
  EXPECT_EQ(Duration::from_seconds(1e-9).ns(), 1);
  EXPECT_TRUE(Duration::zero().is_zero());
}

TEST(Duration, Arithmetic) {
  const auto a = Duration::millis(3);
  const auto b = Duration::micros(500);
  EXPECT_EQ((a + b).ns(), 3'500'000);
  EXPECT_EQ((a - b).ns(), 2'500'000);
  EXPECT_EQ((a * 2).ns(), 6'000'000);
  EXPECT_EQ((a / 3).ns(), 1'000'000);
  EXPECT_DOUBLE_EQ(a / b, 6.0);
  EXPECT_LT(b, a);
}

TEST(Duration, FloatViews) {
  const auto d = Duration::micros(1500);
  EXPECT_DOUBLE_EQ(d.micros_f(), 1500.0);
  EXPECT_DOUBLE_EQ(d.millis_f(), 1.5);
  EXPECT_DOUBLE_EQ(d.seconds_f(), 0.0015);
}

TEST(TimePoint, OffsetArithmetic) {
  const auto t0 = TimePoint::origin();
  const auto t1 = t0 + Duration::seconds(2);
  EXPECT_EQ((t1 - t0).ns(), 2'000'000'000);
  EXPECT_GT(t1, t0);
  EXPECT_EQ(TimePoint::at(Duration::millis(5)).ns(), 5'000'000);
}

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(TimePoint::at(Duration::millis(3)),
                    [&] { order.push_back(3); });
  sched.schedule_at(TimePoint::at(Duration::millis(1)),
                    [&] { order.push_back(1); });
  sched.schedule_at(TimePoint::at(Duration::millis(2)),
                    [&] { order.push_back(2); });
  EXPECT_EQ(sched.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), TimePoint::at(Duration::millis(3)));
}

TEST(Scheduler, SameTimeEventsRunFifo) {
  Scheduler sched;
  std::vector<int> order;
  const auto t = TimePoint::at(Duration::millis(1));
  for (int i = 0; i < 10; ++i) {
    sched.schedule_at(t, [&order, i] { order.push_back(i); });
  }
  sched.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, ScheduleInUsesCurrentTime) {
  Scheduler sched;
  TimePoint fired;
  sched.schedule_in(Duration::millis(5), [&] {
    sched.schedule_in(Duration::millis(7), [&] { fired = sched.now(); });
  });
  sched.run();
  EXPECT_EQ(fired, TimePoint::at(Duration::millis(12)));
}

// Only a timer's firing can be cancelled; schedule_at events always run.
TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  bool ran = false;
  Timer t(sched, [&] { ran = true; });
  t.arm(Duration::millis(1));
  EXPECT_TRUE(t.cancel());
  EXPECT_FALSE(t.cancel());  // double cancel reports failure
  EXPECT_EQ(sched.run(), 0u);
  EXPECT_FALSE(ran);
}

TEST(Scheduler, CancelInvalidIdIsRejected) {
  // A timer never armed has no firing to cancel.
  Scheduler sched;
  Timer t(sched, [] {});
  EXPECT_FALSE(t.cancel());
  EXPECT_EQ(sched.pending_events(), 0u);
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler sched;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sched.schedule_at(TimePoint::at(Duration::millis(i)), [&] { ++count; });
  }
  sched.run_until(TimePoint::at(Duration::millis(5)));
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sched.now(), TimePoint::at(Duration::millis(5)));
  sched.run();
  EXPECT_EQ(count, 10);
}

TEST(Scheduler, RunUntilAdvancesClockWhenIdle) {
  Scheduler sched;
  sched.run_until(TimePoint::at(Duration::seconds(3)));
  EXPECT_EQ(sched.now(), TimePoint::at(Duration::seconds(3)));
}

TEST(Scheduler, StepExecutesExactlyOneEvent) {
  Scheduler sched;
  int count = 0;
  sched.schedule_in(Duration::millis(1), [&] { ++count; });
  sched.schedule_in(Duration::millis(2), [&] { ++count; });
  EXPECT_TRUE(sched.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sched.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sched.step());
}

TEST(Scheduler, StepSkipsCancelledEvents) {
  Scheduler sched;
  bool ran = false;
  Timer t(sched, [] {});
  t.arm(Duration::millis(1));
  sched.schedule_in(Duration::millis(2), [&] { ran = true; });
  t.cancel();
  EXPECT_TRUE(sched.step());
  EXPECT_TRUE(ran);
  EXPECT_EQ(sched.executed_events(), 1u);
}

TEST(Scheduler, EventsScheduledDuringRunExecute) {
  Scheduler sched;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sched.schedule_in(Duration::millis(1), recurse);
  };
  sched.schedule_in(Duration::millis(1), recurse);
  sched.run();
  EXPECT_EQ(depth, 5);
}

TEST(Timer, FiresAfterDelay) {
  Scheduler sched;
  int fires = 0;
  Timer t(sched, [&] { ++fires; });
  t.arm(Duration::millis(2));
  EXPECT_TRUE(t.pending());
  EXPECT_EQ(t.deadline(), TimePoint::at(Duration::millis(2)));
  sched.run();
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(t.pending());
}

TEST(Timer, RearmReplacesPendingFiring) {
  Scheduler sched;
  int fires = 0;
  Timer t(sched, [&] { ++fires; });
  t.arm(Duration::millis(2));
  t.arm(Duration::millis(10));  // supersedes the first
  sched.run();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(sched.now(), TimePoint::at(Duration::millis(10)));
}

TEST(Timer, CancelStopsFiring) {
  Scheduler sched;
  int fires = 0;
  Timer t(sched, [&] { ++fires; });
  t.arm(Duration::millis(2));
  t.cancel();
  sched.run();
  EXPECT_EQ(fires, 0);
}

TEST(Timer, DestructionCancelsPendingFiring) {
  Scheduler sched;
  int fires = 0;
  {
    Timer t(sched, [&] { ++fires; });
    t.arm(Duration::millis(1));
  }
  sched.run();
  EXPECT_EQ(fires, 0);
}

TEST(Timer, CanRearmFromItsOwnCallback) {
  Scheduler sched;
  int fires = 0;
  Timer* tp = nullptr;
  Timer t(sched, [&] {
    if (++fires < 3) tp->arm(Duration::millis(1));
  });
  tp = &t;
  t.arm(Duration::millis(1));
  sched.run();
  EXPECT_EQ(fires, 3);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform_int(0, 1'000'000) == b.uniform_int(0, 1'000'000)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformIntWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 9);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 9u);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-1.0));
    EXPECT_TRUE(rng.bernoulli(2.0));
  }
}

TEST(Rng, BernoulliApproximatesProbability) {
  Rng rng(11);
  int hits = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(Simulation, RunForAdvancesClock) {
  Simulation s(1);
  int fired = 0;
  s.scheduler().schedule_in(Duration::millis(10), [&] { ++fired; });
  s.run_for(Duration::millis(5));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(s.now(), TimePoint::at(Duration::millis(5)));
  s.run_for(Duration::millis(5));
  EXPECT_EQ(fired, 1);
}

}  // namespace
}  // namespace hydra::sim
