// Robustness & fuzz tests: randomized scheduler workloads checked
// against a reference model, TCP under random bidirectional loss,
// airtime-capped aggregation invariants, and time-series accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "core/aggregator.h"
#include "sim/rng.h"
#include "sim/scheduler.h"
#include "sim/simulation.h"
#include "sim/timer.h"
#include "stats/timeseries.h"
#include "transport/mux.h"

namespace hydra {
namespace {

// ---------------------------------------------------------------------
// Scheduler fuzz: random arm/cancel interleavings must execute in exact
// (time, insertion) order and never run cancelled firings.
// ---------------------------------------------------------------------

class SchedulerFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerFuzz, MatchesReferenceModel) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()));
  sim::Scheduler sched;

  struct Ref {
    std::int64_t at_ns;
    std::uint64_t seq;
    bool cancelled = false;
  };
  std::vector<Ref> reference;
  std::vector<std::uint64_t> executed;
  std::vector<std::unique_ptr<sim::Timer>> timers;

  for (int i = 0; i < 400; ++i) {
    const auto at = sim::Duration::micros(
        static_cast<std::int64_t>(rng.uniform_int(0, 10'000)));
    const auto seq = static_cast<std::uint64_t>(i);
    timers.push_back(std::make_unique<sim::Timer>(
        sched, [&executed, seq] { executed.push_back(seq); }));
    timers.back()->arm(at);
    reference.push_back({at.ns(), seq});
    // Randomly cancel an earlier (possibly already cancelled) firing.
    if (rng.bernoulli(0.25)) {
      const auto victim = rng.uniform_int(0, timers.size() - 1);
      if (timers[victim]->cancel()) {
        reference[victim].cancelled = true;
      }
    }
  }
  sched.run();

  std::vector<std::uint64_t> expected;
  std::vector<std::size_t> order(reference.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return reference[a].at_ns < reference[b].at_ns;
                   });
  for (const auto i : order) {
    if (!reference[i].cancelled) expected.push_back(reference[i].seq);
  }
  EXPECT_EQ(executed, expected);
}

// The same model under the medium's and the timers' patterns: batches of
// 1-90 events (sorted into one run each), fire-and-forget schedule_at
// events, and 8 real timers that are re-armed earlier and later,
// cancelled and destroyed (a fresh timer takes a dead one's place),
// from outside and from callbacks, their own included; and run_until
// slices. A timer's arm is an event scheduled at the arm, and a re-arm,
// cancel or death cancels its pending firing.
// Every event that is never cancelled runs once, at its time, in (time,
// scheduling order) order; cancel() succeeds exactly on timers whose
// firing has neither run nor been cancelled.
class FuzzWorld {
 public:
  explicit FuzzWorld(std::uint64_t seed) : rng_(seed) {
    for (std::size_t t = 0; t < kTimers; ++t) build(t);
  }

  void schedule_one() {
    const auto at = draw_time();
    const auto label = add(at);
    sched_.schedule_at(at, [this, label] { on_run(label); });
  }

  // Re-arms a random timer for a random time, earlier or later than its
  // pending firing, if any.
  void rearm() {
    const auto t = draw_timer();
    retire(t);
    const auto at = draw_time();
    firing_[t] = add(at);
    timers_[t]->arm(at - sched_.now());
  }

  void schedule_run() {
    // Half the runs are the size of a paper_tcp fan-out (5.6 events
    // on average), half up to a flood_10k one (85).
    const auto count = rng_.uniform_int(1, rng_.bernoulli(0.5) ? 6 : 90);
    std::vector<sim::TimePoint> times;
    for (std::uint64_t i = 0; i < count; ++i) times.push_back(draw_time());
    // A run takes its times in order; the labels follow them, so the
    // model sees the same events scheduled one by one in time order.
    std::sort(times.begin(), times.end());
    std::vector<std::size_t> labels;
    for (const auto at : times) labels.push_back(add(at));
    sched_.schedule_run(times.data(), times.size(),
                        [this, labels = std::move(labels),
                         next = std::size_t{0}]() mutable {
                          on_run(labels[next++]);
                        });
  }

  // Cancels each timer with probability `p`.
  void cancel_some(double p) {
    for (std::size_t t = 0; t < kTimers; ++t) {
      if (rng_.bernoulli(p)) cancel(t);
    }
  }

  // Cancels a random timer: armed or not.
  void cancel_one() { cancel(draw_timer()); }

  // Destroys a random timer, armed or not, and builds a fresh one in its
  // place.
  void kill_one() {
    const auto t = draw_timer();
    retire(t);
    timers_[t].reset();
    build(t);
  }

  void run_slice() {
    const auto deadline = sched_.now() + sim::Duration::micros(
        static_cast<std::int64_t>(rng_.uniform_int(0, 3'000)));
    sched_.run_until(deadline);
    EXPECT_EQ(sched_.now(), deadline);
    std::size_t queued = 0;
    for (const auto& event : events_) {
      const bool due = event.at <= deadline && !event.cancelled;
      EXPECT_EQ(event.ran, due);
      queued += !event.ran && !event.cancelled;
    }
    EXPECT_EQ(sched_.pending_events(), queued);
    for (std::size_t t = 0; t < kTimers; ++t) {
      EXPECT_EQ(timers_[t]->pending(), firing_[t] != kNone);
    }
  }

  void finish() {
    sched_.run();
    EXPECT_EQ(sched_.pending_events(), 0u);
    // The reference: a stable sort on time over scheduling order.
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < events_.size(); ++i) {
      if (!events_[i].cancelled) expected.push_back(i);
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [&](std::size_t a, std::size_t b) {
                       return events_[a].at < events_[b].at;
                     });
    EXPECT_EQ(executed_, expected);
  }

 private:
  struct Event {
    sim::TimePoint at;
    bool ran = false;
    bool cancelled = false;
  };

  // Times fall on a coarse grid, so events tie with each other within
  // runs and across them.
  sim::TimePoint draw_time() {
    return sched_.now() + sim::Duration::micros(static_cast<std::int64_t>(
                              50 * rng_.uniform_int(0, 200)));
  }

  std::size_t draw_timer() { return rng_.uniform_int(0, kTimers - 1); }

  void build(std::size_t t) {
    timers_[t] =
        std::make_unique<sim::Timer>(sched_, [this, t] { on_fire(t); });
  }

  // Cancels timer t's pending firing, if any, in the model.
  void retire(std::size_t t) {
    if (firing_[t] == kNone) return;
    events_[firing_[t]].cancelled = true;
    firing_[t] = kNone;
  }

  // Cancels timer t, checking the result against the model.
  void cancel(std::size_t t) {
    EXPECT_EQ(timers_[t]->cancel(), firing_[t] != kNone);
    retire(t);
  }

  std::size_t add(sim::TimePoint at) {
    events_.push_back({at});
    return events_.size() - 1;
  }

  // Timer t fired. Its callback may re-arm it or destroy it (the draws
  // in on_run may pick t), and touches neither afterwards.
  void on_fire(std::size_t t) {
    const auto label = firing_[t];
    ASSERT_NE(label, kNone);
    firing_[t] = kNone;
    on_run(label);
  }

  void on_run(std::size_t label) {
    auto& event = events_[label];
    EXPECT_FALSE(event.ran);
    EXPECT_FALSE(event.cancelled);
    EXPECT_EQ(sched_.now(), event.at);
    event.ran = true;
    executed_.push_back(label);
    if (events_.size() >= kMaxEvents) return;
    if (rng_.bernoulli(0.2)) schedule_one();
    if (rng_.bernoulli(0.02)) schedule_run();
    if (rng_.bernoulli(0.2)) cancel_one();
    if (rng_.bernoulli(0.2)) rearm();
    if (rng_.bernoulli(0.05)) kill_one();
  }

  static constexpr std::size_t kMaxEvents = 6'000;
  static constexpr std::size_t kTimers = 8;
  static constexpr std::size_t kNone = SIZE_MAX;

  sim::Rng rng_;
  sim::Scheduler sched_;
  std::vector<Event> events_;  // by label, in scheduling order
  std::vector<std::size_t> executed_;
  // Each timer and the label of its pending firing, if any. Declared
  // after the scheduler, so they die first.
  std::array<std::unique_ptr<sim::Timer>, kTimers> timers_;
  std::array<std::size_t, kTimers> firing_ = [] {
    std::array<std::size_t, kTimers> none;
    none.fill(kNone);
    return none;
  }();
};

TEST_P(SchedulerFuzz, BatchesCancelsAndSlicesMatchReferenceModel) {
  FuzzWorld world(static_cast<std::uint64_t>(GetParam()));
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 60; ++i) {
      const auto action = rng.uniform_int(0, 10);
      if (action < 2) {
        world.schedule_one();
      } else if (action < 4) {
        world.schedule_run();
      } else if (action < 6) {
        world.cancel_one();
      } else if (action < 8) {
        world.rearm();
      } else if (action < 9) {
        world.kill_one();
      } else {
        world.run_slice();
      }
    }
    // Half the timers cancelled, then a storm of re-arms: the entries
    // that re-arms earlier leave behind soon outnumber the live events,
    // so the queue is swept while runs of many events still wait in it.
    world.cancel_some(0.5);
    for (int i = 0; i < 400; ++i) world.rearm();
    world.run_slice();
  }
  world.finish();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerFuzz, ::testing::Range(1, 9));

// ---------------------------------------------------------------------
// TCP under random loss in both directions
// ---------------------------------------------------------------------

using LossParam = std::tuple<int /*loss pct*/, int /*seed*/>;

class TcpRandomLoss : public ::testing::TestWithParam<LossParam> {};

TEST_P(TcpRandomLoss, TransferIsExactDespiteLoss) {
  const auto [loss_pct, seed] = GetParam();
  sim::Simulation sim(static_cast<std::uint64_t>(seed));
  sim::Rng drop_rng(static_cast<std::uint64_t>(seed) * 7919);

  transport::TransportMux a(sim, proto::Ipv4Address::for_node(0));
  transport::TransportMux b(sim, proto::Ipv4Address::for_node(1));
  const double p = loss_pct / 100.0;
  const auto pipe = [&](transport::TransportMux& dst) {
    return [&sim, &dst, &drop_rng, p](proto::PacketPtr pkt) {
      if (drop_rng.bernoulli(p)) return;
      sim.scheduler().schedule_in(sim::Duration::millis(5),
                                  [&dst, pkt] { dst.deliver(pkt); });
    };
  };
  a.send_packet = pipe(b);
  b.send_packet = pipe(a);

  std::uint64_t received = 0;
  b.tcp_listen(5001, {}, [&](transport::TcpConnection& c) {
    c.on_data = [&](std::uint64_t n) { received += n; };
  });
  auto& client = a.tcp_connect({proto::Ipv4Address::for_node(1), 5001});
  client.send(120'000);
  sim.run_for(sim::Duration::seconds(600));

  EXPECT_EQ(received, 120'000u)
      << "loss " << loss_pct << "% seed " << seed;
  if (loss_pct > 0) {
    EXPECT_GT(client.stats().retransmits, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(LossSweep, TcpRandomLoss,
                         ::testing::Combine(::testing::Values(0, 2, 5, 10,
                                                              20),
                                            ::testing::Values(1, 2)));

// ---------------------------------------------------------------------
// Airtime-capped aggregation invariants
// ---------------------------------------------------------------------

class AirtimeCapProperty : public ::testing::TestWithParam<int> {};

TEST_P(AirtimeCapProperty, FramesNeverExceedTheAirtimeBudget) {
  const auto mode_idx = static_cast<std::size_t>(GetParam());
  auto policy = core::AggregationPolicy::ba();
  policy.max_aggregate_airtime = sim::Duration::millis(48);
  core::Aggregator agg(policy);
  const auto& mode = proto::mode_by_index(mode_idx);
  agg.set_modes(mode, mode);

  core::DualQueue q(256);
  for (int i = 0; i < 80; ++i) {
    proto::MacSubframe data;
    data.receiver = proto::MacAddress(1);
    data.packet = proto::make_udp_packet(proto::Ipv4Address::for_node(0),
                                       proto::Ipv4Address::for_node(1), 1, 2,
                                       1048);
    q.unicast().push(data, {});
    proto::MacSubframe ack;
    ack.receiver = proto::MacAddress(2);
    ack.packet = proto::make_tcp_packet(proto::Ipv4Address::for_node(1),
                                      proto::Ipv4Address::for_node(0), 2, 1, 0,
                                      0, {.ack = true}, 100, 0);
    q.broadcast().push(ack, {});
  }

  while (!q.empty()) {
    const auto frame = agg.build(q);
    ASSERT_FALSE(frame.empty());
    sim::Duration airtime = sim::Duration::zero();
    for (const auto& sf : frame.broadcast) {
      airtime += phy::payload_airtime(sf.wire_bytes(), mode);
    }
    for (const auto& sf : frame.unicast) {
      airtime += phy::payload_airtime(sf.wire_bytes(), mode);
    }
    if (frame.subframe_count() > 1) {
      EXPECT_LE(airtime, policy.max_aggregate_airtime);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, AirtimeCapProperty, ::testing::Range(0, 5));

TEST(AirtimeCap, AdmitsMoreAtHigherRates) {
  auto policy = core::AggregationPolicy::ua();
  policy.max_aggregate_airtime = sim::Duration::millis(48);

  const auto frames_at = [&](std::size_t mode_idx) {
    core::Aggregator agg(policy);
    const auto& mode = proto::mode_by_index(mode_idx);
    agg.set_modes(mode, mode);
    core::DualQueue q(256);
    for (int i = 0; i < 40; ++i) {
      proto::MacSubframe sf;
      sf.receiver = proto::MacAddress(1);
      sf.packet = proto::make_udp_packet(proto::Ipv4Address::for_node(0),
                                       proto::Ipv4Address::for_node(1), 1, 2,
                                       1048);
      q.unicast().push(sf, {});
    }
    std::size_t frames = 0;
    while (!q.empty()) {
      agg.build(q);
      ++frames;
    }
    return frames;
  };

  // 40 packets at 0.65 Mbps need many frames; at 2.6 Mbps a handful.
  EXPECT_GT(frames_at(0), frames_at(3) * 2);
}

// ---------------------------------------------------------------------
// Time-series accounting
// ---------------------------------------------------------------------

TEST(Timeline, BinsAndTotals) {
  stats::ThroughputTimeline tl(sim::Duration::seconds(1));
  tl.record(sim::TimePoint::at(sim::Duration::millis(100)), 125'000);
  tl.record(sim::TimePoint::at(sim::Duration::millis(900)), 125'000);
  tl.record(sim::TimePoint::at(sim::Duration::millis(2'500)), 250'000);

  EXPECT_EQ(tl.total_bytes(), 500'000u);
  EXPECT_EQ(tl.bins(), 3u);
  EXPECT_EQ(tl.bytes_in_bin(0), 250'000u);
  EXPECT_EQ(tl.bytes_in_bin(1), 0u);
  EXPECT_EQ(tl.bytes_in_bin(2), 250'000u);
  // 250 KB in a 1 s bin = 2 Mbps.
  EXPECT_DOUBLE_EQ(tl.mbps_in_bin(0), 2.0);
  EXPECT_DOUBLE_EQ(tl.mbps_in_bin(1), 0.0);
  EXPECT_EQ(tl.mbps_in_bin(99), 0.0);

  const auto series = tl.mbps_series();
  ASSERT_EQ(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series[2], 2.0);
}

TEST(Timeline, LateSampleDoesNotAllocateEveryElapsedBin) {
  // Regression: a single sample hours into a run used to resize the
  // bin vector densely from t = 0 (one slot per elapsed millisecond
  // here — O(sim-time) memory in long scenarios).
  stats::ThroughputTimeline tl(sim::Duration::millis(1));
  const auto late = sim::TimePoint::at(sim::Duration::seconds(7'200));
  tl.record(late, 1'000);
  EXPECT_EQ(tl.stored_bins(), 1u);
  EXPECT_EQ(tl.first_bin(), 7'200'000u);
  EXPECT_EQ(tl.bins(), 7'200'001u);
  EXPECT_EQ(tl.bytes_in_bin(7'200'000), 1'000u);
  EXPECT_EQ(tl.bytes_in_bin(0), 0u);
  EXPECT_EQ(tl.total_bytes(), 1'000u);
  // 1000 B in a 1 ms bin = 8 Mbps.
  EXPECT_DOUBLE_EQ(tl.mbps_in_bin(7'200'000), 8.0);
  EXPECT_EQ(tl.mbps_series().size(), 1u);

  // An even-later sample extends storage by the sample span only; an
  // earlier one grows the front without losing the offset.
  tl.record(late + sim::Duration::millis(10), 500);
  EXPECT_EQ(tl.stored_bins(), 11u);
  tl.record(sim::TimePoint::at(sim::Duration::millis(7'199'998)), 250);
  EXPECT_EQ(tl.first_bin(), 7'199'998u);
  EXPECT_EQ(tl.stored_bins(), 13u);
  EXPECT_EQ(tl.total_bytes(), 1'750u);
}

TEST(Timeline, SparklineRendersRelativeLevels) {
  EXPECT_EQ(stats::sparkline({}), "");
  const auto flat = stats::sparkline({0.0, 0.0});
  EXPECT_EQ(flat, "▁▁");
  const auto ramp = stats::sparkline({0.0, 1.0, 2.0, 4.0});
  EXPECT_EQ(ramp, "▁▂▄█");
}

}  // namespace
}  // namespace hydra
