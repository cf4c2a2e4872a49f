// Micro-benchmarks of the hot paths (google-benchmark): event scheduler,
// CRC-32/FCS, wire-format round trips, aggregate assembly, the route
// lookup, and a full small experiment as an end-to-end figure of merit.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "app/experiment.h"
#include "core/aggregator.h"
#include "proto/frames.h"
#include "proto/packet.h"
#include "sim/scheduler.h"
#include "sim/timer.h"
#include "topo/experiment.h"
#include "topo/scenario.h"
#include "util/crc32.h"

namespace {

using namespace hydra;

void BM_SchedulerScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Scheduler sched;
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sched.schedule_in(sim::Duration::micros(static_cast<std::int64_t>(
                            (i * 7919) % 100000)),
                        [&sum, i] { sum += i; });
    }
    sched.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SchedulerScheduleRun)->Arg(1000)->Arg(10000);

// The timer-heavy protocol pattern (MAC retries, TCP RTO): n timers
// armed, most cancelled before they fire, a quarter re-armed at new
// times (earlier or later than the queued entries they left), then
// drained. Scheduler and timers are built afresh each iteration.
void BM_SchedulerCancelChurn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Scheduler sched;
    std::uint64_t sum = 0;
    std::deque<sim::Timer> timers;
    for (std::size_t i = 0; i < n; ++i) {
      timers.emplace_back(sched, [&sum] { ++sum; });
      timers.back().arm(sim::Duration::micros(
          static_cast<std::int64_t>((i * 7919) % 100000)));
    }
    for (std::size_t i = 0; i < n; i += 2) {
      benchmark::DoNotOptimize(timers[i].cancel());
    }
    for (std::size_t i = 0; i < n; i += 4) {
      timers[i].arm(sim::Duration::micros(
          static_cast<std::int64_t>((i * 104729) % 100000)));
    }
    sched.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SchedulerCancelChurn)->Arg(1000)->Arg(10000);

// A transmission's delivery fan-out: runs of k events committed into a
// heap of n standing events (queued far ahead, so they never run) and
// run. Args mirror paper_tcp (5.6-event runs into a handful of events)
// and flood_10k (85-event runs beside 10k app timers).
void BM_SchedulerFanout(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  sim::Scheduler sched;
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sched.schedule_at(sim::TimePoint::at(sim::Duration::seconds(
                          1'000'000 + static_cast<std::int64_t>(i))),
                      [&sum] { ++sum; });
  }
  std::vector<sim::TimePoint> times;
  for (auto _ : state) {
    // rx_start/rx_end pairs, as the medium commits them: propagation
    // delays in delivery-list order, the ends one airtime later, sorted
    // into the run's time order.
    const auto now = sched.now();
    times.clear();
    for (std::size_t i = 0; i < k; ++i) {
      const auto prop = sim::Duration::nanos(
          static_cast<std::int64_t>((i / 2 * 7919) % 997));
      const auto airtime = sim::Duration::micros(i % 2 == 0 ? 0 : 300);
      times.push_back(now + prop + airtime);
    }
    std::sort(times.begin(), times.end());
    sched.schedule_run(times.data(), times.size(),
                       [&sum, i = std::size_t{0}]() mutable { sum += i++; });
    sched.run_until(now + sim::Duration::micros(301));
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k));
}
BENCHMARK(BM_SchedulerFanout)->Args({6, 8})->Args({85, 10000});

// paper_tcp's re-arm pattern: after every short event, a few timers
// (NAV, response timeout, RTO) are re-armed further ahead while their
// firings are still pending, so each event re-keys that many timers.
void BM_SchedulerRearm(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kEvents = 1000;
  for (auto _ : state) {
    sim::Scheduler sched;
    std::uint64_t fired = 0;
    std::deque<sim::Timer> timers;
    for (std::size_t i = 0; i < count; ++i) {
      timers.emplace_back(sched, [&fired] { ++fired; });
    }
    std::size_t left = kEvents;
    struct Tick {
      sim::Scheduler* sched;
      std::deque<sim::Timer>* timers;
      std::size_t* left;
      void operator()() const {
        for (auto& timer : *timers) timer.arm(sim::Duration::millis(200));
        if (--*left > 0) sched->schedule_in(sim::Duration::micros(10), *this);
      }
    };
    sched.schedule_in(sim::Duration::micros(10), Tick{&sched, &timers, &left});
    benchmark::DoNotOptimize(sched.run());
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kEvents));
}
BENCHMARK(BM_SchedulerRearm)->Arg(4);

void BM_Crc32(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(160)->Arg(1464)->Arg(5120);

proto::MacSubframe make_subframe() {
  proto::MacSubframe sf;
  sf.receiver = proto::MacAddress(1);
  sf.transmitter = proto::MacAddress(2);
  sf.source = proto::MacAddress(2);
  sf.sequence = 42;
  sf.packet = proto::make_tcp_packet(proto::Ipv4Address::for_node(0),
                                   proto::Ipv4Address::for_node(1), 1, 2, 100,
                                   200, {.ack = true}, 21712, 1357);
  return sf;
}

void BM_SubframeSerialize(benchmark::State& state) {
  const auto sf = make_subframe();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sf.serialize());
  }
}
BENCHMARK(BM_SubframeSerialize);

void BM_SubframeParse(benchmark::State& state) {
  const auto bytes = make_subframe().serialize();
  for (auto _ : state) {
    BufferReader r(bytes);
    benchmark::DoNotOptimize(proto::MacSubframe::parse(r));
  }
}
BENCHMARK(BM_SubframeParse);

void BM_AggregatorBuild(benchmark::State& state) {
  core::Aggregator agg(core::AggregationPolicy::ba());
  for (auto _ : state) {
    state.PauseTiming();
    core::DualQueue q(64);
    for (int i = 0; i < 4; ++i) {
      auto sf = make_subframe();
      q.unicast().push(sf, {});
      auto ack = make_subframe();
      ack.packet = proto::make_tcp_packet(proto::Ipv4Address::for_node(1),
                                        proto::Ipv4Address::for_node(0), 2, 1,
                                        0, 0, {.ack = true}, 21712, 0);
      q.broadcast().push(ack, {});
    }
    state.ResumeTiming();
    while (!q.empty()) {
      benchmark::DoNotOptimize(agg.build(q));
    }
  }
}
BENCHMARK(BM_AggregatorBuild);

// The per-packet route lookup of Ipv4Stack::transmit: every node of the
// paper's three-hop chain looks up every destination.
void BM_RouteLookup(benchmark::State& state) {
  auto scenario = topo::Scenario::build(topo::ScenarioSpec::three_hop(), 1);
  const auto n = static_cast<std::uint32_t>(scenario.size());
  for (auto _ : state) {
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto& routes = scenario.node(i).routes();
      for (std::uint32_t j = 0; j < n; ++j) {
        benchmark::DoNotOptimize(routes.next_hop(proto::Ipv4Address::for_node(j)));
      }
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n * n);
}
BENCHMARK(BM_RouteLookup);

void BM_FullExperimentTcp(benchmark::State& state) {
  for (auto _ : state) {
    topo::ExperimentConfig cfg;
    cfg.scenario = topo::ScenarioSpec::two_hop();
    cfg.scenario.node.policy = core::AggregationPolicy::ba();
    cfg.tcp_file_bytes = 50'000;
    benchmark::DoNotOptimize(app::run_experiment(cfg));
  }
}
BENCHMARK(BM_FullExperimentTcp)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
