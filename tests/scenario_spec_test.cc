// The unified scenario subsystem: every family builds, routes correctly,
// runs deterministically, and the named paper specs reproduce the legacy
// topologies' structure.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "app/experiment.h"
#include "app/sweep.h"
#include "app/udp_cbr.h"
#include "app/udp_sink.h"
#include "topo/scenario.h"

namespace hydra::topo {
namespace {

// ---------------------------------------------------------------------
// Structure: counts, positions, routes, relays
// ---------------------------------------------------------------------

TEST(ScenarioSpec, FamilyNodeCounts) {
  EXPECT_EQ(ScenarioSpec::chain(5).node_count(), 5u);
  EXPECT_EQ(ScenarioSpec::star(3).node_count(), 5u);  // 3 senders + hub + rx
  EXPECT_EQ(ScenarioSpec::grid(3, 4).node_count(), 12u);
  EXPECT_EQ(ScenarioSpec::ring(6).node_count(), 6u);
  EXPECT_EQ(ScenarioSpec::random(9).node_count(), 9u);
}

TEST(ScenarioSpec, PaperSpecsMatchLegacyTopologies) {
  // The enum-era builders placed chains at 2.5 m spacing on the x axis
  // and the Fig. 6 star at its hand-tuned coordinates; the named specs
  // must reproduce them exactly (trace-digest equivalence depends on
  // byte-identical positions).
  const auto two = ScenarioSpec::two_hop().positions();
  ASSERT_EQ(two.size(), 3u);
  EXPECT_DOUBLE_EQ(two[1].x_m, 2.5);
  EXPECT_DOUBLE_EQ(two[2].x_m, 5.0);

  const auto star = ScenarioSpec::fig6_star();
  const auto pos = star.positions();
  ASSERT_EQ(pos.size(), 4u);
  EXPECT_DOUBLE_EQ(pos[0].x_m, -2.5);
  EXPECT_DOUBLE_EQ(pos[1].x_m, 0.0);
  EXPECT_DOUBLE_EQ(pos[2].x_m, 2.5 * 0.98);
  EXPECT_DOUBLE_EQ(pos[2].y_m, 2.5 * 0.2);
  EXPECT_DOUBLE_EQ(pos[3].y_m, -2.5 * 0.2);
  ASSERT_EQ(star.sessions.size(), 2u);
  EXPECT_EQ(star.sessions[0].sender, 2u);
  EXPECT_EQ(star.sessions[0].receiver, 0u);
  EXPECT_EQ(star.sessions[1].sender, 3u);
  EXPECT_EQ(star.relay_indices(), (std::vector<std::uint32_t>{1}));
}

TEST(ScenarioSpec, GridManhattanRoutes) {
  // 3x3 grid, indices row-major:  6 7 8
  //                               3 4 5
  //                               0 1 2
  const auto spec = ScenarioSpec::grid(3, 3);
  const auto hops = spec.next_hops();
  // X (column) corrected first: 0 -> 8 goes 0,1,2,5,8.
  EXPECT_EQ(hops[0][8], 1u);
  EXPECT_EQ(hops[1][8], 2u);
  EXPECT_EQ(hops[2][8], 5u);
  EXPECT_EQ(hops[5][8], 8u);
  // Same column: straight up/down.
  EXPECT_EQ(hops[1][7], 4u);
  EXPECT_EQ(hops[7][1], 4u);
  // Adjacent nodes deliver directly.
  EXPECT_EQ(hops[4][5], 5u);
  // The default corner-to-corner session relays along that path.
  EXPECT_EQ(spec.relay_indices(), (std::vector<std::uint32_t>{1, 2, 5}));
}

TEST(ScenarioSpec, GridRoutesDeliverEndToEnd) {
  ExperimentConfig cfg;
  cfg.scenario = ScenarioSpec::grid(2, 3);
  cfg.traffic = TrafficKind::kUdp;
  cfg.udp_duration = sim::Duration::seconds(5);
  const auto r = app::run_experiment(cfg);
  ASSERT_EQ(r.flows.size(), 1u);
  EXPECT_GT(r.flows[0].bytes, 0u);
  // The corner-to-corner path 0 -> 1 -> 2 -> 5 forwarded through both
  // column hops.
  EXPECT_FALSE(r.relay_indices.empty());
  EXPECT_GT(r.relay_stats().data_frames_tx, 0u);
}

TEST(ScenarioSpec, RingRoutesTakeShorterArc) {
  const auto spec = ScenarioSpec::ring(6);
  const auto hops = spec.next_hops();
  EXPECT_EQ(hops[0][1], 1u);  // neighbour: direct
  EXPECT_EQ(hops[0][2], 1u);  // two clockwise
  EXPECT_EQ(hops[0][5], 5u);  // one counter-clockwise: direct
  EXPECT_EQ(hops[0][4], 5u);  // two counter-clockwise
  EXPECT_EQ(hops[0][3], 1u);  // tie: clockwise
  // Default session crosses the ring through relays.
  EXPECT_EQ(spec.relay_indices(), (std::vector<std::uint32_t>{1, 2}));
}

TEST(ScenarioSpec, StarFamilyRelaysThroughHub) {
  const auto spec = ScenarioSpec::star(4);
  const auto hops = spec.next_hops();
  for (std::uint32_t leaf : {0u, 2u, 3u, 4u, 5u}) {
    for (std::uint32_t other : {0u, 2u, 3u, 4u, 5u}) {
      if (leaf == other) continue;
      EXPECT_EQ(hops[leaf][other], 1u);
    }
    EXPECT_EQ(hops[leaf][1], 1u);  // hub itself: direct
    EXPECT_EQ(hops[1][leaf], leaf);
  }
  EXPECT_EQ(spec.relay_indices(), (std::vector<std::uint32_t>{1}));
}

// Relay identity is a property of the session paths, not of how routes
// get installed: a discovery-routed scenario must keep the same relay
// set (and therefore the delayed-aggregation holdoff on its relays, and
// a working ExperimentResult::relay_stats()) as its static-routed twin.
TEST(ScenarioSpec, DiscoveryScenariosKeepRelayIdentity) {
  auto spec = ScenarioSpec::chain(4);
  spec.static_routes = false;
  spec.route_discovery = true;
  spec.neighbor_whitelist = true;
  EXPECT_EQ(spec.relay_indices(), (std::vector<std::uint32_t>{1, 2}));
  auto scenario = Scenario::build(spec, 1);
  EXPECT_EQ(scenario.relay_indices(), (std::vector<std::uint32_t>{1, 2}));
}

// ---------------------------------------------------------------------
// Random placement: connectivity property
// ---------------------------------------------------------------------

TEST(ScenarioSpec, RandomPlacementIsConnectedAndRoutable) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto spec = ScenarioSpec::random(12, seed);
    const std::size_t n = spec.node_count();

    // The nearest-neighbor graph is connected (BFS from 0 reaches all).
    const auto adj = spec.adjacency();
    std::set<std::uint32_t> reached{0};
    std::vector<std::uint32_t> frontier{0};
    while (!frontier.empty()) {
      const auto v = frontier.back();
      frontier.pop_back();
      for (const auto u : adj[v]) {
        if (reached.insert(u).second) frontier.push_back(u);
      }
    }
    EXPECT_EQ(reached.size(), n) << "seed " << seed;

    // Every pair's next-hop chain terminates within n hops and only
    // steps across links of the graph.
    const auto hops = spec.next_hops();
    for (std::uint32_t i = 0; i < n; ++i) {
      for (std::uint32_t j = 0; j < n; ++j) {
        if (i == j) continue;
        std::uint32_t cur = i;
        std::size_t steps = 0;
        while (cur != j && steps <= n) {
          const auto next = hops[cur][j];
          ASSERT_NE(next, cur) << "seed " << seed;
          EXPECT_TRUE(std::find(adj[cur].begin(), adj[cur].end(), next) !=
                      adj[cur].end())
              << "seed " << seed << ": hop " << cur << "->" << next
              << " is not a graph edge";
          cur = next;
          ++steps;
        }
        EXPECT_EQ(cur, j) << "seed " << seed << ": route " << i << "->" << j
                          << " did not terminate";
      }
    }
  }
}

TEST(ScenarioSpec, RandomPlacementIsSeedStable) {
  const auto a = ScenarioSpec::random(10, 42).positions();
  const auto b = ScenarioSpec::random(10, 42).positions();
  const auto c = ScenarioSpec::random(10, 43).positions();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].x_m, b[i].x_m);
    EXPECT_DOUBLE_EQ(a[i].y_m, b[i].y_m);
  }
  bool any_differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].x_m != c[i].x_m || a[i].y_m != c[i].y_m) any_differs = true;
  }
  EXPECT_TRUE(any_differs);
}

// ---------------------------------------------------------------------
// Determinism: identical seeds => identical traces, for every family
// ---------------------------------------------------------------------

std::uint32_t run_family_digest(const ScenarioSpec& spec,
                                std::uint64_t seed) {
  auto s = Scenario::build(spec, seed);
  s.capture_traces();
  const auto receiver = spec.sessions.front().receiver;
  const auto sender = spec.sessions.front().sender;
  app::UdpSinkApp sink(s.sim(), s.node(receiver), 9001);
  app::UdpCbrConfig cbr_cfg;
  cbr_cfg.destination = {proto::Ipv4Address::for_node(receiver), 9001};
  cbr_cfg.packets_per_tick = 2;
  cbr_cfg.stop = sim::TimePoint::at(sim::Duration::seconds(2));
  app::UdpCbrApp cbr(s.sim(), s.node(sender), cbr_cfg);
  cbr.start();
  s.run_for(sim::Duration::seconds(3));
  EXPECT_GT(sink.packets(), 0u) << spec.label();
  return s.trace_digest();
}

TEST(ScenarioSpec, EveryFamilyIsSeedDeterministic) {
  const ScenarioSpec specs[] = {
      ScenarioSpec::chain(4),  ScenarioSpec::star(3),
      ScenarioSpec::grid(2, 3), ScenarioSpec::ring(5),
      ScenarioSpec::random(6, 2)};
  for (const auto& spec : specs) {
    const auto a = run_family_digest(spec, 77);
    const auto b = run_family_digest(spec, 77);
    const auto c = run_family_digest(spec, 78);
    EXPECT_EQ(a, b) << spec.label();
    // A different simulation seed perturbs backoff somewhere.
    EXPECT_NE(a, c) << spec.label();
  }
}

// ---------------------------------------------------------------------
// K-sender star fairness smoke test
// ---------------------------------------------------------------------

TEST(ScenarioSpec, StarSendersShareTheRelayFairly) {
  ExperimentConfig cfg;
  cfg.scenario = ScenarioSpec::star(3);
  cfg.traffic = TrafficKind::kTcp;
  cfg.tcp_file_bytes = 40'000;
  const auto r = app::run_experiment(cfg);
  ASSERT_EQ(r.flows.size(), 3u);
  double best = 0.0, worst = 0.0;
  for (const auto& flow : r.flows) {
    EXPECT_TRUE(flow.completed);
    EXPECT_GT(flow.throughput_mbps, 0.0);
    best = std::max(best, flow.throughput_mbps);
    worst = worst == 0.0 ? flow.throughput_mbps
                         : std::min(worst, flow.throughput_mbps);
  }
  // Smoke bound: DCF luck aside, no sender should be starved to under a
  // quarter of the best.
  EXPECT_GT(worst, 0.25 * best);
}

// ---------------------------------------------------------------------
// The sweep driver
// ---------------------------------------------------------------------

// Whole-result equality: every flow, the medium and scheduler counters,
// and every MAC counter and airtime share of every node.
void expect_equal_results(const ExperimentResult& a,
                          const ExperimentResult& b) {
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t f = 0; f < a.flows.size(); ++f) {
    EXPECT_EQ(a.flows[f].completed, b.flows[f].completed);
    EXPECT_EQ(a.flows[f].bytes, b.flows[f].bytes);
    EXPECT_EQ(a.flows[f].elapsed.ns(), b.flows[f].elapsed.ns());
    EXPECT_EQ(a.flows[f].throughput_mbps, b.flows[f].throughput_mbps);
  }
  EXPECT_EQ(a.phy_transmissions, b.phy_transmissions);
  EXPECT_EQ(a.phy_deliveries, b.phy_deliveries);
  EXPECT_EQ(a.sched_executed_events, b.sched_executed_events);
  ASSERT_EQ(a.node_stats.size(), b.node_stats.size());
  for (std::size_t n = 0; n < a.node_stats.size(); ++n) {
    const auto& x = a.node_stats[n];
    const auto& y = b.node_stats[n];
    for (const auto counter :
         {&mac::MacStats::data_frames_tx,
          &mac::MacStats::broadcast_subframes_tx,
          &mac::MacStats::unicast_subframes_tx, &mac::MacStats::data_bytes_tx,
          &mac::MacStats::mac_header_bytes_tx, &mac::MacStats::rts_tx,
          &mac::MacStats::cts_tx, &mac::MacStats::ack_tx,
          &mac::MacStats::retries, &mac::MacStats::retry_drops,
          &mac::MacStats::queue_drops, &mac::MacStats::delivered_up,
          &mac::MacStats::dropped_not_for_us, &mac::MacStats::crc_failures,
          &mac::MacStats::aggregate_discards,
          &mac::MacStats::duplicates_suppressed, &mac::MacStats::acks_rx,
          &mac::MacStats::collisions}) {
      EXPECT_EQ(x.*counter, y.*counter) << "node " << n;
    }
    for (const auto share :
         {&mac::TimeAccounting::payload, &mac::TimeAccounting::mac_header,
          &mac::TimeAccounting::phy_header, &mac::TimeAccounting::control,
          &mac::TimeAccounting::ifs, &mac::TimeAccounting::backoff}) {
      EXPECT_EQ((x.time.*share).ns(), (y.time.*share).ns()) << "node " << n;
    }
  }
}

TEST(Sweep, GridExpansionAndParallelResultsMatchSerial) {
  app::SweepGrid grid;
  grid.scenarios = {{"", ScenarioSpec::two_hop()},
                    {"", ScenarioSpec::grid(2, 2)}};
  grid.policies = {{"na", core::AggregationPolicy::na()},
                   {"ba", core::AggregationPolicy::ba()}};
  grid.base.traffic = TrafficKind::kTcp;
  grid.base.tcp_file_bytes = 20'000;

  const auto points = app::expand_sweep(grid);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].scenario_label, "chain-3");
  EXPECT_EQ(points[0].policy_label, "na");
  EXPECT_EQ(points[3].scenario_label, "grid-2x2");
  EXPECT_EQ(points[3].policy_label, "ba");

  const auto serial = app::sweep_experiments(grid, 1);
  const auto parallel = app::sweep_experiments(grid, 4);
  ASSERT_EQ(serial.size(), 4u);
  ASSERT_EQ(parallel.size(), 4u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i].point.scenario_label, points[i].scenario_label);
    EXPECT_EQ(parallel[i].point.policy_label, points[i].policy_label);
    ASSERT_FALSE(serial[i].result.flows.empty());
    for (const auto& flow : serial[i].result.flows) {
      EXPECT_TRUE(flow.completed);
    }
    // Simulations are deterministic, so thread count cannot change
    // results — only wall-clock.
    expect_equal_results(serial[i].result, parallel[i].result);
  }
}

TEST(Sweep, ExpansionOverridesOnlyTheAxesItNames) {
  // The scenario axis carries every spec knob no axis names: a
  // rate-adaptation scheme and a non-default cull margin reach the point
  // as written.
  auto spec = ScenarioSpec::two_hop();
  spec.node.rate_adaptation = mac::RateAdaptationScheme::kSnr;
  spec.medium.cull_margin_db = 20.0;
  const transport::TransportTuning base_tuning{
      .cc = transport::CcScheme::kCerl, .ack = transport::AckScheme::kDelayed};
  const transport::TransportTuning adaptive{
      .cc = transport::CcScheme::kNewReno,
      .ack = transport::AckScheme::kAdaptive};

  app::SweepGrid grid;
  grid.scenarios = {{"", spec}};
  grid.base.tcp.tuning = base_tuning;
  grid.transports = {{"", std::nullopt}, {"", adaptive}, {"adpt", adaptive}};
  const auto points = app::expand_sweep(grid);
  ASSERT_EQ(points.size(), 3u);

  // A nullopt entry keeps the base tuning and the "" label.
  EXPECT_EQ(points[0].transport_label, "");
  EXPECT_EQ(points[0].config.tcp.tuning.cc, base_tuning.cc);
  EXPECT_EQ(points[0].config.tcp.tuning.ack, base_tuning.ack);
  // A concrete entry overrides it; an empty label reads as the tuning.
  EXPECT_EQ(points[1].transport_label, transport::to_string(adaptive));
  EXPECT_EQ(points[2].transport_label, "adpt");
  for (const std::size_t i : {1u, 2u}) {
    EXPECT_EQ(points[i].config.tcp.tuning.cc, adaptive.cc);
    EXPECT_EQ(points[i].config.tcp.tuning.ack, adaptive.ack);
  }

  for (const auto& point : points) {
    EXPECT_EQ(point.scenario_label, "chain-3");
    EXPECT_EQ(point.config.scenario.node.rate_adaptation,
              mac::RateAdaptationScheme::kSnr);
    EXPECT_EQ(point.config.scenario.medium.cull_margin_db, 20.0);
  }
}

}  // namespace
}  // namespace hydra::topo
