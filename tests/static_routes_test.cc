// Static routes computed on demand: every node's RoutingTable answers
// from one net::StaticRoutes object shared by the whole scenario. These tests
// pin it to the spec's next-hop matrix for every family,
// keep learned routes on top of it, keep worlds above 255 nodes
// routable, and keep Scenario::build O(N).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "app/udp_sink.h"
#include "net/routing.h"
#include "topo/scenario.h"
#include "transport/host.h"
#include "util/alloc_stats.h"

namespace hydra::topo {
namespace {

proto::Ipv4Address ip(std::uint32_t i) { return proto::Ipv4Address::for_node(i); }

std::vector<ScenarioSpec> route_specs() {
  return {ScenarioSpec::chain(2),     ScenarioSpec::chain(5),
          ScenarioSpec::chain(300),   ScenarioSpec::star(1),
          ScenarioSpec::star(4),      ScenarioSpec::grid(3, 3),
          ScenarioSpec::grid(2, 5),   ScenarioSpec::grid(4, 7),
          ScenarioSpec::grid(16, 20), ScenarioSpec::ring(3),
          ScenarioSpec::ring(6),      ScenarioSpec::ring(9),
          ScenarioSpec::random(8, 1), ScenarioSpec::random(12, 3)};
}

TEST(StaticRoutes, TablesMatchTheSpecMatrixOnEveryBackend) {
  // Routes never read the medium, so one medium covers every case.
  for (const auto& spec : route_specs()) {
    const std::string where = spec.label();
    const auto hops = spec.next_hops();
    auto scenario = Scenario::build(spec, 1);
    const auto n = static_cast<std::uint32_t>(scenario.size());
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto& routes = scenario.node(i).routes();
      EXPECT_EQ(routes.size(), 0u) << where;  // nothing stored per node
      for (std::uint32_t j = 0; j < n; ++j) {
        ASSERT_EQ(routes.next_hop(ip(j)), ip(hops[i][j]))
            << where << ": " << i << " -> " << j;
        // The set the per-pair install used to write: every pair whose
        // next hop is not the destination itself.
        ASSERT_EQ(routes.has_route(ip(j)), i != j && hops[i][j] != j)
            << where << ": " << i << " -> " << j;
      }
    }
  }
}

TEST(StaticRoutes, ClosedFormsMatchTheMatrix) {
  for (const auto& spec : route_specs()) {
    if (spec.family == Family::kRandom) continue;
    const auto hops = spec.next_hops();
    const auto n = static_cast<std::uint32_t>(spec.node_count());
    for (std::uint32_t i = 0; i < n; ++i) {
      for (std::uint32_t j = 0; j < n; ++j) {
        ASSERT_EQ(spec.next_hop(i, j), hops[i][j]) << spec.label();
      }
    }
  }
}

TEST(StaticRoutes, NonNodeDestinationsAreDirect) {
  auto scenario = Scenario::build(ScenarioSpec::chain(4), 1);
  const auto& routes = scenario.node(0).routes();
  // Beyond the world, outside 10.0/16, and 10.0.0.0 itself.
  for (const auto dst : {ip(4), ip(999), proto::Ipv4Address::from_octets(192, 168, 0, 3),
                         proto::Ipv4Address::from_octets(10, 0, 0, 0)}) {
    EXPECT_EQ(routes.next_hop(dst), dst);
    EXPECT_FALSE(routes.has_route(dst));
  }
}

TEST(StaticRoutes, LearnedRouteOverridesTheStaticHop) {
  auto scenario = Scenario::build(ScenarioSpec::chain(4), 1);
  auto& routes = scenario.node(0).routes();
  ASSERT_EQ(routes.next_hop(ip(3)), ip(1));
  routes.add_route(ip(3), ip(2));
  EXPECT_EQ(routes.next_hop(ip(3)), ip(2));
  EXPECT_TRUE(routes.has_route(ip(3)));
  EXPECT_EQ(routes.size(), 1u);
  // A learned route to a direct neighbour counts as a route, too.
  routes.add_route(ip(1), ip(1));
  EXPECT_TRUE(routes.has_route(ip(1)));
  // Other destinations keep their static hops.
  EXPECT_EQ(routes.next_hop(ip(2)), ip(1));
}

TEST(StaticRoutes, DiscoveryOnlySpecsHaveNoStaticHops) {
  for (auto spec : {ScenarioSpec::chain(5), ScenarioSpec::grid(3, 4),
                    ScenarioSpec::random(10, 2)}) {
    spec.static_routes = false;
    spec.route_discovery = true;
    auto scenario = Scenario::build(spec, 1);
    const auto n = static_cast<std::uint32_t>(scenario.size());
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto& routes = scenario.node(i).routes();
      EXPECT_EQ(routes.size(), 0u);
      for (std::uint32_t j = 0; j < n; ++j) {
        ASSERT_EQ(routes.next_hop(ip(j)), ip(j)) << spec.label();
        ASSERT_FALSE(routes.has_route(ip(j))) << spec.label();
      }
    }
    // Relay identity still comes from the family's paths.
    EXPECT_EQ(scenario.relay_indices(), spec.relay_indices()) << spec.label();
  }
}

// 400 nodes: above the 255 the old one-octet addresses could tell apart.
TEST(StaticRoutes, LargeGridDeliversCornerToCornerAlongManhattanPath) {
  auto scenario = Scenario::build(ScenarioSpec::grid(20, 20), 1);
  constexpr std::uint32_t kLast = 399;
  app::UdpSinkApp sink(scenario.sim(), scenario.node(kLast), 9001);
  auto& socket = transport::mux_of(scenario.node(0)).open_udp(9000);
  for (int k = 0; k < 3; ++k) socket.send_to({ip(kLast), 9001}, 500);
  scenario.run_for(sim::Duration::seconds(5));
  EXPECT_EQ(sink.packets(), 3u);

  // X first along row 0, then up column 19.
  std::vector<std::uint32_t> path;
  for (std::uint32_t c = 1; c < 20; ++c) path.push_back(c);
  for (std::uint32_t r = 1; r < 19; ++r) path.push_back(r * 20 + 19);
  EXPECT_EQ(scenario.relay_indices(), path);
  std::vector<std::uint32_t> forwarders;
  for (std::uint32_t i = 0; i < scenario.size(); ++i) {
    if (scenario.node(i).stack().forwarded() > 0) forwarders.push_back(i);
  }
  std::sort(path.begin(), path.end());
  EXPECT_EQ(forwarders, path);
}

// Guards the O(N) build: the per-pair route install this replaced cost
// about 256 map nodes per node at N = 10 000.
TEST(StaticRoutes, BuildAllocatesLinearlyInNodeCount) {
  const auto spec = ScenarioSpec::grid(100, 100);
  ASSERT_TRUE(spec.static_routes);
  const auto before = util::alloc_snapshot();
  auto scenario = Scenario::build(spec, 1);
  const auto after = util::alloc_snapshot();
  const auto per_node =
      (after.allocations - before.allocations) / scenario.size();
  EXPECT_LT(per_node, 64u);
  EXPECT_EQ(scenario.node(0).routes().next_hop(ip(9999)), ip(1));
}

TEST(StaticRoutesDeathTest, OversizedWorldIsRejected) {
  // Index 65 534 would be link address 0xffff, the MAC broadcast.
  EXPECT_DEATH(Scenario::build(ScenarioSpec::chain(0xffff), 1), "65 534 nodes");
}

TEST(StaticRoutesDeathTest, RandomHasNoClosedFormHop) {
  EXPECT_DEATH(ScenarioSpec::random(6, 1).next_hop(0, 5), "kRandom");
}

}  // namespace
}  // namespace hydra::topo
