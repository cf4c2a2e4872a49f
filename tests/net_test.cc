// Network-layer tests: routing, forwarding, TTL, full-stack multi-hop UDP.
#include <gtest/gtest.h>

#include "app/udp_cbr.h"
#include "app/udp_sink.h"
#include "net/discovery.h"
#include "net/node.h"
#include "net/routing.h"
#include "topo/scenario.h"
#include "transport/host.h"

namespace hydra::net {
namespace {

using topo::Scenario;

TEST(Routing, MacForIpMapping) {
  EXPECT_EQ(mac_for(proto::Ipv4Address::for_node(0)), proto::MacAddress::for_node(0));
  EXPECT_EQ(mac_for(proto::Ipv4Address::for_node(3)), proto::MacAddress::for_node(3));
  EXPECT_TRUE(mac_for(proto::Ipv4Address::broadcast()).is_broadcast());
}

TEST(Routing, NodeAddressesRoundTripOver16Bits) {
  for (const std::uint32_t i : {0u, 254u, 255u, 256u, 9999u}) {
    const auto ip = proto::Ipv4Address::for_node(i);
    const auto mac = proto::MacAddress::for_node(i);
    EXPECT_EQ(ip, proto::Ipv4Address::from_octets(
                      10, 0, static_cast<std::uint8_t>((i + 1) >> 8),
                      static_cast<std::uint8_t>((i + 1) & 0xff)))
        << i;
    EXPECT_EQ(ip.node_index(), i);
    EXPECT_EQ(mac_for(ip), mac) << i;
    EXPECT_EQ(ip_for(mac), ip) << i;
  }
  // Worlds of up to 255 nodes keep their 10.0.0.(i+1) addresses.
  EXPECT_EQ(proto::Ipv4Address::for_node(254),
            proto::Ipv4Address::from_octets(10, 0, 0, 255));
  EXPECT_EQ(proto::Ipv4Address::for_node(255),
            proto::Ipv4Address::from_octets(10, 0, 1, 0));
  EXPECT_FALSE(proto::Ipv4Address::from_octets(10, 0, 0, 0).node_index());
  EXPECT_FALSE(proto::Ipv4Address::from_octets(10, 1, 0, 1).node_index());
}

TEST(Routing, ExplicitRoutesAndDirectFallback) {
  RoutingTable rt;
  const auto a = proto::Ipv4Address::for_node(0);
  const auto b = proto::Ipv4Address::for_node(1);
  const auto c = proto::Ipv4Address::for_node(2);
  EXPECT_EQ(rt.next_hop(c), c);  // no route: direct
  rt.add_route(c, b);
  EXPECT_EQ(rt.next_hop(c), b);
  EXPECT_TRUE(rt.has_route(c));
  EXPECT_FALSE(rt.has_route(a));
  rt.add_route(c, a);  // replacement
  EXPECT_EQ(rt.next_hop(c), a);
  EXPECT_EQ(rt.size(), 1u);
}

// A chain with hop-by-hop static routes (the fixture default).
Scenario routed_chain(std::size_t n) {
  return Scenario::build(topo::ScenarioSpec::chain(n));
}

TEST(FullStack, TwoHopUdpForwarding) {
  auto chain = routed_chain(3);
  app::UdpSinkApp sink(chain.sim(), chain.node(2), 9001);
  auto& socket = transport::mux_of(chain.node(0)).open_udp(9000);
  socket.send_to({proto::Ipv4Address::for_node(2), 9001}, 1048);
  socket.send_to({proto::Ipv4Address::for_node(2), 9001}, 1048);
  chain.run_for(sim::Duration::seconds(2));

  EXPECT_EQ(sink.packets(), 2u);
  EXPECT_EQ(sink.payload_bytes(), 2096u);
  EXPECT_EQ(chain.node(1).stack().forwarded(), 2u);
  // The relay transmitted data frames; the destination none.
  EXPECT_GT(chain.node(1).mac_stats().data_frames_tx, 0u);
  EXPECT_EQ(chain.node(2).mac_stats().data_frames_tx, 0u);
}

TEST(FullStack, ThreeHopDelivery) {
  auto chain = routed_chain(4);
  app::UdpSinkApp sink(chain.sim(), chain.node(3), 9001);
  auto& socket = transport::mux_of(chain.node(0)).open_udp(9000);
  socket.send_to({proto::Ipv4Address::for_node(3), 9001}, 500);
  chain.run_for(sim::Duration::seconds(2));

  EXPECT_EQ(sink.packets(), 1u);
  EXPECT_EQ(chain.node(1).stack().forwarded(), 1u);
  EXPECT_EQ(chain.node(2).stack().forwarded(), 1u);
}

TEST(FullStack, ForwardingClonesExactlyOncePerHop) {
  // The copy-on-write contract of the forwarding path: packets travel
  // the stack as shared immutable pointers, and the only copy made on
  // the whole journey is the per-hop clone that decrements TTL. Each
  // relay therefore clones exactly as often as it forwards — a change
  // that reintroduces a defensive deep copy anywhere else shows up
  // here as clones > forwards.
  auto chain = routed_chain(5);
  app::UdpSinkApp sink(chain.sim(), chain.node(4), 9001);
  auto& socket = transport::mux_of(chain.node(0)).open_udp(9000);
  socket.send_to({proto::Ipv4Address::for_node(4), 9001}, 500);
  socket.send_to({proto::Ipv4Address::for_node(4), 9001}, 500);
  socket.send_to({proto::Ipv4Address::for_node(4), 9001}, 500);
  chain.run_for(sim::Duration::seconds(2));

  EXPECT_EQ(sink.packets(), 3u);
  for (const std::size_t relay : {1u, 2u, 3u}) {
    EXPECT_EQ(chain.node(relay).stack().forwarded(), 3u) << "relay " << relay;
    EXPECT_EQ(chain.node(relay).stack().header_clones(),
              chain.node(relay).stack().forwarded())
        << "relay " << relay;
  }
  // Originating and terminal nodes never rewrite a header: no clones.
  EXPECT_EQ(chain.node(0).stack().header_clones(), 0u);
  EXPECT_EQ(chain.node(4).stack().header_clones(), 0u);
}

TEST(FullStack, LocalAndBroadcastDeliveryNeverClones) {
  // Read-only paths — local delivery at the destination and broadcast
  // reception (which is never re-flooded) — must share the parsed
  // packet, not copy it.
  auto chain = routed_chain(3);
  app::UdpSinkApp sink(chain.sim(), chain.node(1), 9001);
  auto& socket = transport::mux_of(chain.node(0)).open_udp(9000);
  socket.send_to({proto::Ipv4Address::for_node(1), 9001}, 200);  // one hop
  chain.node(0).stack().send(
      proto::make_flood_packet(proto::Ipv4Address::for_node(0), 40));
  chain.run_for(sim::Duration::seconds(2));

  EXPECT_EQ(sink.packets(), 1u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(chain.node(i).stack().header_clones(), 0u) << "node " << i;
  }
}

TEST(FullStack, BroadcastReachesNeighboursWithoutReflooding) {
  auto chain = routed_chain(3);
  int rx1 = 0, rx2 = 0;
  chain.node(1).stack().on_broadcast = [&](const proto::PacketPtr&) { ++rx1; };
  chain.node(2).stack().on_broadcast = [&](const proto::PacketPtr&) { ++rx2; };

  chain.node(0).stack().send(
      proto::make_flood_packet(proto::Ipv4Address::for_node(0), 40));
  chain.run_for(sim::Duration::seconds(1));

  EXPECT_EQ(rx1, 1);
  EXPECT_EQ(rx2, 1);  // single radio transmission reaches both
  // Nobody forwarded the broadcast (no duplicate deliveries).
  EXPECT_EQ(chain.node(1).stack().forwarded(), 0u);
  EXPECT_EQ(chain.node(2).stack().forwarded(), 0u);
}

TEST(FullStack, TtlExpiresOnRoutingLoop) {
  auto chain = routed_chain(2);
  // Deliberate loop: both nodes route "node 9" at each other.
  const auto phantom = proto::Ipv4Address::from_octets(10, 0, 0, 99);
  chain.node(0).routes().add_route(phantom, proto::Ipv4Address::for_node(1));
  chain.node(1).routes().add_route(phantom, proto::Ipv4Address::for_node(0));

  transport::mux_of(chain.node(0)).open_udp(9000).send_to({phantom, 1}, 100);
  chain.run_for(sim::Duration::seconds(30));

  EXPECT_EQ(chain.node(0).stack().ttl_drops() +
                chain.node(1).stack().ttl_drops(),
            1u);
}

TEST(FullStack, UdpSaturationDropsAtQueueNotSilently) {
  auto chain = routed_chain(3);
  app::UdpSinkApp sink(chain.sim(), chain.node(2), 9001);
  app::UdpCbrConfig cfg;
  cfg.destination = {proto::Ipv4Address::for_node(2), 9001};
  cfg.interval = sim::Duration::millis(10);
  cfg.packets_per_tick = 8;  // far above channel capacity
  cfg.stop = sim::TimePoint::at(sim::Duration::seconds(5));
  app::UdpCbrApp cbr(chain.sim(), chain.node(0), cfg);
  cbr.start();
  chain.run_for(sim::Duration::seconds(8));

  EXPECT_GT(cbr.packets_sent(), 100u);
  EXPECT_GT(sink.packets(), 0u);
  EXPECT_LT(sink.packets(), cbr.packets_sent());
  // The shortfall is visible as queue drops at the source and/or relay.
  const auto drops = chain.node(0).mac_stats().queue_drops +
                     chain.node(1).mac_stats().queue_drops;
  EXPECT_GT(drops, 0u);
}

TEST(Node, AddressingAccessors) {
  auto chain = routed_chain(2);
  EXPECT_EQ(chain.node(0).ip(), proto::Ipv4Address::for_node(0));
  EXPECT_EQ(chain.node(1).link_address(), proto::MacAddress::for_node(1));
  EXPECT_EQ(chain.node(0).index(), 0u);
}

}  // namespace
}  // namespace hydra::net
