// MAC state-machine tests: DCF exchange, aggregation behaviour on the
// air, TCP-ACK broadcast handling, retransmission and block-ACK.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mac/mac.h"
#include "phy/medium.h"
#include "phy/phy.h"
#include "proto/packet.h"
#include "sim/simulation.h"

namespace hydra::mac {
namespace {

struct TestNode {
  phy::Phy phy;
  Mac mac;
  std::vector<proto::PacketPtr> delivered;

  TestNode(sim::Simulation& s, phy::Medium& m, std::uint32_t index,
           const core::AggregationPolicy& policy, double x_m)
      : phy(s, m, {.position = {x_m, 0}}, index),
        mac(s, phy, make_config(index, policy)) {
    mac.on_deliver = [this](proto::PacketPtr p, proto::MacAddress) {
      delivered.push_back(std::move(p));
    };
  }

  static MacConfig make_config(std::uint32_t index,
                               const core::AggregationPolicy& policy) {
    MacConfig c;
    c.address = proto::MacAddress::for_node(index);
    c.policy = policy;
    return c;
  }
};

struct Harness {
  sim::Simulation sim{1};
  phy::Medium medium{sim};
  std::vector<std::unique_ptr<TestNode>> nodes;

  explicit Harness(std::size_t n,
                   core::AggregationPolicy policy = core::AggregationPolicy::ba()) {
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(
          std::make_unique<TestNode>(sim, medium, i, policy, 2.5 * i));
    }
  }

  TestNode& operator[](std::size_t i) { return *nodes[i]; }

  void run_ms(std::int64_t ms) { sim.run_for(sim::Duration::millis(ms)); }
};

proto::PacketPtr udp_pkt(std::uint32_t payload = 1048) {
  return proto::make_udp_packet(proto::Ipv4Address::for_node(0),
                              proto::Ipv4Address::for_node(1), 9000, 9001,
                              payload);
}

proto::PacketPtr ack_pkt() {
  return proto::make_tcp_packet(proto::Ipv4Address::for_node(1),
                              proto::Ipv4Address::for_node(0), 5001, 49152,
                              500, 600, {.ack = true}, 21712, 0);
}

TEST(MacDcf, UnicastDeliveryUsesRtsCtsAck) {
  Harness h(2);
  h[0].mac.enqueue(udp_pkt(), proto::MacAddress::for_node(1),
                   proto::MacAddress::for_node(0));
  h.run_ms(200);

  ASSERT_EQ(h[1].delivered.size(), 1u);
  EXPECT_EQ(h[0].mac.stats().rts_tx, 1u);
  EXPECT_EQ(h[1].mac.stats().cts_tx, 1u);
  EXPECT_EQ(h[1].mac.stats().ack_tx, 1u);
  EXPECT_EQ(h[0].mac.stats().acks_rx, 1u);
  EXPECT_EQ(h[0].mac.stats().data_frames_tx, 1u);
  EXPECT_EQ(h[0].mac.stats().retries, 0u);
}

TEST(MacDcf, RtsCtsCanBeDisabled) {
  Harness h(2);
  auto policy = core::AggregationPolicy::ba();
  MacConfig c = TestNode::make_config(9, policy);
  EXPECT_TRUE(c.use_rts_cts);  // default

  // Rebuild node 0's MAC without RTS/CTS via a fresh harness node.
  sim::Simulation sim(1);
  phy::Medium medium(sim);
  phy::Phy p0(sim, medium, {.position = {0, 0}}, 0);
  phy::Phy p1(sim, medium, {.position = {2.5, 0}}, 1);
  MacConfig c0 = TestNode::make_config(0, policy);
  c0.use_rts_cts = false;
  MacConfig c1 = TestNode::make_config(1, policy);
  c1.use_rts_cts = false;
  Mac m0(sim, p0, c0), m1(sim, p1, c1);
  int delivered = 0;
  m1.on_deliver = [&](proto::PacketPtr, proto::MacAddress) { ++delivered; };

  m0.enqueue(udp_pkt(), proto::MacAddress::for_node(1), proto::MacAddress::for_node(0));
  sim.run_for(sim::Duration::millis(200));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(m0.stats().rts_tx, 0u);
  EXPECT_EQ(m1.stats().cts_tx, 0u);
  EXPECT_EQ(m1.stats().ack_tx, 1u);  // data still acknowledged
}

TEST(MacDcf, SenderDestroyedBetweenCtsAndDataIsNotCalledBack) {
  // The sender owes its data frame SIFS after the CTS, and dies in that
  // gap. Under ASan, a data send left queued without the sender would be
  // a heap-use-after-free in Mac::send_data.
  Harness h(2);
  h[0].mac.enqueue(udp_pkt(), proto::MacAddress::for_node(1),
                   proto::MacAddress::for_node(0));
  // The sender's first received frame is the CTS; once it has left the
  // air, the data send is due one SIFS later.
  while (h[0].phy.frames_received() == 0) {
    ASSERT_TRUE(h.sim.scheduler().step());
  }
  EXPECT_EQ(h[1].mac.stats().cts_tx, 1u);
  h.nodes[0].reset();
  h.run_ms(200);

  EXPECT_TRUE(h[1].delivered.empty());
  EXPECT_EQ(h[1].mac.stats().ack_tx, 0u);
  EXPECT_EQ(h.sim.scheduler().pending_events(), 0u);
}

TEST(MacDcf, BroadcastNeedsNoControlFrames) {
  Harness h(3);
  h[0].mac.enqueue(proto::make_flood_packet(proto::Ipv4Address::for_node(0), 40),
                   proto::MacAddress::broadcast(), proto::MacAddress::for_node(0));
  h.run_ms(100);

  // Both neighbours deliver it; nobody acknowledges.
  EXPECT_EQ(h[1].delivered.size(), 1u);
  EXPECT_EQ(h[2].delivered.size(), 1u);
  EXPECT_EQ(h[0].mac.stats().rts_tx, 0u);
  EXPECT_EQ(h[1].mac.stats().ack_tx, 0u);
  EXPECT_EQ(h[2].mac.stats().ack_tx, 0u);
  EXPECT_EQ(h[0].mac.stats().broadcast_subframes_tx, 1u);
}

TEST(MacAggregation, QueuedPacketsShareOnePhyFrame) {
  Harness h(2, core::AggregationPolicy::ua());
  for (int i = 0; i < 3; ++i) {
    h[0].mac.enqueue(udp_pkt(), proto::MacAddress::for_node(1),
                     proto::MacAddress::for_node(0));
  }
  h.run_ms(300);

  ASSERT_EQ(h[1].delivered.size(), 3u);
  // 3 x 1140 B fits one 5 KB aggregate.
  EXPECT_EQ(h[0].mac.stats().data_frames_tx, 1u);
  EXPECT_EQ(h[0].mac.stats().unicast_subframes_tx, 3u);
  EXPECT_EQ(h[0].mac.stats().rts_tx, 1u);   // one floor acquisition
  EXPECT_EQ(h[1].mac.stats().ack_tx, 1u);   // one ACK for the burst
}

TEST(MacAggregation, NaPolicySendsFramesIndividually) {
  Harness h(2, core::AggregationPolicy::na());
  for (int i = 0; i < 3; ++i) {
    h[0].mac.enqueue(udp_pkt(), proto::MacAddress::for_node(1),
                     proto::MacAddress::for_node(0));
  }
  h.run_ms(500);

  ASSERT_EQ(h[1].delivered.size(), 3u);
  EXPECT_EQ(h[0].mac.stats().data_frames_tx, 3u);
  EXPECT_EQ(h[0].mac.stats().rts_tx, 3u);
}

TEST(MacTcpAck, ClassifiedIntoBroadcastPortionAndNotAcked) {
  Harness h(2);
  h[0].mac.enqueue(ack_pkt(), proto::MacAddress::for_node(1),
                   proto::MacAddress::for_node(0));
  h.run_ms(100);

  ASSERT_EQ(h[1].delivered.size(), 1u);
  EXPECT_TRUE(h[1].delivered[0]->is_pure_tcp_ack());
  // Rode in the broadcast portion: no RTS, no link ACK.
  EXPECT_EQ(h[0].mac.stats().broadcast_subframes_tx, 1u);
  EXPECT_EQ(h[0].mac.stats().unicast_subframes_tx, 0u);
  EXPECT_EQ(h[0].mac.stats().rts_tx, 0u);
  EXPECT_EQ(h[1].mac.stats().ack_tx, 0u);
  EXPECT_EQ(h[0].mac.classifier().acks_classified(), 1u);
}

TEST(MacTcpAck, OverhearingNodeDropsUnaddressedAck) {
  Harness h(3);
  // Node 0 sends a TCP ACK whose link next hop is node 1; node 2 hears it.
  h[0].mac.enqueue(ack_pkt(), proto::MacAddress::for_node(1),
                   proto::MacAddress::for_node(0));
  h.run_ms(100);

  EXPECT_EQ(h[1].delivered.size(), 1u);
  EXPECT_TRUE(h[2].delivered.empty());  // dropped at the MAC (paper §3.3)
  EXPECT_EQ(h[2].mac.stats().dropped_not_for_us, 1u);
}

TEST(MacTcpAck, BidirectionalAggregationInOneFrame) {
  Harness h(2);
  // Node 0 has TCP data for node 1 AND a TCP ACK for node 1 queued: the
  // ACK rides the broadcast portion of the same PHY frame.
  h[0].mac.enqueue(ack_pkt(), proto::MacAddress::for_node(1),
                   proto::MacAddress::for_node(0));
  h[0].mac.enqueue(proto::make_tcp_packet(proto::Ipv4Address::for_node(0),
                                        proto::Ipv4Address::for_node(1), 49152,
                                        5001, 0, 0, {.ack = true}, 21712,
                                        1357),
                   proto::MacAddress::for_node(1), proto::MacAddress::for_node(0));
  h.run_ms(200);

  ASSERT_EQ(h[1].delivered.size(), 2u);
  EXPECT_EQ(h[0].mac.stats().data_frames_tx, 1u);
  EXPECT_EQ(h[0].mac.stats().broadcast_subframes_tx, 1u);
  EXPECT_EQ(h[0].mac.stats().unicast_subframes_tx, 1u);
}

TEST(MacTcpAck, UaPolicyKeepsAcksUnicast) {
  Harness h(2, core::AggregationPolicy::ua());
  h[0].mac.enqueue(ack_pkt(), proto::MacAddress::for_node(1),
                   proto::MacAddress::for_node(0));
  h.run_ms(100);

  ASSERT_EQ(h[1].delivered.size(), 1u);
  EXPECT_EQ(h[0].mac.stats().unicast_subframes_tx, 1u);
  EXPECT_EQ(h[0].mac.stats().broadcast_subframes_tx, 0u);
  EXPECT_EQ(h[1].mac.stats().ack_tx, 1u);  // link-acknowledged as usual
}

TEST(MacRetry, OversizedAggregateRetriesAndDrops) {
  // A 16 KB aggregate at 0.65 Mbps blows through the 62 ms coherence
  // time: tail subframes always fail, the whole unicast portion is
  // discarded (paper §4.2.2), and the sender eventually gives up.
  auto policy = core::AggregationPolicy::ua();
  policy.max_aggregate_bytes = 16 * 1024;
  Harness h(2, policy);
  for (int i = 0; i < 14; ++i) {
    h[0].mac.enqueue(udp_pkt(), proto::MacAddress::for_node(1),
                     proto::MacAddress::for_node(0));
  }
  h.run_ms(3000);

  EXPECT_EQ(h[1].delivered.size(), 0u);
  EXPECT_GT(h[0].mac.stats().retries, 0u);
  EXPECT_GT(h[0].mac.stats().retry_drops, 0u);
  EXPECT_GT(h[1].mac.stats().aggregate_discards, 0u);
}

TEST(MacRetry, BlockAckRecoversPartialAggregates) {
  // Same oversized aggregate, but with the block-ACK extension the good
  // prefix is delivered and only the tail is retransmitted.
  auto policy = core::AggregationPolicy::ua();
  policy.max_aggregate_bytes = 16 * 1024;
  policy.block_ack = true;
  Harness h(2, policy);
  for (int i = 0; i < 14; ++i) {
    h[0].mac.enqueue(udp_pkt(), proto::MacAddress::for_node(1),
                     proto::MacAddress::for_node(0));
  }
  h.run_ms(3000);

  // All 14 packets make it through, each delivered exactly once.
  EXPECT_EQ(h[1].delivered.size(), 14u);
  EXPECT_EQ(h[1].mac.stats().duplicates_suppressed +
                h[1].mac.stats().delivered_up,
            h[1].mac.stats().delivered_up + h[1].mac.stats().duplicates_suppressed);
  EXPECT_GT(h[0].mac.stats().retries, 0u);
  EXPECT_EQ(h[0].mac.stats().retry_drops, 0u);
}

TEST(MacQueue, OverflowCountsDrops) {
  auto policy = core::AggregationPolicy::ba();
  sim::Simulation sim(1);
  phy::Medium medium(sim);
  phy::Phy p0(sim, medium, {.position = {0, 0}}, 0);
  MacConfig c0 = TestNode::make_config(0, policy);
  c0.queue_limit = 4;
  phy::Phy p1(sim, medium, {.position = {2.5, 0}}, 1);
  Mac m1(sim, p1, TestNode::make_config(1, policy));
  Mac m0(sim, p0, c0);

  for (int i = 0; i < 10; ++i) {
    m0.enqueue(udp_pkt(), proto::MacAddress::for_node(1), proto::MacAddress::for_node(0));
  }
  EXPECT_GT(m0.stats().queue_drops, 0u);
}

TEST(MacNav, ContendersAllDeliverDespitePossibleCollisions) {
  Harness h(3);
  // Nodes 0 and 2 contend for the same receiver. Their initial backoff
  // draws may collide (that is DCF working as designed); RTS
  // retransmission with a doubled contention window must recover, and
  // nothing may be lost or duplicated.
  for (int i = 0; i < 3; ++i) {
    h[0].mac.enqueue(udp_pkt(), proto::MacAddress::for_node(1),
                     proto::MacAddress::for_node(0));
  }
  h[2].mac.enqueue(udp_pkt(), proto::MacAddress::for_node(1),
                   proto::MacAddress::for_node(2));
  h.run_ms(1000);

  EXPECT_EQ(h[1].delivered.size(), 4u);
  EXPECT_EQ(h[0].mac.stats().retry_drops, 0u);
  EXPECT_EQ(h[2].mac.stats().retry_drops, 0u);
  EXPECT_EQ(h[1].mac.stats().duplicates_suppressed, 0u);
}

TEST(MacNav, OverhearingNodeDefersUntilExchangeEnds) {
  Harness h(3);
  // Node 0 starts alone; once its RTS is on the air node 2 gets traffic.
  // Node 2's NAV (set by the RTS) must hold it off: no collisions.
  for (int i = 0; i < 3; ++i) {
    h[0].mac.enqueue(udp_pkt(), proto::MacAddress::for_node(1),
                     proto::MacAddress::for_node(0));
  }
  h.sim.scheduler().schedule_in(sim::Duration::millis(2), [&] {
    h[2].mac.enqueue(udp_pkt(), proto::MacAddress::for_node(1),
                     proto::MacAddress::for_node(2));
  });
  h.run_ms(1000);

  EXPECT_EQ(h[1].delivered.size(), 4u);
  for (auto& n : h.nodes) {
    EXPECT_EQ(n->mac.stats().collisions, 0u)
        << "node " << n->mac.address().value();
  }
}

TEST(MacDelayed, RelayWaitsForThreeSubframes) {
  auto policy = core::AggregationPolicy::dba(3);
  Harness h(2, policy);
  // One packet: DBA holds it until the safety timeout.
  h[0].mac.enqueue(udp_pkt(), proto::MacAddress::for_node(1),
                   proto::MacAddress::for_node(0));
  h.run_ms(5);
  EXPECT_EQ(h[0].mac.stats().data_frames_tx, 0u);  // still held

  h.run_ms(100);  // past the delay safety timeout
  EXPECT_EQ(h[0].mac.stats().data_frames_tx, 1u);
  EXPECT_EQ(h[1].delivered.size(), 1u);
}

TEST(MacDelayed, ThresholdReleasesImmediately) {
  auto policy = core::AggregationPolicy::dba(3);
  Harness h(2, policy);
  for (int i = 0; i < 3; ++i) {
    h[0].mac.enqueue(udp_pkt(), proto::MacAddress::for_node(1),
                     proto::MacAddress::for_node(0));
  }
  // Transmission must *start* well before the 10 ms safety timeout
  // (access takes ≲ 1.5 ms), proving the threshold released the hold.
  h.run_ms(5);
  EXPECT_EQ(h[0].mac.stats().data_frames_tx, 1u);
  EXPECT_EQ(h[0].mac.stats().unicast_subframes_tx, 3u);
  h.run_ms(200);  // 3 x 1140 B at 0.65 Mbps needs ~42 ms on the air
  EXPECT_EQ(h[1].delivered.size(), 3u);
}

TEST(MacStatsTest, TimeAccountingConsistency) {
  Harness h(2);
  for (int i = 0; i < 5; ++i) {
    h[0].mac.enqueue(udp_pkt(), proto::MacAddress::for_node(1),
                     proto::MacAddress::for_node(0));
  }
  h.run_ms(1000);

  const auto& t = h[0].mac.stats().time;
  EXPECT_GT(t.payload.ns(), 0);
  EXPECT_GT(t.phy_header.ns(), 0);
  EXPECT_GT(t.control.ns(), 0);
  EXPECT_GT(t.ifs.ns(), 0);
  const auto f = t.overhead_fraction();
  EXPECT_GT(f, 0.0);
  EXPECT_LT(f, 1.0);
  EXPECT_EQ(t.total(), t.overhead() + t.payload);
}

}  // namespace
}  // namespace hydra::mac
