// TCP edge cases: window clamping, silly-window avoidance, go-back-N
// semantics, receiver reassembly corner cases, RTT/RTO evolution.
#include <gtest/gtest.h>

#include <vector>

#include "sim/simulation.h"
#include "transport/mux.h"
#include "transport/tcp.h"

namespace hydra::transport {
namespace {

const auto kIpA = proto::Ipv4Address::for_node(0);
const auto kIpB = proto::Ipv4Address::for_node(1);

// Records every packet crossing the pipe for post-hoc assertions.
struct InspectedPipe {
  sim::Simulation sim{1};
  TransportMux a{sim, kIpA};
  TransportMux b{sim, kIpB};
  std::vector<proto::Packet> a_to_b;
  std::vector<proto::Packet> b_to_a;
  std::function<bool(const proto::Packet&)> drop_a_to_b = [](auto&) {
    return false;
  };

  InspectedPipe() {
    a.send_packet = [this](proto::PacketPtr p) {
      a_to_b.push_back(*p);
      if (drop_a_to_b(*p)) return;
      sim.scheduler().schedule_in(sim::Duration::millis(5),
                                  [this, p] { b.deliver(p); });
    };
    b.send_packet = [this](proto::PacketPtr p) {
      b_to_a.push_back(*p);
      sim.scheduler().schedule_in(sim::Duration::millis(5),
                                  [this, p] { a.deliver(p); });
    };
  }
};

TEST(TcpEdge, FlightNeverExceedsReceiverWindow) {
  TcpConfig cfg;
  cfg.recv_window = 4 * cfg.mss;  // tight window
  InspectedPipe pipe;
  std::uint64_t received = 0;
  pipe.b.tcp_listen(5001, cfg, [&](TcpConnection& c) {
    c.on_data = [&](std::uint64_t n) { received += n; };
  });
  auto& client = pipe.a.tcp_connect({kIpB, 5001}, cfg);
  client.send(60'000);

  // Check the invariant at every event boundary.
  std::uint64_t max_flight = 0;
  while (pipe.sim.scheduler().pending_events() > 0) {
    pipe.sim.scheduler().step();
    max_flight = std::max(max_flight, client.bytes_in_flight());
  }
  EXPECT_EQ(received, 60'000u);
  EXPECT_LE(max_flight, std::uint64_t{4} * cfg.mss + 1);  // +1 for the FIN
}

TEST(TcpEdge, AllMidStreamSegmentsAreFullMss) {
  // The silly-window guard: only the final segment may be sub-MSS.
  InspectedPipe pipe;
  pipe.b.tcp_listen(5001, {}, [](TcpConnection&) {});
  auto& client = pipe.a.tcp_connect({kIpB, 5001});
  client.send(10 * 1357 + 500);
  pipe.sim.run_for(sim::Duration::seconds(30));

  std::vector<std::uint32_t> data_sizes;
  for (const auto& p : pipe.a_to_b) {
    if (p.payload_bytes > 0) data_sizes.push_back(p.payload_bytes);
  }
  ASSERT_EQ(data_sizes.size(), 11u);
  for (std::size_t i = 0; i + 1 < data_sizes.size(); ++i) {
    EXPECT_EQ(data_sizes[i], 1357u) << "segment " << i;
  }
  EXPECT_EQ(data_sizes.back(), 500u);
}

TEST(TcpEdge, PureAcksCarryNoPayloadAndCorrectFields) {
  InspectedPipe pipe;
  pipe.b.tcp_listen(5001, {}, [](TcpConnection&) {});
  auto& client = pipe.a.tcp_connect({kIpB, 5001});
  client.send(3 * 1357);
  pipe.sim.run_for(sim::Duration::seconds(10));

  int pure_acks = 0;
  for (const auto& p : pipe.b_to_a) {
    if (p.is_pure_tcp_ack()) {
      ++pure_acks;
      EXPECT_EQ(p.payload_bytes, 0u);
      EXPECT_TRUE(p.tcp->flags.ack);
      EXPECT_GT(p.tcp->window, 0u);
    }
  }
  EXPECT_GE(pure_acks, 3);  // one per data segment (at least)
}

TEST(TcpEdge, RtoBacksOffExponentiallyDuringBlackout) {
  InspectedPipe pipe;
  pipe.b.tcp_listen(5001, {}, [](TcpConnection&) {});
  auto& client = pipe.a.tcp_connect({kIpB, 5001});
  bool blackout = false;
  pipe.drop_a_to_b = [&](const proto::Packet&) { return blackout; };
  client.send(20 * 1357);
  pipe.sim.scheduler().schedule_in(sim::Duration::millis(30),
                                   [&] { blackout = true; });
  const auto rto_before = client.current_rto();
  pipe.sim.run_for(sim::Duration::seconds(10));
  // Several timeouts later the RTO has grown well past its floor.
  EXPECT_GE(client.stats().timeouts, 3u);
  EXPECT_GT(client.current_rto().ns(), 2 * rto_before.ns());
}

TEST(TcpEdge, DuplicateDataIsAckedButNotRedelivered) {
  InspectedPipe pipe;
  std::uint64_t received = 0;
  TcpConnection* server = nullptr;
  pipe.b.tcp_listen(5001, {}, [&](TcpConnection& c) {
    server = &c;
    c.on_data = [&](std::uint64_t n) { received += n; };
  });
  auto& client = pipe.a.tcp_connect({kIpB, 5001});
  client.send(2 * 1357);
  pipe.sim.run_for(sim::Duration::seconds(5));
  ASSERT_EQ(received, 2u * 1357);

  // Replay the first data segment at the server.
  proto::Packet replay;
  bool found = false;
  for (const auto& p : pipe.a_to_b) {
    if (p.payload_bytes > 0) {
      replay = p;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  const auto acks_before = server->stats().acks_sent;
  server->segment_arrived(replay);
  EXPECT_EQ(received, 2u * 1357);  // no duplicate delivery
  EXPECT_EQ(server->stats().acks_sent, acks_before + 1);  // but re-ACKed
}

TEST(TcpEdge, ReceiverMergesInterleavedOutOfOrderBlocks) {
  // Feed a server segments 1,3,5,2,4 directly and verify in-order
  // delivery with correct deltas.
  sim::Simulation sim(1);
  std::vector<proto::PacketPtr> out;
  TcpConnection server(sim, {}, {kIpB, 5001}, {kIpA, 40000},
                       [&](proto::PacketPtr p) { out.push_back(std::move(p)); });
  proto::TcpHeader syn;
  syn.src_port = 40000;
  syn.dst_port = 5001;
  syn.seq = 1000;
  syn.flags = {.syn = true};
  syn.window = 65000;
  server.accept(syn);

  std::vector<std::uint64_t> deliveries;
  server.on_data = [&](std::uint64_t n) { deliveries.push_back(n); };

  // Segments must acknowledge the server's SYN-ACK (server ISS is
  // kClientIss + 10000 = 20000) or the kSynReceived state drops them.
  const auto seg = [&](std::uint32_t index) {
    return proto::make_tcp_packet(kIpA, kIpB, 40000, 5001,
                                1001 + index * 100, 20'001, {.ack = true},
                                65000, 100);
  };
  server.segment_arrived(*seg(0));           // in order: deliver 100
  server.segment_arrived(*seg(2));           // hole at 1
  server.segment_arrived(*seg(4));           // hole at 1, 3
  server.segment_arrived(*seg(1));           // fills to end of 2: +200
  server.segment_arrived(*seg(3));           // fills the rest: +200
  EXPECT_EQ(deliveries,
            (std::vector<std::uint64_t>{100, 200, 200}));
  EXPECT_EQ(server.delivered_bytes(), 500u);
  EXPECT_EQ(server.stats().out_of_order_segments, 2u);
}

TEST(TcpEdge, ZeroWindowPeerStallsSender) {
  sim::Simulation sim(1);
  std::vector<proto::PacketPtr> out;
  TcpConnection client(sim, {}, {kIpA, 40000}, {kIpB, 5001},
                       [&](proto::PacketPtr p) { out.push_back(std::move(p)); });
  client.connect();
  // Hand-craft a SYN-ACK advertising a zero window.
  proto::TcpHeader synack;
  synack.src_port = 5001;
  synack.dst_port = 40000;
  synack.seq = 5000;
  synack.ack = 10'001;  // client ISS + 1
  synack.flags = {.syn = true, .ack = true};
  synack.window = 0;
  proto::Packet pkt;
  pkt.ip.src = kIpB;
  pkt.ip.dst = kIpA;
  pkt.ip.protocol = proto::kProtoTcp;
  pkt.tcp = synack;
  client.segment_arrived(pkt);
  ASSERT_EQ(client.state(), TcpConnection::State::kEstablished);

  out.clear();
  client.send(10 * 1357);
  // Zero window: at most one probe-sized segment may leave.
  std::size_t data_segments = 0;
  for (const auto& p : out) {
    if (p->payload_bytes > 0) ++data_segments;
  }
  EXPECT_LE(data_segments, 1u);
}

// ---------------------------------------------------------------------
// Delayed-ACK edges. A hand-fed server (the ReceiverMerges pattern)
// makes the ack-now/delay decisions directly observable: acks_sent
// moves only when an ACK actually left, delack_pending() exposes the
// timer.
// ---------------------------------------------------------------------

namespace {

// Server in kSynReceived with a delayed/adaptive ACK policy, plus a
// segment factory acknowledging its SYN-ACK (ISS 20000).
struct DelAckServer {
  sim::Simulation sim{1};
  std::vector<proto::PacketPtr> out;
  TcpConnection conn;

  explicit DelAckServer(TcpConfig cfg)
      : conn(sim, cfg, {kIpB, 5001}, {kIpA, 40000},
             [this](proto::PacketPtr p) { out.push_back(std::move(p)); }) {
    proto::TcpHeader syn;
    syn.src_port = 40000;
    syn.dst_port = 5001;
    syn.seq = 1000;
    syn.flags = {.syn = true};
    syn.window = 65000;
    conn.accept(syn);
  }

  proto::PacketPtr seg(std::uint32_t index) const {
    return proto::make_tcp_packet(kIpA, kIpB, 40000, 5001,
                                1001 + index * 100, 20'001, {.ack = true},
                                65000, 100);
  }
};

TcpConfig delayed_cfg() {
  TcpConfig cfg;
  cfg.tuning.ack = AckScheme::kDelayed;
  return cfg;
}

}  // namespace

TEST(TcpEdge, DelayedAckHoldsInOrderDataButAcksOutOfOrderNow) {
  DelAckServer server(delayed_cfg());
  server.conn.segment_arrived(*server.seg(0));  // in order: held
  EXPECT_EQ(server.conn.stats().acks_sent, 0u);
  EXPECT_EQ(server.conn.stats().acks_delayed, 1u);
  EXPECT_TRUE(server.conn.delack_pending());

  // Out-of-order arrival: the duplicate ACK the sender's fast
  // retransmit depends on must leave immediately, policy or not, and
  // it covers (cancels) the pending delack.
  server.conn.segment_arrived(*server.seg(2));
  EXPECT_EQ(server.conn.stats().acks_sent, 1u);
  EXPECT_FALSE(server.conn.delack_pending());
}

TEST(TcpEdge, DelayedAckStretchCapForcesAckAtBoundary) {
  DelAckServer server(delayed_cfg());  // max_pending_segments = 2
  server.conn.segment_arrived(*server.seg(0));
  EXPECT_EQ(server.conn.stats().acks_sent, 0u);
  EXPECT_TRUE(server.conn.delack_pending());
  // Second in-order segment hits the stretch cap: ack-now.
  server.conn.segment_arrived(*server.seg(1));
  EXPECT_EQ(server.conn.stats().acks_sent, 1u);
  EXPECT_FALSE(server.conn.delack_pending());
  // And the held+forced pair counts one delayed decision, one forced.
  EXPECT_EQ(server.conn.stats().acks_delayed, 1u);
  // The cycle restarts cleanly for the next segment.
  server.conn.segment_arrived(*server.seg(2));
  EXPECT_EQ(server.conn.stats().acks_sent, 1u);
  EXPECT_TRUE(server.conn.delack_pending());
}

TEST(TcpEdge, FinArrivingWhileDelackPendingAcksImmediately) {
  DelAckServer server(delayed_cfg());
  server.conn.segment_arrived(*server.seg(0));
  ASSERT_TRUE(server.conn.delack_pending());

  // FIN right after the held segment: consumed, acknowledged now, and
  // the obsolete delack timer is gone.
  auto fin = proto::make_tcp_packet(kIpA, kIpB, 40000, 5001, 1101, 20'001,
                                  {.ack = true, .fin = true}, 65000, 0);
  server.conn.segment_arrived(*fin);
  EXPECT_EQ(server.conn.state(), TcpConnection::State::kClosedByPeer);
  EXPECT_EQ(server.conn.stats().acks_sent, 1u);
  EXPECT_FALSE(server.conn.delack_pending());
}

TEST(TcpEdge, AdaptiveDelackStretchesPastASlowArrivalGap) {
  // ack-adpt's deadline is clamp(gap_multiplier × gap_ewma, delay,
  // max_delay) = clamp(2 × gap, 100 ms, 200 ms). Before any gap is
  // measured it is the 100 ms floor, the same as ack-del; once segments
  // arrive 150 ms apart it stretches to the 200 ms ceiling, where ack-del
  // would fire at 100 ms.
  TcpConfig cfg;
  cfg.tuning.ack = AckScheme::kAdaptive;
  DelAckServer server(cfg);
  const auto& policy = server.conn.ack_policy();

  server.conn.segment_arrived(*server.seg(0));
  server.sim.run_for(sim::Duration::millis(150));
  EXPECT_EQ(server.conn.stats().delack_fires, 1u);  // the floor, at 100 ms
  EXPECT_EQ(server.conn.stats().acks_sent, 1u);

  server.conn.segment_arrived(*server.seg(1));  // 150 ms after segment 0
  EXPECT_EQ(policy.gap_estimate(), sim::Duration::millis(150));
  ASSERT_TRUE(server.conn.delack_pending());

  server.sim.run_for(sim::Duration::millis(150));
  EXPECT_TRUE(server.conn.delack_pending());  // a fixed 100 ms has fired
  EXPECT_EQ(server.conn.stats().delack_fires, 1u);

  server.sim.run_for(sim::Duration::millis(60));  // past the 200 ms deadline
  EXPECT_FALSE(server.conn.delack_pending());
  EXPECT_EQ(server.conn.stats().delack_fires, 2u);
  EXPECT_EQ(server.conn.stats().acks_sent, 2u);
}

TEST(TcpEdge, DelackTimerCancelledOnConnectionDestruction) {
  // A connection destroyed with a delack pending must take the timer
  // with it; were the firing to outlive the connection, the callback
  // would touch freed memory (ASan turns that into a hard failure —
  // this suite rides the sanitizer CI slices).
  sim::Simulation sim(1);
  std::vector<proto::PacketPtr> out;
  TcpConfig cfg;
  cfg.tuning.ack = AckScheme::kAdaptive;
  {
    TcpConnection conn(sim, cfg, {kIpB, 5001}, {kIpA, 40000},
                       [&](proto::PacketPtr p) { out.push_back(std::move(p)); });
    proto::TcpHeader syn;
    syn.src_port = 40000;
    syn.dst_port = 5001;
    syn.seq = 1000;
    syn.flags = {.syn = true};
    syn.window = 65000;
    conn.accept(syn);
    conn.segment_arrived(*proto::make_tcp_packet(kIpA, kIpB, 40000, 5001, 1001,
                                               20'001, {.ack = true}, 65000,
                                               100));
    ASSERT_TRUE(conn.delack_pending());
  }  // destroyed with the timer armed
  sim.run_for(sim::Duration::seconds(2));  // past any delack deadline
}

TEST(TcpEdge, KarnRuleAndRtoSurviveDelayedAcks) {
  // Delayed ACKs stretch the measured RTT but must never (a) fire the
  // sender's RTO spuriously — the delack deadline sits below rto_min by
  // construction — or (b) leak an RTT sample from a retransmitted
  // segment (Karn's rule) that would wreck the estimator.
  TcpConfig cfg;
  cfg.tuning.ack = AckScheme::kDelayed;
  InspectedPipe pipe;
  std::uint64_t received = 0;
  pipe.b.tcp_listen(5001, cfg, [&](TcpConnection& c) {
    c.on_data = [&](std::uint64_t n) { received += n; };
  });
  auto& client = pipe.a.tcp_connect({kIpB, 5001}, cfg);
  // Drop one mid-stream data segment: the receiver's immediate dup ACKs
  // (out-of-order path) drive a fast retransmit under the delayed
  // policy.
  int data_seen = 0;
  pipe.drop_a_to_b = [&](const proto::Packet& p) {
    if (p.payload_bytes == 0) return false;
    return ++data_seen == 5;
  };
  client.send(30 * 1357);
  pipe.sim.run_for(sim::Duration::seconds(30));

  EXPECT_EQ(received, 30u * 1357);
  EXPECT_GE(client.stats().retransmits, 1u);
  // No spurious RTO: every held ACK arrived well inside the 400 ms
  // floor.
  EXPECT_EQ(client.stats().timeouts, 0u);
  // Karn held: no retransmitted segment fed the estimator, so post-
  // recovery samples (10 ms pipe + ≤100 ms delack) keep the RTO clamped
  // at its floor rather than inflated by a bogus mega-sample.
  EXPECT_EQ(client.current_rto(), cfg.rto_min);
}

}  // namespace
}  // namespace hydra::transport
