// Properties of the CERL loss differentiator, checked against NewReno
// as the reference scheme at two levels:
//
//  - Scheme-level, by driving a NewReno and a CERL CongestionControl
//    side by side through identical (seeded, LCG-generated) hook
//    scripts. When every loss classifies as congestion the two must
//    agree on the *exact* cwnd/ssthresh trajectory — CERL is NewReno
//    plus a classifier, so a congestion verdict must change nothing.
//    When every loss classifies as channel, CERL's ssthresh must never
//    drop below NewReno's (in fact it must not move at all).
//
//  - Connection-level, over a constant-delay pipe (flat RTT ⇒ channel
//    verdicts): a mid-stream drop costs NewReno half its window while
//    CERL retransmits without touching ssthresh.
//
// Everything here is deterministic: the "random" scripts come from a
// fixed linear congruential generator, and the pipe runs in the
// discrete-event sim. Registered under the `transport` ctest label.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/simulation.h"
#include "transport/congestion.h"
#include "transport/mux.h"
#include "transport/tcp.h"

namespace hydra::transport {
namespace {

constexpr std::uint32_t kMss = 1357;
constexpr std::uint32_t kInitialSsthresh = 0xffffffff;

CcView view_at(std::uint32_t flight, std::uint32_t snd_nxt,
               sim::Duration srtt) {
  return CcView{.mss = kMss,
                .flight_size = flight,
                .snd_nxt = snd_nxt,
                .rtt_valid = true,
                .srtt = srtt};
}

// ---------------------------------------------------------------------
// Classifier verdicts.
// ---------------------------------------------------------------------

TEST(TransportProperty, CerlClassifierVerdicts) {
  CongestionControl cerl{CcScheme::kCerl, 2 * kMss};  // alpha = 0.55

  // No RTT evidence yet: conservatively congestion.
  auto v = view_at(4 * kMss, 20'000, sim::Duration::millis(10));
  EXPECT_EQ(cerl.classify(v), LossKind::kCongestion);

  // Flat RTT (floor == ceiling): no queue ever built, so channel.
  cerl.on_rtt_sample(sim::Duration::millis(10));
  EXPECT_EQ(cerl.classify(v), LossKind::kChannel);

  // Widen the range to [10ms, 110ms]; threshold = 10 + 0.55*100 = 65ms.
  cerl.on_rtt_sample(sim::Duration::millis(110));
  EXPECT_EQ(cerl.rtt_floor(), sim::Duration::millis(10));
  EXPECT_EQ(cerl.rtt_ceiling(), sim::Duration::millis(110));

  v.srtt = sim::Duration::millis(65);  // exactly at the threshold: channel
  EXPECT_EQ(cerl.classify(v), LossKind::kChannel);
  v.srtt = sim::Duration::millis(65) + sim::Duration::nanos(1);
  EXPECT_EQ(cerl.classify(v), LossKind::kCongestion);

  // An invalid estimator (post-Karn reset) always means congestion.
  v.rtt_valid = false;
  v.srtt = sim::Duration::millis(10);
  EXPECT_EQ(cerl.classify(v), LossKind::kCongestion);
}

// ---------------------------------------------------------------------
// Scheme-level differential scripts. One seeded LCG generates the same
// episode sequence for both runs; the script mixes cumulative-ACK
// growth, dup-ack bursts (fast retransmit + inflation + full-ACK exit),
// partial ACKs inside recovery, and timeouts.
// ---------------------------------------------------------------------

class ScriptedPair {
 public:
  explicit ScriptedPair(sim::Duration srtt) : srtt_(srtt) {}

  CongestionControl& reno() { return reno_; }
  CongestionControl& cerl() { return cerl_; }

  // One scripted episode; `check` runs after every individual hook call.
  void run(unsigned rounds, const std::function<void(unsigned)>& check) {
    for (unsigned round = 0; round < rounds; ++round) {
      const std::uint32_t flight = (1 + rnd(16)) * kMss;
      snd_nxt_ += flight;
      const auto v = view_at(flight, snd_nxt_, srtt_);
      switch (rnd(8)) {
        case 0: {  // dup-ack burst into fast retransmit, then full ACK
          const unsigned dups = 3 + rnd(4);
          for (unsigned d = 0; d < dups; ++d) {
            EXPECT_EQ(reno_.on_dup_ack(v), cerl_.on_dup_ack(v))
                << "round " << round;
            check(round);
          }
          if (rnd(2) == 0) {
            // Partial ACK first: half the flight, still below recover_.
            const auto partial =
                view_at(flight / 2, snd_nxt_, srtt_);
            EXPECT_EQ(reno_.on_ack(snd_nxt_ - flight / 2, flight / 2, partial),
                      cerl_.on_ack(snd_nxt_ - flight / 2, flight / 2, partial))
                << "round " << round;
            check(round);
          }
          const auto drained = view_at(0, snd_nxt_, srtt_);
          EXPECT_EQ(reno_.on_ack(snd_nxt_, flight, drained),
                    cerl_.on_ack(snd_nxt_, flight, drained))
              << "round " << round;
          check(round);
          break;
        }
        case 1:  // retransmission timeout
          reno_.on_rto(v);
          cerl_.on_rto(v);
          check(round);
          break;
        default:  // plain cumulative ACK advancing one MSS
          EXPECT_EQ(reno_.on_ack(snd_nxt_, kMss, v),
                    cerl_.on_ack(snd_nxt_, kMss, v))
              << "round " << round;
          check(round);
      }
    }
  }

 private:
  std::uint32_t rnd(std::uint32_t m) {
    lcg_ = lcg_ * 1664525u + 1013904223u;
    return (lcg_ >> 16) % m;
  }

  CongestionControl reno_{CcScheme::kNewReno, 2 * kMss};
  CongestionControl cerl_{CcScheme::kCerl, 2 * kMss};
  sim::Duration srtt_;
  std::uint32_t snd_nxt_ = 10'001;
  std::uint32_t lcg_ = 0x5eed5eed;
};

TEST(TransportProperty, CongestionOnlyLossesMatchNewRenoTrajectoryExactly) {
  // RTT range [10ms, 110ms], srtt pinned at 100ms — far above the 65ms
  // threshold, so every loss episode classifies as congestion and CERL
  // must be indistinguishable from NewReno, hook for hook.
  ScriptedPair pair(sim::Duration::millis(100));
  const auto v = view_at(0, 10'001, sim::Duration::millis(100));
  pair.reno().on_rtt_sample(sim::Duration::millis(10));
  pair.cerl().on_rtt_sample(sim::Duration::millis(10));
  pair.reno().on_rtt_sample(sim::Duration::millis(110));
  pair.cerl().on_rtt_sample(sim::Duration::millis(110));
  ASSERT_EQ(pair.cerl().classify(v), LossKind::kCongestion);

  pair.run(400, [&](unsigned round) {
    EXPECT_EQ(pair.reno().cwnd(), pair.cerl().cwnd()) << "round " << round;
    EXPECT_EQ(pair.reno().ssthresh(), pair.cerl().ssthresh())
        << "round " << round;
    EXPECT_EQ(pair.reno().in_recovery(), pair.cerl().in_recovery())
        << "round " << round;
  });

  EXPECT_EQ(pair.cerl().channel_losses(), 0u);
  EXPECT_GT(pair.reno().congestion_losses(), 0u);
  EXPECT_EQ(pair.cerl().congestion_losses(), pair.reno().congestion_losses());
}

TEST(TransportProperty, ChannelOnlyLossesNeverReduceSsthreshBelowNewReno) {
  // Flat 10ms RTT: floor == ceiling, every loss classifies as channel.
  // NewReno halves ssthresh on each episode; CERL must never sit below
  // it — and in the channel-only world must never move ssthresh at all.
  ScriptedPair pair(sim::Duration::millis(10));
  const auto v = view_at(0, 10'001, sim::Duration::millis(10));
  pair.reno().on_rtt_sample(sim::Duration::millis(10));
  pair.cerl().on_rtt_sample(sim::Duration::millis(10));
  ASSERT_EQ(pair.cerl().classify(v), LossKind::kChannel);

  pair.run(400, [&](unsigned round) {
    EXPECT_GE(pair.cerl().ssthresh(), pair.reno().ssthresh())
        << "round " << round;
    EXPECT_EQ(pair.cerl().ssthresh(), kInitialSsthresh) << "round " << round;
  });

  EXPECT_GT(pair.cerl().channel_losses(), 0u);
  EXPECT_EQ(pair.cerl().congestion_losses(), 0u);
  EXPECT_LT(pair.reno().ssthresh(), kInitialSsthresh);
}

TEST(TransportProperty, ChannelFastRetransmitRestoresWindowOnExit) {
  // A single channel-classified fast-retransmit episode in isolation:
  // entry inflates by the three duplicates, extras inflate further,
  // exit restores the pre-loss window instead of deflating to ssthresh.
  CongestionControl cerl{CcScheme::kCerl, 8 * kMss};
  const auto v = view_at(8 * kMss, 30'000, sim::Duration::millis(10));
  cerl.on_rtt_sample(sim::Duration::millis(10));

  const std::uint32_t cwnd_before = cerl.cwnd();
  EXPECT_EQ(cerl.on_dup_ack(v), CongestionControl::DupAckAction::kNone);
  EXPECT_EQ(cerl.on_dup_ack(v), CongestionControl::DupAckAction::kNone);
  EXPECT_EQ(cerl.on_dup_ack(v),
            CongestionControl::DupAckAction::kFastRetransmit);
  EXPECT_TRUE(cerl.in_recovery());
  EXPECT_EQ(cerl.ssthresh(), kInitialSsthresh);
  EXPECT_EQ(cerl.cwnd(), cwnd_before + 3 * kMss);

  EXPECT_EQ(cerl.on_dup_ack(v), CongestionControl::DupAckAction::kSendMore);
  EXPECT_EQ(cerl.cwnd(), cwnd_before + 4 * kMss);

  // Full ACK past the recovery point: window restored exactly.
  cerl.on_ack(30'000, 8 * kMss, view_at(0, 30'000, sim::Duration::millis(10)));
  EXPECT_FALSE(cerl.in_recovery());
  EXPECT_EQ(cerl.cwnd(), cwnd_before);
  EXPECT_EQ(cerl.ssthresh(), kInitialSsthresh);
  EXPECT_EQ(cerl.channel_losses(), 1u);
  EXPECT_EQ(cerl.congestion_losses(), 0u);
}

TEST(TransportProperty, ChannelTimeoutRestartsWindowButKeepsSsthresh) {
  CongestionControl cerl{CcScheme::kCerl, 8 * kMss};
  const auto v = view_at(8 * kMss, 30'000, sim::Duration::millis(10));
  cerl.on_rtt_sample(sim::Duration::millis(10));

  cerl.on_rto(v);
  // The ACK clock must be rebuilt, so cwnd restarts at one MSS — but
  // ssthresh is untouched, so slow start carries it straight back.
  EXPECT_EQ(cerl.cwnd(), kMss);
  EXPECT_EQ(cerl.ssthresh(), kInitialSsthresh);
  EXPECT_EQ(cerl.channel_losses(), 1u);
}

// ---------------------------------------------------------------------
// Connection-level: the same drop on the same constant-delay pipe, once
// per scheme.
// ---------------------------------------------------------------------

struct SchemeRun {
  std::uint32_t ssthresh = 0;
  std::uint64_t delivered = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t channel_losses = 0;
  std::uint64_t congestion_losses = 0;
};

SchemeRun run_with_scheme(CcScheme scheme) {
  const auto kIpA = proto::Ipv4Address::for_node(0);
  const auto kIpB = proto::Ipv4Address::for_node(1);
  sim::Simulation sim(1);
  TransportMux a(sim, kIpA);
  TransportMux b(sim, kIpB);
  int data_seen = 0;
  a.send_packet = [&](proto::PacketPtr p) {
    // Drop exactly one mid-stream data segment (late enough that the
    // RTT estimator has evidence; the pipe is flat so CERL reads it as
    // channel loss).
    if (p->payload_bytes > 0 && ++data_seen == 12) return;
    sim.scheduler().schedule_in(sim::Duration::millis(5),
                                [&b, p] { b.deliver(p); });
  };
  b.send_packet = [&](proto::PacketPtr p) {
    sim.scheduler().schedule_in(sim::Duration::millis(5),
                                [&a, p] { a.deliver(p); });
  };

  TcpConfig cfg;
  cfg.tuning.cc = scheme;
  std::uint64_t received = 0;
  b.tcp_listen(5001, cfg, [&](TcpConnection& c) {
    c.on_data = [&](std::uint64_t n) { received += n; };
  });
  auto& client = a.tcp_connect({kIpB, 5001}, cfg);
  client.send(40 * kMss);
  sim.run_for(sim::Duration::seconds(30));

  SchemeRun out;
  out.ssthresh = client.ssthresh();
  out.delivered = received;
  out.fast_retransmits = client.stats().fast_retransmits;
  out.timeouts = client.stats().timeouts;
  out.channel_losses = client.congestion().channel_losses();
  out.congestion_losses = client.congestion().congestion_losses();
  return out;
}

TEST(TransportProperty, FlatPipeDropCostsNewRenoItsWindowButNotCerl) {
  const auto reno = run_with_scheme(CcScheme::kNewReno);
  const auto cerl = run_with_scheme(CcScheme::kCerl);

  // Both recover via fast retransmit and deliver the whole file.
  ASSERT_EQ(reno.delivered, 40u * kMss);
  ASSERT_EQ(cerl.delivered, 40u * kMss);
  EXPECT_GE(reno.fast_retransmits, 1u);
  EXPECT_GE(cerl.fast_retransmits, 1u);
  EXPECT_EQ(reno.timeouts, 0u);
  EXPECT_EQ(cerl.timeouts, 0u);

  // NewReno read the drop as congestion and halved; CERL read the flat
  // RTT as proof of a channel loss and kept its slow-start threshold.
  EXPECT_EQ(reno.channel_losses, 0u);
  EXPECT_GE(reno.congestion_losses, 1u);
  EXPECT_GE(cerl.channel_losses, 1u);
  EXPECT_EQ(cerl.congestion_losses, 0u);
  EXPECT_LT(reno.ssthresh, kInitialSsthresh);
  EXPECT_EQ(cerl.ssthresh, kInitialSsthresh);
  EXPECT_GE(cerl.ssthresh, reno.ssthresh);
}

}  // namespace
}  // namespace hydra::transport
