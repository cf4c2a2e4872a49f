// Recorded values for the six congestion-control × ACK-policy schemes.
//
// The Figure 8 and 13 ablation cells average throughput to three
// decimals, and there ack-adpt and ack-del read the same. These runs
// compare exact counts instead, so a change that moves one scheme by a
// single event, ACK or nanosecond of a flow fails here. The world is
// the paper's Fig. 6 star under BA at 2.6 Mbps: two senders converge on
// the hub, so the receiver sees uneven arrival gaps and ack-adpt's
// deadline moves off ack-del's fixed timer. Each scheme runs lossless
// and with every 20th TCP data segment dropped at the hub (5% relay
// channel loss, which CERL classifies), at two seeds. ack-adpt and
// ack-del part in three of the lossy runs; CERL parts from NewReno in
// every lossy run and, under both delayed policies, in the lossless
// seed-2 run. The values were recorded from an earlier build.
// Registered under the `transport` ctest label.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "app/experiment.h"
#include "topo/experiment.h"

namespace hydra {
namespace {

using transport::AckScheme;
using transport::CcScheme;

topo::ExperimentConfig star_run(transport::TransportTuning tuning, bool lossy,
                                std::uint64_t seed) {
  topo::ExperimentConfig cfg;
  cfg.scenario = topo::ScenarioSpec::fig6_star();
  cfg.scenario.node.policy = core::AggregationPolicy::ba();
  cfg.scenario.node.unicast_mode = proto::mode_by_index(3);  // 2.6 Mbps
  cfg.scenario.node.broadcast_mode = proto::mode_by_index(3);
  cfg.traffic = topo::TrafficKind::kTcp;
  cfg.tcp.tuning = tuning;
  if (lossy) {
    cfg.losses = {{.node_index = 1, .period = 20, .offset = 10}};
  }
  cfg.seed = seed;
  return cfg;
}

struct Recorded {
  CcScheme cc;
  AckScheme ack;
  bool lossy;
  std::uint64_t seed;
  std::int64_t flow_ns[2];  // each flow's completion time
  std::uint64_t events;
  std::uint64_t transmissions;
  std::uint64_t acks_sent;
  std::uint64_t acks_delayed;
  std::uint64_t channel_losses;
};

TEST(TransportSchemes, StarRunsMatchRecordedValues) {
  // {cc, ack, lossy, seed, {flow 0 ns, flow 1 ns}, executed events,
  //  PHY transmissions, ACKs sent, ACKs delayed, channel losses}
  const Recorded recorded[] = {
      {CcScheme::kNewReno, AckScheme::kImmediate, false, 1,
       {3572479826, 3504639716}, 8678, 1024, 300, 0, 0},
      {CcScheme::kNewReno, AckScheme::kImmediate, false, 2,
       {3411883093, 3567923755}, 8802, 1039, 299, 0, 0},
      {CcScheme::kNewReno, AckScheme::kImmediate, true, 1,
       {2425513973, 4634585414}, 10589, 1253, 301, 0, 0},
      {CcScheme::kNewReno, AckScheme::kImmediate, true, 2,
       {4962441085, 2500387893}, 10555, 1249, 301, 0, 0},
      {CcScheme::kNewReno, AckScheme::kDelayed, false, 1,
       {1857412318, 3464627707}, 8599, 1016, 153, 148, 0},
      {CcScheme::kNewReno, AckScheme::kDelayed, false, 2,
       {3423726688, 2624628185}, 8236, 972, 156, 151, 0},
      {CcScheme::kNewReno, AckScheme::kDelayed, true, 1,
       {5664962119, 5361876747}, 12889, 1531, 179, 125, 0},
      {CcScheme::kNewReno, AckScheme::kDelayed, true, 2,
       {5526121477, 4034467767}, 12233, 1451, 181, 123, 0},
      {CcScheme::kNewReno, AckScheme::kAdaptive, false, 1,
       {1857412318, 3464627707}, 8599, 1016, 153, 148, 0},
      {CcScheme::kNewReno, AckScheme::kAdaptive, false, 2,
       {3423726688, 2624628185}, 8236, 972, 156, 151, 0},
      {CcScheme::kNewReno, AckScheme::kAdaptive, true, 1,
       {5733456625, 5365657121}, 13001, 1544, 179, 125, 0},
      {CcScheme::kNewReno, AckScheme::kAdaptive, true, 2,
       {5526891949, 4060724923}, 12199, 1447, 181, 123, 0},
      {CcScheme::kCerl, AckScheme::kImmediate, false, 1,
       {3572479826, 3504639716}, 8678, 1024, 300, 0, 0},
      {CcScheme::kCerl, AckScheme::kImmediate, false, 2,
       {3411883093, 3567923755}, 8802, 1039, 299, 0, 0},
      {CcScheme::kCerl, AckScheme::kImmediate, true, 1,
       {2471102002, 4078191199}, 9076, 1072, 301, 0, 15},
      {CcScheme::kCerl, AckScheme::kImmediate, true, 2,
       {3282730063, 4161926391}, 8765, 1034, 301, 0, 11},
      {CcScheme::kCerl, AckScheme::kDelayed, false, 1,
       {1857412318, 3464627707}, 8599, 1016, 153, 148, 0},
      {CcScheme::kCerl, AckScheme::kDelayed, false, 2,
       {3408904148, 2624628185}, 8068, 952, 156, 151, 1},
      {CcScheme::kCerl, AckScheme::kDelayed, true, 1,
       {2755999416, 4420863125}, 9738, 1152, 221, 82, 16},
      {CcScheme::kCerl, AckScheme::kDelayed, true, 2,
       {4034344753, 3152970420}, 9250, 1092, 216, 89, 14},
      {CcScheme::kCerl, AckScheme::kAdaptive, false, 1,
       {1857412318, 3464627707}, 8599, 1016, 153, 148, 0},
      {CcScheme::kCerl, AckScheme::kAdaptive, false, 2,
       {3408904148, 2624628185}, 8068, 952, 156, 151, 1},
      {CcScheme::kCerl, AckScheme::kAdaptive, true, 1,
       {2755999416, 4420863125}, 9738, 1152, 221, 82, 16},
      {CcScheme::kCerl, AckScheme::kAdaptive, true, 2,
       {4990327674, 2803443915}, 9460, 1117, 211, 93, 15},
  };
  for (const Recorded& want : recorded) {
    SCOPED_TRACE(transport::to_string({want.cc, want.ack}) +
                 (want.lossy ? " lossy" : " lossless") + " seed " +
                 std::to_string(want.seed));
    const auto r = app::run_experiment(
        star_run({want.cc, want.ack}, want.lossy, want.seed));
    ASSERT_EQ(r.flows.size(), 2u);
    for (std::size_t f = 0; f < 2; ++f) {
      EXPECT_TRUE(r.flows[f].completed) << "flow " << f;
      EXPECT_EQ(r.flows[f].elapsed.ns(), want.flow_ns[f]) << "flow " << f;
    }
    EXPECT_EQ(r.sched_executed_events, want.events);
    EXPECT_EQ(r.phy_transmissions, want.transmissions);
    EXPECT_EQ(r.tcp_acks_sent, want.acks_sent);
    EXPECT_EQ(r.tcp_acks_delayed, want.acks_delayed);
    EXPECT_EQ(r.tcp_channel_losses, want.channel_losses);
  }
}

}  // namespace
}  // namespace hydra
