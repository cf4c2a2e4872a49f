// Rate adaptation: the ARF and SNR-feedback schemes of mac::RateAdapter,
// plus end-to-end behaviour over links of varying quality.
#include <gtest/gtest.h>

#include "app/udp_sink.h"
#include "mac/rate_adaptation.h"
#include "net/node.h"
#include "topo/scenario.h"
#include "transport/host.h"

namespace hydra::mac {
namespace {

// The rate table's last index: the adapter's ceiling, as 0 is its floor.
std::size_t top_index() { return proto::hydra_modes().size() - 1; }

TEST(Arf, ClimbsAfterSuccessRun) {
  static_assert(kArfRaiseAfter == 10);
  RateAdapter arf(RateAdaptationScheme::kArf, 0);
  for (int i = 0; i < 9; ++i) arf.on_tx_result(true);
  EXPECT_EQ(arf.mode_index(), 0u);
  arf.on_tx_result(true);  // 10th
  EXPECT_EQ(arf.mode_index(), 1u);
}

TEST(Arf, FallsAfterConsecutiveFailures) {
  static_assert(kArfFallAfter == 2);
  RateAdapter arf(RateAdaptationScheme::kArf, 3);
  arf.on_tx_result(false);
  EXPECT_EQ(arf.mode_index(), 3u);  // one failure: hold
  arf.on_tx_result(false);
  EXPECT_EQ(arf.mode_index(), 2u);
}

TEST(Arf, SuccessResetsFailureCount) {
  static_assert(kArfFallAfter == 2);
  RateAdapter arf(RateAdaptationScheme::kArf, 3);
  arf.on_tx_result(false);
  arf.on_tx_result(true);
  arf.on_tx_result(false);
  EXPECT_EQ(arf.mode_index(), 3u);  // never two in a row
}

TEST(Arf, ProbeFailureFallsBackImmediately) {
  static_assert(kArfFallAfter > 1);  // else any failure falls
  RateAdapter arf(RateAdaptationScheme::kArf, 0);
  for (unsigned i = 0; i < kArfRaiseAfter; ++i) arf.on_tx_result(true);
  ASSERT_EQ(arf.mode_index(), 1u);  // raised, probing
  arf.on_tx_result(false);  // single probe failure is enough
  EXPECT_EQ(arf.mode_index(), 0u);
}

TEST(Arf, RespectsBounds) {
  // The bounds are the rate table's own ends.
  RateAdapter arf(RateAdaptationScheme::kArf, 0);
  for (unsigned i = 0; i < 3 * kArfFallAfter; ++i) arf.on_tx_result(false);
  EXPECT_EQ(arf.mode_index(), 0u);  // already at the bottom
  for (unsigned i = 0; i < kArfRaiseAfter; ++i) arf.on_tx_result(true);
  EXPECT_EQ(arf.mode_index(), 1u);  // the failures left no debt

  RateAdapter top(RateAdaptationScheme::kArf, top_index() - 1);
  for (unsigned i = 0; i < kArfRaiseAfter; ++i) top.on_tx_result(true);
  EXPECT_EQ(top.mode_index(), top_index());
  for (unsigned i = 0; i < 3 * kArfRaiseAfter; ++i) top.on_tx_result(true);
  EXPECT_EQ(top.mode_index(), top_index());  // capped at the top
}

TEST(Snr, PicksFastestClearingMode) {
  static_assert(kSnrMarginDb == 2.0);
  RateAdapter snr(RateAdaptationScheme::kSnr, 0);
  // 25 dB clears everything except the 64-QAM rates (required 25.5+).
  snr.on_feedback_snr(25.0);
  EXPECT_EQ(snr.mode_index(), 4u);  // 16-QAM 3/4 (req 17 + 2 <= 25)
  // Weak link: only BPSK 1/2 (req 4 + 2 <= 7).
  snr.on_feedback_snr(7.0);
  EXPECT_EQ(snr.mode_index(), 0u);
  // Very strong link: top of the table.
  snr.on_feedback_snr(40.0);
  EXPECT_EQ(snr.mode_index(), 7u);
}

TEST(Snr, HonoursMaxIndex) {
  // The ceiling is the rate table's last mode.
  RateAdapter snr(RateAdaptationScheme::kSnr, 0);
  snr.on_feedback_snr(1000.0);  // clears every mode
  EXPECT_EQ(snr.mode_index(), top_index());
}

TEST(Snr, FallsToMinIndexWhenNothingQualifies) {
  RateAdapter snr(RateAdaptationScheme::kSnr, 5);
  snr.on_feedback_snr(-10.0);  // nothing clears: floor at the table's first
  EXPECT_EQ(snr.mode_index(), 0u);
}

TEST(Snr, SelectsByRateNotTablePosition) {
  // Regression: selection used to keep the *last* qualifying table
  // index, which silently assumed the mode table is rate-sorted. The
  // adapter must pick the maximum-rate qualifying mode whatever the
  // order: no qualifying mode outruns the chosen one.
  RateAdapter snr(RateAdaptationScheme::kSnr, 0);
  for (const double feedback : {40.0, 25.0, 12.0}) {
    snr.on_feedback_snr(feedback);
    const auto& chosen = snr.current_mode();
    for (const auto& mode : proto::hydra_modes()) {
      if (mode.required_snr_db + kSnrMarginDb > feedback) continue;
      EXPECT_LE(mode.rate.bits_per_second(), chosen.rate.bits_per_second())
          << "at " << feedback << " dB";
    }
  }
}

TEST(ModeTable, SortedByRateAndRequiredSnr) {
  // The documented table-ordering invariant the SNR adapter no longer
  // depends on, pinned so a future edit that breaks it is deliberate:
  // rates strictly increase and required SNR never decreases.
  const auto modes = proto::hydra_modes();
  ASSERT_GE(modes.size(), 2u);
  for (std::size_t i = 1; i < modes.size(); ++i) {
    EXPECT_GT(modes[i].rate.bits_per_second(),
              modes[i - 1].rate.bits_per_second());
    EXPECT_GE(modes[i].required_snr_db, modes[i - 1].required_snr_db);
  }
}

TEST(Factory, SchemeSelection) {
  // Each scheme reacts only to its own input, and kNone to neither.
  RateAdapter none(RateAdaptationScheme::kNone, 2);
  RateAdapter arf(RateAdaptationScheme::kArf, 2);
  RateAdapter snr(RateAdaptationScheme::kSnr, 2);
  EXPECT_FALSE(none.adapting());
  EXPECT_TRUE(arf.adapting());
  EXPECT_TRUE(snr.adapting());
  for (RateAdapter* adapter : {&none, &arf, &snr}) {
    adapter->on_feedback_snr(-10.0);  // the SNR scheme's floor
    for (unsigned i = 0; i < kArfRaiseAfter; ++i) adapter->on_tx_result(true);
  }
  EXPECT_EQ(none.mode_index(), 2u);
  EXPECT_EQ(arf.mode_index(), 3u);  // one raise, deaf to the feedback
  EXPECT_EQ(snr.mode_index(), 0u);  // the feedback, deaf to the successes
}

// --- end-to-end ------------------------------------------------------------

// A two-node link with rate adaptation, built on the shared fixture.
topo::Scenario make_link(double distance_m,
                                 mac::RateAdaptationScheme scheme,
                                 std::size_t initial_mode) {
  auto spec = topo::ScenarioSpec::chain(2);
  spec.node.policy = core::AggregationPolicy::ua();
  spec.node.rate_adaptation = scheme;
  spec.node.unicast_mode = proto::mode_by_index(initial_mode);
  spec.spacing_m = distance_m;
  return topo::Scenario::build(spec, 3);
}

TEST(RateAdaptationE2E, SnrAdapterSettlesBelow64QamAtPaperSnr) {
  // At 2.5 m (25 dB) the 64-QAM rates are unusable; the SNR adapter must
  // settle on a non-64-QAM mode even when started at the top rate.
  auto link = make_link(2.5, mac::RateAdaptationScheme::kSnr, 7);
  app::UdpSinkApp sink(link.sim(), link.node(1), 9001);
  auto& socket = transport::mux_of(link.node(0)).open_udp(9000);
  for (int i = 0; i < 30; ++i) socket.send_to({link.node(1).ip(), 9001}, 1048);
  link.run_for(sim::Duration::seconds(10));

  EXPECT_EQ(sink.packets(), 30u);
  EXPECT_LE(link.node(0).mac().rate_adapter().mode_index(), 4u);
}

TEST(RateAdaptationE2E, ArfEscapesAHopelessStartingRate) {
  // Start at 64-QAAM 5/6 on a 25 dB link: every aggregate fails; ARF must
  // walk down until traffic flows.
  auto link = make_link(2.5, mac::RateAdaptationScheme::kArf, 7);
  app::UdpSinkApp sink(link.sim(), link.node(1), 9001);
  auto& socket = transport::mux_of(link.node(0)).open_udp(9000);
  for (int i = 0; i < 10; ++i) socket.send_to({link.node(1).ip(), 9001}, 1048);
  link.run_for(sim::Duration::seconds(30));

  EXPECT_EQ(sink.packets(), 10u);
  EXPECT_LT(link.node(0).mac().rate_adapter().mode_index(), 7u);
}

TEST(RateAdaptationE2E, WeakLinkForcesRobustModes) {
  // ~10 m: SNR drops to ~7 dB; only the most robust rates work. The SNR
  // adapter should land at BPSK 1/2 and still deliver.
  auto link = make_link(10.0, mac::RateAdaptationScheme::kSnr, 4);
  app::UdpSinkApp sink(link.sim(), link.node(1), 9001);
  auto& socket = transport::mux_of(link.node(0)).open_udp(9000);
  for (int i = 0; i < 10; ++i) socket.send_to({link.node(1).ip(), 9001}, 1048);
  link.run_for(sim::Duration::seconds(60));

  EXPECT_GE(sink.packets(), 8u);  // the odd residual loss is acceptable
  EXPECT_LE(link.node(0).mac().rate_adapter().mode_index(), 1u);
}

}  // namespace
}  // namespace hydra::mac
