// Unit tests: PHY modes, airtime/sample math, error model with channel
// aging, medium path loss, transceiver behaviour including collisions.
#include <gtest/gtest.h>

#include <memory>

#include "phy/error_model.h"
#include "phy/frame.h"
#include "phy/medium.h"
#include "phy/phy.h"
#include "phy/timing.h"
#include "proto/mode.h"
#include "sim/simulation.h"

namespace hydra::phy {
namespace {

TEST(PhyMode, HydraRateTable) {
  const auto modes = proto::hydra_modes();
  ASSERT_EQ(modes.size(), 8u);
  EXPECT_EQ(modes[0].rate.bits_per_second(), 650'000u);
  EXPECT_EQ(modes[7].rate.bits_per_second(), 6'500'000u);
  // Rates strictly increase.
  for (std::size_t i = 1; i < modes.size(); ++i) {
    EXPECT_LT(modes[i - 1].rate, modes[i].rate);
    EXPECT_LT(modes[i - 1].required_snr_db, modes[i].required_snr_db);
  }
}

TEST(PhyMode, BitsPerSymbol) {
  EXPECT_EQ(proto::mode_by_index(0).bits_per_symbol(), 1u);  // BPSK
  EXPECT_EQ(proto::mode_by_index(1).bits_per_symbol(), 2u);  // QPSK
  EXPECT_EQ(proto::mode_by_index(3).bits_per_symbol(), 4u);  // 16-QAM
  EXPECT_EQ(proto::mode_by_index(7).bits_per_symbol(), 6u);  // 64-QAM
}

TEST(PhyMode, LookupByRate) {
  ASSERT_TRUE(proto::mode_for_mbps_x100(65).has_value());
  ASSERT_TRUE(proto::mode_for_mbps_x100(260).has_value());
  EXPECT_EQ(proto::mode_for_mbps_x100(65)->modulation, proto::Modulation::kBpsk);
  EXPECT_EQ(proto::mode_for_mbps_x100(260)->modulation, proto::Modulation::kQam16);
  EXPECT_FALSE(proto::mode_for_mbps_x100(100).has_value());
}

TEST(PhyMode, SixtyFourQamUnreliableAtPaperSnr) {
  // Paper §5: 25 dB "did not allow reliable operation of the rates that
  // required 64-QAM".
  for (const auto& m : proto::hydra_modes()) {
    if (m.modulation == proto::Modulation::kQam64) {
      EXPECT_GT(m.required_snr_db, 25.0);
    } else {
      EXPECT_LT(m.required_snr_db, 25.0);
    }
  }
}

TEST(Timing, PayloadAirtimeExactValues) {
  // 1000 bytes at 0.65 Mbps = 8000 bits / 650000 bps = 12.307692.. ms.
  const auto d = payload_airtime(1000, proto::mode_by_index(0));
  EXPECT_NEAR(d.millis_f(), 12.3077, 0.001);
  // Doubling the rate halves the airtime.
  const auto d2 = payload_airtime(1000, proto::mode_by_index(1));
  EXPECT_NEAR(d.millis_f() / d2.millis_f(), 2.0, 0.001);
  EXPECT_TRUE(payload_airtime(0, proto::mode_by_index(0)).is_zero());
}

TEST(Timing, AirtimeMonotonicInBytes) {
  for (std::size_t mode = 0; mode < 4; ++mode) {
    sim::Duration prev = sim::Duration::zero();
    for (std::size_t bytes = 100; bytes <= 2000; bytes += 100) {
      const auto t = payload_airtime(bytes, proto::mode_by_index(mode));
      EXPECT_GT(t, prev);
      prev = t;
    }
  }
}

TEST(Timing, FrameTimingLayout) {
  PortionSpec bcast;
  bcast.mode = proto::mode_by_index(0);
  bcast.subframe_bytes = {160, 160};
  PortionSpec ucast;
  ucast.mode = proto::mode_by_index(1);
  ucast.subframe_bytes = {1464};

  const auto t = frame_timing(bcast, ucast);
  const auto& pt = default_timings();
  // Header includes the broadcast rate/length field when broadcasts exist.
  EXPECT_EQ(t.header, pt.preamble + pt.broadcast_field);
  ASSERT_EQ(t.broadcast_subframe_end.size(), 2u);
  ASSERT_EQ(t.unicast_subframe_end.size(), 1u);
  // Subframe end offsets are cumulative and ordered.
  EXPECT_GT(t.broadcast_subframe_end[1], t.broadcast_subframe_end[0]);
  EXPECT_GT(t.unicast_subframe_end[0], t.broadcast_subframe_end[1]);
  EXPECT_EQ(t.total, t.unicast_subframe_end[0]);
  EXPECT_EQ(t.total,
            t.header + t.broadcast_portion + t.unicast_portion);
}

TEST(Timing, NoBroadcastFieldWithoutBroadcastPortion) {
  PortionSpec empty_bcast;
  PortionSpec ucast;
  ucast.subframe_bytes = {1000};
  const auto t = frame_timing(empty_bcast, ucast);
  EXPECT_EQ(t.header, default_timings().preamble);
}

TEST(Timing, SamplesAccounting) {
  // 2 Msample/s: 1 ms of airtime = 2000 samples.
  EXPECT_EQ(samples_for(sim::Duration::millis(1)), 2000);
  // The paper's limit: ~62 ms of airtime is ~124 Ksamples ("about 120 K").
  const auto cliff = samples_for(sim::Duration::micros(62'000));
  EXPECT_NEAR(static_cast<double>(cliff), 120'000.0, 8'000.0);
}

TEST(Timing, FiveKilobytesAtBaseRateSitsAtTheSampleCliff) {
  // Paper §6.1: 5 KB at 0.65 Mbps ≈ the 120 Ksample threshold.
  PortionSpec ucast;
  ucast.mode = proto::mode_by_index(0);
  ucast.subframe_bytes = {5 * 1024};
  const auto t = frame_timing({}, ucast);
  const auto samples = samples_for(t.total);
  EXPECT_NEAR(static_cast<double>(samples), 126'000, 6'000);
}

TEST(ErrorModel, CleanBelowCoherence) {
  const ErrorModel model;
  // At the paper's 25 dB operating point, a max-size subframe that ends
  // before the coherence time is essentially always received.
  const auto p = model.subframe_error_probability(
      proto::mode_by_index(3), 25.0, 1464, sim::Duration::millis(30));
  EXPECT_LT(p, 1e-3);
}

TEST(ErrorModel, HopelessBeyondCoherence) {
  const ErrorModel model;
  // 15 ms past the coherence time the channel estimate is stale and the
  // subframe is effectively always lost — the Fig. 7 cliff.
  const auto p = model.subframe_error_probability(
      proto::mode_by_index(0), 25.0, 1464,
      model.config().coherence_time + sim::Duration::millis(15));
  EXPECT_GT(p, 0.99);
}

TEST(ErrorModel, EffectiveSnrFlatThenLinear) {
  const ErrorModel model;
  const auto coh = model.config().coherence_time;
  EXPECT_DOUBLE_EQ(model.effective_snr_db(25.0, coh), 25.0);
  EXPECT_DOUBLE_EQ(model.effective_snr_db(25.0, sim::Duration::zero()), 25.0);
  const auto later = model.effective_snr_db(25.0, coh + sim::Duration::millis(2));
  EXPECT_NEAR(later, 25.0 - 2.0 * model.config().aging_db_per_ms, 1e-9);
}

TEST(ErrorModel, BitErrorMonotonicInSnr) {
  const ErrorModel model;
  const auto& mode = proto::mode_by_index(2);
  double prev = 1.0;
  for (double snr = 0.0; snr <= 30.0; snr += 2.0) {
    const auto p = model.bit_error_probability(mode, snr);
    EXPECT_LE(p, prev);
    prev = p;
  }
}

TEST(ErrorModel, SixtyFourQamFailsAtOperatingPoint) {
  const ErrorModel model;
  // A full-size subframe at 64-QAM 5/6 under 25 dB should usually fail.
  const auto p = model.subframe_error_probability(
      proto::mode_by_index(7), 25.0, 1464, sim::Duration::millis(5));
  EXPECT_GT(p, 0.5);
}

TEST(ErrorModel, ErrorProbabilityGrowsWithLength) {
  const ErrorModel model;
  const auto& mode = proto::mode_by_index(1);
  const auto p_small = model.subframe_error_probability(
      mode, 9.0, 100, sim::Duration::millis(1));
  const auto p_large = model.subframe_error_probability(
      mode, 9.0, 2000, sim::Duration::millis(1));
  EXPECT_GT(p_large, p_small);
  EXPECT_GT(p_small, 0.0);
}

// --- medium / transceiver -------------------------------------------------

TEST(Medium, PaperOperatingPoint) {
  sim::Simulation s(1);
  Medium medium(s);
  Phy a(s, medium, {.position = {0, 0}}, 0);
  Phy b(s, medium, {.position = {2.5, 0}}, 1);
  // 7.7 mW at 2.5 m spacing gives the paper's 25 dB SNR.
  EXPECT_NEAR(medium.snr_db(a, b), 25.0, 1.0);
  EXPECT_NEAR(medium.snr_db(b, a), 25.0, 1.0);
}

TEST(Medium, SnrFallsWithDistance) {
  sim::Simulation s(1);
  Medium medium(s);
  Phy a(s, medium, {.position = {0, 0}}, 0);
  Phy b(s, medium, {.position = {2.5, 0}}, 1);
  Phy c(s, medium, {.position = {7.5, 0}}, 2);
  EXPECT_GT(medium.snr_db(a, b), medium.snr_db(a, c));
  // Distant nodes are still audible (all nodes in range, paper §5).
  EXPECT_GT(medium.rx_power_dbm(a, c), medium.config().cca_threshold_dbm);
}

PhyFrame test_frame(std::size_t bytes, const proto::PhyMode& mode) {
  PhyFrame f;
  f.unicast.mode = mode;
  f.unicast.subframe_bytes = {bytes};
  f.payload = std::make_shared<Payload>();
  return f;
}

TEST(Phy, DeliversFrameWithCorrectSnr) {
  sim::Simulation s(1);
  Medium medium(s);
  Phy a(s, medium, {.position = {0, 0}}, 0);
  Phy b(s, medium, {.position = {2.5, 0}}, 1);

  int rx = 0;
  RxReport last;
  b.on_rx = [&](const RxReport& r) {
    ++rx;
    last = r;
  };
  bool tx_done = false;
  a.on_tx_complete = [&] { tx_done = true; };

  a.transmit(test_frame(1000, proto::mode_by_index(0)));
  EXPECT_TRUE(a.transmitting());
  s.run();
  EXPECT_TRUE(tx_done);
  EXPECT_FALSE(a.transmitting());
  ASSERT_EQ(rx, 1);
  EXPECT_FALSE(last.collided);
  ASSERT_EQ(last.unicast_ok.size(), 1u);
  EXPECT_TRUE(last.unicast_ok[0]);  // 25 dB, short frame: clean
  EXPECT_NEAR(last.snr_db, 25.0, 1.0);
}

TEST(Phy, CcaBusyDuringNeighbourTransmission) {
  sim::Simulation s(1);
  Medium medium(s);
  Phy a(s, medium, {.position = {0, 0}}, 0);
  Phy b(s, medium, {.position = {2.5, 0}}, 1);

  int busy_edges = 0, idle_edges = 0;
  b.on_cca_change = [&](bool busy) { busy ? ++busy_edges : ++idle_edges; };

  a.transmit(test_frame(1000, proto::mode_by_index(0)));
  s.run();
  EXPECT_EQ(busy_edges, 1);
  EXPECT_EQ(idle_edges, 1);
  EXPECT_FALSE(b.cca_busy());
}

TEST(Phy, OverlappingTransmissionsCollide) {
  sim::Simulation s(1);
  Medium medium(s);
  Phy a(s, medium, {.position = {0, 0}}, 0);
  Phy b(s, medium, {.position = {2.5, 0}}, 1);
  Phy c(s, medium, {.position = {1.25, 1.0}}, 2);

  int collided = 0, clean = 0;
  c.on_rx = [&](const RxReport& r) { r.collided ? ++collided : ++clean; };

  // Both transmit within each other's airtime.
  a.transmit(test_frame(1000, proto::mode_by_index(0)));
  s.scheduler().schedule_in(sim::Duration::millis(1), [&] {
    b.transmit(test_frame(1000, proto::mode_by_index(0)));
  });
  s.run();
  EXPECT_EQ(collided, 2);
  EXPECT_EQ(clean, 0);
  EXPECT_EQ(c.collisions_seen(), 2u);
}

TEST(Phy, SubCcaFrameNeitherDoomsAnAudibleOneNorAssertsCca) {
  // c sits 20 m from b: below the CCA threshold there, but inside the
  // cull floor's reach, so the medium still delivers c's frames to b.
  sim::Simulation s(1);
  Medium medium(s);
  Phy a(s, medium, {.position = {0, 0}}, 0);
  Phy b(s, medium, {.position = {2.5, 0}}, 1);
  Phy c(s, medium, {.position = {22.5, 0}}, 2);
  ASSERT_LT(medium.rx_power_dbm(c, b), medium.config().cca_threshold_dbm);
  ASSERT_GE(medium.rx_power_dbm(c, b), cull_floor_dbm(medium.config()));

  int busy_edges = 0, idle_edges = 0;
  b.on_cca_change = [&](bool busy) { busy ? ++busy_edges : ++idle_edges; };
  int clean = 0, collided = 0;
  b.on_rx = [&](const RxReport& r) { r.collided ? ++collided : ++clean; };

  // a's first frame (0-12.6 ms) is on the air when c's (1-26 ms) starts;
  // a's second (15-27.6 ms) starts while c's is still arriving.
  const auto mode = proto::mode_by_index(0);
  a.transmit(test_frame(1000, mode));
  s.scheduler().schedule_in(sim::Duration::millis(1),
                            [&] { c.transmit(test_frame(2000, mode)); });
  s.scheduler().schedule_in(sim::Duration::millis(15),
                            [&] { a.transmit(test_frame(1000, mode)); });
  s.run_until(sim::TimePoint::at(sim::Duration::millis(14)));
  EXPECT_FALSE(b.cca_busy()) << "c's frame is mid-air at b, below CCA";
  s.run();

  EXPECT_EQ(clean, 2);
  EXPECT_EQ(collided, 0);
  EXPECT_EQ(b.collisions_seen(), 0u);
  EXPECT_EQ(busy_edges, 2);  // a's two frames, and nothing of c's
  EXPECT_EQ(idle_edges, 2);
  EXPECT_EQ(b.frames_received(), 2u);
  EXPECT_EQ(b.rx_starts(), 3u);  // c's frame still counts
}

TEST(Phy, TransmitterMissesFramesWhileTransmitting) {
  sim::Simulation s(1);
  Medium medium(s);
  Phy a(s, medium, {.position = {0, 0}}, 0);
  Phy b(s, medium, {.position = {2.5, 0}}, 1);

  int a_clean = 0;
  a.on_rx = [&](const RxReport& r) {
    if (!r.collided) ++a_clean;
  };
  a.transmit(test_frame(2000, proto::mode_by_index(0)));
  s.scheduler().schedule_in(sim::Duration::millis(1), [&] {
    b.transmit(test_frame(100, proto::mode_by_index(0)));
  });
  s.run();
  EXPECT_EQ(a_clean, 0);  // half-duplex: own TX doomed the reception
}

TEST(Phy, LongAggregateLosesTailSubframesOnly) {
  sim::Simulation s(7);
  Medium medium(s);
  Phy a(s, medium, {.position = {0, 0}}, 0);
  Phy b(s, medium, {.position = {2.5, 0}}, 1);

  // 8 KB of subframes at 0.65 Mbps: ~100 ms airtime, far past the 62 ms
  // coherence time. Early subframes survive; late ones die.
  PhyFrame f;
  f.unicast.mode = proto::mode_by_index(0);
  for (int i = 0; i < 8; ++i) f.unicast.subframe_bytes.push_back(1024);
  f.payload = std::make_shared<Payload>();

  std::vector<bool> ok;
  b.on_rx = [&](const RxReport& r) { ok = r.unicast_ok; };
  a.transmit(std::move(f));
  s.run();

  ASSERT_EQ(ok.size(), 8u);
  EXPECT_TRUE(ok.front());   // ends ~13 ms in: clean
  EXPECT_FALSE(ok.back());   // ends ~100 ms in: stale channel estimate
}

}  // namespace
}  // namespace hydra::phy
