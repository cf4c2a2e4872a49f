#include "phy/phy.h"

#include "util/assert.h"

namespace hydra::phy {

Phy::Phy(sim::Simulation& simulation, Medium& medium, PhyConfig config,
         std::uint32_t id)
    : sim_(simulation),
      medium_(medium),
      config_(config),
      id_(id),
      tx_complete_timer_(simulation.scheduler(), [this] {
        transmitting_ = false;
        update_cca();
        if (on_tx_complete) on_tx_complete();
      }) {
  medium_.attach(*this);
}

Phy::~Phy() { medium_.on_phy_destroyed(*this); }

void Phy::transmit(PhyFrame frame) {
  auto timing = frame_timing(frame.broadcast, frame.unicast, config_.timings);
  transmit(std::move(frame), std::move(timing));
}

void Phy::transmit(PhyFrame frame, FrameTiming timing) {
  HYDRA_ASSERT_MSG(!transmitting_, "transmit while already transmitting");
  HYDRA_ASSERT_MSG(!frame.empty(), "empty phy frame");
  transmitting_ = true;
  // Receptions overlapping our own transmission are lost (half duplex).
  for (auto& rx : incoming_) rx.doomed = true;
  update_cca();

  const auto airtime = timing.total;
  medium_.start_transmission(*this, std::move(frame), std::move(timing));
  tx_complete_timer_.arm(airtime);
}

void Phy::update_cca() {
  const bool busy = cca_busy();
  if (busy != last_cca_busy_) {
    last_cca_busy_ = busy;
    if (on_cca_change) on_cca_change(busy);
  }
}

void Phy::abort_receptions() {
  incoming_.clear();
  update_cca();
}

void Phy::rx_start(const Transmission& tx) {
  ++rx_starts_;
  // Any concurrent reception corrupts both frames (no capture).
  const bool doomed = transmitting_ || !incoming_.empty();
  for (auto& rx : incoming_) rx.doomed = true;
  incoming_.push_back(Incoming{tx.id, doomed});
  update_cca();
}

void Phy::rx_end(const Transmission& tx, double rx_power_dbm) {
  auto it = incoming_.begin();
  while (it != incoming_.end() && it->tx_id != tx.id) ++it;
  HYDRA_ASSERT_MSG(it != incoming_.end(), "rx_end without rx_start");
  const bool doomed = it->doomed || transmitting_;
  incoming_.erase(it);
  update_cca();

  if (doomed) ++collisions_;
  const auto& report = evaluate(tx, rx_power_dbm, doomed);
  ++frames_received_;
  if (on_rx) on_rx(report);
}

const RxReport& Phy::evaluate(const Transmission& tx, double rx_power_dbm,
                              bool collided) {
  // Reuse the scratch report: every assignment below lands in storage
  // retained from the previous reception, so the per-delivery path is
  // allocation-free once warm. The report points at the in-flight frame,
  // which the medium's run keeps alive through the synchronous on_rx
  // call that consumes it.
  RxReport& report = scratch_report_;
  report.frame = &tx.frame;
  report.broadcast_ok.clear();
  report.unicast_ok.clear();
  report.snr_db = rx_power_dbm - medium_.config().noise_floor_dbm;
  report.collided = collided;
  report.broadcast_ok.resize(tx.frame.broadcast.subframe_bytes.size(), false);
  report.unicast_ok.resize(tx.frame.unicast.subframe_bytes.size(), false);
  if (collided) return report;

  const auto& model = medium_.error_model();
  auto& rng = sim_.rng();
  for (std::size_t i = 0; i < report.broadcast_ok.size(); ++i) {
    const bool err = model.draw_subframe_error(
        rng, tx.frame.broadcast.mode, report.snr_db,
        tx.frame.broadcast.subframe_bytes[i],
        tx.timing.broadcast_subframe_end[i]);
    report.broadcast_ok[i] = !err;
  }
  for (std::size_t i = 0; i < report.unicast_ok.size(); ++i) {
    const bool err = model.draw_subframe_error(
        rng, tx.frame.unicast.mode, report.snr_db,
        tx.frame.unicast.subframe_bytes[i],
        tx.timing.unicast_subframe_end[i]);
    report.unicast_ok[i] = !err;
  }
  return report;
}

}  // namespace hydra::phy
