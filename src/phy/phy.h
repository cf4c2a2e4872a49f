// PHY device: transmit/receive state, CCA, per-subframe error draws.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "phy/frame.h"
#include "phy/medium.h"
#include "sim/simulation.h"
#include "sim/timer.h"

namespace hydra::phy {

struct PhyConfig {
  Position position;
  // 7.7 mW, the paper's transmit power.
  double tx_power_dbm = 8.86;
  PhyTimings timings;
};

// Half-duplex transceiver. The MAC drives transmit() and reacts to the
// three callbacks; the Medium drives the private rx_* entry points.
class Phy {
 public:
  Phy(sim::Simulation& simulation, Medium& medium, PhyConfig config,
      std::uint32_t id);
  // Detaches from the medium, whose in-flight deliveries to this PHY then
  // land nowhere; the tx-complete timer dies disarmed with the PHY, so a
  // node may be destroyed mid-simulation without leaving dangling
  // callbacks.
  ~Phy();

  Phy(const Phy&) = delete;
  Phy& operator=(const Phy&) = delete;

  // --- MAC-facing interface -------------------------------------------
  // Starts transmitting; the PHY must be idle (not already transmitting).
  // on_tx_complete fires when the frame leaves the air. `timing` must be
  // the frame's frame_timing under this PHY's timings; the one-argument
  // form computes it.
  void transmit(PhyFrame frame);
  void transmit(PhyFrame frame, FrameTiming timing);

  bool transmitting() const { return transmitting_; }
  // Clear-channel assessment: busy while transmitting or while any
  // reception is in progress (the medium starts only those at or above
  // the CCA threshold).
  bool cca_busy() const { return transmitting_ || !incoming_.empty(); }

  // A decodable frame finished arriving (possibly with bad subframes).
  // The report, and the frame it points at, are valid only during the
  // call.
  std::function<void(const RxReport&)> on_rx;
  // Our own transmission left the air.
  std::function<void()> on_tx_complete;
  // CCA state changed (true = busy). Fired on every edge.
  std::function<void(bool)> on_cca_change;

  const PhyConfig& config() const { return config_; }
  std::uint32_t id() const { return id_; }
  // False after Medium::detach() until the next attach(). Position
  // changes go through Medium::move_node (the medium owns the delivery
  // lists the position feeds).
  bool attached() const { return attached_; }
  // The key the medium attached this PHY under: fresh at every attach(),
  // never reused, and the one index its delivery lists, grid and
  // deliveries use. Meaningful only while attached().
  std::uint32_t key() const { return key_; }

  // Diagnostics.
  std::uint64_t frames_received() const { return frames_received_; }
  std::uint64_t collisions_seen() const { return collisions_; }
  // Deliveries the medium started at this PHY (audible or not; one below
  // the CCA threshold counts here and nowhere else). The medium never
  // delivers to a receiver below the cull floor, so this stays 0 on an
  // out-of-reach PHY — the cull-correctness tests pin that.
  std::uint64_t rx_starts() const { return rx_starts_; }

 private:
  // The medium manages attachment state and key, the position (via
  // move_node), counts sub-CCA arrivals in rx_starts_, and is the only
  // caller of the rx_* entry points.
  friend class Medium;

  struct Incoming {
    std::uint64_t tx_id;
    bool doomed;  // overlapped another reception or our own transmission
  };

  // An audible delivery's arrival and departure, called by the medium
  // only while the delivery's key is still this PHY's.
  void rx_start(const Transmission& tx);
  void rx_end(const Transmission& tx, double rx_power_dbm);
  void update_cca();
  // Detach path: drops every in-progress reception and re-evaluates CCA
  // (the matching rx_end events can no longer find this PHY, so nothing
  // else would ever clear them).
  void abort_receptions();
  // Fills and returns scratch_report_; valid until the next evaluate().
  const RxReport& evaluate(const Transmission& tx, double rx_power_dbm,
                           bool collided);

  sim::Simulation& sim_;
  Medium& medium_;
  PhyConfig config_;
  std::uint32_t id_;

  bool transmitting_ = false;
  bool last_cca_busy_ = false;
  bool attached_ = false;
  std::uint32_t key_ = 0;
  // In-progress audible receptions, ordered by arrival. A handful at
  // most, so a flat vector beats a node-per-entry map on the
  // per-delivery path: push_back/erase reuse the same capacity for the
  // whole run.
  std::vector<Incoming> incoming_;
  // Reused across receptions so steady-state delivery evaluation
  // allocates nothing (the contained vectors keep their capacity).
  RxReport scratch_report_;
  // Fires when our own transmission leaves the air.
  sim::Timer tx_complete_timer_;

  std::uint64_t frames_received_ = 0;
  std::uint64_t collisions_ = 0;
  std::uint64_t rx_starts_ = 0;
};

}  // namespace hydra::phy
