// The 802.11-style DCF MAC with the paper's aggregation extensions.
//
// Responsibilities:
//  - CSMA/CA access: DIFS + slotted binary-exponential backoff, paused and
//    resumed on carrier (CCA) and virtual-carrier (NAV) transitions.
//  - RTS/CTS exchange for frames with a unicast portion, single link-level
//    ACK per aggregate, timeout-driven retransmission with CW doubling.
//  - Transmit path (paper §4.2.3): classify outgoing packets into the dual
//    queues (pure TCP ACKs -> broadcast queue when enabled) and assemble
//    aggregates via the core Aggregator at each transmit opportunity.
//  - Receive path (paper §4.2.2): broadcast subframes are delivered
//    individually as their FCS passes; the unicast portion is
//    all-or-nothing (or per-subframe with the block-ACK extension) and
//    acknowledged after SIFS. Unicast-addressed broadcast subframes (TCP
//    ACKs) not addressed to this node are dropped at the MAC, never
//    duplicated up the stack.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/aggregator.h"
#include "core/classifier.h"
#include "core/policy.h"
#include "core/queues.h"
#include "mac/pdu.h"
#include "mac/rate_adaptation.h"
#include "mac/stats.h"
#include "mac/timings.h"
#include "phy/phy.h"
#include "sim/simulation.h"
#include "sim/timer.h"

namespace hydra::mac {

struct MacConfig {
  proto::MacAddress address;
  MacTimings timings;
  core::AggregationPolicy policy;
  // Rate used for the unicast portion of aggregates.
  proto::PhyMode unicast_mode = proto::base_mode();
  // Rate used for the broadcast portion (the paper's Fig. 10 fixes this
  // independently of the unicast rate; Fig. 11+ set them equal).
  proto::PhyMode broadcast_mode = proto::base_mode();
  bool use_rts_cts = true;
  std::size_t queue_limit = 64;
  // Link rate adaptation (paper §4.1.2; disabled in the paper's
  // experiments). When active, both portions' modes follow the adapter
  // (the paper's §7 "rate-adaptive frame aggregation" future work).
  RateAdaptationScheme rate_adaptation = RateAdaptationScheme::kNone;
  // Link whitelist: when non-empty, frames from transmitters outside the
  // set are not delivered or responded to. This is how forced topologies
  // are built on testbeds where every node is in radio range (the paper
  // used static routing for the same purpose); physical carrier sense is
  // unaffected.
  std::vector<proto::MacAddress> neighbors;
};

class Mac {
 public:
  Mac(sim::Simulation& simulation, phy::Phy& phy, MacConfig config);

  Mac(const Mac&) = delete;
  Mac& operator=(const Mac&) = delete;

  // --- upper-layer interface ------------------------------------------
  // Queues `packet` for transmission to the link-layer `next_hop`
  // (proto::MacAddress::broadcast() for link broadcasts). `source` is the
  // originating node's link address (addr3).
  void enqueue(proto::PacketPtr packet, proto::MacAddress next_hop, proto::MacAddress source);

  // A subframe's packet was received and accepted for this node's stack.
  std::function<void(proto::PacketPtr, proto::MacAddress transmitter)> on_deliver;

  proto::MacAddress address() const { return config_.address; }
  // The unicast rate adapter; under kNone it keeps the configured rate.
  const RateAdapter& rate_adapter() const { return rate_adapter_; }
  const MacConfig& config() const { return config_; }
  const MacStats& stats() const { return stats_; }
  const core::DualQueue& queues() const { return queues_; }
  const core::TcpAckClassifier& classifier() const { return classifier_; }

 private:
  enum class Phase { kIdle, kTxRts, kWaitCts, kTxData, kWaitAck };
  enum class TxKind { kNone, kRts, kCts, kAck, kData };

  // --- access engine ---
  void kick();
  void start_contention();
  void pause_backoff();
  void resume_backoff();
  void access_won();
  bool medium_free() const;
  bool nav_clear() const;
  void set_nav(sim::Duration reservation);

  // --- transmit sequence ---
  void begin_sequence();
  void send_rts();
  void send_data();
  void transmit_control(proto::ControlFrame frame, TxKind kind);
  void on_tx_complete();
  void response_timeout();
  void sequence_succeeded();
  void sequence_failed();
  void finish_sequence();

  // --- receive path ---
  void on_rx(const phy::RxReport& report);
  void handle_control(const proto::ControlFrame& frame, const phy::RxReport& report);
  void handle_aggregate(const MacPdu& pdu, const phy::RxReport& report);
  void schedule_response(proto::ControlFrame frame, TxKind kind);

  // --- helpers ---
  sim::Duration control_airtime(std::size_t bytes) const;
  sim::Duration ack_duration() const;
  void account_data_tx(const proto::AggregateFrame& frame,
                       sim::Duration header);
  bool already_delivered(const proto::MacSubframe& sf) const;
  void remember_delivered(const proto::MacSubframe& sf);
  bool is_neighbor(proto::MacAddress transmitter) const;

  sim::Simulation& sim_;
  phy::Phy& phy_;
  MacConfig config_;

  core::TcpAckClassifier classifier_;
  core::DualQueue queues_;
  core::Aggregator aggregator_;
  RateAdapter rate_adapter_;
  MacStats stats_;

  Phase phase_ = Phase::kIdle;
  TxKind tx_kind_ = TxKind::kNone;

  // Contention state.
  bool contending_ = false;
  int backoff_slots_ = -1;  // -1: draw a fresh value on next contention
  unsigned cw_;
  sim::TimePoint countdown_start_;
  sim::Timer access_timer_;
  sim::Timer nav_timer_;
  sim::Timer dba_timer_;
  sim::TimePoint nav_until_;

  // Current transmit sequence.
  std::shared_ptr<const MacPdu> pending_pdu_;
  // The PHY frame of pending_pdu_ and its timing, both built in
  // begin_sequence and moved out by send_data.
  phy::PhyFrame pending_frame_;
  phy::FrameTiming pending_timing_;
  proto::AggregateFrame::SubframeVec inflight_unicast_;
  unsigned retries_ = 0;
  sim::Timer response_timer_;
  // Sends the data frame SIFS after its CTS arrived.
  sim::Timer data_timer_;

  // Pending SIFS response (CTS or ACK we owe a peer).
  sim::Timer respond_timer_;
  std::optional<std::pair<proto::ControlFrame, TxKind>> pending_response_;

  // Outgoing subframe sequence numbers (802.11 sequence control).
  std::uint16_t next_sequence_ = 1;
  // Duplicate suppression for retransmitted unicast subframes, keyed on
  // (transmitter, sequence). The FIFO carries the eviction order, so
  // the set is pure membership.
  std::deque<std::uint32_t> dedup_fifo_;
  std::unordered_set<std::uint32_t> dedup_set_;  // hydra-lint: allow(unordered-member) — contains/insert/erase only; eviction iterates dedup_fifo_, never the set

};

}  // namespace hydra::mac
