#include "mac/mac.h"

#include <algorithm>

#include "util/assert.h"

namespace hydra::mac {

Mac::Mac(sim::Simulation& simulation, phy::Phy& phy, MacConfig config)
    : sim_(simulation),
      phy_(phy),
      config_(config),
      classifier_(config.policy.tcp_ack_as_broadcast),
      queues_(config.queue_limit),
      aggregator_(config.policy),
      rate_adapter_(config.rate_adaptation,
                    proto::mode_index_of(config.unicast_mode)),
      cw_(config.timings.cw_min),
      access_timer_(simulation.scheduler(), [this] { access_won(); }),
      nav_timer_(simulation.scheduler(), [this] { kick(); }),
      dba_timer_(simulation.scheduler(), [this] { kick(); }),
      response_timer_(simulation.scheduler(), [this] { response_timeout(); }),
      data_timer_(simulation.scheduler(), [this] { send_data(); }),
      respond_timer_(simulation.scheduler(), [this] {
        HYDRA_ASSERT(pending_response_.has_value());
        auto [frame, kind] = *pending_response_;
        pending_response_.reset();
        transmit_control(frame, kind);
      }) {
  aggregator_.set_modes(config_.broadcast_mode, config_.unicast_mode);
  phy_.on_rx = [this](const phy::RxReport& report) { on_rx(report); };
  phy_.on_tx_complete = [this] { on_tx_complete(); };
  phy_.on_cca_change = [this](bool busy) {
    if (busy) {
      pause_backoff();
    } else {
      kick();
    }
  };
}

// ---------------------------------------------------------------------
// Upper-layer interface
// ---------------------------------------------------------------------

void Mac::enqueue(proto::PacketPtr packet, proto::MacAddress next_hop,
                  proto::MacAddress source) {
  HYDRA_ASSERT(packet != nullptr);
  proto::MacSubframe sf;
  sf.receiver = next_hop;
  sf.transmitter = config_.address;
  sf.source = source;
  sf.sequence = next_sequence_++;
  sf.packet = std::move(packet);

  const auto cls =
      classifier_.classify(*sf.packet, next_hop.is_broadcast());
  const bool to_broadcast_queue = cls != core::TrafficClass::kUnicast;
  auto& queue = to_broadcast_queue ? queues_.broadcast() : queues_.unicast();
  if (!queue.push(std::move(sf), sim_.now())) {
    ++stats_.queue_drops;
    return;
  }
  kick();
}

// ---------------------------------------------------------------------
// Access engine
// ---------------------------------------------------------------------

bool Mac::nav_clear() const { return sim_.now() >= nav_until_; }

bool Mac::medium_free() const { return !phy_.cca_busy() && nav_clear(); }

void Mac::set_nav(sim::Duration reservation) {
  const auto until = sim_.now() + reservation;
  if (until <= nav_until_) return;
  nav_until_ = until;
  pause_backoff();
  nav_timer_.arm(reservation);
}

void Mac::kick() {
  if (phase_ != Phase::kIdle) return;
  if (tx_kind_ != TxKind::kNone) return;      // mid control transmission
  if (pending_response_.has_value()) return;  // owe a SIFS response

  bool want = !inflight_unicast_.empty();
  if (!want) {
    std::optional<sim::TimePoint> holdoff;
    want = aggregator_.may_transmit(queues_, sim_.now(), &holdoff);
    if (!want) {
      if (holdoff) dba_timer_.arm(*holdoff - sim_.now());
      return;
    }
  }
  if (!contending_) start_contention();
  if (contending_ && !access_timer_.pending()) resume_backoff();
}

void Mac::start_contention() {
  contending_ = true;
  if (backoff_slots_ < 0) {
    backoff_slots_ =
        static_cast<int>(sim_.rng().uniform_int(0, cw_));
  }
}

void Mac::resume_backoff() {
  if (!medium_free()) return;
  countdown_start_ = sim_.now();
  const auto wait =
      config_.timings.difs() + backoff_slots_ * config_.timings.slot;
  access_timer_.arm(wait);
}

void Mac::pause_backoff() {
  if (!access_timer_.cancel()) return;
  const auto elapsed = sim_.now() - countdown_start_;
  const auto difs = config_.timings.difs();
  // Attribute the idle time we actually waited (Table 4 accounting) and
  // bank fully-elapsed backoff slots.
  if (elapsed <= difs) {
    stats_.time.ifs += elapsed;
  } else {
    stats_.time.ifs += difs;
    const auto in_backoff = elapsed - difs;
    stats_.time.backoff += in_backoff;
    const auto consumed =
        static_cast<int>(in_backoff.ns() / config_.timings.slot.ns());
    backoff_slots_ = std::max(0, backoff_slots_ - consumed);
  }
}

void Mac::access_won() {
  // The timer only fires after an uninterrupted DIFS + backoff; the
  // medium may have become busy in the same instant (synchronized
  // contenders), in which case we transmit anyway and collide, exactly
  // as the real protocol would.
  stats_.time.ifs += config_.timings.difs();
  stats_.time.backoff += backoff_slots_ * config_.timings.slot;
  contending_ = false;
  backoff_slots_ = -1;
  begin_sequence();
}

// ---------------------------------------------------------------------
// Transmit sequence
// ---------------------------------------------------------------------

sim::Duration Mac::control_airtime(std::size_t bytes) const {
  return phy_.config().timings.preamble +
         phy::payload_airtime(bytes, proto::base_mode());
}

sim::Duration Mac::ack_duration() const {
  const auto bytes =
      aggregator_.policy().block_ack ? proto::kBlockAckBytes : proto::kAckBytes;
  return control_airtime(bytes);
}

void Mac::begin_sequence() {
  if (rate_adapter_.adapting()) {
    // Both portions adopt the adapter's current choice for this sequence.
    config_.unicast_mode = rate_adapter_.current_mode();
    config_.broadcast_mode = config_.unicast_mode;
    aggregator_.set_modes(config_.broadcast_mode, config_.unicast_mode);
  }
  proto::AggregateFrame frame;
  if (!inflight_unicast_.empty()) {
    frame = aggregator_.build_retry(queues_, inflight_unicast_);
  } else {
    frame = aggregator_.build(queues_);
    inflight_unicast_ = frame.unicast;
  }

  // Medium reservation after the data frame ends: SIFS + ACK, if the
  // frame needs acknowledgement.
  const auto& t = config_.timings;
  sim::Duration after_data = sim::Duration::zero();
  if (frame.has_unicast()) after_data = t.sifs + ack_duration();
  const auto dur_units =
      proto::encode_duration_us((after_data).ns() / 1000);
  for (auto& sf : frame.broadcast) sf.duration_units = dur_units;
  for (auto& sf : frame.unicast) sf.duration_units = dur_units;

  // The duration fields change no subframe's size, so the PHY frame is
  // built and timed once, after them: send_rts reserves its airtime, and
  // send_data accounts its header time and hands both to the PHY.
  pending_pdu_ = MacPdu::make_aggregate(std::move(frame), config_.address);
  pending_frame_ = to_phy_frame(pending_pdu_, config_.broadcast_mode,
                                config_.unicast_mode);
  pending_timing_ = phy::frame_timing(
      pending_frame_.broadcast, pending_frame_.unicast, phy_.config().timings);

  const bool needs_rts =
      config_.use_rts_cts && pending_pdu_->aggregate.has_unicast();
  if (needs_rts) {
    send_rts();
  } else {
    send_data();
  }
}

void Mac::send_rts() {
  const auto& t = config_.timings;
  proto::ControlFrame rts;
  rts.type = proto::FrameType::kRts;
  rts.receiver = pending_pdu_->aggregate.unicast_receiver();
  rts.transmitter = config_.address;
  // Reservation: CTS + data + ACK, with the three SIFS gaps.
  const auto reservation = t.sifs + control_airtime(proto::kCtsBytes) + t.sifs +
                           pending_timing_.total + t.sifs + ack_duration();
  rts.duration_units = proto::encode_duration_us(reservation.ns() / 1000);
  phase_ = Phase::kTxRts;
  ++stats_.rts_tx;
  stats_.time.control += control_airtime(proto::kRtsBytes);
  transmit_control(rts, TxKind::kRts);
}

void Mac::send_data() {
  phase_ = Phase::kTxData;
  tx_kind_ = TxKind::kData;
  account_data_tx(pending_pdu_->aggregate, pending_timing_.header);
  phy_.transmit(std::move(pending_frame_), std::move(pending_timing_));
}

void Mac::transmit_control(proto::ControlFrame frame, TxKind kind) {
  tx_kind_ = kind;
  auto pdu = MacPdu::make_control(frame, config_.address);
  phy_.transmit(to_phy_frame(pdu, proto::base_mode(), proto::base_mode()));
}

void Mac::account_data_tx(const proto::AggregateFrame& frame,
                          sim::Duration header) {
  ++stats_.data_frames_tx;
  stats_.broadcast_subframes_tx += frame.broadcast.size();
  stats_.unicast_subframes_tx += frame.unicast.size();
  stats_.data_bytes_tx += frame.total_wire_bytes();
  stats_.time.phy_header += header;

  const auto account_portion = [this](const proto::AggregateFrame::SubframeVec& sfs,
                                      const proto::PhyMode& mode) {
    for (const auto& sf : sfs) {
      const auto pkt_bytes = sf.packet_bytes();
      // Size overhead (Tables 3/6) counts every non-packet byte: header,
      // FCS, encapsulation and padding.
      stats_.mac_header_bytes_tx += sf.wire_bytes() - pkt_bytes;
      // Time overhead (Table 4) counts "MAC header" transmission time:
      // the Fig. 4 header and FCS. Encapsulation/padding bytes travel
      // with the payload and are accounted there.
      constexpr auto kHeaderOnly = proto::kMacHeaderBytes + proto::kFcsBytes;
      stats_.time.mac_header += phy::payload_airtime(kHeaderOnly, mode);
      stats_.time.payload +=
          phy::payload_airtime(sf.wire_bytes() - kHeaderOnly, mode);
    }
  };
  account_portion(frame.broadcast, config_.broadcast_mode);
  account_portion(frame.unicast, config_.unicast_mode);
}

void Mac::on_tx_complete() {
  const auto kind = tx_kind_;
  tx_kind_ = TxKind::kNone;
  const auto& t = config_.timings;

  switch (kind) {
    case TxKind::kRts:
      phase_ = Phase::kWaitCts;
      response_timer_.arm(t.sifs + control_airtime(proto::kCtsBytes) +
                          t.timeout_guard);
      return;
    case TxKind::kData:
      if (pending_pdu_->aggregate.has_unicast()) {
        phase_ = Phase::kWaitAck;
        response_timer_.arm(t.sifs + ack_duration() + t.timeout_guard);
      } else {
        // Pure broadcast frame: no acknowledgement, immediate success.
        sequence_succeeded();
      }
      return;
    case TxKind::kCts:
    case TxKind::kAck:
      // Responder duties done; resume our own business.
      kick();
      return;
    case TxKind::kNone:
      HYDRA_UNREACHABLE("tx completion without transmission");
  }
}

void Mac::response_timeout() {
  HYDRA_ASSERT(phase_ == Phase::kWaitCts || phase_ == Phase::kWaitAck);
  sequence_failed();
}

void Mac::sequence_succeeded() {
  if (!inflight_unicast_.empty()) rate_adapter_.on_tx_result(true);
  inflight_unicast_.clear();
  retries_ = 0;
  cw_ = config_.timings.cw_min;
  finish_sequence();
}

void Mac::sequence_failed() {
  rate_adapter_.on_tx_result(false);
  ++stats_.retries;
  ++retries_;
  cw_ = std::min(cw_ * 2 + 1, config_.timings.cw_max);
  if (retries_ > config_.timings.retry_limit) {
    stats_.retry_drops += inflight_unicast_.size();
    inflight_unicast_.clear();
    retries_ = 0;
    cw_ = config_.timings.cw_min;
  }
  finish_sequence();
}

void Mac::finish_sequence() {
  pending_pdu_.reset();
  pending_frame_ = {};  // still set when the CTS never came
  pending_timing_ = {};
  response_timer_.cancel();
  phase_ = Phase::kIdle;
  kick();
}

// ---------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------

bool Mac::is_neighbor(proto::MacAddress transmitter) const {
  if (config_.neighbors.empty()) return true;
  for (const auto n : config_.neighbors) {
    if (n == transmitter) return true;
  }
  return false;
}

void Mac::on_rx(const phy::RxReport& report) {
  if (report.collided) {
    ++stats_.collisions;
    return;
  }
  const auto* pdu = dynamic_cast<const MacPdu*>(report.frame->payload.get());
  HYDRA_ASSERT_MSG(pdu != nullptr, "non-MAC payload on the medium");
  if (pdu->kind == MacPdu::Kind::kControl) {
    handle_control(pdu->control, report);
  } else {
    handle_aggregate(*pdu, report);
  }
}

void Mac::handle_control(const proto::ControlFrame& frame,
                         const phy::RxReport& report) {
  HYDRA_ASSERT(report.unicast_ok.size() == 1);
  if (!report.unicast_ok[0]) {
    ++stats_.crc_failures;
    return;
  }
  const bool for_me = frame.receiver == config_.address;
  const auto reservation =
      sim::Duration::micros(proto::decode_duration_us(frame.duration_units));

  switch (frame.type) {
    case proto::FrameType::kRts: {
      if (!for_me) {
        set_nav(reservation);
        return;
      }
      // Respond only when idle, the virtual carrier is clear, and the
      // requester is a configured neighbour.
      if (phase_ != Phase::kIdle || tx_kind_ != TxKind::kNone ||
          pending_response_.has_value() || !nav_clear() ||
          !is_neighbor(frame.transmitter)) {
        return;
      }
      proto::ControlFrame cts;
      cts.type = proto::FrameType::kCts;
      cts.receiver = frame.transmitter;
      cts.transmitter = config_.address;
      const auto remaining =
          reservation - config_.timings.sifs - control_airtime(proto::kCtsBytes);
      cts.duration_units = proto::encode_duration_us(
          std::max<std::int64_t>(0, remaining.ns() / 1000));
      ++stats_.cts_tx;
      schedule_response(cts, TxKind::kCts);
      return;
    }
    case proto::FrameType::kCts: {
      if (!for_me) {
        set_nav(reservation);
        return;
      }
      if (phase_ != Phase::kWaitCts) return;
      rate_adapter_.on_feedback_snr(report.snr_db);
      response_timer_.cancel();
      stats_.time.control += control_airtime(proto::kCtsBytes);
      stats_.time.ifs += 2 * config_.timings.sifs;  // before CTS and data
      phase_ = Phase::kTxData;
      // Data goes out SIFS after the CTS.
      data_timer_.arm(config_.timings.sifs);
      return;
    }
    case proto::FrameType::kAck: {
      if (!for_me || phase_ != Phase::kWaitAck) return;
      rate_adapter_.on_feedback_snr(report.snr_db);
      response_timer_.cancel();
      ++stats_.acks_rx;
      stats_.time.control += ack_duration();
      stats_.time.ifs += config_.timings.sifs;
      if (frame.has_block_ack) {
        // Extension: keep only unacknowledged subframes for retry.
        proto::AggregateFrame::SubframeVec remaining;
        for (std::size_t i = 0; i < inflight_unicast_.size(); ++i) {
          const bool acked =
              i < 64 && ((frame.block_ack_bitmap >> i) & 1) != 0;
          if (!acked) remaining.push_back(inflight_unicast_[i]);
        }
        if (remaining.empty()) {
          sequence_succeeded();
        } else {
          inflight_unicast_ = std::move(remaining);
          sequence_failed();
        }
      } else {
        sequence_succeeded();
      }
      return;
    }
    case proto::FrameType::kData:
      HYDRA_UNREACHABLE("data frame in control path");
  }
}

void Mac::handle_aggregate(const MacPdu& pdu, const phy::RxReport& report) {
  const auto& agg = pdu.aggregate;
  HYDRA_ASSERT(report.broadcast_ok.size() == agg.broadcast.size());
  HYDRA_ASSERT(report.unicast_ok.size() == agg.unicast.size());

  // Frames from non-neighbours still occupy the medium (CCA and NAV have
  // already been handled) but are never delivered or acknowledged.
  if (!is_neighbor(pdu.transmitter)) return;

  // Broadcast portion: per-subframe delivery as FCS passes (paper
  // §4.2.2). Subframes with unicast addresses (reclassified TCP ACKs)
  // are delivered only to the addressed node and silently dropped
  // elsewhere — never duplicated up the stack.
  for (std::size_t i = 0; i < agg.broadcast.size(); ++i) {
    if (!report.broadcast_ok[i]) {
      ++stats_.crc_failures;
      continue;
    }
    const auto& sf = agg.broadcast[i];
    if (sf.receiver.is_broadcast() || sf.receiver == config_.address) {
      ++stats_.delivered_up;
      if (on_deliver) on_deliver(sf.packet, sf.transmitter);
    } else {
      ++stats_.dropped_not_for_us;
    }
  }

  if (agg.unicast.empty()) return;

  if (agg.unicast_receiver() != config_.address) {
    // Reserve the medium for the remainder of this exchange (SIFS+ACK).
    set_nav(sim::Duration::micros(
        proto::decode_duration_us(agg.unicast.front().duration_units)));
    return;
  }

  if (pending_response_.has_value()) {
    // Already committed to a SIFS response for another exchange; we
    // cannot acknowledge, so we must not deliver either (the sender will
    // retransmit and dedup below would otherwise be the only guard).
    ++stats_.aggregate_discards;
    return;
  }

  const bool block_ack = aggregator_.policy().block_ack;
  if (block_ack) {
    // Extension: accept good subframes individually, report a bitmap.
    std::uint64_t bitmap = 0;
    for (std::size_t i = 0; i < agg.unicast.size(); ++i) {
      if (report.unicast_ok[i]) {
        if (i < 64) bitmap |= (std::uint64_t{1} << i);
        const auto& sf = agg.unicast[i];
        if (sf.retry && already_delivered(sf)) {
          ++stats_.duplicates_suppressed;
          continue;
        }
        remember_delivered(sf);
        ++stats_.delivered_up;
        if (on_deliver) on_deliver(sf.packet, sf.transmitter);
      } else {
        ++stats_.crc_failures;
      }
    }
    proto::ControlFrame ack;
    ack.type = proto::FrameType::kAck;
    ack.receiver = pdu.transmitter;
    ack.transmitter = config_.address;
    ack.has_block_ack = true;
    ack.block_ack_bitmap = bitmap;
    ++stats_.ack_tx;
    schedule_response(ack, TxKind::kAck);
    return;
  }

  // Paper behaviour: the unicast portion is all-or-nothing.
  if (!report.all_unicast_ok()) {
    for (const bool ok : report.unicast_ok) {
      if (!ok) ++stats_.crc_failures;
    }
    ++stats_.aggregate_discards;
    return;  // no ACK; the sender times out and retries
  }
  for (const auto& sf : agg.unicast) {
    if (sf.retry && already_delivered(sf)) {
      ++stats_.duplicates_suppressed;
      continue;  // retransmission of a subframe whose ACK was lost
    }
    remember_delivered(sf);
    ++stats_.delivered_up;
    if (on_deliver) on_deliver(sf.packet, sf.transmitter);
  }
  proto::ControlFrame ack;
  ack.type = proto::FrameType::kAck;
  ack.receiver = pdu.transmitter;
  ack.transmitter = config_.address;
  ++stats_.ack_tx;
  schedule_response(ack, TxKind::kAck);
}

void Mac::schedule_response(proto::ControlFrame frame, TxKind kind) {
  HYDRA_ASSERT(!pending_response_.has_value());
  pending_response_ = {frame, kind};
  respond_timer_.arm(config_.timings.sifs);
}

// ---------------------------------------------------------------------
// Receive-side duplicate suppression
// ---------------------------------------------------------------------
// A lost link-level ACK makes the sender retransmit subframes the
// receiver already accepted; as in 802.11, the (transmitter, sequence
// control) pair identifies the retransmission.

namespace {
std::uint32_t dedup_key(const proto::MacSubframe& sf) {
  return (std::uint32_t{sf.transmitter.value()} << 16) | sf.sequence;
}
}  // namespace

bool Mac::already_delivered(const proto::MacSubframe& sf) const {
  return dedup_set_.contains(dedup_key(sf));
}

void Mac::remember_delivered(const proto::MacSubframe& sf) {
  constexpr std::size_t kDedupWindow = 256;
  if (dedup_set_.insert(dedup_key(sf)).second) {
    dedup_fifo_.push_back(dedup_key(sf));
    if (dedup_fifo_.size() > kDedupWindow) {
      dedup_set_.erase(dedup_fifo_.front());
      dedup_fifo_.pop_front();
    }
  }
}

}  // namespace hydra::mac
