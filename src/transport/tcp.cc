#include "transport/tcp.h"

#include <algorithm>

#include "util/assert.h"

namespace hydra::transport {

namespace {
// Initial sequence numbers; fixed for reproducible traces.
constexpr std::uint32_t kClientIss = 10'000;
}  // namespace

TcpConnection::TcpConnection(sim::Simulation& simulation, TcpConfig config,
                             proto::Endpoint local, proto::Endpoint remote,
                             SendPacket send)
    : sim_(simulation),
      config_(config),
      local_(local),
      remote_(remote),
      send_packet_(std::move(send)),
      cc_(config.tuning.cc, config.initial_cwnd_segments * config.mss),
      rto_(config.rto_initial),
      rto_timer_(simulation.scheduler(), [this] { on_rto(); }),
      ack_policy_(config.tuning.ack),
      delack_timer_(simulation.scheduler(), [this] { delack_fired(); }) {
  HYDRA_ASSERT(send_packet_ != nullptr);
}

// -----------------------------------------------------------------------
// Connection management
// -----------------------------------------------------------------------

void TcpConnection::connect() {
  HYDRA_ASSERT(state_ == State::kClosed);
  iss_ = kClientIss;
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;  // SYN consumes one sequence number
  high_water_ = snd_nxt_;
  state_ = State::kSynSent;
  send_control({.syn = true}, iss_);
  arm_rto();
}

void TcpConnection::accept(const proto::TcpHeader& syn) {
  HYDRA_ASSERT(state_ == State::kClosed);
  HYDRA_ASSERT(syn.flags.syn);
  irs_ = syn.seq;
  rcv_nxt_ = irs_ + 1;
  peer_window_ = syn.window;
  iss_ = kClientIss + 10'000;
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  high_water_ = snd_nxt_;
  state_ = State::kSynReceived;
  send_control({.syn = true, .ack = true}, iss_);
  arm_rto();
}

void TcpConnection::send(std::uint64_t bytes) {
  app_bytes_ += bytes;
  if (state_ == State::kEstablished) try_transmit();
}

void TcpConnection::close() {
  fin_requested_ = true;
  if (state_ == State::kEstablished) try_transmit();
}

// -----------------------------------------------------------------------
// Segment input
// -----------------------------------------------------------------------

void TcpConnection::segment_arrived(const proto::Packet& packet) {
  HYDRA_ASSERT(packet.tcp.has_value());
  const auto& h = *packet.tcp;
  ++stats_.segments_received;

  switch (state_) {
    case State::kClosed:
      return;
    case State::kSynSent: {
      if (h.flags.syn && h.flags.ack && h.ack == snd_nxt_) {
        irs_ = h.seq;
        rcv_nxt_ = irs_ + 1;
        snd_una_ = h.ack;
        peer_window_ = h.window;
        state_ = State::kEstablished;
        rto_timer_.cancel();
        rto_ = config_.rto_initial;
        consecutive_timeouts_ = 0;
        send_ack();
        if (on_established) on_established();
        try_transmit();
      }
      return;
    }
    case State::kSynReceived: {
      if (h.flags.syn && !h.flags.ack) {
        // Retransmitted SYN: our SYN-ACK was lost.
        send_control({.syn = true, .ack = true}, iss_);
        arm_rto();
        return;
      }
      if (h.flags.ack && seq_geq(h.ack, snd_nxt_)) {
        snd_una_ = h.ack;
        peer_window_ = h.window;
        state_ = State::kEstablished;
        rto_timer_.cancel();
        rto_ = config_.rto_initial;
        consecutive_timeouts_ = 0;
        if (on_established) on_established();
      } else {
        return;
      }
      break;  // fall through: the establishing segment may carry data
    }
    case State::kEstablished:
    case State::kFinSent:
    case State::kClosedByPeer:
      break;
  }

  if (h.flags.syn) return;  // stale handshake duplicate

  if (h.flags.ack) handle_ack(h);
  if (packet.payload_bytes > 0) handle_data(h, packet.payload_bytes);

  if (h.flags.fin) {
    const std::uint32_t fin_seq = h.seq + packet.payload_bytes;
    if (!peer_fin_seen_) {
      peer_fin_seen_ = true;
      peer_fin_seq_ = fin_seq;
    }
    if (rcv_nxt_ == peer_fin_seq_) {
      ++rcv_nxt_;
      if (state_ == State::kEstablished) state_ = State::kClosedByPeer;
      if (on_peer_fin) on_peer_fin();
    }
    send_ack();  // a FIN is always acknowledged immediately
  }
}

// -----------------------------------------------------------------------
// Sender
// -----------------------------------------------------------------------

std::uint32_t TcpConnection::send_limit_seq() const {
  const std::uint32_t window =
      std::min(cc_.cwnd(), peer_window_ == 0 ? config_.mss : peer_window_);
  return snd_una_ + window;
}

bool TcpConnection::all_data_acked() const {
  return snd_una_ == snd_nxt_;
}

void TcpConnection::try_transmit() {
  if (state_ != State::kEstablished && state_ != State::kFinSent &&
      state_ != State::kClosedByPeer) {
    return;
  }
  while (true) {
    const std::uint64_t offset = seq_diff(snd_nxt_, iss_ + 1);
    if (offset >= app_bytes_) break;  // nothing left to send
    const std::uint64_t available = app_bytes_ - offset;
    const std::uint32_t limit = send_limit_seq();
    if (!seq_lt(snd_nxt_, limit)) break;
    const std::uint32_t window_room = seq_diff(limit, snd_nxt_);
    const std::uint32_t len = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        {config_.mss, available, window_room}));
    if (len == 0) break;
    // Sender-side silly-window avoidance: never emit a sub-MSS segment
    // unless it is the final piece of the stream — a window-clipped
    // partial would misalign every subsequent segment boundary.
    if (len < config_.mss && len < available) break;
    // Segments below the high-water mark are go-back-N retransmissions
    // (Karn's rule: never RTT-time them).
    const bool is_retx = seq_lt(snd_nxt_, high_water_);
    emit_segment(snd_nxt_, len, is_retx);
    snd_nxt_ += len;
    if (seq_gt(snd_nxt_, high_water_)) high_water_ = snd_nxt_;
  }
  maybe_send_fin();
}

void TcpConnection::emit_segment(std::uint32_t seq, std::uint32_t len,
                                 bool is_retransmit) {
  auto pkt = proto::make_tcp_packet(local_.address, remote_.address, local_.port,
                                  remote_.port, seq, rcv_nxt_, {.ack = true},
                                  static_cast<std::uint16_t>(config_.recv_window),
                                  len);
  ++stats_.segments_sent;
  if (is_retransmit) {
    ++stats_.retransmits;
    // Karn's rule: never time a retransmitted segment.
    if (timing_segment_ && seq_leq(seq, timed_seq_)) timing_segment_ = false;
  } else if (!timing_segment_) {
    timing_segment_ = true;
    timed_seq_ = seq + len;  // sample when cumulative ACK covers the end
    timed_sent_at_ = sim_.now();
  }
  if (!rto_timer_.pending()) arm_rto();
  ack_emitted();  // data segments carry (piggyback) the cumulative ACK
  send_packet_(std::move(pkt));
}

void TcpConnection::maybe_send_fin() {
  if (!fin_requested_ || fin_sent_) return;
  const std::uint64_t offset = seq_diff(snd_nxt_, iss_ + 1);
  if (offset < app_bytes_) return;  // data still unsent
  fin_seq_ = snd_nxt_;
  fin_sent_ = true;
  state_ = State::kFinSent;
  send_control({.ack = true, .fin = true}, fin_seq_);
  snd_nxt_ = fin_seq_ + 1;
  if (seq_gt(snd_nxt_, high_water_)) high_water_ = snd_nxt_;
  arm_rto();
}

void TcpConnection::retransmit_front() {
  const std::uint64_t offset = seq_diff(snd_una_, iss_ + 1);
  if (offset < app_bytes_) {
    const std::uint64_t available = app_bytes_ - offset;
    const auto len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(config_.mss, available));
    emit_segment(snd_una_, len, /*is_retransmit=*/true);
  } else if (fin_sent_ && snd_una_ == fin_seq_) {
    ++stats_.retransmits;
    send_control({.ack = true, .fin = true}, fin_seq_);
    arm_rto();
  }
}

void TcpConnection::handle_ack(const proto::TcpHeader& h) {
  // Bound against the highest sequence ever transmitted, not snd_nxt:
  // during a go-back-N replay snd_nxt sits below data the receiver may
  // already hold, and its cumulative ACKs are entirely legitimate.
  if (seq_gt(h.ack, high_water_)) return;  // acks data we never sent

  if (seq_gt(h.ack, snd_una_)) {
    const std::uint32_t newly = seq_diff(h.ack, snd_una_);
    stats_.bytes_acked += newly;
    snd_una_ = h.ack;
    peer_window_ = h.window;
    consecutive_timeouts_ = 0;
    // During a go-back-N replay a cumulative ACK can overtake snd_nxt
    // (the receiver already had the replayed bytes — only their ACKs were
    // lost). Never resend below snd_una.
    if (seq_lt(snd_nxt_, snd_una_)) snd_nxt_ = snd_una_;

    if (timing_segment_ && seq_geq(h.ack, timed_seq_)) {
      timing_segment_ = false;
      update_rtt(sim_.now() - timed_sent_at_);
    }

    // The scheme grows/deflates the window; a true return asks for the
    // NewReno partial-ACK hole fill.
    if (cc_.on_ack(h.ack, newly, cc_view())) retransmit_front();

    if (all_data_acked()) {
      rto_timer_.cancel();
      const std::uint64_t offset = seq_diff(snd_nxt_, iss_ + 1);
      const bool stream_done =
          offset >= app_bytes_ + (fin_sent_ ? 1 : 0) &&
          (!fin_requested_ || fin_sent_);
      if (stream_done && app_bytes_ > 0 && !send_complete_fired_) {
        send_complete_fired_ = true;
        if (on_send_complete) on_send_complete();
      }
    } else {
      arm_rto();  // restart for the remaining flight
    }
    try_transmit();
    return;
  }

  // Possible duplicate ACK: pure, no payload, for the front of the flight.
  if (h.ack == snd_una_ && flight_size() > 0) {
    ++stats_.dup_acks_seen;
    switch (cc_.on_dup_ack(cc_view())) {
      case CongestionControl::DupAckAction::kFastRetransmit:
        ++stats_.fast_retransmits;
        retransmit_front();
        break;
      case CongestionControl::DupAckAction::kSendMore:
        try_transmit();
        break;
      case CongestionControl::DupAckAction::kNone:
        break;
    }
  }
}

void TcpConnection::on_rto() {
  ++stats_.timeouts;
  ++consecutive_timeouts_;
  if (consecutive_timeouts_ > config_.max_retries) {
    state_ = State::kClosed;  // give up
    return;
  }
  rto_ = std::min(rto_ * 2, config_.rto_max);

  switch (state_) {
    case State::kSynSent:
      ++stats_.retransmits;
      send_control({.syn = true}, iss_);
      break;
    case State::kSynReceived:
      ++stats_.retransmits;
      send_control({.syn = true, .ack = true}, iss_);
      break;
    case State::kEstablished:
    case State::kFinSent:
    case State::kClosedByPeer: {
      // The view must capture the flight *before* the go-back-N rewind —
      // ssthresh halves against what was actually outstanding.
      cc_.on_rto(cc_view());
      timing_segment_ = false;
      // Go-back-N: without SACK, everything past the timeout hole must be
      // presumed lost; pull snd_nxt back so the normal send path (clocked
      // by returning cumulative ACKs in slow start) re-covers the gap.
      snd_nxt_ = snd_una_;
      if (fin_sent_) fin_sent_ = false;  // FIN re-emitted after the data
      try_transmit();
      break;
    }
    case State::kClosed:
      return;
  }
  arm_rto();
}

void TcpConnection::arm_rto() {
  rto_timer_.arm(std::clamp(rto_, config_.rto_min, config_.rto_max));
}

void TcpConnection::update_rtt(sim::Duration sample) {
  // RFC 6298.
  if (!rtt_valid_) {
    rtt_valid_ = true;
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    const auto delta = srtt_ > sample ? srtt_ - sample : sample - srtt_;
    rttvar_ = (3 * rttvar_ + delta) / 4;
    srtt_ = (7 * srtt_ + sample) / 8;
  }
  rto_ = std::clamp(srtt_ + 4 * rttvar_, config_.rto_min, config_.rto_max);
  cc_.on_rtt_sample(sample);
}

// -----------------------------------------------------------------------
// Receiver
// -----------------------------------------------------------------------

void TcpConnection::handle_data(const proto::TcpHeader& h,
                                std::uint32_t payload) {
  const std::uint32_t end = h.seq + payload;
  if (seq_leq(end, rcv_nxt_)) {
    send_ack();  // stale retransmission: duplicate ACK, never delayed
    return;
  }
  if (seq_gt(h.seq, rcv_nxt_)) {
    // Out of order: stash the interval and emit a duplicate ACK
    // immediately — the sender's fast retransmit depends on it.
    ++stats_.out_of_order_segments;
    auto it = ooo_.begin();
    while (it != ooo_.end() && seq_lt(it->first, h.seq)) ++it;
    ooo_.insert(it, {h.seq, end});
    // Merge overlapping neighbours.
    for (std::size_t i = 0; i + 1 < ooo_.size();) {
      if (seq_geq(ooo_[i].second, ooo_[i + 1].first)) {
        ooo_[i].second = seq_gt(ooo_[i].second, ooo_[i + 1].second)
                             ? ooo_[i].second
                             : ooo_[i + 1].second;
        ooo_.erase(ooo_.begin() + static_cast<std::ptrdiff_t>(i) + 1);
      } else {
        ++i;
      }
    }
    send_ack();
    return;
  }

  // In order (possibly overlapping the left edge).
  const bool had_ooo = !ooo_.empty();
  const std::uint32_t before = rcv_nxt_;
  rcv_nxt_ = end;
  while (!ooo_.empty() && seq_leq(ooo_.front().first, rcv_nxt_)) {
    if (seq_gt(ooo_.front().second, rcv_nxt_)) {
      rcv_nxt_ = ooo_.front().second;
    }
    ooo_.erase(ooo_.begin());
  }
  const bool filled_hole = had_ooo && ooo_.empty();
  const std::uint32_t delivered = seq_diff(rcv_nxt_, before);
  delivered_bytes_ += delivered;
  if (on_data) on_data(delivered);

  if (peer_fin_seen_ && rcv_nxt_ == peer_fin_seq_) {
    ++rcv_nxt_;
    if (state_ == State::kEstablished) state_ = State::kClosedByPeer;
    if (on_peer_fin) on_peer_fin();
    send_ack();  // FIN consumed: always ack-now
    return;
  }
  if (filled_hole) {
    send_ack();  // reassembly completed: ack-now per RFC 5681
    return;
  }
  ++segs_since_ack_;
  if (ack_policy_.on_in_order_data(sim_.now(), segs_since_ack_) ==
      AckPolicy::Decision::kAckNow) {
    send_ack();
  } else {
    ++stats_.acks_delayed;
    if (!delack_timer_.pending()) delack_timer_.arm(ack_policy_.delay());
  }
}

void TcpConnection::send_ack() {
  ++stats_.acks_sent;
  auto pkt = proto::make_tcp_packet(
      local_.address, remote_.address, local_.port, remote_.port, snd_nxt_,
      rcv_nxt_, {.ack = true},
      static_cast<std::uint16_t>(config_.recv_window), 0);
  ack_emitted();
  send_packet_(std::move(pkt));
}

void TcpConnection::send_control(proto::TcpFlags flags, std::uint32_t seq) {
  auto pkt = proto::make_tcp_packet(
      local_.address, remote_.address, local_.port, remote_.port, seq,
      flags.ack ? rcv_nxt_ : 0, flags,
      static_cast<std::uint16_t>(config_.recv_window), 0);
  ++stats_.segments_sent;
  if (flags.ack) ack_emitted();
  send_packet_(std::move(pkt));
}

void TcpConnection::ack_emitted() {
  segs_since_ack_ = 0;
  delack_timer_.cancel();
}

void TcpConnection::delack_fired() {
  ++stats_.delack_fires;
  send_ack();
}

}  // namespace hydra::transport
