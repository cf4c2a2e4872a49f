#include "transport/congestion.h"

#include <algorithm>

#include "transport/seq.h"

namespace hydra::transport {

bool CongestionControl::on_ack(std::uint32_t ack, std::uint32_t newly,
                               const CcView& view) {
  if (in_recovery_) {
    if (seq_geq(ack, recover_)) {
      // Full recovery: deflate.
      in_recovery_ = false;
      dup_acks_ = 0;
      exit_recovery(view);
      return false;
    }
    // Partial ACK: deflate by the acked data, re-inflate one MSS; the
    // connection retransmits the next hole.
    cwnd_ = std::max(view.mss, cwnd_ - std::min(cwnd_, newly) + view.mss);
    return true;
  }
  dup_acks_ = 0;
  if (cwnd_ < ssthresh_) {
    cwnd_ += view.mss;  // slow start
  } else {
    cwnd_ += std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(std::uint64_t{view.mss} * view.mss /
                                      cwnd_));
  }
  return false;
}

CongestionControl::DupAckAction CongestionControl::on_dup_ack(
    const CcView& view) {
  ++dup_acks_;
  if (!in_recovery_ && dup_acks_ == 3) {
    recover_ = view.snd_nxt;
    in_recovery_ = true;
    enter_recovery(view);
    return DupAckAction::kFastRetransmit;
  }
  if (in_recovery_) {
    cwnd_ += view.mss;  // inflate per extra duplicate
    return DupAckAction::kSendMore;
  }
  return DupAckAction::kNone;
}

void CongestionControl::on_rto(const CcView& view) {
  in_recovery_ = false;
  dup_acks_ = 0;
  collapse_on_timeout(view);
}

void CongestionControl::on_rtt_sample(sim::Duration sample) {
  if (!have_rtt_) {
    have_rtt_ = true;
    rtt_min_ = sample;
    rtt_max_ = sample;
    return;
  }
  rtt_min_ = std::min(rtt_min_, sample);
  rtt_max_ = std::max(rtt_max_, sample);
}

LossKind CongestionControl::classify(const CcView& view) const {
  // NewReno, or CERL with no RTT evidence yet: congestion, the NewReno
  // reaction.
  if (scheme_ != CcScheme::kCerl || !have_rtt_ || !view.rtt_valid) {
    return LossKind::kCongestion;
  }
  // Threshold between the observed floor and ceiling. Integer-nanosecond
  // arithmetic; <= keeps a flat-RTT path (floor == ceiling) classified
  // as channel — no queue ever built, so the drop cannot be congestion.
  const double span =
      static_cast<double>((rtt_max_ - rtt_min_).ns()) * kCerlAlpha;
  const auto threshold =
      rtt_min_ + sim::Duration::nanos(static_cast<std::int64_t>(span));
  return view.srtt <= threshold ? LossKind::kChannel : LossKind::kCongestion;
}

void CongestionControl::enter_recovery(const CcView& view) {
  if (classify(view) == LossKind::kChannel) {
    // Channel loss: retransmit (the caller does) but keep ssthresh and
    // remember today's cwnd — the window deflation on exit is skipped.
    ++channel_losses_;
    channel_episode_ = true;
    channel_exit_cwnd_ = cwnd_;
    // Inflate by the three duplicates already seen, mirroring NewReno's
    // entry inflation, so in-recovery transmission keeps flowing.
    cwnd_ += 3 * view.mss;
    return;
  }
  channel_episode_ = false;
  ++congestion_losses_;
  ssthresh_ = std::max(view.flight_size / 2, 2 * view.mss);
  cwnd_ = ssthresh_ + 3 * view.mss;
}

void CongestionControl::exit_recovery(const CcView& view) {
  if (channel_episode_) {
    channel_episode_ = false;
    cwnd_ = std::max(channel_exit_cwnd_, view.mss);
    return;
  }
  cwnd_ = std::max(ssthresh_, view.mss);
}

void CongestionControl::collapse_on_timeout(const CcView& view) {
  channel_episode_ = false;
  if (classify(view) == LossKind::kChannel) {
    // The ACK clock still has to be rebuilt after go-back-N, so cwnd
    // restarts, but ssthresh is untouched: slow start carries the
    // window straight back to where it was.
    ++channel_losses_;
    cwnd_ = view.mss;
    return;
  }
  ++congestion_losses_;
  ssthresh_ = std::max(view.flight_size / 2, 2 * view.mss);
  cwnd_ = view.mss;
}

}  // namespace hydra::transport
