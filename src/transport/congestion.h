// CongestionControl: owns cwnd/ssthresh and the loss-recovery state
// machine of a TcpConnection, for the CcScheme it was built with. The
// connection drives it through four hooks — cumulative ACK advance,
// duplicate ACK, retransmission timeout, RTT sample — and obeys the
// returned actions (retransmit the front of the flight, try to transmit
// more). All sequence-number machinery (what to retransmit, go-back-N,
// Karn's rule) stays in the connection; the scheme only decides *how the
// window reacts*.
//
// Both schemes run RFC 6582 NewReno's recovery machine, the seed
// behaviour extracted verbatim. CERL branches at the three points where
// a loss moves the window (recovery entry, recovery exit and the RTO
// collapse): a loss it classifies as channel retransmits without
// multiplicative backoff. NewReno classifies every loss as congestion,
// so it never takes those branches; the differential suite pins it
// bit-identical to the seed TCP.
#pragma once

#include <cstdint>

#include "sim/time.h"
#include "transport/tuning.h"

namespace hydra::transport {

// CERL's classifier keeps the minimum and maximum RTT samples seen so
// far; a loss detected while
//   srtt <= rtt_min + kCerlAlpha * (rtt_max - rtt_min)
// reads as channel loss (the path shows no queue buildup, so the drop
// was corruption, not congestion).
inline constexpr double kCerlAlpha = 0.55;

// How a detected loss was classified.
enum class LossKind { kCongestion, kChannel };

// Read-only view of the connection state the scheme consults. The
// connection fills it immediately before every hook call, so the values
// are exact at the decision point (flight_size in particular is read
// *before* any go-back-N rewind).
struct CcView {
  std::uint32_t mss = 0;
  std::uint32_t flight_size = 0;  // snd_nxt - snd_una
  std::uint32_t snd_nxt = 0;
  bool rtt_valid = false;
  sim::Duration srtt;
};

class CongestionControl {
 public:
  CongestionControl(CcScheme scheme, std::uint32_t initial_cwnd)
      : scheme_(scheme), cwnd_(initial_cwnd) {}

  std::uint32_t cwnd() const { return cwnd_; }
  std::uint32_t ssthresh() const { return ssthresh_; }
  bool in_recovery() const { return in_recovery_; }

  // Loss-classification tallies. One increment per recovery entry or
  // timeout, not per retransmitted segment.
  std::uint64_t channel_losses() const { return channel_losses_; }
  std::uint64_t congestion_losses() const { return congestion_losses_; }

  // A cumulative ACK advanced snd_una by `newly` bytes to `ack`.
  // Returns true when the scheme wants the front of the flight
  // retransmitted (the NewReno partial-ACK hole fill).
  bool on_ack(std::uint32_t ack, std::uint32_t newly, const CcView& view);

  // What the connection should do after a duplicate ACK.
  enum class DupAckAction {
    kNone,
    // Third duplicate: recovery entered, retransmit the front segment.
    kFastRetransmit,
    // In recovery: the window inflated, try to transmit more.
    kSendMore,
  };
  DupAckAction on_dup_ack(const CcView& view);

  // The retransmission timer fired (the connection performs the
  // go-back-N rewind itself, after this hook).
  void on_rto(const CcView& view);

  // The RTT estimator accepted a sample (already Karn-filtered by the
  // connection): it moves the RTT floor and ceiling.
  void on_rtt_sample(sim::Duration sample);

  // The verdict for a loss detected now. Always congestion under
  // NewReno, and under CERL until the RTT has been sampled.
  LossKind classify(const CcView& view) const;
  sim::Duration rtt_floor() const { return rtt_min_; }
  sim::Duration rtt_ceiling() const { return rtt_max_; }

 private:
  void enter_recovery(const CcView& view);
  void exit_recovery(const CcView& view);
  void collapse_on_timeout(const CcView& view);

  CcScheme scheme_;
  std::uint32_t cwnd_;
  std::uint32_t ssthresh_ = 0xffffffff;
  bool in_recovery_ = false;
  unsigned dup_acks_ = 0;
  std::uint32_t recover_ = 0;  // NewReno recovery point (snd_nxt at entry)
  std::uint64_t channel_losses_ = 0;
  std::uint64_t congestion_losses_ = 0;

  bool have_rtt_ = false;
  sim::Duration rtt_min_;
  sim::Duration rtt_max_;
  // A channel-classified fast-retransmit episode keeps its windows: on
  // exit, cwnd returns to the value it had at loss detection instead of
  // deflating to ssthresh.
  bool channel_episode_ = false;
  std::uint32_t channel_exit_cwnd_ = 0;
};

}  // namespace hydra::transport
