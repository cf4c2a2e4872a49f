// AckPolicy: the receiver-side decision, per in-order data arrival,
// whether the cumulative ACK leaves now or waits on the delack timer,
// for the AckScheme it was built with. The connection keeps the
// mechanics — emitting ACKs, arming/cancelling the timer, flushing on
// piggyback — and consults the policy only for the now-vs-later
// decision and the timer deadline.
//
// An ACK leaves at once when the in-order segments since the last ACK
// reach the stretch cap: 1 under ack-imm, so every segment is acked and
// the delack timer is never armed, and kStretchCap otherwise. Else it
// waits for the delack deadline: kDelackFloor under ack-del; under
// ack-adpt, kGapMultiplier times an EWMA of the in-order arrival gap,
// clamped to [kDelackFloor, kDelackCeiling]. Segments of one aggregate
// land near-back-to-back, so the adaptive timer outlives the intra-burst
// gap and one stretch ACK answers the whole aggregate.
//
// Decisions the policy never sees (always ack-now, per RFC 5681 and the
// fast-retransmit machinery upstream): duplicate ACKs for out-of-order
// or stale segments, ACKs for segments that fill a reassembly hole, and
// FIN processing. A delayed scheme therefore can never starve the
// sender's loss detection.
#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/time.h"
#include "transport/tuning.h"

namespace hydra::transport {

// In-order segments withheld before an ACK is forced (ack-del, ack-adpt).
inline constexpr unsigned kStretchCap = 2;
// ack-del's fixed delack timer, and ack-adpt's floor.
inline constexpr sim::Duration kDelackFloor = sim::Duration::millis(100);
// ack-adpt's ceiling. tcp.h checks it stays under the RTO floor, so a
// held ACK can never fire the sender's retransmission timer.
inline constexpr sim::Duration kDelackCeiling = sim::Duration::millis(200);
// ack-adpt's deadline is this multiple of the smoothed arrival gap: a
// little past it, so the timer only fires once a burst has ended.
inline constexpr double kGapMultiplier = 2.0;

class AckPolicy {
 public:
  explicit AckPolicy(AckScheme scheme) : scheme_(scheme) {}

  enum class Decision { kAckNow, kDelay };

  // An in-order data segment advanced rcv_nxt at `now`. `pending` is
  // the number of segments received since the last ACK left, this one
  // included. kDelay leaves the ACK to an already-armed delack timer
  // (or arms one `delay()` from now).
  Decision on_in_order_data(sim::TimePoint now, unsigned pending) {
    if (scheme_ == AckScheme::kAdaptive) {
      if (have_arrival_) {
        const auto gap = now - last_arrival_;
        // EWMA with the RTT estimator's 7/8 gain.
        gap_ewma_ = have_gap_ ? (7 * gap_ewma_ + gap) / 8 : gap;
        have_gap_ = true;
      }
      have_arrival_ = true;
      last_arrival_ = now;
    }
    const unsigned cap = scheme_ == AckScheme::kImmediate ? 1 : kStretchCap;
    return pending >= cap ? Decision::kAckNow : Decision::kDelay;
  }

  // Delack deadline distance, consulted when a kDelay decision finds no
  // timer pending. Only ack-adpt measures a gap.
  sim::Duration delay() const {
    if (!have_gap_) return kDelackFloor;
    const auto stretched = sim::Duration::nanos(static_cast<std::int64_t>(
        static_cast<double>(gap_ewma_.ns()) * kGapMultiplier));
    return std::clamp(stretched, kDelackFloor, kDelackCeiling);
  }

  // ack-adpt's measured arrival-gap estimate (zero under the others).
  sim::Duration gap_estimate() const { return gap_ewma_; }

 private:
  AckScheme scheme_;
  bool have_arrival_ = false;
  bool have_gap_ = false;
  sim::TimePoint last_arrival_;
  sim::Duration gap_ewma_;
};

}  // namespace hydra::transport
