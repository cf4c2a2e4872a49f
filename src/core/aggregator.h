// Frame assembly: builds the next aggregate from the dual queues
// (paper §4.2.3 transmit process).
//
// Assembly order follows the paper exactly: broadcast subframes first —
// they sit closest to the PHY training sequences and are least exposed to
// channel aging — then unicast subframes that share the destination of
// the unicast queue head, up to the policy's maximum aggregate size.
//
// The size cap is either a byte budget (the paper's 5 KB) or, with the
// rate-adaptive extension, an airtime budget evaluated against each
// portion's PHY mode.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/policy.h"
#include "core/queues.h"
#include "phy/timing.h"
#include "proto/frames.h"
#include "proto/mode.h"

namespace hydra::core {

class Aggregator {
 public:
  explicit Aggregator(AggregationPolicy policy) : policy_(policy) {}

  const AggregationPolicy& policy() const { return policy_; }

  // The PHY modes of the two portions; required for airtime-capped
  // policies (kept current by the MAC when its rates change).
  void set_modes(const proto::PhyMode& broadcast_mode,
                 const proto::PhyMode& unicast_mode) {
    broadcast_mode_ = broadcast_mode;
    unicast_mode_ = unicast_mode;
  }

  // Whether the MAC may contend for the floor now. False only while the
  // delayed-aggregation policy is holding out for more subframes; in that
  // case `holdoff_deadline` is set to when the hold expires.
  bool may_transmit(const DualQueue& queues, sim::TimePoint now,
                    std::optional<sim::TimePoint>* holdoff_deadline) const;

  // Builds the next aggregate, consuming broadcast-queue entries and
  // popping the unicast subframes it includes. At least one subframe is
  // always produced if any queue is non-empty (a lone oversized subframe
  // still goes out).
  proto::AggregateFrame build(DualQueue& queues) const;

  // Rebuilds a retransmission: the unicast burst is fixed (802.11 retry
  // semantics), but freshly queued broadcast subframes may still ride
  // along when broadcast aggregation is on.
  proto::AggregateFrame build_retry(
      DualQueue& queues, std::span<const proto::MacSubframe> unicast_burst)
      const;

 private:
  // Budget bookkeeping in the policy's units (bytes or airtime ns).
  std::int64_t budget_limit() const;
  std::int64_t subframe_cost(const proto::MacSubframe& sf,
                             const proto::PhyMode& mode) const;
  std::int64_t frame_cost(const proto::AggregateFrame& frame) const;

  void fill_broadcast(DualQueue& queues, proto::AggregateFrame& frame,
                      std::int64_t reserved_cost) const;

  AggregationPolicy policy_;
  proto::PhyMode broadcast_mode_ = proto::base_mode();
  proto::PhyMode unicast_mode_ = proto::base_mode();
};

}  // namespace hydra::core
