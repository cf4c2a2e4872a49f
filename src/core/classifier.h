// Cross-layer TCP ACK classification (paper §3.3 / §4.2.4).
//
// The MAC inspects the transport header of outgoing packets. "Pure" TCP
// ACKs — segments with no data that are not part of connection setup or
// teardown — are assigned to the broadcast queue while keeping their
// unicast next-hop address: they are transmitted in the broadcast portion
// of aggregates and never link-acknowledged; TCP's cumulative ACKs absorb
// the occasional loss.
#pragma once

#include <cstdint>

#include "proto/packet.h"

namespace hydra::core {

enum class TrafficClass {
  kUnicast,    // requires link-level ACK; unicast queue
  kBroadcast,  // broadcast-addressed; broadcast queue
  kTcpAck,     // pure TCP ACK reclassified as broadcast (cross-layer)
};

class TcpAckClassifier {
 public:
  explicit TcpAckClassifier(bool tcp_ack_as_broadcast)
      : tcp_ack_as_broadcast_(tcp_ack_as_broadcast) {}

  // Classifies an outgoing packet. `link_broadcast` marks packets whose
  // link-layer destination is the broadcast address.
  TrafficClass classify(const proto::Packet& packet, bool link_broadcast) const;

  // Counters for the experiment reports.
  std::uint64_t acks_classified() const { return acks_classified_; }
  std::uint64_t packets_seen() const { return packets_seen_; }

 private:
  bool tcp_ack_as_broadcast_;
  mutable std::uint64_t acks_classified_ = 0;
  mutable std::uint64_t packets_seen_ = 0;
};

}  // namespace hydra::core
