// A clean-room TCP, sufficient for the paper's workload: one-way bulk
// transfer with cumulative ACKs over a lossy multi-hop MAC.
//
// Implemented: three-way handshake, MSS-sized segmentation, cumulative
// acknowledgements, out-of-order reassembly, RTO per RFC 6298 with
// Karn's rule and exponential backoff, and FIN teardown.
//
// TcpConfig::tuning names the connection's congestion-control and ACK
// schemes (see transport/tuning.h); the connection holds one
// CongestionControl and one AckPolicy built for them:
//   - CongestionControl owns cwnd/ssthresh and the loss-recovery state
//     machine (default: NewReno — slow start, congestion avoidance,
//     fast retransmit/recovery with partial-ACK handling; alternative:
//     CERL-style channel-vs-congestion loss differentiation).
//   - AckPolicy decides ack-now vs delay per in-order data arrival and
//     supplies the delack deadline (default: immediate — one ACK per
//     received data segment, matching the prototype's observed 1:1
//     data/ACK pattern; alternatives: classic and adaptive delayed
//     ACKs). Out-of-order arrivals, hole fills and FINs always ACK
//     immediately, regardless of policy.
// The defaults are the seed behaviour extracted verbatim;
// transport_differential_test pins them bit-identical to a frozen copy
// of the seed implementation.
//
// The payload is synthetic: send() appends a byte *count* to the stream;
// receivers observe in-order byte counts via on_data. Sequence numbers,
// segment boundaries and header fields are real and appear on the (MAC)
// wire — the MAC's ACK classifier reads them.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "proto/packet.h"
#include "sim/simulation.h"
#include "sim/timer.h"
#include "transport/ack_policy.h"
#include "transport/congestion.h"
#include "transport/seq.h"
#include "transport/tuning.h"

namespace hydra::transport {

struct TcpConfig {
  std::uint32_t mss = 1357;  // the paper's segment size (§5)
  // Fixed advertised receive window.
  std::uint32_t recv_window = 16 * 1357;
  std::uint32_t initial_cwnd_segments = 2;
  sim::Duration rto_initial = sim::Duration::millis(1000);
  // Linux's 200 ms floor assumes commodity link speeds; the prototype's
  // PHY is 10x slower (a full-size data frame is ~18 ms on air and a
  // filled 16-segment window inflates the RTT to several hundred ms), so
  // the floor scales accordingly — otherwise queueing spikes fire
  // spurious retransmission timeouts.
  sim::Duration rto_min = sim::Duration::millis(400);
  sim::Duration rto_max = sim::Duration::seconds(60);
  unsigned max_retries = 12;
  // Which congestion-control / ACK-policy schemes this connection runs.
  TransportTuning tuning;
};

static_assert(kDelackCeiling < TcpConfig{}.rto_min,
              "a held ACK must never fire the sender's RTO");

struct TcpStats {
  std::uint64_t segments_sent = 0;
  std::uint64_t segments_received = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t bytes_acked = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t dup_acks_seen = 0;
  std::uint64_t out_of_order_segments = 0;
  // ACKs the policy held back and later covered by a delack firing or a
  // forced ack-now (0 under the immediate policy).
  std::uint64_t acks_delayed = 0;
  std::uint64_t delack_fires = 0;
};

class TcpConnection {
 public:
  enum class State {
    kClosed,
    kSynSent,
    kSynReceived,
    kEstablished,
    kFinSent,
    kClosedByPeer,
  };

  using SendPacket = std::function<void(proto::PacketPtr)>;

  TcpConnection(sim::Simulation& simulation, TcpConfig config,
                proto::Endpoint local, proto::Endpoint remote, SendPacket send);

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  // Active open: emit a SYN and run the handshake.
  void connect();
  // Passive open: called by the listener with the peer's SYN.
  void accept(const proto::TcpHeader& syn);

  // Appends `bytes` synthetic bytes to the outgoing stream.
  void send(std::uint64_t bytes);
  // Half-closes: a FIN follows once all queued data is acknowledged.
  void close();

  // Delivers an incoming segment addressed to this connection.
  void segment_arrived(const proto::Packet& packet);

  // --- callbacks --------------------------------------------------------
  std::function<void()> on_established;
  // In-order payload bytes became available (cumulative delta).
  std::function<void(std::uint64_t bytes)> on_data;
  // All sent data (and FIN, if closing) has been acknowledged.
  std::function<void()> on_send_complete;
  std::function<void()> on_peer_fin;

  // --- introspection -----------------------------------------------------
  State state() const { return state_; }
  std::uint32_t cwnd() const { return cc_.cwnd(); }
  std::uint32_t ssthresh() const { return cc_.ssthresh(); }
  std::uint64_t bytes_in_flight() const { return seq_diff(snd_nxt_, snd_una_); }
  std::uint64_t delivered_bytes() const { return delivered_bytes_; }
  const TcpStats& stats() const { return stats_; }
  proto::Endpoint local() const { return local_; }
  proto::Endpoint remote() const { return remote_; }
  sim::Duration current_rto() const { return rto_; }
  // The schemes' state (for stats harvesting and scheme-specific
  // introspection in tests).
  const CongestionControl& congestion() const { return cc_; }
  const AckPolicy& ack_policy() const { return ack_policy_; }
  bool delack_pending() const { return delack_timer_.pending(); }

 private:
  // --- sender ---
  void try_transmit();
  void emit_segment(std::uint32_t seq, std::uint32_t len, bool is_retransmit);
  void retransmit_front();
  void handle_ack(const proto::TcpHeader& h);
  void on_rto();
  void arm_rto();
  void update_rtt(sim::Duration sample);
  std::uint32_t flight_size() const { return seq_diff(snd_nxt_, snd_una_); }
  std::uint32_t send_limit_seq() const;
  bool all_data_acked() const;
  void maybe_send_fin();
  CcView cc_view() const {
    return {.mss = config_.mss,
            .flight_size = flight_size(),
            .snd_nxt = snd_nxt_,
            .rtt_valid = rtt_valid_,
            .srtt = srtt_};
  }

  // --- receiver ---
  void handle_data(const proto::TcpHeader& h, std::uint32_t payload);
  void send_ack();
  void send_control(proto::TcpFlags flags, std::uint32_t seq);
  // Bookkeeping after any segment carrying a valid ack leaves: the
  // delack timer is moot and the pending-segment count restarts. A
  // no-op under the immediate policy (timer never armed, count 0).
  void ack_emitted();
  void delack_fired();

  sim::Simulation& sim_;
  TcpConfig config_;
  proto::Endpoint local_;
  proto::Endpoint remote_;
  SendPacket send_packet_;
  TcpStats stats_;

  State state_ = State::kClosed;

  // Send state (RFC 793 names).
  std::uint32_t iss_ = 0;
  std::uint32_t snd_una_ = 0;
  std::uint32_t snd_nxt_ = 0;
  std::uint32_t high_water_ = 0;  // highest sequence ever sent
  std::uint32_t peer_window_ = 0;
  std::uint64_t app_bytes_ = 0;   // total stream bytes the app queued
  bool fin_requested_ = false;
  bool fin_sent_ = false;
  bool send_complete_fired_ = false;
  std::uint32_t fin_seq_ = 0;

  // Congestion control (owns cwnd/ssthresh/recovery state).
  CongestionControl cc_;

  // RTT estimation.
  bool rtt_valid_ = false;
  sim::Duration srtt_;
  sim::Duration rttvar_;
  sim::Duration rto_;
  bool timing_segment_ = false;
  std::uint32_t timed_seq_ = 0;
  sim::TimePoint timed_sent_at_;
  unsigned consecutive_timeouts_ = 0;

  sim::Timer rto_timer_;

  // Receive state.
  std::uint32_t irs_ = 0;
  std::uint32_t rcv_nxt_ = 0;
  std::uint64_t delivered_bytes_ = 0;
  bool peer_fin_seen_ = false;
  std::uint32_t peer_fin_seq_ = 0;
  // Out-of-order byte intervals [first, second), sorted, disjoint.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ooo_;

  // ACK policy (receiver side).
  AckPolicy ack_policy_;
  sim::Timer delack_timer_;
  // In-order data segments received since the last ACK left.
  unsigned segs_since_ack_ = 0;
};

}  // namespace hydra::transport
