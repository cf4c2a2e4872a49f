// The transport-scheme axis: which congestion control and which ACK
// policy a TcpConnection runs. Rides inside TcpConfig so every existing
// plumbing path (mux listen/connect, the file-transfer apps,
// topo::ExperimentConfig, the sweep grid) carries it without new
// parameters. Each scheme's fixed values are named constants beside the
// class that runs it (congestion.h, ack_policy.h).
//
// The defaults reproduce the seed TCP exactly: NewReno congestion
// control and the strict immediate-ACK receiver (one ACK per data
// segment). `transport_differential_test` pins that equivalence — trace
// digests, stats tables and event counts — against a frozen copy of the
// seed implementation.
#pragma once

#include <string>

namespace hydra::transport {

// Congestion-control scheme (owns cwnd/ssthresh evolution).
enum class CcScheme {
  // Slow start, congestion avoidance, fast retransmit/recovery with
  // partial-ACK hole filling — the seed behaviour, extracted.
  kNewReno,
  // NewReno plus CERL-style loss differentiation: an RTT-threshold
  // estimate classifies each loss as channel (retransmit, no
  // multiplicative backoff) or congestion (normal NewReno reaction).
  kCerl,
};

// Receiver ACK policy (ack-now vs delay decisions + the delack timer).
enum class AckScheme {
  // One ACK per received data segment (the seed behaviour, and the 1:1
  // data/ACK pattern the paper's prototype observed).
  kImmediate,
  // Classic delayed ACKs: hold up to two in-order segments, bounded by
  // a fixed delack timer.
  kDelayed,
  // Adaptive delayed ACKs (TCP-AAD style): measures the inter-segment
  // arrival gap — the MAC aggregation interval as seen at the receiver
  // — and stretches the delack deadline to just past it, so one ACK
  // covers a whole aggregate burst.
  kAdaptive,
};

inline std::string to_string(CcScheme scheme) {
  switch (scheme) {
    case CcScheme::kNewReno: return "newreno";
    case CcScheme::kCerl: return "cerl";
  }
  return "?";
}

inline std::string to_string(AckScheme scheme) {
  switch (scheme) {
    case AckScheme::kImmediate: return "ack-imm";
    case AckScheme::kDelayed: return "ack-del";
    case AckScheme::kAdaptive: return "ack-adpt";
  }
  return "?";
}

struct TransportTuning {
  CcScheme cc = CcScheme::kNewReno;
  AckScheme ack = AckScheme::kImmediate;
};

// Compact axis label: "newreno+ack-imm".
inline std::string to_string(const TransportTuning& tuning) {
  return to_string(tuning.cc) + "+" + to_string(tuning.ack);
}

}  // namespace hydra::transport
