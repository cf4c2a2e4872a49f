// Experiment configuration and results: a ScenarioSpec (which topology
// to build) plus the workload riding on it. The workload side — attaching
// traffic and running to completion — lives one layer up in
// app/experiment.h (app::run_experiment), so this layer never names the
// applications it carries.
#pragma once

#include <cstdint>
#include <vector>

#include "mac/stats.h"
#include "sim/time.h"
#include "topo/scenario.h"
#include "transport/tcp.h"

namespace hydra::topo {

enum class TrafficKind {
  kUdp,
  kTcp,
  // Two simultaneous file transfers in opposite directions along the
  // first session (extension; the natural showcase for bi-directional
  // aggregation, and the paper's §7 plan to mix traffic kinds).
  kTcpBidirectional,
};

// Deterministic per-link channel-loss injection: on node `node_index`,
// drop every `period`-th matching packet (after skipping `offset`
// matches) headed for `next_hop_index`. Counter-based — no RNG — so a
// loss pattern is a pure function of the traffic, reproducible run to
// run. `next_hop_index < 0` matches any next hop; `tcp_data_only`
// restricts matching to TCP segments carrying payload (pure ACKs and
// control traffic pass), which keeps the reverse ACK channel clean for
// loss-differentiation experiments.
struct LossRule {
  std::uint32_t node_index = 0;
  std::int32_t next_hop_index = -1;
  std::uint32_t period = 0;  // 0 disables the rule
  std::uint32_t offset = 0;
  bool tcp_data_only = true;
};

struct ExperimentConfig {
  // The topology, per-node configuration and traffic sessions. The four
  // paper topologies are the named specs (ScenarioSpec::one_hop()
  // through fig6_star()); any other family/size runs unchanged.
  ScenarioSpec scenario = ScenarioSpec::two_hop();

  TrafficKind traffic = TrafficKind::kTcp;

  // TCP workload (paper §5): one-way 0.2 MB file transfer per session.
  std::uint64_t tcp_file_bytes = 200'000;
  transport::TcpConfig tcp;

  // Injected channel losses (see LossRule). Empty = lossless links; MAC
  // contention and collisions remain the only loss source, as before.
  std::vector<LossRule> losses;

  // UDP workload.
  std::uint32_t udp_payload_bytes = 1048;  // 1140 B MAC frames
  sim::Duration udp_interval = sim::Duration::millis(100);
  std::uint32_t udp_packets_per_tick = 4;
  sim::Duration udp_duration = sim::Duration::seconds(20);

  // Flooding load (Fig. 9): every node broadcasts at this interval.
  bool flooding = false;
  sim::Duration flood_interval = sim::Duration::seconds(1);
  std::uint32_t flood_payload_bytes = 40;

  std::uint64_t seed = 1;
  sim::Duration max_sim_time = sim::Duration::seconds(600);
};

struct FlowResult {
  double throughput_mbps = 0.0;
  std::uint64_t bytes = 0;
  sim::Duration elapsed;
  bool completed = false;
};

struct ExperimentResult {
  std::vector<FlowResult> flows;
  std::vector<mac::MacStats> node_stats;
  std::vector<std::uint32_t> relay_indices;
  sim::Duration sim_time;

  // Medium accounting: frames put on the air and receiver deliveries the
  // medium scheduled for them. deliveries ÷ transmissions is the
  // per-frame fan-out: the in-reach neighbor count, N−1 when the whole
  // world fits inside one reach radius (what bench_ext_medium_scale
  // charts).
  std::uint64_t phy_transmissions = 0;
  std::uint64_t phy_deliveries = 0;

  // Full delivery-list rebuilds.
  std::uint64_t phy_rebuilds = 0;

  // Mobility accounting: detach()/move_node() calls the medium saw on
  // attached PHYs, and how many moves it absorbed incrementally instead
  // of falling back to a rebuild. All zero for static scenarios
  // (MobilityKind::kNone).
  std::uint64_t phy_detaches = 0;
  std::uint64_t phy_moves = 0;
  std::uint64_t phy_incremental_moves = 0;

  // Events the scheduler executed over the run.
  std::uint64_t sched_executed_events = 0;

  // Transport accounting, summed over every TCP connection the workload
  // opened (client and accepted sides): retransmissions, RTO firings,
  // ACKs emitted, ACKs the policy delayed, and the congestion scheme's
  // loss classification tallies (channel vs congestion episodes; NewReno
  // reports everything as congestion). transport_injected_drops counts
  // packets the LossRule filters discarded across all nodes.
  std::uint64_t tcp_retransmits = 0;
  std::uint64_t tcp_timeouts = 0;
  std::uint64_t tcp_acks_sent = 0;
  std::uint64_t tcp_acks_delayed = 0;
  std::uint64_t tcp_channel_losses = 0;
  std::uint64_t tcp_congestion_losses = 0;
  std::uint64_t transport_injected_drops = 0;

  // Slowest session (the paper reports worst-case for the star).
  double worst_throughput_mbps() const;
  double total_throughput_mbps() const;
  const mac::MacStats& relay_stats() const;  // first relay
};

}  // namespace hydra::topo
