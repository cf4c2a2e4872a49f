#include "app/experiment.h"

#include <memory>
#include <utility>
#include <vector>

#include "app/file_transfer.h"
#include "app/flood.h"
#include "app/udp_cbr.h"
#include "app/udp_sink.h"
#include "net/node.h"
#include "util/assert.h"

namespace hydra::app {

namespace {

constexpr proto::Port kTcpPort = 5001;
constexpr proto::Port kUdpPort = 9001;

}  // namespace

topo::ExperimentResult run_experiment(const topo::ExperimentConfig& config) {
  using topo::TrafficKind;

  auto scenario = topo::Scenario::build(config.scenario, config.seed);
  sim::Simulation& simulation = scenario.sim();
  const std::size_t node_count = scenario.size();

  // Install injected channel losses. Counter-based (no RNG): the drop
  // pattern is a pure function of the traffic, so reruns stay
  // bit-identical. Rules on the same node chain; each keeps its own
  // match counter.
  for (const auto& rule : config.losses) {
    if (rule.period == 0 || rule.node_index >= node_count) continue;
    auto& stack = scenario.node(rule.node_index).stack();
    const bool any_hop = rule.next_hop_index < 0;
    const auto hop_ip = any_hop ? proto::Ipv4Address{}
                                : proto::Ipv4Address::for_node(static_cast<
                                      std::uint32_t>(rule.next_hop_index));
    stack.drop_filter = [rule, any_hop, hop_ip,
                         prev = std::move(stack.drop_filter),
                         matches = std::uint64_t{0}](
                            const proto::Packet& p,
                            proto::Ipv4Address next_hop) mutable {
      if (prev && prev(p, next_hop)) return true;
      if (rule.tcp_data_only && (!p.tcp.has_value() || p.payload_bytes == 0)) {
        return false;
      }
      if (!any_hop && next_hop != hop_ip) return false;
      const auto n = matches++;
      return n >= rule.offset && (n - rule.offset) % rule.period == 0;
    };
  }

  auto sessions = config.scenario.sessions;
  HYDRA_ASSERT_MSG(!sessions.empty() || config.flooding,
                   "a scenario needs sessions or flooding traffic");
  if (config.traffic == TrafficKind::kTcpBidirectional) {
    HYDRA_ASSERT_MSG(!sessions.empty(),
                     "bidirectional traffic reverses the first session");
    const auto forward = sessions.front();
    sessions = {forward, {forward.receiver, forward.sender}};
  }

  // Flooding load: every node broadcasts, with staggered phases.
  std::vector<std::unique_ptr<FloodApp>> flooders;
  if (config.flooding) {
    for (std::uint32_t i = 0; i < node_count; ++i) {
      FloodConfig fc;
      fc.payload_bytes = config.flood_payload_bytes;
      fc.interval = config.flood_interval;
      fc.initial_offset = sim::Duration::millis(17) * (i + 1);
      flooders.push_back(
          std::make_unique<FloodApp>(simulation, scenario.node(i), fc));
      flooders.back()->start();
    }
  }

  topo::ExperimentResult result;
  result.relay_indices = scenario.relay_indices();

  if (config.traffic != TrafficKind::kUdp && !sessions.empty()) {
    // One FileReceiver per distinct receiving node.
    std::vector<std::unique_ptr<FileReceiverApp>> receivers(node_count);
    std::vector<std::unique_ptr<FileSenderApp>> senders;
    std::vector<std::size_t> flows_at(node_count, 0);
    for (std::size_t s = 0; s < sessions.size(); ++s) {
      const auto [src, dst] = sessions[s];
      if (!receivers[dst]) {
        receivers[dst] = std::make_unique<FileReceiverApp>(
            simulation, scenario.node(dst), kTcpPort, config.tcp_file_bytes,
            config.tcp);
      }
      ++flows_at[dst];
      senders.push_back(std::make_unique<FileSenderApp>(
          simulation, scenario.node(src),
          proto::Endpoint{proto::Ipv4Address::for_node(dst), kTcpPort},
          config.tcp_file_bytes, config.tcp));
      senders.back()->start(
          sim::TimePoint::at(sim::Duration::millis(10) * (s + 1)));
    }

    // Run in slices until every flow completes (or the time cap).
    const auto deadline = sim::TimePoint::at(config.max_sim_time);
    while (simulation.now() < deadline) {
      bool all_done = true;
      for (std::size_t d = 0; d < node_count; ++d) {
        if (receivers[d] && !receivers[d]->all_complete(flows_at[d])) {
          all_done = false;
        }
      }
      if (all_done) break;
      simulation.run_for(sim::Duration::millis(200));
    }

    // Collect per-session results. Sessions at a shared receiver appear
    // in accept order; map flows to senders by matching counts.
    for (std::size_t s = 0; s < sessions.size(); ++s) {
      const auto [src, dst] = sessions[s];
      topo::FlowResult fr;
      fr.bytes = config.tcp_file_bytes;
      const auto& recv = *receivers[dst];
      // Find this sender's flow: flows at the receiver are indexed in
      // connection-accept order, which matches the staggered start order.
      std::size_t flow_index = 0;
      for (std::size_t prior = 0; prior < s; ++prior) {
        if (sessions[prior].receiver == dst) ++flow_index;
      }
      if (flow_index < recv.flow_count()) {
        const auto& flow = recv.flow(flow_index);
        fr.completed = flow.complete;
        if (flow.complete) {
          const auto start = senders[s]->started_at();
          fr.elapsed = flow.completed_at - start;
          fr.throughput_mbps = static_cast<double>(fr.bytes) * 8.0 /
                               fr.elapsed.seconds_f() / 1e6;
        }
      }
      result.flows.push_back(fr);
    }

    // Transport accounting over every connection the workload opened.
    const auto add_tcp = [&result](const transport::TcpConnection& conn) {
      const auto& st = conn.stats();
      result.tcp_retransmits += st.retransmits;
      result.tcp_timeouts += st.timeouts;
      result.tcp_acks_sent += st.acks_sent;
      result.tcp_acks_delayed += st.acks_delayed;
      result.tcp_channel_losses += conn.congestion().channel_losses();
      result.tcp_congestion_losses += conn.congestion().congestion_losses();
    };
    for (const auto& sender : senders) {
      if (sender->connection()) add_tcp(*sender->connection());
    }
    for (const auto& recv : receivers) {
      if (!recv) continue;
      for (std::size_t i = 0; i < recv->flow_count(); ++i) {
        add_tcp(recv->connection(i));
      }
    }
  } else if (config.traffic == TrafficKind::kUdp && !sessions.empty()) {
    // UDP: CBR from each session sender to a sink at the receiver. A
    // sink aggregates every session terminating at its node, so results
    // carry one flow per distinct receiver, in session order.
    std::vector<std::unique_ptr<UdpSinkApp>> sinks(node_count);
    std::vector<std::unique_ptr<UdpCbrApp>> cbrs;
    const auto stop = sim::TimePoint::at(config.udp_duration);
    for (const auto [src, dst] : sessions) {
      if (!sinks[dst]) {
        sinks[dst] = std::make_unique<UdpSinkApp>(simulation,
                                                  scenario.node(dst), kUdpPort);
      }
      UdpCbrConfig uc;
      uc.destination = {proto::Ipv4Address::for_node(dst), kUdpPort};
      uc.payload_bytes = config.udp_payload_bytes;
      uc.interval = config.udp_interval;
      uc.packets_per_tick = config.udp_packets_per_tick;
      uc.stop = stop;
      cbrs.push_back(std::make_unique<UdpCbrApp>(simulation,
                                                 scenario.node(src), uc, 9000));
      cbrs.back()->start();
    }
    // Run through the send window plus a drain period.
    simulation.run_until(stop + sim::Duration::seconds(2));

    std::vector<bool> collected(node_count, false);
    for (const auto [src, dst] : sessions) {
      (void)src;
      if (collected[dst]) continue;  // sink aggregates sessions at one node
      collected[dst] = true;
      topo::FlowResult fr;
      const auto& sink = *sinks[dst];
      fr.bytes = sink.payload_bytes();
      fr.elapsed = config.udp_duration;
      fr.completed = true;
      fr.throughput_mbps = sink.goodput_mbps(config.udp_duration);
      result.flows.push_back(fr);
    }
  } else {
    // Pure flooding: run out the clock.
    simulation.run_until(sim::TimePoint::at(config.max_sim_time));
  }

  result.sim_time = simulation.now().since_origin();
  result.phy_transmissions = scenario.medium().transmissions_started();
  result.phy_deliveries = scenario.medium().deliveries_scheduled();
  result.phy_rebuilds = scenario.medium().rebuilds();
  result.phy_detaches = scenario.medium().detaches();
  result.phy_moves = scenario.medium().moves();
  result.phy_incremental_moves = scenario.medium().incremental_moves();
  result.sched_executed_events = simulation.scheduler().executed_events();
  for (std::size_t i = 0; i < node_count; ++i) {
    result.node_stats.push_back(scenario.node(i).mac_stats());
    result.transport_injected_drops += scenario.node(i).stack().injected_drops();
  }
  return result;
}

}  // namespace hydra::app
