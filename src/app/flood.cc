#include "app/flood.h"

#include "proto/packet.h"

namespace hydra::app {

FloodApp::FloodApp(sim::Simulation& simulation, net::Node& node,
                   FloodConfig config)
    : sim_(simulation),
      node_(node),
      config_(config),
      timer_(simulation.scheduler(), [this] { tick(); }) {}

void FloodApp::start() { timer_.arm(config_.initial_offset); }

void FloodApp::tick() {
  if (sim_.now() > config_.stop) return;
  node_.stack().send(
      proto::make_flood_packet(node_.ip(), config_.payload_bytes));
  ++sent_;
  timer_.arm(config_.interval);
}

}  // namespace hydra::app
