#include "app/udp_cbr.h"

#include "transport/host.h"

namespace hydra::app {

UdpCbrApp::UdpCbrApp(sim::Simulation& simulation, net::Node& node,
                     UdpCbrConfig config, proto::Port local_port)
    : sim_(simulation),
      config_(config),
      socket_(transport::mux_of(node).open_udp(local_port)),
      timer_(simulation.scheduler(), [this] { tick(); }) {}

void UdpCbrApp::start() {
  const auto now = sim_.now();
  const auto delay = config_.start > now ? config_.start - now
                                         : sim::Duration::zero();
  timer_.arm(delay);
}

void UdpCbrApp::tick() {
  if (sim_.now() > config_.stop) return;
  for (std::uint32_t i = 0; i < config_.packets_per_tick; ++i) {
    socket_.send_to(config_.destination, config_.payload_bytes);
    ++sent_;
  }
  timer_.arm(config_.interval);
}

}  // namespace hydra::app
