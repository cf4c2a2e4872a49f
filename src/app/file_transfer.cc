#include "app/file_transfer.h"

#include "transport/host.h"

namespace hydra::app {

FileSenderApp::FileSenderApp(sim::Simulation& simulation, net::Node& node,
                             proto::Endpoint destination,
                             std::uint64_t file_bytes,
                             transport::TcpConfig tcp)
    : sim_(simulation),
      node_(node),
      destination_(destination),
      file_bytes_(file_bytes),
      tcp_config_(tcp),
      start_timer_(simulation.scheduler(), [this] { begin(); }) {}

void FileSenderApp::start(sim::TimePoint at) {
  const auto now = sim_.now();
  start_timer_.arm(at > now ? at - now : sim::Duration::zero());
}

void FileSenderApp::begin() {
  started_at_ = sim_.now();
  connection_ = &transport::mux_of(node_).tcp_connect(destination_, tcp_config_);
  connection_->on_send_complete = [this] {
    send_complete_ = true;
    completed_at_ = sim_.now();
  };
  connection_->send(file_bytes_);
  connection_->close();  // FIN follows the last data byte
}

FileReceiverApp::FileReceiverApp(sim::Simulation& simulation, net::Node& node,
                                 proto::Port port, std::uint64_t expected_bytes,
                                 transport::TcpConfig tcp)
    : sim_(simulation), expected_bytes_(expected_bytes) {
  transport::mux_of(node).tcp_listen(
      port, tcp, [this](transport::TcpConnection& conn) {
        const auto index = flows_.size();
        flows_.emplace_back();
        connections_.push_back(&conn);
        conn.on_data = [this, index](std::uint64_t bytes) {
          auto& flow = flows_[index];
          if (flow.received == 0) flow.first_byte = sim_.now();
          flow.received += bytes;
          if (!flow.complete && flow.received >= expected_bytes_) {
            flow.complete = true;
            flow.completed_at = sim_.now();
          }
        };
      });
}

std::uint64_t FileReceiverApp::total_received() const {
  std::uint64_t total = 0;
  for (const auto& flow : flows_) total += flow.received;
  return total;
}

bool FileReceiverApp::all_complete(std::size_t expected_flows) const {
  if (flows_.size() < expected_flows) return false;
  for (const auto& flow : flows_) {
    if (!flow.complete) return false;
  }
  return true;
}

}  // namespace hydra::app
