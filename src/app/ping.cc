#include "app/ping.h"

#include "transport/host.h"

namespace hydra::app {

PingResponderApp::PingResponderApp(net::Node& node, proto::Port port)
    : socket_(transport::mux_of(node).open_udp(port)) {
  socket_.on_receive = [this](const proto::Packet& packet) {
    ++echoed_;
    socket_.send_to({packet.ip.src, packet.udp->src_port},
                    packet.payload_bytes);
  };
}

PingApp::PingApp(sim::Simulation& simulation, net::Node& node,
                 PingConfig config, proto::Port local_port)
    : sim_(simulation),
      config_(config),
      socket_(transport::mux_of(node).open_udp(local_port)),
      interval_timer_(simulation.scheduler(), [this] { send_probe(); }),
      timeout_timer_(simulation.scheduler(), [this] { on_timeout(); }) {
  socket_.on_receive = [this](const proto::Packet&) { on_reply(); };
}

void PingApp::start() { interval_timer_.arm(sim::Duration::zero()); }

void PingApp::send_probe() {
  if (config_.count != 0 && sent_ >= config_.count) return;
  ++sent_;
  awaiting_reply_ = true;
  probe_sent_at_ = sim_.now();
  socket_.send_to(config_.destination, config_.payload_bytes);
  timeout_timer_.arm(config_.timeout);
}

void PingApp::on_reply() {
  if (!awaiting_reply_) return;  // late reply after its timeout
  awaiting_reply_ = false;
  timeout_timer_.cancel();
  ++received_;
  const auto rtt = sim_.now() - probe_sent_at_;
  total_rtt_ns_ += rtt.ns();
  if (rtt < min_rtt_) min_rtt_ = rtt;
  if (rtt > max_rtt_) max_rtt_ = rtt;
  interval_timer_.arm(config_.interval);
}

void PingApp::on_timeout() {
  awaiting_reply_ = false;
  ++timeouts_;
  interval_timer_.arm(config_.interval);
}

}  // namespace hydra::app
