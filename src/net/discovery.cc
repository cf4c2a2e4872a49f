#include "net/discovery.h"

#include "util/assert.h"

namespace hydra::net {

proto::Ipv4Address ip_for(proto::MacAddress address) {
  HYDRA_ASSERT(!address.is_broadcast());
  // Node i has MAC (i+1).
  return proto::Ipv4Address::for_node(address.value() - 1u);
}

RouteDiscovery::RouteDiscovery(sim::Simulation& simulation, Node& node,
                               DiscoveryConfig config)
    : sim_(simulation),
      node_(node),
      config_(config),
      timeout_timer_(simulation.scheduler(), [this] { on_timeout(); }) {
  node_.stack().register_protocol(
      proto::kProtoDiscovery,
      [this](const proto::PacketPtr& packet, proto::MacAddress from) {
        handle_message(packet, from);
      });
  // Snoop forwarded RREPs to learn the forward route to the target.
  node_.stack().on_forward = [this](const proto::PacketPtr& packet,
                                    proto::MacAddress from) {
    if (packet->discovery &&
        packet->discovery->kind == proto::DiscoveryHeader::Kind::kRrep) {
      learn_route(packet->discovery->target, from);
    }
  };
}

void RouteDiscovery::discover(proto::Ipv4Address target, ResultCallback on_result) {
  HYDRA_ASSERT_MSG(!pending_.has_value(), "discovery already in progress");
  if (node_.routes().has_route(target) || target == node_.ip()) {
    if (on_result) on_result(true);
    return;
  }
  pending_ = Pending{target, next_request_id_++, 0, std::move(on_result)};
  send_rreq();
}

void RouteDiscovery::send_rreq() {
  HYDRA_ASSERT(pending_.has_value());
  ++pending_->attempts;
  ++rreqs_sent_;
  proto::DiscoveryHeader h;
  h.kind = proto::DiscoveryHeader::Kind::kRreq;
  h.request_id = pending_->request_id;
  h.origin = node_.ip();
  h.target = pending_->target;
  h.hop_count = 0;
  // Remember our own request so our re-broadcast suppression ignores
  // echoes of it.
  seen_before(h.origin, h.request_id);
  node_.stack().send(proto::make_discovery_packet(
      node_.ip(), proto::Ipv4Address::broadcast(), h, config_.max_hops));
  timeout_timer_.arm(config_.request_timeout);
}

void RouteDiscovery::on_timeout() {
  if (!pending_) return;
  if (pending_->attempts <= config_.max_retries) {
    // Retry under a fresh id so relays' duplicate suppression (which has
    // already seen the previous flood) lets it through.
    pending_->request_id = next_request_id_++;
    send_rreq();
    return;
  }
  auto cb = std::move(pending_->on_result);
  pending_.reset();
  if (cb) cb(false);
}

bool RouteDiscovery::seen_before(proto::Ipv4Address origin, std::uint16_t id) {
  const std::uint64_t key =
      (std::uint64_t{origin.value()} << 16) | id;
  if (!seen_.insert(key).second) return true;
  seen_fifo_.push_back(key);
  constexpr std::size_t kWindow = 512;
  if (seen_fifo_.size() > kWindow) {
    seen_.erase(seen_fifo_.front());
    seen_fifo_.pop_front();
  }
  return false;
}

void RouteDiscovery::learn_route(proto::Ipv4Address dst, proto::MacAddress via) {
  if (dst == node_.ip()) return;
  const auto next_hop = ip_for(via);
  if (next_hop == dst && node_.routes().has_route(dst)) return;
  node_.routes().add_route(dst, next_hop);
  ++routes_learned_;
}

void RouteDiscovery::handle_message(const proto::PacketPtr& packet,
                                    proto::MacAddress from) {
  HYDRA_ASSERT(packet->discovery.has_value());
  if (packet->discovery->kind == proto::DiscoveryHeader::Kind::kRreq) {
    handle_rreq(*packet, from);
  } else {
    handle_rrep(*packet, from);
  }
}

void RouteDiscovery::handle_rreq(const proto::Packet& packet, proto::MacAddress from) {
  const auto& h = *packet.discovery;
  if (h.origin == node_.ip()) return;  // echo of our own flood
  if (seen_before(h.origin, h.request_id)) {
    ++rreqs_suppressed_;
    return;
  }
  // Reverse route toward the origin via the node we heard this from.
  learn_route(h.origin, from);

  if (h.target == node_.ip()) {
    // We are the destination: answer along the reverse path.
    proto::DiscoveryHeader reply;
    reply.kind = proto::DiscoveryHeader::Kind::kRrep;
    reply.request_id = h.request_id;
    reply.origin = h.origin;
    reply.target = node_.ip();
    reply.hop_count = 0;
    ++rreps_sent_;
    node_.stack().send(proto::make_discovery_packet(node_.ip(), h.origin, reply));
    return;
  }
  // The flood's hop budget travels in the IP TTL (set by the origin).
  if (packet.ip.ttl <= 1) return;

  // Relay the flood once, with the hop count bumped.
  proto::DiscoveryHeader relayed = h;
  relayed.hop_count = static_cast<std::uint8_t>(h.hop_count + 1);
  ++rreqs_relayed_;
  node_.stack().send(proto::make_discovery_packet(
      packet.ip.src, proto::Ipv4Address::broadcast(), relayed,
      static_cast<std::uint8_t>(packet.ip.ttl - 1)));
}

void RouteDiscovery::handle_rrep(const proto::Packet& packet, proto::MacAddress from) {
  const auto& h = *packet.discovery;
  // Forward route to the target via whoever handed us the RREP.
  learn_route(h.target, from);
  if (!pending_ || pending_->target != h.target) return;
  timeout_timer_.cancel();
  auto cb = std::move(pending_->on_result);
  pending_.reset();
  if (cb) cb(true);
}

}  // namespace hydra::net
