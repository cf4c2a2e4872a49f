#include "net/routing.h"

#include <utility>

namespace hydra::net {

proto::MacAddress mac_for(proto::Ipv4Address ip) {
  if (ip.is_broadcast()) return proto::MacAddress::broadcast();
  // Node i has IP 10.0.hi.lo and MAC address (i+1) == hi:lo.
  return proto::MacAddress(static_cast<std::uint16_t>(ip.value() & 0xffff));
}

void RoutingTable::add_route(proto::Ipv4Address dst, proto::Ipv4Address next_hop) {
  learned_[dst] = next_hop;
}

void RoutingTable::set_static_routes(std::shared_ptr<const StaticRoutes> routes,
                                     std::uint32_t self) {
  static_routes_ = std::move(routes);
  self_ = self;
}

bool RoutingTable::has_route(proto::Ipv4Address dst) const {
  return learned_.contains(dst) || static_next_hop(dst) != dst;
}

}  // namespace hydra::net
