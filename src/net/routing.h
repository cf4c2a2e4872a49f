// Static routing, as in the paper's experiments ("we used static routing
// to force the topologies"): destination address -> next-hop address.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "proto/ip_address.h"
#include "proto/mac_address.h"

namespace hydra::net {

// Maps a node's IP to its link-layer address: the low 16 bits of
// 10.0.hi.lo (nodes are numbered, so the mapping is algebraic — no ARP
// needed). ip_for (net/discovery.h) is its exact inverse.
proto::MacAddress mac_for(proto::Ipv4Address ip);

// A world's static routes by node index, shared read-only by the
// RoutingTable of every node in it, so they cost no per-node storage.
class StaticRoutes {
 public:
  StaticRoutes() = default;
  StaticRoutes(const StaticRoutes&) = delete;
  StaticRoutes& operator=(const StaticRoutes&) = delete;
  virtual ~StaticRoutes() = default;

  // The next hop from node `from` toward node `to`: == to when delivery
  // is direct, and for any `to` outside the world.
  virtual std::uint32_t next_hop(std::uint32_t from, std::uint32_t to) const = 0;
};

class RoutingTable {
 public:
  // Installs or replaces the learned route `dst -> next_hop` (discovery,
  // or an explicit override). Learned routes take precedence over the
  // static hops.
  void add_route(proto::Ipv4Address dst, proto::Ipv4Address next_hop);

  // Consults `routes` as node `self` for destinations with no learned
  // route; null removes the static routes.
  void set_static_routes(std::shared_ptr<const StaticRoutes> routes,
                         std::uint32_t self);

  // Next hop toward `dst`: a learned route if present, else the static
  // hop, else `dst` itself (direct neighbour delivery). Inline: every
  // transmitted packet asks.
  proto::Ipv4Address next_hop(proto::Ipv4Address dst) const {
    if (const auto it = learned_.find(dst); it != learned_.end()) {
      return it->second;
    }
    return static_next_hop(dst);
  }

  // True when a learned route exists or the static hop is not `dst`.
  bool has_route(proto::Ipv4Address dst) const;
  // Learned routes only; the static hops are computed, not stored.
  std::size_t size() const { return learned_.size(); }

 private:
  proto::Ipv4Address static_next_hop(proto::Ipv4Address dst) const {
    const auto to = dst.node_index();
    if (!static_routes_ || !to) return dst;
    return proto::Ipv4Address::for_node(static_routes_->next_hop(self_, *to));
  }

  std::map<proto::Ipv4Address, proto::Ipv4Address> learned_;
  std::shared_ptr<const StaticRoutes> static_routes_;
  std::uint32_t self_ = 0;
};

}  // namespace hydra::net
