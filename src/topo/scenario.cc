#include "topo/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <numbers>
#include <utility>

#include "sim/rng.h"
#include "stats/metrics.h"
#include "stats/table.h"
#include "util/assert.h"
#include "util/crc32.h"

namespace hydra::topo {

namespace {

constexpr double kPi = std::numbers::pi;

// Minimum separation accepted between random placements; closer than
// this the log-distance path loss model stops being meaningful.
constexpr double kMinSeparationM = 0.5;

std::size_t grid_index(std::size_t row, std::size_t col, std::size_t cols) {
  return row * cols + col;
}

}  // namespace

std::string to_string(Family family) {
  switch (family) {
    case Family::kChain: return "chain";
    case Family::kStar: return "star";
    case Family::kGrid: return "grid";
    case Family::kRing: return "ring";
    case Family::kRandom: return "random";
  }
  HYDRA_UNREACHABLE("bad scenario family");
}

std::string to_string(MediumPolicy policy) {
  switch (policy) {
    case MediumPolicy::kAuto: return "auto";
    case MediumPolicy::kFullMesh: return "full-mesh";
    case MediumPolicy::kCulled: return "culled";
    case MediumPolicy::kSharded: return "sharded";
  }
  HYDRA_UNREACHABLE("bad medium policy");
}

double WorldBounds::diagonal_m() const {
  return std::sqrt(width_m() * width_m() + height_m() * height_m());
}

ScenarioSpec ScenarioSpec::chain(std::size_t n) {
  HYDRA_ASSERT(n >= 2);
  ScenarioSpec spec;
  spec.family = Family::kChain;
  spec.nodes = n;
  spec.sessions = {{0, static_cast<std::uint32_t>(n - 1)}};
  return spec;
}

ScenarioSpec ScenarioSpec::star(std::size_t senders) {
  HYDRA_ASSERT(senders >= 1);
  ScenarioSpec spec;
  spec.family = Family::kStar;
  spec.senders = senders;
  // Node 0 receives, node 1 is the hub, nodes 2..K+1 send.
  for (std::uint32_t k = 0; k < senders; ++k) spec.sessions.push_back({k + 2, 0});
  return spec;
}

ScenarioSpec ScenarioSpec::grid(std::size_t rows, std::size_t cols) {
  HYDRA_ASSERT(rows >= 1 && cols >= 1 && rows * cols >= 2);
  ScenarioSpec spec;
  spec.family = Family::kGrid;
  spec.rows = rows;
  spec.cols = cols;
  // Corner to opposite corner: the longest Manhattan path.
  spec.sessions = {{0, static_cast<std::uint32_t>(rows * cols - 1)}};
  return spec;
}

ScenarioSpec ScenarioSpec::ring(std::size_t n) {
  HYDRA_ASSERT(n >= 3);
  ScenarioSpec spec;
  spec.family = Family::kRing;
  spec.nodes = n;
  // Across the ring: the longest shorter-arc route.
  spec.sessions = {{0, static_cast<std::uint32_t>(n / 2)}};
  return spec;
}

ScenarioSpec ScenarioSpec::random(std::size_t n, std::uint64_t placement_seed) {
  HYDRA_ASSERT(n >= 2);
  ScenarioSpec spec;
  spec.family = Family::kRandom;
  spec.nodes = n;
  spec.placement_seed = placement_seed;
  spec.sessions = {{0, static_cast<std::uint32_t>(n - 1)}};
  return spec;
}

ScenarioSpec ScenarioSpec::one_hop() { return chain(2); }
ScenarioSpec ScenarioSpec::two_hop() { return chain(3); }
ScenarioSpec ScenarioSpec::three_hop() { return chain(4); }

ScenarioSpec ScenarioSpec::fig6_star() {
  ScenarioSpec spec = star(2);
  // The paper's Fig. 6 placement: receiver left of the center, the two
  // senders close together on the right (node 1 is the center).
  const double s = spec.spacing_m;
  spec.positions_override = {{-s, 0.0},
                             {0.0, 0.0},
                             {s * 0.98, s * 0.2},
                             {s * 0.98, -s * 0.2}};
  return spec;
}

std::size_t ScenarioSpec::node_count() const {
  switch (family) {
    case Family::kChain:
    case Family::kRing:
    case Family::kRandom:
      return nodes;
    case Family::kStar:
      return senders + 2;
    case Family::kGrid:
      return rows * cols;
  }
  HYDRA_UNREACHABLE("bad scenario family");
}

std::vector<phy::Position> ScenarioSpec::positions() const {
  const std::size_t n = node_count();
  if (!positions_override.empty()) {
    HYDRA_ASSERT(positions_override.size() == n);
    return positions_override;
  }
  std::vector<phy::Position> pos;
  pos.reserve(n);
  switch (family) {
    case Family::kChain:
      for (std::size_t i = 0; i < n; ++i) {
        pos.push_back({spacing_m * static_cast<double>(i), 0.0});
      }
      return pos;
    case Family::kStar: {
      // Receiver opposite the senders, hub at the origin, senders on a
      // spacing_m arc spanning +-60 degrees.
      pos.push_back({-spacing_m, 0.0});
      pos.push_back({0.0, 0.0});
      for (std::size_t k = 0; k < senders; ++k) {
        const double angle =
            senders == 1 ? 0.0
                         : -kPi / 3.0 + (2.0 * kPi / 3.0) *
                                            static_cast<double>(k) /
                                            static_cast<double>(senders - 1);
        pos.push_back({spacing_m * std::cos(angle),
                       spacing_m * std::sin(angle)});
      }
      return pos;
    }
    case Family::kGrid:
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
          pos.push_back({spacing_m * static_cast<double>(c),
                         spacing_m * static_cast<double>(r)});
        }
      }
      return pos;
    case Family::kRing: {
      // Adjacent nodes spacing_m apart on a circle.
      const double radius = spacing_m / (2.0 * std::sin(kPi / static_cast<double>(n)));
      for (std::size_t i = 0; i < n; ++i) {
        const double angle = 2.0 * kPi * static_cast<double>(i) / static_cast<double>(n);
        pos.push_back({radius * std::cos(angle), radius * std::sin(angle)});
      }
      return pos;
    }
    case Family::kRandom: {
      // Uniform placement in a square, connected by construction: every
      // node after the first lands within range_m of an earlier node (and
      // no closer than kMinSeparationM to any). Deterministic in
      // placement_seed and independent of the simulation seed.
      HYDRA_ASSERT(range_m > kMinSeparationM);
      const double extent =
          spacing_m * std::ceil(std::sqrt(static_cast<double>(n)));
      sim::Rng rng(placement_seed);
      const auto draw = [&]() -> phy::Position {
        return {rng.uniform() * extent, rng.uniform() * extent};
      };
      pos.push_back(draw());
      for (std::size_t i = 1; i < n; ++i) {
        phy::Position p{};
        bool placed = false;
        for (int attempt = 0; attempt < 1000 && !placed; ++attempt) {
          p = draw();
          bool connected = false, clear = true;
          for (const auto& q : pos) {
            const double d = phy::distance_m(p, q);
            if (d <= range_m) connected = true;
            if (d < kMinSeparationM) clear = false;
          }
          placed = connected && clear;
        }
        if (!placed) {
          // Degenerate draw streak (e.g. spacing_m far above range_m):
          // chain off the previous node instead. Deliberately NOT
          // clamped to the square — clamping would stack every further
          // node on the same point. The step stays within range of the
          // predecessor yet above the minimum separation from it (a
          // freak near-overlap with some *other* earlier node remains
          // possible; harmless, the medium clamps distance anyway).
          const double step = std::max(0.8 * range_m, kMinSeparationM);
          p = {pos.back().x_m + step, pos.back().y_m};
        }
        pos.push_back(p);
      }
      return pos;
    }
  }
  HYDRA_UNREACHABLE("bad scenario family");
}

std::vector<std::vector<std::uint32_t>> ScenarioSpec::adjacency() const {
  return adjacency(positions());
}

std::vector<std::vector<std::uint32_t>> ScenarioSpec::adjacency(
    const std::vector<phy::Position>& positions) const {
  const std::size_t n = node_count();
  HYDRA_ASSERT(positions.size() == n);
  std::vector<std::vector<std::uint32_t>> adj(n);
  const auto link = [&](std::size_t a, std::size_t b) {
    adj[a].push_back(static_cast<std::uint32_t>(b));
    adj[b].push_back(static_cast<std::uint32_t>(a));
  };
  switch (family) {
    case Family::kChain:
      for (std::size_t i = 0; i + 1 < n; ++i) link(i, i + 1);
      break;
    case Family::kStar:
      for (std::size_t i = 0; i < n; ++i) {
        if (i != 1) link(1, i);
      }
      break;
    case Family::kGrid:
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
          if (c + 1 < cols) link(grid_index(r, c, cols), grid_index(r, c + 1, cols));
          if (r + 1 < rows) link(grid_index(r, c, cols), grid_index(r + 1, c, cols));
        }
      }
      break;
    case Family::kRing:
      for (std::size_t i = 0; i < n; ++i) link(i, (i + 1) % n);
      break;
    case Family::kRandom:
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
          if (phy::distance_m(positions[i], positions[j]) <= range_m) {
            link(i, j);
          }
        }
      }
      break;
  }
  for (auto& neighbors : adj) std::sort(neighbors.begin(), neighbors.end());
  return adj;
}

std::vector<std::vector<std::uint32_t>> ScenarioSpec::next_hops() const {
  return next_hops(adjacency());
}

std::vector<std::vector<std::uint32_t>> ScenarioSpec::next_hops(
    const std::vector<std::vector<std::uint32_t>>& adjacency) const {
  const std::size_t n = node_count();
  HYDRA_ASSERT(adjacency.size() == n);
  std::vector<std::vector<std::uint32_t>> hops(n);
  for (std::size_t i = 0; i < n; ++i) {
    hops[i].resize(n);
    for (std::size_t j = 0; j < n; ++j) {
      hops[i][j] = static_cast<std::uint32_t>(j);  // direct by default
    }
  }
  switch (family) {
    case Family::kChain:
      // Hop-by-hop toward the destination index.
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          if (i == j) continue;
          hops[i][j] = static_cast<std::uint32_t>(j > i ? i + 1 : i - 1);
        }
      }
      return hops;
    case Family::kStar:
      // Every non-hub pair relays through the hub (node 1).
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          if (i == j || i == 1 || j == 1) continue;
          hops[i][j] = 1;
        }
      }
      return hops;
    case Family::kGrid:
      // Manhattan (X-then-Y) dimension-order routing.
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t ri = i / cols, ci = i % cols;
        for (std::size_t j = 0; j < n; ++j) {
          if (i == j) continue;
          const std::size_t rj = j / cols, cj = j % cols;
          std::size_t next;
          if (ci != cj) {
            next = grid_index(ri, cj > ci ? ci + 1 : ci - 1, cols);
          } else {
            next = grid_index(rj > ri ? ri + 1 : ri - 1, ci, cols);
          }
          hops[i][j] = static_cast<std::uint32_t>(next);
        }
      }
      return hops;
    case Family::kRing:
      // The shorter arc (clockwise on ties).
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          if (i == j) continue;
          const std::size_t cw = (j + n - i) % n;
          hops[i][j] = static_cast<std::uint32_t>(cw <= n - cw ? (i + 1) % n
                                                              : (i + n - 1) % n);
        }
      }
      return hops;
    case Family::kRandom: {
      // BFS shortest paths over the nearest-neighbor graph, one tree per
      // destination; index-sorted adjacency keeps tie-breaks stable.
      const auto& adj = adjacency;
      for (std::size_t dst = 0; dst < n; ++dst) {
        std::vector<std::uint32_t> toward(n, static_cast<std::uint32_t>(dst));
        std::vector<bool> seen(n, false);
        std::deque<std::uint32_t> queue{static_cast<std::uint32_t>(dst)};
        seen[dst] = true;
        while (!queue.empty()) {
          const std::uint32_t v = queue.front();
          queue.pop_front();
          for (const std::uint32_t u : adj[v]) {
            if (seen[u]) continue;
            seen[u] = true;
            toward[u] = v;  // v is one BFS level closer to dst
            queue.push_back(u);
          }
        }
        for (std::size_t i = 0; i < n; ++i) hops[i][dst] = toward[i];
      }
      return hops;
    }
  }
  HYDRA_UNREACHABLE("bad scenario family");
}

std::vector<std::uint32_t> ScenarioSpec::relay_indices() const {
  return relay_indices(next_hops());
}

std::vector<std::uint32_t> ScenarioSpec::relay_indices(
    const std::vector<std::vector<std::uint32_t>>& next_hops) const {
  const std::size_t n = node_count();
  HYDRA_ASSERT(next_hops.size() == n);
  std::vector<std::uint32_t> relays;
  for (const auto& session : sessions) {
    // Sessions are the one spec field factories install *before* the
    // size knobs can be tweaked — the only way a spec can index out of
    // range, so the one that needs checking.
    HYDRA_ASSERT_MSG(session.sender < n && session.receiver < n,
                     "session endpoint is not a node of this scenario");
    std::uint32_t cur = session.sender;
    for (std::size_t step = 0; cur != session.receiver && step < n; ++step) {
      const std::uint32_t next = next_hops[cur][session.receiver];
      if (next == session.receiver) break;
      if (std::find(relays.begin(), relays.end(), next) == relays.end()) {
        relays.push_back(next);
      }
      cur = next;
    }
  }
  return relays;
}

phy::MediumConfig ScenarioSpec::medium_config() const {
  phy::MediumConfig mc;
  mc.cull_margin_db = medium.cull_margin_db;
  mc.shard_threads = medium.shard_threads;
  switch (medium.policy) {
    case MediumPolicy::kAuto:
      mc.delivery = node_count() >= kCullAutoThreshold
                        ? phy::DeliveryPolicy::kCulled
                        : phy::DeliveryPolicy::kFullMesh;
      break;
    case MediumPolicy::kFullMesh:
      mc.delivery = phy::DeliveryPolicy::kFullMesh;
      break;
    case MediumPolicy::kCulled:
      mc.delivery = phy::DeliveryPolicy::kCulled;
      break;
    case MediumPolicy::kSharded:
      mc.delivery = phy::DeliveryPolicy::kSharded;
      break;
  }
  return mc;
}

WorldBounds ScenarioSpec::world_bounds() const {
  const auto pos = positions();
  HYDRA_ASSERT_MSG(!pos.empty(), "world_bounds of an empty scenario");
  WorldBounds bounds{pos.front(), pos.front()};
  for (const auto& p : pos) {
    bounds.min.x_m = std::min(bounds.min.x_m, p.x_m);
    bounds.min.y_m = std::min(bounds.min.y_m, p.y_m);
    bounds.max.x_m = std::max(bounds.max.x_m, p.x_m);
    bounds.max.y_m = std::max(bounds.max.y_m, p.y_m);
  }
  return bounds;
}

double ScenarioSpec::max_reach_m() const {
  const double tx_power_dbm =
      net::NodeConfig{}.tx_power_dbm + node.tx_power_delta_db;
  return phy::reach_radius_m(medium_config(), tx_power_dbm);
}

std::string ScenarioSpec::label() const {
  char buf[48];
  switch (family) {
    case Family::kChain:
      std::snprintf(buf, sizeof buf, "chain-%zu", nodes);
      break;
    case Family::kStar:
      std::snprintf(buf, sizeof buf, "star-%zu", senders);
      break;
    case Family::kGrid:
      std::snprintf(buf, sizeof buf, "grid-%zux%zu", rows, cols);
      break;
    case Family::kRing:
      std::snprintf(buf, sizeof buf, "ring-%zu", nodes);
      break;
    case Family::kRandom:
      std::snprintf(buf, sizeof buf, "random-%zu-s%llu", nodes,
                    static_cast<unsigned long long>(placement_seed));
      break;
  }
  return buf;
}

Scenario::Scenario(const ScenarioSpec& spec, std::uint64_t seed)
    : spec_(spec),
      sim_(std::make_unique<sim::Simulation>(seed)),
      medium_(std::make_unique<phy::Medium>(*sim_, spec.medium_config())),
      trace_(std::make_shared<std::vector<std::string>>()) {}

Scenario Scenario::build(const ScenarioSpec& spec, std::uint64_t seed) {
  Scenario s(spec, seed);
  // Each derived view feeds the next, computed once: positions →
  // adjacency → next hops → relays (kRandom's placement sampling and
  // BFS are the expensive steps). A spec that routes nothing — no
  // static routes, no whitelist, no sessions — skips the graph views
  // entirely: the full next-hop matrix is O(N²) memory, which is what
  // caps pure-flooding scale runs otherwise.
  const auto positions = spec.positions();
  const bool needs_graph =
      spec.static_routes || spec.neighbor_whitelist || !spec.sessions.empty();
  std::vector<std::vector<std::uint32_t>> adjacency;
  std::vector<std::vector<std::uint32_t>> hops;
  if (needs_graph) {
    adjacency = spec.adjacency(positions);
    hops = spec.next_hops(adjacency);
    s.relays_ = spec.relay_indices(hops);
  }

  const std::size_t n = positions.size();
  s.nodes_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    net::NodeConfig nc;
    nc.position = positions[i];
    nc.policy = spec.node.policy;
    // The paper delays only relay nodes (§6.4.3).
    const bool is_relay =
        std::find(s.relays_.begin(), s.relays_.end(), i) != s.relays_.end();
    if (!is_relay) nc.policy.delay_min_subframes = 0;
    nc.unicast_mode = spec.node.unicast_mode;
    nc.broadcast_mode = spec.node.broadcast_mode;
    nc.use_rts_cts = spec.node.use_rts_cts;
    nc.queue_limit = spec.node.queue_limit;
    nc.rate_adaptation = spec.node.rate_adaptation;
    nc.tx_power_dbm += spec.node.tx_power_delta_db;
    if (spec.neighbor_whitelist) {
      for (const std::uint32_t neighbor : adjacency[i]) {
        nc.neighbors.push_back(proto::MacAddress::for_node(neighbor));
      }
    }
    s.nodes_.push_back(std::make_unique<net::Node>(*s.sim_, *s.medium_, i, nc));
  }

  if (spec.static_routes) {
    for (std::uint32_t i = 0; i < n; ++i) {
      for (std::uint32_t j = 0; j < n; ++j) {
        if (i == j || hops[i][j] == j) continue;  // direct: no route needed
        s.nodes_[i]->routes().add_route(proto::Ipv4Address::for_node(j),
                                        proto::Ipv4Address::for_node(hops[i][j]));
      }
    }
  }

  if (spec.route_discovery) {
    for (auto& node : s.nodes_) {
      s.discovery_.push_back(std::make_unique<net::RouteDiscovery>(*s.sim_, *node));
    }
  }

  if (spec.mobility.kind != MobilityKind::kNone) {
    std::vector<phy::Phy*> targets;
    if (spec.mobility.mobile.empty()) {
      // Default mobile set: everything that is neither a session
      // endpoint nor a relay, so motion never severs the traffic paths
      // themselves. When the topology is all endpoints and relays
      // (small chains), every node moves instead of none.
      std::vector<bool> fixed(n, false);
      for (const auto& session : spec.sessions) {
        fixed[session.sender] = fixed[session.receiver] = true;
      }
      for (const std::uint32_t r : s.relays_) fixed[r] = true;
      for (std::uint32_t i = 0; i < n; ++i) {
        if (!fixed[i]) targets.push_back(&s.nodes_[i]->phy());
      }
      if (targets.empty()) {
        for (auto& node : s.nodes_) targets.push_back(&node->phy());
      }
    } else {
      for (const std::uint32_t i : spec.mobility.mobile) {
        targets.push_back(&s.nodes_.at(i)->phy());
      }
    }
    const auto bounds = spec.world_bounds();
    s.mobility_ = std::make_unique<MobilityDriver>(
        *s.sim_, *s.medium_, spec.mobility, bounds.min, bounds.max,
        std::move(targets));
    s.mobility_->start();
  }
  return s;
}

namespace {

void record_line(const sim::Simulation& sim, std::vector<std::string>& trace,
                 std::size_t node, const char* kind,
                 const proto::PacketPtr& pkt) {
  const auto bytes = pkt->serialize();
  char line[96];
  std::snprintf(line, sizeof line, "t=%lld n%zu %s len=%zu crc=%08x",
                static_cast<long long>(sim.now().ns()), node, kind,
                bytes.size(), crc32(bytes));
  trace.emplace_back(line);
}

}  // namespace

void Scenario::capture_traces() {
  // Callbacks capture the simulation (behind its unique_ptr) and the
  // shared trace vector — never `this` — so they survive Scenario moves.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    auto& stack = nodes_[i]->stack();
    stack.deliver_local =
        [sim = sim_.get(), trace = trace_, i,
         prev = std::move(stack.deliver_local)](const proto::PacketPtr& pkt) {
          record_line(*sim, *trace, i, "local", pkt);
          if (prev) prev(pkt);
        };
    stack.on_broadcast =
        [sim = sim_.get(), trace = trace_, i,
         prev = std::move(stack.on_broadcast)](const proto::PacketPtr& pkt) {
          record_line(*sim, *trace, i, "bcast", pkt);
          if (prev) prev(pkt);
        };
    stack.on_forward =
        [sim = sim_.get(), trace = trace_, i,
         prev = std::move(stack.on_forward)](const proto::PacketPtr& pkt,
                                             proto::MacAddress from) {
          record_line(*sim, *trace, i, "fwd", pkt);
          if (prev) prev(pkt, from);
        };
  }
}

std::uint32_t Scenario::trace_digest() const {
  std::uint32_t state = kCrc32Init;
  for (const auto& line : *trace_) {
    state = crc32_update(
        state, {reinterpret_cast<const std::uint8_t*>(line.data()),
                line.size()});
  }
  return crc32_finalize(state);
}

std::string Scenario::metrics_summary() const {
  stats::Table table({"node", "data frames", "subframes", "bytes",
                      "avg frame", "size ovh", "time ovh"});
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const auto& st = nodes_[i]->mac_stats();
    table.add_row(
        {std::to_string(i), std::to_string(st.data_frames_tx),
         std::to_string(st.subframes_tx()), std::to_string(st.data_bytes_tx),
         stats::Table::num(stats::avg_frame_bytes(st), 1),
         stats::Table::percent(stats::size_overhead(st, spec_.node.unicast_mode)),
         stats::Table::percent(st.time.overhead_fraction())});
  }
  return table.to_string();
}

}  // namespace hydra::topo
