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

// i's next hop toward j in an n-node world of one of the closed-form
// families (everything but kRandom); `cols` is the grid's width.
std::uint32_t closed_form_hop(Family family, std::uint32_t n, std::uint32_t cols,
                              std::uint32_t i, std::uint32_t j) {
  if (i == j) return j;
  switch (family) {
    case Family::kChain:
      // Hop-by-hop toward the destination index.
      return j > i ? i + 1 : i - 1;
    case Family::kStar:
      // Every non-hub pair relays through the hub (node 1).
      return i == 1 || j == 1 ? j : 1;
    case Family::kGrid: {
      // Manhattan (X-then-Y) dimension-order routing.
      const std::uint32_t ri = i / cols, ci = i % cols;
      const std::uint32_t rj = j / cols, cj = j % cols;
      return ci != cj ? ri * cols + (cj > ci ? ci + 1 : ci - 1)
                      : (rj > ri ? ri + 1 : ri - 1) * cols + ci;
    }
    case Family::kRing: {
      // The shorter arc (clockwise on ties).
      const std::uint32_t cw = (j + n - i) % n;
      return cw <= n - cw ? (i + 1) % n : (i + n - 1) % n;
    }
    case Family::kRandom:
      break;
  }
  HYDRA_UNREACHABLE("kRandom has no closed-form next hop");
}

// kRandom's next hops: BFS shortest paths over the nearest-neighbor
// graph, one tree per destination; index-sorted adjacency keeps
// tie-breaks stable. toward[dst * n + i] is i's next hop toward dst.
std::vector<std::uint32_t> bfs_next_hops(
    const std::vector<std::vector<std::uint32_t>>& adj) {
  const std::size_t n = adj.size();
  std::vector<std::uint32_t> toward(n * n);
  std::vector<bool> seen(n);
  std::deque<std::uint32_t> queue;
  for (std::uint32_t dst = 0; dst < n; ++dst) {
    const auto row = toward.begin() + static_cast<std::ptrdiff_t>(dst * n);
    std::fill(row, row + static_cast<std::ptrdiff_t>(n), dst);
    std::fill(seen.begin(), seen.end(), false);
    queue.push_back(dst);
    seen[dst] = true;
    while (!queue.empty()) {
      const std::uint32_t v = queue.front();
      queue.pop_front();
      for (const std::uint32_t u : adj[v]) {
        if (seen[u]) continue;
        seen[u] = true;
        row[u] = v;  // v is one BFS level closer to dst
        queue.push_back(u);
      }
    }
  }
  return toward;
}

// Interior nodes of the sessions' paths under `hop`, in first-traversal
// order.
template <typename Hop>
std::vector<std::uint32_t> walk_relays(const std::vector<Session>& sessions,
                                       std::size_t n, const Hop& hop) {
  std::vector<std::uint32_t> relays;
  for (const auto& session : sessions) {
    // Sessions are the one spec field factories install *before* the
    // size knobs can be tweaked — the only way a spec can index out of
    // range, so the one that needs checking.
    HYDRA_ASSERT_MSG(session.sender < n && session.receiver < n,
                     "session endpoint is not a node of this scenario");
    std::uint32_t cur = session.sender;
    for (std::size_t step = 0; cur != session.receiver && step < n; ++step) {
      const std::uint32_t next = hop(cur, session.receiver);
      if (next == session.receiver) break;
      if (std::find(relays.begin(), relays.end(), next) == relays.end()) {
        relays.push_back(next);
      }
      cur = next;
    }
  }
  return relays;
}

// Family F's closed form as a scenario's static routes. F is a
// compile-time constant, so each lookup runs only its own family's
// arithmetic.
template <Family F>
class ClosedFormRoutes final : public net::StaticRoutes {
 public:
  ClosedFormRoutes(std::size_t n, std::size_t cols)
      : n_(static_cast<std::uint32_t>(n)), cols_(static_cast<std::uint32_t>(cols)) {}

  std::uint32_t next_hop(std::uint32_t from, std::uint32_t to) const override {
    return to < n_ ? closed_form_hop(F, n_, cols_, from, to) : to;
  }

 private:
  std::uint32_t n_;
  std::uint32_t cols_;
};

// kRandom's static routes: the per-destination BFS table, built once.
class BfsRoutes final : public net::StaticRoutes {
 public:
  explicit BfsRoutes(const std::vector<std::vector<std::uint32_t>>& adjacency)
      : n_(adjacency.size()), toward_(bfs_next_hops(adjacency)) {}

  std::uint32_t next_hop(std::uint32_t from, std::uint32_t to) const override {
    return to < n_ ? toward_[to * n_ + from] : to;
  }

 private:
  std::size_t n_;
  std::vector<std::uint32_t> toward_;
};

// The static routes every node of a built `spec` shares.
std::shared_ptr<const net::StaticRoutes> static_routes(
    const ScenarioSpec& spec,
    const std::vector<std::vector<std::uint32_t>>& adjacency) {
  const std::size_t n = spec.node_count();
  switch (spec.family) {
    case Family::kChain:
      return std::make_shared<ClosedFormRoutes<Family::kChain>>(n, spec.cols);
    case Family::kStar:
      return std::make_shared<ClosedFormRoutes<Family::kStar>>(n, spec.cols);
    case Family::kGrid:
      return std::make_shared<ClosedFormRoutes<Family::kGrid>>(n, spec.cols);
    case Family::kRing:
      return std::make_shared<ClosedFormRoutes<Family::kRing>>(n, spec.cols);
    case Family::kRandom:
      return std::make_shared<BfsRoutes>(adjacency);
  }
  HYDRA_UNREACHABLE("bad scenario family");
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

std::uint32_t ScenarioSpec::next_hop(std::uint32_t i, std::uint32_t j) const {
  const std::size_t n = node_count();
  HYDRA_ASSERT(i < n && j < n);
  HYDRA_ASSERT_MSG(family != Family::kRandom,
                   "kRandom routes come from next_hops(), not a closed form");
  return closed_form_hop(family, static_cast<std::uint32_t>(n),
                         static_cast<std::uint32_t>(cols), i, j);
}

std::vector<std::vector<std::uint32_t>> ScenarioSpec::next_hops() const {
  return next_hops(adjacency());
}

std::vector<std::vector<std::uint32_t>> ScenarioSpec::next_hops(
    const std::vector<std::vector<std::uint32_t>>& adjacency) const {
  const std::size_t n = node_count();
  HYDRA_ASSERT(adjacency.size() == n);
  std::vector<std::vector<std::uint32_t>> hops(n, std::vector<std::uint32_t>(n));
  if (family == Family::kRandom) {
    const auto toward = bfs_next_hops(adjacency);
    for (std::size_t dst = 0; dst < n; ++dst) {
      for (std::size_t i = 0; i < n; ++i) hops[i][dst] = toward[dst * n + i];
    }
    return hops;
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) hops[i][j] = next_hop(i, j);
  }
  return hops;
}

std::vector<std::uint32_t> ScenarioSpec::relay_indices() const {
  if (family == Family::kRandom) return relay_indices(next_hops());
  return walk_relays(sessions, node_count(),
                     [this](std::uint32_t i, std::uint32_t j) { return next_hop(i, j); });
}

std::vector<std::uint32_t> ScenarioSpec::relay_indices(
    const std::vector<std::vector<std::uint32_t>>& next_hops) const {
  const std::size_t n = node_count();
  HYDRA_ASSERT(next_hops.size() == n);
  return walk_relays(sessions, n, [&next_hops](std::uint32_t i, std::uint32_t j) {
    return next_hops[i][j];
  });
}

phy::MediumConfig ScenarioSpec::medium_config() const {
  phy::MediumConfig mc;
  mc.cull_margin_db = medium.cull_margin_db;
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
  // Node index i is link address i+1 (proto::MacAddress::for_node), so
  // index 0xfffe would be the MAC broadcast address.
  HYDRA_ASSERT_MSG(spec.node_count() < 0xffff,
                   "a scenario holds at most 65 534 nodes (16-bit addresses)");
  Scenario s(spec, seed);
  // Placement is computed once. The adjacency feeds only the neighbour
  // whitelist and kRandom's BFS routes; the other families' next hops
  // are closed forms, so no O(N²) view is ever built for them.
  const auto positions = spec.positions();
  std::vector<std::vector<std::uint32_t>> adjacency;
  if (spec.neighbor_whitelist || spec.family == Family::kRandom) {
    adjacency = spec.adjacency(positions);
  }
  const auto routes = static_routes(spec, adjacency);
  const std::size_t n = positions.size();
  s.relays_ = walk_relays(spec.sessions, n,
                          [&routes](std::uint32_t i, std::uint32_t j) {
                            return routes->next_hop(i, j);
                          });

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
    if (spec.static_routes) s.nodes_.back()->routes().set_static_routes(routes, i);
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
