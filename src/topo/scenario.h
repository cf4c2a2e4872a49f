// The one topology builder: every experiment, test fixture, example and
// bench describes its topology as a ScenarioSpec (family + size + spacing
// + per-node config + traffic sessions) and builds it into a fully wired
// Scenario (medium, nodes, static routes, optional discovery engines,
// packet-trace capture).
//
// Five open-ended families replace the four hard-coded paper topologies:
//
//   kChain   n nodes in a line, hop-by-hop routes between every pair
//   kStar    K senders -> hub -> one receiver (paper Fig. 6 is K = 2)
//   kGrid    rows x cols lattice with X-then-Y Manhattan routing
//   kRing    n nodes on a circle, routes take the shorter arc
//   kRandom  seeded uniform placement (connected by construction),
//            BFS shortest-path routes over the nearest-neighbor graph
//
// The paper's topologies are named specs (one_hop / two_hop / three_hop /
// fig6_star) built through the same code path; they reproduce the legacy
// builders' placement, routes and session order exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/policy.h"
#include "mac/rate_adaptation.h"
#include "net/discovery.h"
#include "net/node.h"
#include "phy/medium.h"
#include "proto/mode.h"
#include "sim/simulation.h"
#include "topo/mobility.h"

namespace hydra::topo {

enum class Family { kChain, kStar, kGrid, kRing, kRandom };

std::string to_string(Family family);

// The scenario-level medium knobs; ScenarioSpec::medium_config resolves
// them into a phy::MediumConfig. Every scenario gets the same
// reachability-culled medium (bit-identical to delivering everywhere,
// O(k) fan-out; see phy/medium.h).
struct MediumTuning {
  // Passed through to phy::MediumConfig::cull_margin_db.
  double cull_margin_db = 10.0;
};

// Axis-aligned bounding box of a scenario's node placement.
struct WorldBounds {
  phy::Position min;
  phy::Position max;
  double width_m() const { return max.x_m - min.x_m; }
  double height_m() const { return max.y_m - min.y_m; }
  // Corner-to-corner span: when it fits inside the reach radius, culled
  // delivery degenerates to full mesh (every node reaches every other).
  double diagonal_m() const;
};

// One traffic session, as node indices. The workload layer (app) decides
// what actually flows between them.
struct Session {
  std::uint32_t sender = 0;
  std::uint32_t receiver = 0;
};

// Per-node configuration applied to every node of a scenario. Relay
// nodes (interior nodes of a session path) keep the delayed-aggregation
// holdoff; endpoints run the same policy with the delay removed (paper
// §6.4.3).
struct NodeParams {
  core::AggregationPolicy policy = core::AggregationPolicy::ba();
  proto::PhyMode unicast_mode = proto::base_mode();
  proto::PhyMode broadcast_mode = proto::base_mode();
  bool use_rts_cts = true;
  std::size_t queue_limit = 64;
  mac::RateAdaptationScheme rate_adaptation = mac::RateAdaptationScheme::kNone;
  // Transmit-power offset applied to every node (dB); sweeps use it to
  // move the operating SNR away from the paper's 25 dB point.
  double tx_power_delta_db = 0.0;
};

// A complete, declarative description of a scenario. Build one with the
// family factories (chain/star/grid/ring/random) or the named paper
// specs, tweak fields freely, then instantiate with Scenario::build or
// run it end-to-end through app::run_experiment / app::sweep_experiments.
struct ScenarioSpec {
  Family family = Family::kChain;

  // Size knobs (which apply depends on the family).
  std::size_t nodes = 3;    // kChain length, kRing size, kRandom count
  std::size_t senders = 2;  // kStar sender count (K)
  std::size_t rows = 2;     // kGrid
  std::size_t cols = 2;     // kGrid

  // Inter-node spacing; 2.5 m is the paper's 25 dB operating point.
  double spacing_m = 2.5;

  // kRandom only: placement RNG seed (kept separate from the simulation
  // seed so one topology can host many workload seeds) and the maximum
  // link distance of the nearest-neighbor graph.
  std::uint64_t placement_seed = 1;
  double range_m = 3.5;

  NodeParams node;

  // Medium cull tuning (see MediumTuning).
  MediumTuning medium;

  // Motion/churn while traffic runs (see topo/mobility.h); kNone keeps
  // the topology static. The driver starts with the scenario and ticks
  // until MobilitySpec::stop_after.
  MobilitySpec mobility;

  // MAC link whitelist restricted to topological neighbours: every radio
  // still hears every frame, but only adjacent links deliver — the
  // standard trick for forcing multi-hop on a single channel.
  bool neighbor_whitelist = false;
  // Route by the family's hop-by-hop static next hops (next_hop).
  bool static_routes = true;
  // Attach a RouteDiscovery engine to every node.
  bool route_discovery = false;

  // Traffic sessions; the factories install each family's default (chain
  // end-to-end, every star sender to the receiver, grid corner-to-corner,
  // ring across, random first-to-last).
  std::vector<Session> sessions;

  // Exact node placement override (size node_count()); empty means the
  // family's formula applies. fig6_star uses it to pin the paper's
  // irregular leaf positions.
  std::vector<phy::Position> positions_override;

  // Family factories.
  static ScenarioSpec chain(std::size_t n);
  static ScenarioSpec star(std::size_t senders);
  static ScenarioSpec grid(std::size_t rows, std::size_t cols);
  static ScenarioSpec ring(std::size_t n);
  static ScenarioSpec random(std::size_t n, std::uint64_t placement_seed = 1);

  // The paper's topologies as named specs (Figs. 5 and 6).
  static ScenarioSpec one_hop();    // 2 nodes (aggregation-size study)
  static ScenarioSpec two_hop();    // 3 nodes in a line (Fig. 5, N = 3)
  static ScenarioSpec three_hop();  // 4 nodes in a line (Fig. 5, N = 4)
  static ScenarioSpec fig6_star();  // 2 senders -> center -> receiver

  std::size_t node_count() const;
  // Node coordinates (positions_override if set, else the family
  // formula; kRandom draws from placement_seed).
  std::vector<phy::Position> positions() const;
  // Topological neighbour lists (chain/ring adjacency, grid 4-neighbour,
  // star hub-and-spoke, random range graph), index-sorted.
  std::vector<std::vector<std::uint32_t>> adjacency() const;
  // i's next hop toward j (== j when delivery is direct), in O(1) from
  // the family's closed form: chain and ring step along the line (ring
  // takes the shorter arc, clockwise on ties), star relays through the
  // hub, grid routes X-then-Y. kRandom has no closed form (its hops come
  // from a per-destination BFS; see next_hops) and asserts here.
  std::uint32_t next_hop(std::uint32_t i, std::uint32_t j) const;
  // Full next-hop matrix: next_hops()[i][j] is i's next hop toward j.
  // O(N²) memory; Scenario::build never materialises it.
  std::vector<std::vector<std::uint32_t>> next_hops() const;
  // Interior nodes of the session paths, in first-traversal order.
  // A property of the family's session paths alone — independent of
  // whether routes are installed statically or found by discovery.
  std::vector<std::uint32_t> relay_indices() const;

  // Overloads taking the already-computed previous view, so a caller
  // needing all four derived views computes each once; kRandom's
  // rejection-sampled placement and per-destination BFS are the
  // expensive steps the no-arg forms would otherwise repeat.
  std::vector<std::vector<std::uint32_t>> adjacency(
      const std::vector<phy::Position>& positions) const;
  std::vector<std::vector<std::uint32_t>> next_hops(
      const std::vector<std::vector<std::uint32_t>>& adjacency) const;
  std::vector<std::uint32_t> relay_indices(
      const std::vector<std::vector<std::uint32_t>>& next_hops) const;

  // The medium configuration this spec resolves to.
  phy::MediumConfig medium_config() const;
  // Bounding box of the node placement (positions_override included).
  WorldBounds world_bounds() const;
  // The largest reach radius of this spec's transmitters under the
  // resolved medium config (node tx power + tx_power_delta_db).
  double max_reach_m() const;

  // Compact description for sweep tables: "chain-8", "grid-3x4", ...
  std::string label() const;
};

// A fully wired simulation built from a ScenarioSpec: medium, nodes,
// routes, optional discovery engines.
class Scenario {
 public:
  // Instantiates `spec`. `seed` seeds the shared simulation RNG; fixed
  // so every run of a spec is reproducible (and so determinism tests can
  // compare two runs). Static routes are one net::StaticRoutes object
  // shared by every node and evaluated per lookup (kRandom's reads a
  // BFS table built here once), so building costs O(N) for the
  // closed-form families. Asserts node_count() < 0xffff: the 16-bit
  // node addresses (proto::Ipv4Address::for_node) would put index
  // 65 534 on the MAC broadcast address.
  static Scenario build(const ScenarioSpec& spec, std::uint64_t seed = 1);

  const ScenarioSpec& spec() const { return spec_; }
  sim::Simulation& sim() { return *sim_; }
  phy::Medium& medium() { return *medium_; }
  std::size_t size() const { return nodes_.size(); }
  net::Node& node(std::size_t i) { return *nodes_.at(i); }
  net::RouteDiscovery& discovery(std::size_t i) { return *discovery_.at(i); }
  const std::vector<std::uint32_t>& relay_indices() const { return relays_; }
  // Null when spec().mobility.kind == kNone.
  const MobilityDriver* mobility() const { return mobility_.get(); }

  void run_for(sim::Duration d) { sim_->run_for(d); }
  void run() { sim_->run(); }

  // Starts recording one line per network-layer event (local delivery,
  // forward, link broadcast) on every node: simulated time, node index,
  // event kind, and the CRC-32 of the serialized packet bytes. Chains
  // onto any handlers already installed (discovery keeps working).
  void capture_traces();
  const std::vector<std::string>& trace() const { return *trace_; }
  // CRC-32 over the whole trace: a compact determinism fingerprint.
  std::uint32_t trace_digest() const;

  // Per-node MAC statistics rendered through stats::metrics as a table;
  // byte-identical across identically seeded runs.
  std::string metrics_summary() const;

 private:
  Scenario(const ScenarioSpec& spec, std::uint64_t seed);

  ScenarioSpec spec_;
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<phy::Medium> medium_;
  std::vector<std::unique_ptr<net::Node>> nodes_;
  std::vector<std::unique_ptr<net::RouteDiscovery>> discovery_;
  std::vector<std::uint32_t> relays_;
  // Declared after nodes_: its tick events reference the PHYs, so it
  // must stop existing no later than they do.
  std::unique_ptr<MobilityDriver> mobility_;
  // Shared so the trace callbacks installed by capture_traces() stay
  // valid even if the Scenario object is moved afterwards.
  std::shared_ptr<std::vector<std::string>> trace_;
};

}  // namespace hydra::topo
