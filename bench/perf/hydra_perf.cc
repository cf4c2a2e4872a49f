// hydra_perf: one repetition ("rep") of one benchmark workload, in its
// own process, measured in host time from outside the simulator.
//
//   hydra_perf --workload <name> --seed <n> [--trace 0|1] [--smoke]
//
// The binary only calls hydra's public API — app::run_experiment,
// topo::Scenario::build and the ScenarioSpec views, app::FloodApp,
// phy::Medium::backend(), sim::Simulation::run_until and the Scenario
// destructor — and times each call with std::chrono::steady_clock. Work
// counts come from public accessors (Medium, Scheduler, Node::mac_stats,
// ExperimentResult, util::alloc_snapshot). Every workload runs hydra as
// users get it: kAuto medium, serial scheduler, pooling on.
//
// Untraced reps time set-up, each operation ("op") and teardown. Traced
// reps additionally split set-up into its calls, read per-op allocation
// counters, split mobility ticks off their op, and probe
// Medium::move_node; every probe runs outside the op timings.
//
// The rep prints one JSON object on stdout: raw times, counts and a
// CRC-32 digest of the simulated outputs (run.py turns these into the
// benchmark's metrics and checks the digest against digests.json).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "app/experiment.h"
#include "app/flood.h"
#include "core/policy.h"
#include "proto/mode.h"
#include "topo/experiment.h"
#include "topo/scenario.h"
#include "util/alloc_stats.h"
#include "util/crc32.h"

using namespace hydra;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point started) {
  return std::chrono::duration<double>(Clock::now() - started).count();
}

// CRC-32 over a stream of little-endian 64-bit words.
class Digest {
 public:
  void add(std::uint64_t v) {
    std::uint8_t bytes[8];
    for (int i = 0; i < 8; ++i) bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
    state_ = crc32_update(state_, bytes);
  }
  void add(sim::Duration d) { add(static_cast<std::uint64_t>(d.ns())); }
  std::uint32_t value() const { return crc32_finalize(state_); }

 private:
  std::uint32_t state_ = kCrc32Init;
};

void add_mac_stats(Digest& digest, const mac::MacStats& st) {
  for (const std::uint64_t v :
       {st.data_frames_tx, st.broadcast_subframes_tx, st.unicast_subframes_tx,
        st.data_bytes_tx, st.mac_header_bytes_tx, st.rts_tx, st.cts_tx,
        st.ack_tx, st.retries, st.retry_drops, st.queue_drops, st.delivered_up,
        st.dropped_not_for_us, st.crc_failures, st.aggregate_discards,
        st.duplicates_suppressed, st.acks_rx, st.collisions}) {
    digest.add(v);
  }
  for (const sim::Duration d : {st.time.payload, st.time.mac_header,
                                st.time.phy_header, st.time.control,
                                st.time.ifs, st.time.backoff}) {
    digest.add(d);
  }
}

// Simulated work, summed over a rep (all deterministic for a seed).
struct Counts {
  std::uint64_t tx = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t events = 0;
  std::uint64_t moves = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t mac_data_frames = 0;
  std::uint64_t mac_subframes = 0;
  std::uint64_t mac_retries = 0;
  std::uint64_t mac_retry_drops = 0;
  std::uint64_t mac_collisions = 0;
  std::uint64_t mac_crc_failures = 0;
  std::uint64_t mac_queue_drops = 0;
  std::uint64_t tcp_retransmits = 0;
  std::uint64_t tcp_timeouts = 0;
  std::uint64_t tcp_acks_sent = 0;
  std::uint64_t tcp_acks_delayed = 0;
  std::uint64_t tcp_flows = 0;
  std::uint64_t tcp_flows_completed = 0;

  void add_mac(const mac::MacStats& st) {
    mac_data_frames += st.data_frames_tx;
    mac_subframes += st.subframes_tx();
    mac_retries += st.retries;
    mac_retry_drops += st.retry_drops;
    mac_collisions += st.collisions;
    mac_crc_failures += st.crc_failures;
    mac_queue_drops += st.queue_drops;
  }
};

// A fixed reference computation, timed between ops. Its work never
// changes with hydra's code, so its host time tracks only how fast the
// shared host runs at that moment; run.py divides the ops' times by
// nearby samples to take the host's speed swings out of the metrics.
// The kernel is cache-resident on purpose (a pointer chase over 64 KiB
// and a 1024-entry binary heap, about 1 ms): on a 4-core shared host it
// tracked the simulator's slowdowns to within 1%, where a chase over
// 8 MiB mostly measured other tenants' cache traffic. It allocates
// nothing, so the allocation counters around the ops stay exact.
class Calibration {
 public:
  Calibration() : ring_(1u << 14) {
    // One pseudo-random cycle through the ring (Sattolo's shuffle).
    std::vector<std::uint32_t> order(ring_.size());
    for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      std::swap(order[i], order[(x >> 33) % i]);
    }
    for (std::size_t i = 0; i < order.size(); ++i) {
      ring_[order[i]] = order[(i + 1) % order.size()];
    }
    heap_.reserve(kHeapSize + 1);
    // Room for far more samples than a rep takes (one per 50 ms of ops),
    // so sampling never allocates while the ops are metered.
    samples_ms_.reserve(kReservedSamples);
    samples_at_op_.reserve(kReservedSamples);
    run();  // warm the working set before the first timed sample
  }

  // Counts a finished op and takes a sample once at least 50 ms of op
  // time has passed since the previous one.
  void after_op(double op_ms) {
    ++ops_;
    since_ms_ += op_ms;
    if (since_ms_ >= 50.0) sample();
  }

  void sample() {
    const auto started = Clock::now();
    run();
    const double s = seconds_since(started);
    samples_ms_.push_back(s * 1e3);
    samples_at_op_.push_back(ops_);
    total_s_ += s;
    since_ms_ = 0.0;
  }

  const std::vector<double>& samples_ms() const { return samples_ms_; }
  // Ops finished when each sample was taken.
  const std::vector<std::uint64_t>& samples_at_op() const { return samples_at_op_; }
  double total_s() const { return total_s_; }
  // Printed with the rep, so the optimizer must keep every kernel's work.
  std::uint64_t checksum() const { return checksum_; }

 private:
  static constexpr std::size_t kHeapSize = 1024;
  static constexpr std::size_t kReservedSamples = 1 << 14;

  void run() {
    std::uint32_t at = 0;
    for (int i = 0; i < 100'000; ++i) at = ring_[at];
    heap_.clear();
    std::uint64_t x = 88172645463325252ull + at;
    for (int i = 0; i < 20'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      heap_.push_back(x);
      std::push_heap(heap_.begin(), heap_.end());
      if (heap_.size() > kHeapSize) {
        std::pop_heap(heap_.begin(), heap_.end());
        heap_.pop_back();
      }
    }
    checksum_ += at + heap_.front();
  }

  std::vector<std::uint32_t> ring_;
  std::vector<std::uint64_t> heap_;
  std::vector<double> samples_ms_;
  std::vector<std::uint64_t> samples_at_op_;
  std::uint64_t ops_ = 0;
  double since_ms_ = 0.0;
  double total_s_ = 0.0;
  std::uint64_t checksum_ = 0;
};

struct Rep {
  std::vector<double> op_ms;
  std::uint64_t failed = 0;
  double wall_s = 0.0;
  double setup_s = 0.0;     // build + app attach + first backend()
  double build_s = 0.0;     // Scenario::build alone
  double lists_s = 0.0;     // first Medium::backend(): delivery lists
  double teardown_s = 0.0;  // app + Scenario destructors
  // Traced only.
  double positions_s = 0.0;
  double adjacency_s = 0.0;
  double next_hops_s = 0.0;
  double relays_s = 0.0;
  double tick_s = 0.0;  // the slices ending on a mobility tick
  double probe_move_s = 0.0;
  std::uint64_t probe_moves = 0;
  std::uint64_t probe_incremental_moves = 0;
  Counts counts;
  Digest digest;
};

// Times the four public ScenarioSpec views, each fed the previous one,
// exactly as Scenario::build chains them.
void probe_views(const topo::ScenarioSpec& spec, Rep& rep) {
  auto started = Clock::now();
  const auto positions = spec.positions();
  rep.positions_s += seconds_since(started);
  started = Clock::now();
  const auto adjacency = spec.adjacency(positions);
  rep.adjacency_s += seconds_since(started);
  started = Clock::now();
  const auto hops = spec.next_hops(adjacency);
  rep.next_hops_s += seconds_since(started);
  started = Clock::now();
  const auto relays = spec.relay_indices(hops);
  rep.relays_s += seconds_since(started);
}

// Times Medium::move_node on about 64 evenly spaced nodes: each steps
// 0.25 m toward the world's centre line and back, which keeps the move
// inside the built bounding box.
void probe_moves(topo::Scenario& scenario, Rep& rep) {
  auto& medium = scenario.medium();
  const std::uint64_t moves_before = medium.moves();
  const std::uint64_t incremental_before = medium.incremental_moves();
  const auto bounds = scenario.spec().world_bounds();
  const double centre_x = (bounds.min.x_m + bounds.max.x_m) / 2;
  const std::size_t n = scenario.size();
  const std::size_t stride = std::max<std::size_t>(1, n / 64);
  const auto started = Clock::now();
  for (std::size_t i = 0; i < n; i += stride) {
    phy::Phy& phy = scenario.node(i).phy();
    const phy::Position at = phy.config().position;
    const double dx = at.x_m < centre_x ? 0.25 : -0.25;
    medium.move_node(phy, {at.x_m + dx, at.y_m});
    medium.move_node(phy, at);
  }
  rep.probe_move_s += seconds_since(started);
  rep.probe_moves += medium.moves() - moves_before;
  rep.probe_incremental_moves += medium.incremental_moves() - incremental_before;
}

// ---------------------------------------------------------------------------
// paper_tcp and relay_udp: back-to-back app::run_experiment calls, one op
// each. Every op builds its own 3-5 node world inside run_experiment.

const core::AggregationPolicy kPolicies[] = {
    core::AggregationPolicy::na(), core::AggregationPolicy::ua(),
    core::AggregationPolicy::ba(), core::AggregationPolicy::dba()};

// Sim seeds per configuration. Op times cluster by configuration and the
// op-time quantiles sit between clusters; thirty seeds keep them steady
// from one benchmark seed to the next.
constexpr std::uint64_t kSimSeeds = 30;

// `base` over every world x policy x rate, with sim seeds
// kSimSeeds*seed+1 .. kSimSeeds*seed+sim_seeds (disjoint blocks per
// benchmark seed).
std::vector<topo::ExperimentConfig> sweep(
    const topo::ExperimentConfig& base,
    const std::vector<topo::ScenarioSpec>& worlds,
    const std::vector<std::size_t>& modes, std::uint64_t sim_seeds,
    std::uint64_t seed) {
  std::vector<topo::ExperimentConfig> configs;
  for (const auto& world : worlds) {
    for (const auto& policy : kPolicies) {
      for (const std::size_t mode : modes) {
        for (std::uint64_t k = 1; k <= sim_seeds; ++k) {
          topo::ExperimentConfig cfg = base;
          cfg.scenario = world;
          cfg.scenario.node.policy = policy;
          cfg.scenario.node.unicast_mode = proto::mode_by_index(mode);
          cfg.scenario.node.broadcast_mode = proto::mode_by_index(mode);
          cfg.seed = kSimSeeds * seed + k;
          configs.push_back(std::move(cfg));
        }
      }
    }
  }
  return configs;
}

// The paper's TCP experiments (Figs. 8, 11-13): 0.2 MB transfers over the
// two chains and the Fig. 6 star, every policy at the four rates.
std::vector<topo::ExperimentConfig> paper_tcp_configs(std::uint64_t seed,
                                                      bool smoke) {
  topo::ExperimentConfig tcp;
  tcp.traffic = topo::TrafficKind::kTcp;
  tcp.tcp_file_bytes = 200'000;
  if (smoke) {
    return sweep(tcp, {topo::ScenarioSpec::two_hop(), topo::ScenarioSpec::fig6_star()},
                 {3}, 1, seed);
  }
  return sweep(tcp,
               {topo::ScenarioSpec::two_hop(), topo::ScenarioSpec::three_hop(),
                topo::ScenarioSpec::fig6_star()},
               {0, 1, 2, 3}, kSimSeeds, seed);
}

// Table 2 / Fig. 10 saturating CBR: 8 x 1048 B every 100 ms for 20 s
// over both chains, every policy at the four rates.
std::vector<topo::ExperimentConfig> relay_udp_configs(std::uint64_t seed,
                                                      bool smoke) {
  topo::ExperimentConfig udp;
  udp.traffic = topo::TrafficKind::kUdp;
  udp.udp_payload_bytes = 1048;
  udp.udp_interval = sim::Duration::millis(100);
  udp.udp_packets_per_tick = 8;
  udp.udp_duration = sim::Duration::seconds(20);
  if (smoke) return sweep(udp, {topo::ScenarioSpec::two_hop()}, {1}, 1, seed);
  return sweep(udp, {topo::ScenarioSpec::two_hop(), topo::ScenarioSpec::three_hop()},
               {0, 1, 2, 3}, kSimSeeds, seed);
}

Rep run_experiment_set(const std::vector<topo::ExperimentConfig>& configs,
                       bool traced, Calibration& cal) {
  Rep rep;
  const auto rep_started = Clock::now();

  // Set-up: build every world the rep will run once, outside the ops,
  // and resolve its delivery lists. The ops rebuild their own worlds
  // inside run_experiment; this is what that build costs.
  for (const auto& cfg : configs) {
    auto started = Clock::now();
    std::optional<topo::Scenario> scenario;
    scenario.emplace(topo::Scenario::build(cfg.scenario, cfg.seed));
    const double built = seconds_since(started);
    const auto lists_started = Clock::now();
    scenario->medium().backend();
    const double lists = seconds_since(lists_started);
    rep.build_s += built;
    rep.lists_s += lists;
    rep.setup_s += built + lists;
    started = Clock::now();
    scenario.reset();
    rep.teardown_s += seconds_since(started);
  }

  rep.op_ms.reserve(configs.size());
  cal.sample();
  for (const auto& cfg : configs) {
    const auto alloc_before = traced ? util::alloc_snapshot() : util::AllocSnapshot{};
    const auto started = Clock::now();
    const topo::ExperimentResult result = app::run_experiment(cfg);
    rep.op_ms.push_back(seconds_since(started) * 1e3);
    cal.after_op(rep.op_ms.back());
    if (traced) {
      const auto alloc_after = util::alloc_snapshot();
      rep.counts.allocs += alloc_after.allocations - alloc_before.allocations;
      rep.counts.alloc_bytes += alloc_after.bytes - alloc_before.bytes;
    }

    // An op fails when a TCP flow is still incomplete at max_sim_time
    // or a UDP sink received nothing.
    bool ok = !result.flows.empty();
    for (const auto& flow : result.flows) {
      ok = ok && flow.completed && flow.bytes > 0;
      rep.digest.add(flow.completed ? 1 : 0);
      rep.digest.add(flow.elapsed);
      rep.digest.add(flow.bytes);
    }
    if (!ok) ++rep.failed;
    rep.digest.add(result.sim_time);
    rep.digest.add(result.phy_transmissions);
    rep.digest.add(result.phy_deliveries);
    rep.digest.add(result.sched_executed_events);
    rep.digest.add(result.phy_moves);
    for (const auto& st : result.node_stats) {
      add_mac_stats(rep.digest, st);
      rep.counts.add_mac(st);
    }

    auto& c = rep.counts;
    c.tx += result.phy_transmissions;
    c.deliveries += result.phy_deliveries;
    c.events += result.sched_executed_events;
    c.moves += result.phy_moves;
    c.rebuilds += result.phy_rebuilds;
    c.tcp_retransmits += result.tcp_retransmits;
    c.tcp_timeouts += result.tcp_timeouts;
    c.tcp_acks_sent += result.tcp_acks_sent;
    c.tcp_acks_delayed += result.tcp_acks_delayed;
    if (cfg.traffic == topo::TrafficKind::kTcp) {
      c.tcp_flows += result.flows.size();
      for (const auto& flow : result.flows) c.tcp_flows_completed += flow.completed;
    }
  }
  cal.sample();
  rep.wall_s = seconds_since(rep_started) - cal.total_s();

  if (traced) {
    // Probes: the set-up split into the spec views, and move_node on
    // each world. Outside the rep's wall time.
    for (const auto& cfg : configs) {
      probe_views(cfg.scenario, rep);
      auto scenario = topo::Scenario::build(cfg.scenario, cfg.seed);
      scenario.medium().backend();
      probe_moves(scenario, rep);
    }
  }
  return rep;
}

// ---------------------------------------------------------------------------
// flood_10k and mobile_1k: one long-lived flooded grid, driven through
// run_until in fixed slices (one op each).

struct GridPlan {
  topo::ScenarioSpec spec;
  std::uint64_t sim_seed = 1;
  std::vector<sim::TimePoint> op_ends;
  // Ops end on a mobility tick; traced reps time the tick's own slice.
  bool ends_on_tick = false;
};

topo::ScenarioSpec flooded_grid(std::size_t rows, std::size_t cols) {
  auto spec = topo::ScenarioSpec::grid(rows, cols);
  // 10 m spacing: the reach radius (~36.5 m) covers a few rings of the
  // lattice, so culled fan-out stays about constant as N grows.
  spec.spacing_m = 10.0;
  spec.sessions.clear();
  return spec;
}

// bench_ext_scale_10k's 100x100 grid, 4 s simulated in 100 ops of 40 ms
// (a hundred distinct ops put ten beyond the p90).
GridPlan flood_10k_plan(std::uint64_t seed, bool smoke) {
  GridPlan plan;
  plan.spec = smoke ? flooded_grid(10, 10) : flooded_grid(100, 100);
  plan.sim_seed = seed + 1;
  const int ops = smoke ? 10 : 100;
  for (int k = 1; k <= ops; ++k) {
    plan.op_ends.push_back(sim::TimePoint::at(sim::Duration::millis(40) * k));
  }
  return plan;
}

// A 25x40 flooded grid where every 10th node walks random waypoints,
// ticking every 100 ms for 10 s simulated; each op is the 100 ms up to
// and including a tick (100 ops, 10 000 moves).
GridPlan mobile_1k_plan(std::uint64_t seed, bool smoke) {
  GridPlan plan;
  plan.spec = smoke ? flooded_grid(5, 8) : flooded_grid(25, 40);
  plan.sim_seed = seed + 1;
  auto& mobility = plan.spec.mobility;
  mobility.kind = topo::MobilityKind::kWaypoint;
  mobility.seed = seed + 1;
  mobility.update_interval = sim::Duration::millis(100);
  for (std::uint32_t i = 0; i < plan.spec.node_count(); i += 10) {
    mobility.mobile.push_back(i);
  }
  const int ops = smoke ? 8 : 100;
  // Ticks fire at start_after + k * update_interval, k >= 1.
  for (int k = 1; k <= ops; ++k) {
    plan.op_ends.push_back(sim::TimePoint::at(mobility.start_after +
                                              mobility.update_interval * k));
  }
  mobility.stop_after = plan.op_ends.back().since_origin();
  plan.ends_on_tick = true;
  return plan;
}

Rep run_grid(const GridPlan& plan, bool traced, Calibration& cal) {
  Rep rep;
  const auto rep_started = Clock::now();

  auto started = Clock::now();
  std::optional<topo::Scenario> scenario;
  scenario.emplace(topo::Scenario::build(plan.spec, plan.sim_seed));
  rep.build_s = seconds_since(started);
  // Every node floods 40 B every 250 ms, phases staggered modulo 100 so
  // offered load grows with N.
  std::vector<std::unique_ptr<app::FloodApp>> flooders;
  flooders.reserve(scenario->size());
  for (std::uint32_t i = 0; i < scenario->size(); ++i) {
    app::FloodConfig fc;
    fc.payload_bytes = 40;
    fc.interval = sim::Duration::millis(250);
    fc.initial_offset = sim::Duration::millis(17) * (i % 100 + 1);
    flooders.push_back(
        std::make_unique<app::FloodApp>(scenario->sim(), scenario->node(i), fc));
    flooders.back()->start();
  }
  const auto lists_started = Clock::now();
  scenario->medium().backend();
  rep.lists_s = seconds_since(lists_started);
  rep.setup_s = seconds_since(started);

  auto& sim = scenario->sim();
  const auto alloc_before = traced ? util::alloc_snapshot() : util::AllocSnapshot{};
  rep.op_ms.reserve(plan.op_ends.size());
  cal.sample();
  for (const sim::TimePoint end : plan.op_ends) {
    const auto op_started = Clock::now();
    if (traced && plan.ends_on_tick) {
      sim.run_until(end + sim::Duration::nanos(-1));
      const auto tick_started = Clock::now();
      sim.run_until(end);
      rep.tick_s += seconds_since(tick_started);
    } else {
      sim.run_until(end);
    }
    rep.op_ms.push_back(seconds_since(op_started) * 1e3);
    cal.after_op(rep.op_ms.back());
  }
  cal.sample();
  if (traced) {
    const auto alloc_after = util::alloc_snapshot();
    rep.counts.allocs = alloc_after.allocations - alloc_before.allocations;
    rep.counts.alloc_bytes = alloc_after.bytes - alloc_before.bytes;
  }

  auto& medium = scenario->medium();
  auto& c = rep.counts;
  c.tx = medium.transmissions_started();
  c.deliveries = medium.deliveries_scheduled();
  c.events = sim.scheduler().executed_events();
  c.moves = medium.moves();
  c.rebuilds = medium.rebuilds();
  rep.digest.add(sim.now().since_origin());
  rep.digest.add(c.tx);
  rep.digest.add(c.deliveries);
  rep.digest.add(c.events);
  rep.digest.add(c.moves);
  for (std::size_t i = 0; i < scenario->size(); ++i) {
    add_mac_stats(rep.digest, scenario->node(i).mac_stats());
    c.add_mac(scenario->node(i).mac_stats());
  }
  // A flood that put nothing on the air, or reached nobody, did no work.
  if (c.tx == 0 || c.deliveries == 0) rep.failed = plan.op_ends.size();

  double probe_s = 0.0;
  if (traced) {
    const auto probe_started = Clock::now();
    probe_moves(*scenario, rep);
    probe_s = seconds_since(probe_started);
  }

  started = Clock::now();
  flooders.clear();
  scenario.reset();
  rep.teardown_s = seconds_since(started);
  rep.wall_s = seconds_since(rep_started) - probe_s - cal.total_s();

  // The views run after teardown so their memory (the O(N^2) next-hop
  // matrix at N = 10k) never stacks on the live world's.
  if (traced) probe_views(plan.spec, rep);
  return rep;
}

// ---------------------------------------------------------------------------

void print_rep(const char* workload, std::uint64_t seed, bool traced,
               const Rep& rep, const Calibration& cal) {
  std::string out;
  char buf[128];
  const auto field = [&](const char* key, double v) {
    std::snprintf(buf, sizeof buf, "\"%s\": %.9g, ", key, v);
    out += buf;
  };
  const auto count = [&](const char* key, std::uint64_t v) {
    std::snprintf(buf, sizeof buf, "\"%s\": %llu, ", key,
                  static_cast<unsigned long long>(v));
    out += buf;
  };
  std::snprintf(buf, sizeof buf,
                "{\"workload\": \"%s\", \"seed\": %llu, \"traced\": %d, "
                "\"digest\": \"%08x\", ",
                workload, static_cast<unsigned long long>(seed), traced ? 1 : 0,
                rep.digest.value());
  out += buf;
  count("failed", rep.failed);
  field("wall_s", rep.wall_s);
  field("setup_s", rep.setup_s);
  field("build_s", rep.build_s);
  field("lists_s", rep.lists_s);
  field("teardown_s", rep.teardown_s);
  field("positions_s", rep.positions_s);
  field("adjacency_s", rep.adjacency_s);
  field("next_hops_s", rep.next_hops_s);
  field("relays_s", rep.relays_s);
  field("tick_s", rep.tick_s);
  field("probe_move_s", rep.probe_move_s);
  count("probe_moves", rep.probe_moves);
  count("probe_incremental_moves", rep.probe_incremental_moves);
  count("peak_rss_kb", util::peak_rss_kb());
  const Counts& c = rep.counts;
  count("tx", c.tx);
  count("deliveries", c.deliveries);
  count("events", c.events);
  count("moves", c.moves);
  count("rebuilds", c.rebuilds);
  count("allocs", c.allocs);
  count("alloc_bytes", c.alloc_bytes);
  count("mac_data_frames", c.mac_data_frames);
  count("mac_subframes", c.mac_subframes);
  count("mac_retries", c.mac_retries);
  count("mac_retry_drops", c.mac_retry_drops);
  count("mac_collisions", c.mac_collisions);
  count("mac_crc_failures", c.mac_crc_failures);
  count("mac_queue_drops", c.mac_queue_drops);
  count("tcp_retransmits", c.tcp_retransmits);
  count("tcp_timeouts", c.tcp_timeouts);
  count("tcp_acks_sent", c.tcp_acks_sent);
  count("tcp_acks_delayed", c.tcp_acks_delayed);
  count("tcp_flows", c.tcp_flows);
  count("tcp_flows_completed", c.tcp_flows_completed);
  count("cal_checksum", cal.checksum());
  const auto list = [&](const char* key, const std::vector<double>& values) {
    out += std::string("\"") + key + "\": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::snprintf(buf, sizeof buf, i ? ", %.6g" : "%.6g", values[i]);
      out += buf;
    }
    out += "]";
  };
  list("cal_ms", cal.samples_ms());
  out += ", \"cal_at_op\": [";
  for (std::size_t i = 0; i < cal.samples_at_op().size(); ++i) {
    std::snprintf(buf, sizeof buf, i ? ", %llu" : "%llu",
                  static_cast<unsigned long long>(cal.samples_at_op()[i]));
    out += buf;
  }
  out += "], ";
  list("op_ms", rep.op_ms);
  out += "}\n";
  std::fwrite(out.data(), 1, out.size(), stdout);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "hydra_perf: %s\n"
               "usage: hydra_perf --workload paper_tcp|relay_udp|flood_10k|"
               "mobile_1k --seed N [--trace 0|1] [--smoke]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const char* workload = nullptr;
  std::optional<std::uint64_t> seed;
  bool traced = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      const char* text = argv[++i];
      char* end = nullptr;
      const unsigned long long v = std::strtoull(text, &end, 10);
      // The sim seeds are 20 * seed + k; keep that product in range.
      if (*text == '\0' || *text == '-' || *end != '\0' || v > (1ull << 48)) {
        return usage("--seed takes an integer in [0, 2^48]");
      }
      seed = v;
    } else if (arg == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      traced = v == "1";
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      return usage(("unexpected argument " + arg).c_str());
    }
  }
  if (!workload || !seed) return usage("--workload and --seed are required");

  Calibration cal;
  Rep rep;
  if (std::strcmp(workload, "paper_tcp") == 0) {
    rep = run_experiment_set(paper_tcp_configs(*seed, smoke), traced, cal);
  } else if (std::strcmp(workload, "relay_udp") == 0) {
    rep = run_experiment_set(relay_udp_configs(*seed, smoke), traced, cal);
  } else if (std::strcmp(workload, "flood_10k") == 0) {
    rep = run_grid(flood_10k_plan(*seed, smoke), traced, cal);
  } else if (std::strcmp(workload, "mobile_1k") == 0) {
    rep = run_grid(mobile_1k_plan(*seed, smoke), traced, cal);
  } else {
    return usage("unknown workload");
  }
  print_rep(workload, *seed, traced, rep, cal);
  return 0;
}
