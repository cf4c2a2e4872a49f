// Extension: medium mobility — incremental detach/move maintenance
// against full delivery-list rebuilds at N = 1000. Not a paper figure;
// it charts the cost model behind Medium::move_node / Medium::detach:
//
//   1. Workload shape: the 25×40 flooded grid run statically, under
//      waypoint motion and under join/leave churn. The motion counters
//      (moves, incremental moves, detaches, rebuilds) are deterministic
//      and baseline-gated; trace-digest parity with the full-mesh
//      reference (an infinite cull margin) is pinned by the
//      mobility_determinism test suite.
//   2. Maintenance scaling: the same 1000 PHYs churned through
//      move_node's incremental patch path versus the from-scratch
//      rebuild a naive medium would run per position change. The
//      incremental path recomputes only the mover's own list and patches
//      one entry (the mover's) in each neighbouring list, so its per-op
//      wall cost should sit orders of magnitude under a rebuild's; the
//      "lists" column pins that both paths end at the same delivery
//      lists.
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "phy/phy.h"
#include "sim/rng.h"
#include "util/assert.h"

using namespace hydra;

namespace {

topo::ExperimentConfig flood_config(topo::MobilityKind kind) {
  topo::ExperimentConfig cfg;
  cfg.scenario = topo::ScenarioSpec::grid(25, 40);
  // 10 m spacing, as in bench_ext_scale_10k: the reach radius
  // (~36.5 m) covers a few lattice rings, so moves genuinely change
  // the delivery lists.
  cfg.scenario.spacing_m = 10.0;
  cfg.scenario.sessions.clear();
  cfg.scenario.mobility.kind = kind;
  cfg.scenario.mobility.update_interval = sim::Duration::millis(250);
  cfg.scenario.mobility.stop_after = sim::Duration::seconds(2);
  cfg.flooding = true;
  cfg.flood_interval = sim::Duration::millis(250);
  cfg.flood_payload_bytes = 40;
  cfg.max_sim_time = sim::Duration::seconds(2);
  return cfg;
}

double wall_since(std::chrono::steady_clock::time_point started) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       started)
      .count();
}

}  // namespace

int main() {
  bench::print_header(
      "Extension: medium mobility",
      "incremental detach/move maintenance beats per-move rebuilds",
      "N = 1000 flooded grid under waypoint motion and churn, then the "
      "same 1000 PHYs moved through the incremental patch path vs a "
      "from-scratch rebuild per move.");

  // ---- Flooding load under motion ----------------------------------
  stats::Table flood_table({"scenario", "nodes", "tx frames", "deliveries",
                            "moves", "incr moves", "detaches", "rebuilds",
                            "wall s"});
  for (const auto kind :
       {topo::MobilityKind::kNone, topo::MobilityKind::kWaypoint,
        topo::MobilityKind::kChurn}) {
    const auto cfg = flood_config(kind);
    const auto started = std::chrono::steady_clock::now();
    const auto result = app::run_experiment(cfg);
    const double wall = wall_since(started);
    flood_table.add_row(
        {cfg.scenario.label() + "/" + topo::to_string(kind),
         std::to_string(cfg.scenario.node_count()),
         std::to_string(result.phy_transmissions),
         std::to_string(result.phy_deliveries),
         std::to_string(result.phy_moves),
         std::to_string(result.phy_incremental_moves),
         std::to_string(result.phy_detaches),
         std::to_string(result.phy_rebuilds), stats::Table::num(wall, 3)});
  }
  bench::emit(flood_table);

  // ---- Incremental moves vs per-move rebuilds ----------------------
  // The same 1000 PHYs attached to a medium; random in-bounds
  // moves go through move_node (the incremental path), and the
  // reference rebuilds the whole backend once per move — what a medium
  // without incremental maintenance would be forced to do.
  const auto spec = flood_config(topo::MobilityKind::kNone).scenario;
  const auto positions = spec.positions();
  const auto bounds = spec.world_bounds();
  const phy::MediumConfig medium_config = spec.medium_config();
  sim::Simulation sim(1);
  phy::Medium medium(sim, medium_config);
  std::vector<std::unique_ptr<phy::Phy>> phy_storage;
  std::vector<phy::Phy*> phys;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    phy_storage.push_back(std::make_unique<phy::Phy>(
        sim, medium, phy::PhyConfig{.position = positions[i]},
        static_cast<std::uint32_t>(i)));
    phys.push_back(phy_storage.back().get());
  }

  const auto lists_total = [](const phy::DeliveryBackend& backend,
                              const std::vector<phy::Phy*>& sources) {
    std::uint64_t lists = 0;
    for (const phy::Phy* phy : sources) {
      lists += backend.deliveries(*phy).size();
    }
    return lists;
  };

  // The move schedule is shared by both paths so they end at identical
  // positions (and therefore identical delivery lists).
  constexpr int kMoves = 500;
  sim::Rng schedule_rng(7);
  std::vector<std::pair<std::uint32_t, phy::Position>> schedule;
  for (int i = 0; i < kMoves; ++i) {
    const auto target = static_cast<std::uint32_t>(
        schedule_rng.uniform() * static_cast<double>(phys.size()));
    schedule.push_back(
        {target % static_cast<std::uint32_t>(phys.size()),
         phy::Position{bounds.min.x_m + schedule_rng.uniform() * bounds.width_m(),
                       bounds.min.y_m + schedule_rng.uniform() * bounds.height_m()}});
  }

  (void)medium.backend();  // build the initial lists outside the timing
  auto started = std::chrono::steady_clock::now();
  for (const auto& [target, destination] : schedule) {
    medium.move_node(*phys[target], destination);
  }
  (void)medium.backend();  // settle (no-op when every move was absorbed)
  const double incremental_ms = wall_since(started) * 1e3;
  HYDRA_ASSERT_MSG(medium.incremental_moves() == kMoves,
                   "an in-bounds move fell off the incremental path");
  const std::uint64_t incremental_lists = lists_total(medium.backend(), phys);

  // Reference: a second PHY set (so the medium above keeps its patched
  // state for the parity check) with a standalone backend rebuilt from
  // scratch after every move of the same schedule.
  sim::Simulation ref_sim(1);
  phy::Medium ref_medium(ref_sim, medium_config);
  std::vector<std::unique_ptr<phy::Phy>> ref_storage;
  std::vector<phy::Phy*> ref_phys;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    ref_storage.push_back(std::make_unique<phy::Phy>(
        ref_sim, ref_medium, phy::PhyConfig{.position = positions[i]},
        static_cast<std::uint32_t>(i)));
    ref_phys.push_back(ref_storage.back().get());
  }
  phy::DeliveryBackend rebuild_backend;
  rebuild_backend.rebuild(ref_phys, medium_config);  // warm-up
  // Rebuilding per move is quadratic-ish work; time a slice of the
  // schedule and scale, so the bench stays fast.
  constexpr int kRebuildSample = 50;
  started = std::chrono::steady_clock::now();
  for (int i = 0; i < kRebuildSample; ++i) {
    const auto& [target, destination] = schedule[i];
    ref_medium.move_node(*ref_phys[target], destination);
    rebuild_backend.rebuild(ref_phys, medium_config);
  }
  const double rebuild_sample_ms = wall_since(started) * 1e3;
  const double rebuild_ms_per_op = rebuild_sample_ms / kRebuildSample;
  // Apply the rest of the schedule untimed, then rebuild once: both
  // paths must land on identical totals.
  for (int i = kRebuildSample; i < kMoves; ++i) {
    const auto& [target, destination] = schedule[i];
    ref_medium.move_node(*ref_phys[target], destination);
  }
  rebuild_backend.rebuild(ref_phys, medium_config);
  const std::uint64_t rebuild_lists = lists_total(rebuild_backend, ref_phys);
  HYDRA_ASSERT_MSG(rebuild_lists == incremental_lists,
                   "incremental maintenance diverged from rebuilding");

  stats::Table move_table({"path", "moves", "incremental", "lists",
                           "wall ms/op", "wall speedup"});
  const double incremental_ms_per_op = incremental_ms / kMoves;
  move_table.add_row({"move_node incremental", std::to_string(kMoves),
                      std::to_string(medium.incremental_moves()),
                      std::to_string(incremental_lists),
                      stats::Table::num(incremental_ms_per_op, 3),
                      stats::Table::num(
                          rebuild_ms_per_op / incremental_ms_per_op, 1)});
  move_table.add_row({"rebuild per move", std::to_string(kMoves), "0",
                      std::to_string(rebuild_lists),
                      stats::Table::num(rebuild_ms_per_op, 3),
                      stats::Table::num(1.0, 1)});
  bench::emit(move_table);

  // ---- Incremental detach/re-attach (join/leave churn) -------------
  constexpr int kChurns = 200;
  sim::Rng churn_rng(11);
  started = std::chrono::steady_clock::now();
  for (int i = 0; i < kChurns; ++i) {
    phy::Phy& target = *phys[static_cast<std::size_t>(
        churn_rng.uniform() * static_cast<double>(phys.size())) %
                             phys.size()];
    medium.detach(target);
    medium.attach(target);
    (void)medium.backend();
  }
  const double churn_ms = wall_since(started) * 1e3;
  HYDRA_ASSERT_MSG(medium.incremental_detaches() == kChurns,
                   "a detach fell off the incremental path");
  HYDRA_ASSERT_MSG(lists_total(medium.backend(), phys) == incremental_lists,
                   "detach/re-attach churn did not restore the lists");

  stats::Table churn_table(
      {"path", "cycles", "incr detaches", "rebuilds", "wall ms/op"});
  churn_table.add_row({"detach+attach incremental", std::to_string(kChurns),
                       std::to_string(medium.incremental_detaches()),
                       std::to_string(medium.rebuilds()),
                       stats::Table::num(churn_ms / kChurns, 3)});
  bench::emit(churn_table);

  bench::comment(
      "\nExpected shape: every in-bounds move and every detach is absorbed "
      "incrementally (incr == ops, rebuilds stays at the initial build), "
      "and the \"lists\" column is identical for the incremental and "
      "rebuild-per-move paths — same positions, same lists.");
  bench::comment(
      "Scaling: the incremental path recomputes only the mover's own "
      "list plus one entry per neighbouring list, so its wall ms/op "
      "should sit two orders of magnitude under the per-move rebuild at "
      "N = 1000.");
  return 0;
}
