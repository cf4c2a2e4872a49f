// Extension: medium scaling — per-transmission delivery fan-out and wall
// clock of the reachability-culled medium at N ∈ {100, 400, 1000}. Not a
// paper figure; it charts why the spatially indexed medium exists. Grid
// topologies at 10 m spacing put most receivers tens of dB below the
// noise floor, so delivering everywhere would schedule N−1 deliveries per
// frame where culling schedules only the ~O(k) neighbors inside the
// reach radius — the deliv/frame column is exact geometry
// (deterministic), the wall column is the host cost of the run.
#include <chrono>

#include "bench_common.h"

using namespace hydra;

namespace {

struct GridSize {
  std::size_t rows;
  std::size_t cols;
};

topo::ExperimentConfig flood_config(GridSize size) {
  topo::ExperimentConfig cfg;
  cfg.scenario = topo::ScenarioSpec::grid(size.rows, size.cols);
  // 10 m spacing: only the four lattice neighbors are audible, and the
  // reach radius (~36.5 m at the paper's tx power) covers a few rings of
  // the lattice rather than the whole world.
  cfg.scenario.spacing_m = 10.0;
  // Pure flooding load — no sessions, every node broadcasts. The metric
  // is medium fan-out, not end-to-end routing.
  cfg.scenario.sessions.clear();
  cfg.flooding = true;
  cfg.flood_interval = sim::Duration::millis(250);
  cfg.flood_payload_bytes = 40;
  cfg.max_sim_time = sim::Duration::seconds(2);
  return cfg;
}

}  // namespace

int main() {
  bench::print_header(
      "Extension: medium scaling",
      "delivery fan-out per frame under reachability culling",
      "Grid scenarios at 10 m spacing under a 2 s flooding load; "
      "deliv/frame is the number of rx event pairs the medium schedules "
      "per transmission.");

  const GridSize sizes[] = {{10, 10}, {20, 20}, {25, 40}};

  stats::Table table({"scenario", "nodes", "reach m", "tx frames",
                      "deliveries", "deliv/frame", "wall s"});
  for (const auto size : sizes) {
    const auto cfg = flood_config(size);
    const auto started = std::chrono::steady_clock::now();
    const auto result = app::run_experiment(cfg);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();
    const double per_frame =
        result.phy_transmissions == 0
            ? 0.0
            : static_cast<double>(result.phy_deliveries) /
                  static_cast<double>(result.phy_transmissions);
    table.add_row({cfg.scenario.label() + "/culled",
                   std::to_string(cfg.scenario.node_count()),
                   stats::Table::num(cfg.scenario.max_reach_m(), 1),
                   std::to_string(result.phy_transmissions),
                   std::to_string(result.phy_deliveries),
                   stats::Table::num(per_frame, 1),
                   stats::Table::num(wall, 3)});
  }
  bench::emit(table);
  bench::comment(
      "\nExpected shape: culling holds deliv/frame near the in-reach "
      "neighbor count (~O(k), flat in N), where delivering everywhere "
      "would schedule N-1 (99/399/999).");
  bench::comment(
      "Culled delivery is bit-identical to delivering everywhere — the "
      "cull floor sits below the CCA threshold, so skipped receivers "
      "were behaviourally inert (test-pinned by medium_test against an "
      "infinite cull margin).");
  return 0;
}
