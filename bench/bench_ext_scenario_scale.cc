// Extension: scenario scaling — TCP throughput and simulation wall-clock
// versus topology size for the chain, grid and star families. Not a
// paper figure; it charts how far the unified scenario subsystem
// stretches beyond the four paper topologies, and what a hop (or a
// contender) costs. The points run as one app::sweep_experiments grid,
// each simulation on one pool worker; the wall column is that point's
// own host time.
#include <chrono>

#include "app/sweep.h"
#include "bench_common.h"

using namespace hydra;

int main() {
  bench::print_header(
      "Extension: scenario scaling",
      "TCP vs topology size across scenario families",
      "100 KB transfer per session, BA policy, base rate; wall = host "
      "seconds for the whole simulation.");

  app::SweepGrid grid;
  grid.scenarios = {{"", topo::ScenarioSpec::chain(2)},
                    {"", topo::ScenarioSpec::chain(3)},
                    {"", topo::ScenarioSpec::chain(4)},
                    {"", topo::ScenarioSpec::chain(6)},
                    {"", topo::ScenarioSpec::chain(8)},
                    {"", topo::ScenarioSpec::grid(2, 2)},
                    {"", topo::ScenarioSpec::grid(2, 3)},
                    {"", topo::ScenarioSpec::grid(3, 3)},
                    {"", topo::ScenarioSpec::grid(4, 4)},
                    {"", topo::ScenarioSpec::star(1)},
                    {"", topo::ScenarioSpec::star(2)},
                    {"", topo::ScenarioSpec::star(4)},
                    {"", topo::ScenarioSpec::star(6)}};
  grid.policies = {{"BA", core::AggregationPolicy::ba()}};
  grid.base.traffic = topo::TrafficKind::kTcp;
  grid.base.tcp_file_bytes = 100'000;

  const auto started = std::chrono::steady_clock::now();
  const auto outcomes = app::sweep_experiments(grid);
  const double sweep_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();

  stats::Table table({"scenario", "nodes", "hops", "flows", "total Mbps",
                      "worst Mbps", "sim s", "wall s"});
  for (const auto& o : outcomes) {
    const auto& spec = o.point.config.scenario;
    table.add_row({o.point.scenario_label,
                   std::to_string(spec.node_count()),
                   std::to_string(o.result.relay_indices.size() + 1),
                   std::to_string(o.result.flows.size()),
                   stats::Table::num(o.result.total_throughput_mbps(), 3),
                   stats::Table::num(o.result.worst_throughput_mbps(), 3),
                   stats::Table::num(o.result.sim_time.seconds_f(), 1),
                   stats::Table::num(o.wall_seconds, 3)});
  }
  bench::emit(table);
  bench::comment("\nSweep of %zu simulations took %.2f s wall "
              "(thread-parallel; each point is one simulation).",
              outcomes.size(), sweep_wall);
  bench::comment("Expected shape: per-flow throughput decays with hop count; "
              "star worst-case decays with sender count.");
  return 0;
}
