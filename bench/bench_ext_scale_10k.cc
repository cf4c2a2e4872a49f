// Extension: allocation-free hot path at scale — flooded grids up to
// N = 10000 nodes under the culled medium. Not a paper figure; it
// charts the run loop's heap traffic with the recycling memory path
// (util::pool, SmallFn callbacks, pooled packets/PDUs/transmissions)
// and how delivery throughput holds as N grows: the paper's testbed
// stops at 6 nodes.
//
// Unlike the other scale benches this one drives topo::Scenario
// directly instead of going through app::run_experiment, for two
// reasons. First, the meter: run_experiment charges the O(N) scenario
// build to the same counters as the event loop, and at N = 10000 the
// build dwarfs the run — here the allocation and wall meters wrap
// simulation.run_until() alone, so the columns describe the hot path.
// Second, the load: run_experiment staggers flooders 17 ms apart, so a
// short sim only ever ignites the first sim_time/17ms nodes; this bench
// staggers modulo 100, keeping offered load proportional to N.
//
// Table 1 (memory path, run first so the pool's warm state is
// identical on every rerun): one mid-size flood on the pooled path. The
// run-loop allocation columns are deterministic — the exact same event
// sequence asks for the exact same storage — so they are baseline-gated
// like any other metric; peak RSS and wall time are host-dependent and
// excluded (the driver skips wall/rss columns).
//
// Table 2 (scale): N = 1024 / 4096 / 10000 under the culled medium.
// Transmissions, deliveries, fan-out and executed events are gated by
// the baseline; deliveries per wall-second ride along unguarded as the
// throughput-shape column.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "app/flood.h"
#include "bench_common.h"
#include "topo/scenario.h"
#include "util/alloc_stats.h"

using namespace hydra;

namespace {

constexpr std::uint64_t kSeed = 1;

topo::ScenarioSpec flood_spec(std::size_t rows, std::size_t cols) {
  auto spec = topo::ScenarioSpec::grid(rows, cols);
  // 10 m spacing: the reach radius (~36.5 m) covers a few rings of the
  // lattice, so culled fan-out stays ~constant as N grows.
  spec.spacing_m = 10.0;
  // No sessions: flooding never routes. Static routes stay on; they are
  // computed per lookup, so the N = 10000 build stays O(N).
  spec.sessions.clear();
  return spec;
}

double wall_since(std::chrono::steady_clock::time_point started) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       started)
      .count();
}

struct Run {
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t events = 0;
  // Hot-path meters: deltas across the event loop only, build excluded.
  std::uint64_t heap_allocations = 0;
  std::uint64_t heap_bytes = 0;
  std::uint64_t peak_rss_kb = 0;
  double build_wall = 0.0;
  double run_wall = 0.0;
};

Run run_flood(const topo::ScenarioSpec& spec, sim::Duration sim_time) {
  const auto build_started = std::chrono::steady_clock::now();
  auto scenario = topo::Scenario::build(spec, kSeed);

  // Every node floods: 40 B payloads every 250 ms, phases staggered
  // modulo 100 so offered load grows with N instead of saturating at
  // the first sim_time/17ms nodes.
  std::vector<std::unique_ptr<app::FloodApp>> flooders;
  flooders.reserve(scenario.size());
  for (std::uint32_t i = 0; i < scenario.size(); ++i) {
    app::FloodConfig fc;
    fc.payload_bytes = 40;
    fc.interval = sim::Duration::millis(250);
    fc.initial_offset = sim::Duration::millis(17) * (i % 100 + 1);
    flooders.push_back(
        std::make_unique<app::FloodApp>(scenario.sim(), scenario.node(i), fc));
    flooders.back()->start();
  }

  Run run;
  run.build_wall = wall_since(build_started);

  const auto alloc_before = util::alloc_snapshot();
  const auto run_started = std::chrono::steady_clock::now();
  scenario.sim().run_until(sim::TimePoint::at(sim_time));
  run.run_wall = wall_since(run_started);
  const auto alloc_after = util::alloc_snapshot();

  run.transmissions = scenario.medium().transmissions_started();
  run.deliveries = scenario.medium().deliveries_scheduled();
  run.events = scenario.sim().scheduler().executed_events();
  run.heap_allocations = alloc_after.allocations - alloc_before.allocations;
  run.heap_bytes = alloc_after.bytes - alloc_before.bytes;
  run.peak_rss_kb = util::peak_rss_kb();
  return run;
}

void memory_table() {
  // 32×32 = 1024 nodes, culled medium, one thread: the run-loop
  // allocation counters are exact.
  const Run pooled = run_flood(flood_spec(32, 32), sim::Duration::seconds(2));

  stats::Table table({"memory path", "events", "run heap allocs",
                      "allocs/event", "run heap MB", "peak rss MB",
                      "run wall s"});
  const double events = static_cast<double>(pooled.events ? pooled.events : 1);
  table.add_row(
      {"pooled", std::to_string(pooled.events),
       std::to_string(pooled.heap_allocations),
       stats::Table::num(static_cast<double>(pooled.heap_allocations) / events,
                         4),
       stats::Table::num(static_cast<double>(pooled.heap_bytes) / 1e6, 1),
       stats::Table::num(static_cast<double>(pooled.peak_rss_kb) / 1024.0, 1),
       stats::Table::num(pooled.run_wall, 3)});
  bench::emit(table);
  bench::comment("N = 1024 flood, culled medium; meters wrap the event loop "
                 "only.");
}

void scale_table() {
  struct Size {
    std::size_t rows, cols;
    sim::Duration sim_time;
  };
  // Larger worlds get shorter sim spans so offered load per run stays
  // comparable; the point is allocation and delivery-rate shape versus
  // N, not total event count.
  const Size sizes[] = {{32, 32, sim::Duration::seconds(2)},
                        {64, 64, sim::Duration::seconds(1)},
                        {100, 100, sim::Duration::millis(500)}};
  stats::Table table({"config", "nodes", "tx frames", "deliveries",
                      "fan-out", "events", "Mdeliv/s run wall", "run wall s",
                      "build wall s"});
  for (const Size& size : sizes) {
    const std::size_t nodes = size.rows * size.cols;
    const Run run = run_flood(flood_spec(size.rows, size.cols), size.sim_time);
    char label[64];
    std::snprintf(label, sizeof label, "N=%zu/culled/serial", nodes);
    table.add_row(
        {label, std::to_string(nodes), std::to_string(run.transmissions),
         std::to_string(run.deliveries),
         stats::Table::num(static_cast<double>(run.deliveries) /
                               static_cast<double>(run.transmissions),
                           1),
         std::to_string(run.events),
         stats::Table::num(static_cast<double>(run.deliveries) /
                               run.run_wall / 1e6,
                           2),
         stats::Table::num(run.run_wall, 3),
         stats::Table::num(run.build_wall, 3)});
  }
  bench::emit(table);
  bench::comment("Mdeliv/s run wall is millions of scheduled deliveries per "
                 "host second, event loop only. Expected shape: culled "
                 "fan-out stays ~flat as N grows (10 m lattice, fixed "
                 "reach), so deliveries/sec holds roughly steady 1k -> 10k "
                 "instead of collapsing with N.");
}

}  // namespace

int main() {
  bench::print_header(
      "Extension: allocation-free scale (N = 10k)",
      "pooled memory path on flooded grids, 1024 to 10000 nodes",
      "Every node floods 40 B every 250 ms on a 10 m lattice. Table 1 "
      "gates the pooled run loop's allocation counts; table 2 scales N "
      "under the culled medium.");
  memory_table();
  scale_table();
  return 0;
}
