#include "app/sweep.h"

#include <chrono>

#include "util/parallel_for.h"

namespace hydra::app {

std::vector<SweepPoint> expand_sweep(const SweepGrid& grid) {
  std::vector<SweepPoint> points;
  points.reserve(grid.scenarios.size() * grid.policies.size() *
                 grid.transports.size());
  for (const auto& [scenario_label, spec] : grid.scenarios) {
    for (const auto& [policy_label, policy] : grid.policies) {
      for (const auto& [transport_label, tuning] : grid.transports) {
        SweepPoint point;
        point.scenario_label =
            scenario_label.empty() ? spec.label() : scenario_label;
        point.policy_label = policy_label;
        point.transport_label = transport_label;
        point.config = grid.base;
        point.config.scenario = spec;
        point.config.scenario.node.policy = policy;
        // A nullopt transport entry keeps the base config's tuning (and
        // the "" label); a concrete tuning overrides it.
        if (tuning.has_value()) {
          point.config.tcp.tuning = *tuning;
          if (transport_label.empty()) {
            point.transport_label = transport::to_string(*tuning);
          }
        }
        points.push_back(std::move(point));
      }
    }
  }
  return points;
}

std::vector<SweepOutcome> sweep_experiments(const SweepGrid& grid,
                                            unsigned threads) {
  auto points = expand_sweep(grid);
  std::vector<SweepOutcome> outcomes(points.size());
  // One point per index, claimed dynamically; each outcome slot is
  // written by exactly one thread, and parallel_for's join publishes it
  // to this one.
  util::parallel_for(points.size(), threads, [&](std::size_t i) {
    // Host wall time for the scaling benches; never feeds simulation
    // state or the result fields the baselines gate.
    // hydra-lint: allow(wall-clock) — wall_seconds is bench reporting, not simulation state
    const auto started = std::chrono::steady_clock::now();
    outcomes[i].result = run_experiment(points[i].config);
    // hydra-lint: allow(wall-clock) — same measurement, read side
    const auto elapsed = std::chrono::steady_clock::now() - started;
    outcomes[i].wall_seconds = std::chrono::duration<double>(elapsed).count();
    outcomes[i].point = std::move(points[i]);
  });
  return outcomes;
}

}  // namespace hydra::app
