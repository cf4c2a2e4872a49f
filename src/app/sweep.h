// Parameter-sweep driver: the cartesian product of scenario specs,
// aggregation policies and transport schemes, each point run through
// app::run_experiment. Every simulation is self-contained (its own
// Simulation, Medium and RNG; no mutable globals), so points execute in
// parallel through util::parallel_for, each wholly on one thread, and
// results come back in deterministic grid order regardless of
// scheduling.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "app/experiment.h"

namespace hydra::app {

// One axis combination, fully resolved into a runnable config.
struct SweepPoint {
  std::string scenario_label;
  std::string policy_label;
  // Label of the transport-scheme axis entry ("" for the default axis,
  // whose points run the base config's tuning).
  std::string transport_label;
  topo::ExperimentConfig config;
};

struct SweepOutcome {
  SweepPoint point;
  topo::ExperimentResult result;
  // Wall-clock cost of this point's simulation (scaling benches chart
  // it against topology size).
  double wall_seconds = 0.0;
};

// The sweep axes. `base` supplies the workload (traffic kind, file
// sizes, seed, time cap); each point overwrites base.scenario with the
// axis spec, then the spec's aggregation policy with the policy axis.
// Every other spec knob (rate adaptation, medium.cull_margin_db, ...)
// reaches the point as the scenario axis wrote it.
struct SweepGrid {
  std::vector<std::pair<std::string, topo::ScenarioSpec>> scenarios;
  std::vector<std::pair<std::string, core::AggregationPolicy>> policies = {
      {"ba", core::AggregationPolicy::ba()}};
  // Transport-scheme axis (congestion control × ACK policy), innermost.
  // A nullopt entry leaves base.tcp.tuning in charge; a concrete
  // TransportTuning overwrites it on every point. Empty labels resolve
  // to the tuning's own to_string ("newreno+ack-imm") so ablation
  // tables stay readable.
  std::vector<std::pair<std::string, std::optional<transport::TransportTuning>>>
      transports = {{"", std::nullopt}};
  topo::ExperimentConfig base;
};

// Expands the grid scenario-major (policies, then transports innermost)
// without running anything.
std::vector<SweepPoint> expand_sweep(const SweepGrid& grid);

// Runs every point of the grid, `threads` simulations at a time
// (0 = hardware concurrency). Outcomes are indexed like expand_sweep.
std::vector<SweepOutcome> sweep_experiments(const SweepGrid& grid,
                                            unsigned threads = 0);

}  // namespace hydra::app
