// Mobility and churn models for scenarios: a MobilityDriver ticks on the
// simulation clock and drives phy::Medium::move_node / detach / attach
// while traffic runs, exercising the medium's incremental delivery-list
// maintenance (and its rebuild fallback) under motion.
//
// Three model families, selected by MobilitySpec::kind:
//
//   kWaypoint      random-waypoint walks: each mobile node moves at
//                  speed_mps toward a waypoint drawn uniformly inside the
//                  scenario's world bounds, drawing the next waypoint on
//                  arrival. Stays inside the built bounding box, so the
//                  medium absorbs every move incrementally.
//   kDistanceStep  deterministic ping-pong: every mobile node teleports
//                  step_m in +x per tick, steps_out ticks out then back.
//                  The excursion deliberately leaves the world bounds,
//                  forcing the out-of-box rebuild path the spatial grid's
//                  superset guarantee requires.
//   kChurn         join/leave: one mobile node per tick detaches from the
//                  medium and re-attaches down_time later, cycling
//                  round-robin — the lifecycle path (event cancellation,
//                  reception aborts, re-attach ordering).
//
// Determinism: the driver owns its RNG stream (MobilitySpec::seed),
// separate from the simulation RNG, and visits mobile nodes in fixed
// order — so the motion schedule is a pure function of the spec, never of
// the cull margin. The mobility determinism suite pins that per-seed
// trace digests stay bit-identical between the default cull margin and
// the full-mesh reference (an infinite one) under every model.
#pragma once

#include <cstdint>
#include <vector>

#include "phy/medium.h"
#include "phy/phy.h"
#include "sim/rng.h"
#include "sim/simulation.h"

namespace hydra::topo {

enum class MobilityKind { kNone, kWaypoint, kDistanceStep, kChurn };

const char* to_string(MobilityKind kind);

struct MobilitySpec {
  MobilityKind kind = MobilityKind::kNone;

  // Tick cadence and schedule window (both ends relative to simulation
  // origin). The stop bound is what keeps run-until-empty simulations
  // terminating: a recurring tick with no deadline would hold the event
  // queue open forever.
  sim::Duration update_interval = sim::Duration::millis(250);
  sim::Duration start_after = sim::Duration::millis(50);
  sim::Duration stop_after = sim::Duration::seconds(20);

  // kWaypoint: walking speed and the waypoint-draw RNG stream.
  double speed_mps = 1.5;
  std::uint64_t seed = 1;

  // kDistanceStep: teleport distance per tick and ticks per excursion.
  double step_m = 1.0;
  std::uint32_t steps_out = 8;

  // kChurn: how long a node stays detached before rejoining.
  sim::Duration down_time = sim::Duration::millis(400);

  // Node indices the model applies to. Empty means the scenario default:
  // every node that is neither a session endpoint nor a relay (all nodes
  // when that set is empty).
  std::vector<std::uint32_t> mobile;
};

// Runs one MobilitySpec against a medium. Owned by the Scenario that
// built it; start() schedules the first tick and each tick re-arms
// itself until stop_after.
class MobilityDriver {
 public:
  // `world_min`/`world_max` bound the waypoint draws (the scenario's
  // node-placement bounding box); `targets` are the mobile PHYs, visited
  // in this order every tick.
  MobilityDriver(sim::Simulation& simulation, phy::Medium& medium,
                 MobilitySpec spec, phy::Position world_min,
                 phy::Position world_max, std::vector<phy::Phy*> targets);

  MobilityDriver(const MobilityDriver&) = delete;
  MobilityDriver& operator=(const MobilityDriver&) = delete;

  void start();

  std::uint64_t ticks() const { return ticks_; }

 private:
  void tick();
  void step_waypoint();
  void step_distance();
  void step_churn();
  phy::Position draw_waypoint();

  sim::Simulation& sim_;
  phy::Medium& medium_;
  MobilitySpec spec_;
  phy::Position world_min_;
  phy::Position world_max_;
  std::vector<phy::Phy*> targets_;
  sim::Rng rng_;
  // kWaypoint: current destination per target (parallel to targets_).
  std::vector<phy::Position> waypoints_;
  // kDistanceStep: tick counter folding into the out-and-back cycle.
  std::uint32_t phase_ = 0;
  // kChurn: round-robin cursor over targets_.
  std::size_t next_churn_ = 0;
  std::uint64_t ticks_ = 0;
};

}  // namespace hydra::topo
