// Simulation context: the scheduler + RNG pair every component shares.
#pragma once

#include <cstdint>

#include "sim/rng.h"
#include "sim/scheduler.h"

namespace hydra::sim {

// Root object of a simulation run. Owns the event loop and the random
// source; every protocol entity receives a Simulation& and must not
// outlive it.
class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1) : rng_(seed) {}

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  Scheduler& scheduler() { return scheduler_; }
  Rng& rng() { return rng_; }
  TimePoint now() const { return scheduler_.now(); }

  // Runs until no events remain.
  void run() { scheduler_.run(); }
  // Runs until the given simulated instant.
  void run_until(TimePoint deadline) { scheduler_.run_until(deadline); }
  void run_for(Duration d) { scheduler_.run_until(scheduler_.now() + d); }

 private:
  Scheduler scheduler_;
  Rng rng_;
};

}  // namespace hydra::sim
