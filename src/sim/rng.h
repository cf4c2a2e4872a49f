// Deterministic random number source for the simulation.
//
// One Rng per Simulation, explicitly seeded: identical configurations
// replay identical traces, which the regression tests rely on.
#pragma once

#include <cstdint>
#include <random>

namespace hydra::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  // Uniform integer in [lo, hi] (inclusive).
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi);
  // Uniform double in [0, 1).
  double uniform();
  // True with probability p (p clamped to [0, 1]).
  bool bernoulli(double p);
  // Exponentially distributed duration with the given mean (seconds).
  double exponential(double mean);

  // Direct engine access for pre-run setup (scenario placement, seeding
  // helpers).
  std::mt19937_64& engine() { return engine_; }

 private:
  // One global draw sequence: every draw, in event order, advances it.
  std::mt19937_64 engine_;
};

}  // namespace hydra::sim
