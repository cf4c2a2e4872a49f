#include "sim/rng.h"

#include "util/assert.h"

namespace hydra::sim {

std::uint64_t Rng::uniform_int(std::uint64_t lo, std::uint64_t hi) {
  HYDRA_ASSERT(lo <= hi);
  return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
}

double Rng::uniform() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

// The p<=0 / p>=1 short-circuits draw nothing, so they leave the draw
// sequence untouched.
bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::exponential(double mean) {
  HYDRA_ASSERT(mean > 0.0);
  return std::exponential_distribution<double>(1.0 / mean)(engine_);
}

}  // namespace hydra::sim
