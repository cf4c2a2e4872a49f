#include "topo/mobility.h"

#include <cmath>
#include <utility>

#include "util/assert.h"

namespace hydra::topo {

const char* to_string(MobilityKind kind) {
  switch (kind) {
    case MobilityKind::kNone: return "none";
    case MobilityKind::kWaypoint: return "waypoint";
    case MobilityKind::kDistanceStep: return "distance-step";
    case MobilityKind::kChurn: return "churn";
  }
  HYDRA_UNREACHABLE("bad mobility kind");
}

MobilityDriver::MobilityDriver(sim::Simulation& simulation, phy::Medium& medium,
                               MobilitySpec spec, phy::Position world_min,
                               phy::Position world_max,
                               std::vector<phy::Phy*> targets)
    : sim_(simulation),
      medium_(medium),
      spec_(std::move(spec)),
      world_min_(world_min),
      world_max_(world_max),
      targets_(std::move(targets)),
      rng_(spec_.seed) {
  HYDRA_ASSERT(spec_.kind != MobilityKind::kNone);
  HYDRA_ASSERT(!spec_.update_interval.is_zero() &&
               !spec_.update_interval.is_negative());
}

void MobilityDriver::start() {
  if (targets_.empty()) return;
  if (spec_.kind == MobilityKind::kWaypoint) {
    waypoints_.clear();
    waypoints_.reserve(targets_.size());
    for (std::size_t i = 0; i < targets_.size(); ++i) {
      waypoints_.push_back(draw_waypoint());
    }
  }
  sim_.scheduler().schedule_at(
      sim::TimePoint::at(spec_.start_after) + spec_.update_interval,
      [this] { tick(); });
}

void MobilityDriver::tick() {
  ++ticks_;
  switch (spec_.kind) {
    case MobilityKind::kNone: HYDRA_UNREACHABLE("driver with kNone");
    case MobilityKind::kWaypoint: step_waypoint(); break;
    case MobilityKind::kDistanceStep: step_distance(); break;
    case MobilityKind::kChurn: step_churn(); break;
  }
  const auto next = sim_.now() + spec_.update_interval;
  if (next.since_origin() <= spec_.stop_after) {
    sim_.scheduler().schedule_at(next, [this] { tick(); });
  }
}

phy::Position MobilityDriver::draw_waypoint() {
  return {world_min_.x_m + rng_.uniform() * (world_max_.x_m - world_min_.x_m),
          world_min_.y_m + rng_.uniform() * (world_max_.y_m - world_min_.y_m)};
}

void MobilityDriver::step_waypoint() {
  const double step = spec_.speed_mps * spec_.update_interval.seconds_f();
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    phy::Phy* phy = targets_[i];
    const phy::Position at = phy->config().position;
    const phy::Position to = waypoints_[i];
    const double dist = phy::distance_m(at, to);
    if (dist <= step) {
      // Arrived: land exactly on the waypoint and pick the next one.
      medium_.move_node(*phy, to);
      waypoints_[i] = draw_waypoint();
      continue;
    }
    medium_.move_node(*phy, {at.x_m + (to.x_m - at.x_m) / dist * step,
                             at.y_m + (to.y_m - at.y_m) / dist * step});
  }
}

void MobilityDriver::step_distance() {
  // Out for steps_out ticks, back for steps_out ticks, repeat. The
  // excursion walks past the world's +x edge on purpose: positions
  // outside the built bounding box must route through the medium's
  // rebuild fallback, and this model is what the tests and benches use
  // to hit that path deterministically.
  const double direction = phase_ < spec_.steps_out ? 1.0 : -1.0;
  phase_ = (phase_ + 1) % (2 * spec_.steps_out);
  for (phy::Phy* phy : targets_) {
    const phy::Position at = phy->config().position;
    medium_.move_node(*phy, {at.x_m + direction * spec_.step_m, at.y_m});
  }
}

void MobilityDriver::step_churn() {
  phy::Phy* phy = targets_[next_churn_];
  next_churn_ = (next_churn_ + 1) % targets_.size();
  // Skip a node still down from a previous cycle (down_time longer than
  // a full round); its re-attach is already scheduled.
  if (!phy->attached()) return;
  medium_.detach(*phy);
  sim_.scheduler().schedule_in(spec_.down_time,
                               [this, phy] { medium_.attach(*phy); });
}

}  // namespace hydra::topo
