#include "phy/medium.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "phy/phy.h"
#include "util/assert.h"
#include "util/pool.h"

namespace hydra::phy {

double path_loss_db(const MediumConfig& config, double distance) {
  const double d = std::max(1.0, distance);
  return config.path_loss_at_1m_db +
         10.0 * config.path_loss_exponent * std::log10(d);
}

sim::Duration propagation_delay(const MediumConfig& config, double distance) {
  const double d = std::max(1.0, distance);
  return sim::Duration::nanos(
      std::llround(d / config.propagation_speed_mps * 1e9));
}

double cull_floor_dbm(const MediumConfig& config) {
  // Clamped to the CCA threshold: anything quieter than CCA can neither
  // assert the channel nor collide nor decode, so a floor at or below it
  // culls only behaviourally inert deliveries.
  return std::min(config.noise_floor_dbm - config.cull_margin_db,
                  config.cca_threshold_dbm);
}

double reach_radius_m(const MediumConfig& config, double tx_power_dbm) {
  const double budget =
      tx_power_dbm - cull_floor_dbm(config) - config.path_loss_at_1m_db;
  if (budget <= 0.0) return 1.0;  // below the floor beyond the 1 m clamp
  // The pow branch is clamped too: the path-loss model floors distance
  // at 1 m, so a reach below that would under-size grid cells for no
  // physical reason (the documented contract is "≥ 1 m" either way).
  return std::max(1.0,
                  std::pow(10.0, budget / (10.0 * config.path_loss_exponent)));
}

namespace {

Delivery make_delivery(const MediumConfig& config, const Phy& src,
                       const Phy& dst) {
  const double d =
      distance_m(src.config().position, dst.config().position);
  return Delivery{dst.key(),
                  src.config().tx_power_dbm - path_loss_db(config, d),
                  propagation_delay(config, d)};
}

// Where `key` sits in the key-sorted `list`: its entry if it has one,
// else the slot an entry for it would take.
std::vector<Delivery>::iterator slot_of(std::vector<Delivery>& list,
                                        std::uint32_t key) {
  return std::lower_bound(
      list.begin(), list.end(), key,
      [](const Delivery& d, std::uint32_t k) { return d.key < k; });
}

// Whether slot_of(list, key) returned `key`'s entry.
bool holds(const std::vector<Delivery>& list,
           std::vector<Delivery>::iterator it, std::uint32_t key) {
  return it != list.end() && it->key == key;
}

}  // namespace

// Builds a grid whose cells span the widest reach among the attached
// transmitters, so every possible receiver sits in the 3×3 neighborhood
// of its source's cell, then computes every list in key order.
void DeliveryBackend::rebuild(const std::vector<Phy*>& receivers,
                              const MediumConfig& config) {
  lists_.clear();
  lists_.resize(receivers.size());
  positions_.clear();
  positions_.reserve(receivers.size());
  // reach_radius_m is monotone in tx power, so the loudest transmitter
  // sets the widest reach.
  double loudest_dbm = -std::numeric_limits<double>::infinity();
  for (std::uint32_t k = 0; k < receivers.size(); ++k) {
    const Phy* phy = receivers[k];
    if (phy == nullptr) continue;
    HYDRA_ASSERT_MSG(phy->attached() && phy->key() == k,
                     "delivery lists need the key table");
    positions_.push_back(phy->config().position);
    loudest_dbm = std::max(loudest_dbm, phy->config().tx_power_dbm);
  }
  grid_.reset(positions_,
              positions_.empty() ? 1.0 : reach_radius_m(config, loudest_dbm));
  for (std::uint32_t k = 0; k < receivers.size(); ++k) {
    if (const Phy* phy = receivers[k]) grid_.insert(phy->config().position, k);
  }
  candidates_.reserve(positions_.size());
  const double floor = cull_floor_dbm(config);
  // Ascending order meets compute_list's precondition: cell adjacency is
  // symmetric, so every earlier candidate's list already holds its entry
  // for s.
  for (std::uint32_t s = 0; s < receivers.size(); ++s) {
    if (receivers[s] != nullptr) compute_list(s, receivers, config, floor);
  }
}

bool DeliveryBackend::attach_incremental(Phy& phy,
                                         const std::vector<Phy*>& receivers,
                                         const MediumConfig& config) {
  // Local only when the newcomer sits inside the built grid and its own
  // reach fits one cell (so the 3×3 query stays sufficient in both
  // directions); anything else rebuilds from scratch.
  const Position p = phy.config().position;
  if (!grid_.contains(p)) return false;
  if (reach_radius_m(config, phy.config().tx_power_dbm) > grid_.cell_m()) {
    return false;
  }
  const std::uint32_t s = phy.key();
  lists_.resize(receivers.size());
  grid_.insert(p, s);
  // Reverse direction first: every in-reach existing source gains the
  // newcomer. It holds the newest key, so push_back keeps each list
  // key-sorted; the power filter is the same exact cull a full rebuild
  // would apply.
  const double floor = cull_floor_dbm(config);
  grid_.neighborhood(p, [&](std::uint32_t i) {
    if (i == s) return;
    const auto delivery = make_delivery(config, *receivers[i], phy);
    if (delivery.rx_power_dbm >= floor) lists_[i].push_back(delivery);
  });
  compute_list(s, receivers, config, floor);
  return true;
}

void DeliveryBackend::detach_incremental(const Phy& phy) {
  // The bounding box and cell width stay valid for the survivors. Only
  // the sources in the leaver's grid neighborhood had it as a candidate
  // (cell adjacency is symmetric), so only their lists can hold it.
  const std::uint32_t s = phy.key();
  const Position p = phy.config().position;
  grid_.erase(p, s);
  lists_[s] = {};
  grid_.neighborhood(p, [&](std::uint32_t i) {
    auto& list = lists_[i];
    const auto it = slot_of(list, s);
    if (holds(list, it, s)) list.erase(it);
  });
}

bool DeliveryBackend::move_incremental(Phy& phy, Position old_position,
                                       const std::vector<Phy*>& receivers,
                                       const MediumConfig& config) {
  // Local only inside the built bounding box: neighborhood()'s 3×3
  // superset guarantee holds for clamped queries near the box but NOT
  // for far-out positions (the clamp would silently hand back a boundary
  // cell's neighbors), so those force a rebuild, which re-derives the
  // box. Reach must still fit one cell, as for attach.
  const Position p = phy.config().position;
  if (!grid_.contains(p)) return false;
  if (reach_radius_m(config, phy.config().tx_power_dbm) > grid_.cell_m()) {
    return false;
  }
  const std::uint32_t s = phy.key();
  grid_.erase(old_position, s);
  grid_.insert(p, s);
  // Any other list can differ from a rebuild only in its entry for the
  // mover. Cell adjacency is symmetric, so the sources whose 3×3
  // candidate set holds the mover are exactly the new position's grid
  // neighborhood. Each gets the entry a rebuild would compute: the same
  // make_delivery from *its* transmit power (reach need not be
  // symmetric) under the same cull test: overwritten, erased, or
  // inserted at its key's slot.
  const double floor = cull_floor_dbm(config);
  grid_.neighborhood(p, [&](std::uint32_t i) {
    if (i == s) return;
    auto& list = lists_[i];
    const auto it = slot_of(list, s);
    const auto delivery = make_delivery(config, *receivers[i], phy);
    if (delivery.rx_power_dbm < floor) {
      if (holds(list, it, s)) list.erase(it);
    } else if (holds(list, it, s)) {
      *it = delivery;
    } else {
      list.insert(it, delivery);
    }
  });
  // Sources whose neighborhood held the old cell but not the new one
  // lost the mover as a candidate (none unless it changed cell).
  grid_.neighborhood_outside(old_position, p, [&](std::uint32_t i) {
    auto& list = lists_[i];
    const auto it = slot_of(list, s);
    if (holds(list, it, s)) list.erase(it);
  });
  // The mover's own list last, once every neighbor's entry for it is
  // current (compute_list's precondition).
  compute_list(s, receivers, config, floor);
  return true;
}

const std::vector<Delivery>& DeliveryBackend::deliveries(const Phy& src) const {
  HYDRA_ASSERT_MSG(src.attached() && src.key() < lists_.size(),
                   "deliveries of a phy these lists do not hold");
  return lists_[src.key()];
}

void DeliveryBackend::compute_list(std::uint32_t s,
                                   const std::vector<Phy*>& receivers,
                                   const MediumConfig& config, double floor) {
  const Phy& src = *receivers[s];
  candidates_.clear();
  grid_.neighborhood(src.config().position,
                     [&](std::uint32_t i) { candidates_.push_back(i); });
  // A freshly built one-cell neighborhood is in key order already.
  if (!std::is_sorted(candidates_.begin(), candidates_.end())) {
    std::sort(candidates_.begin(), candidates_.end());
  }
  list_.clear();
  list_.reserve(candidates_.size());
  for (const std::uint32_t i : candidates_) {
    if (i == s) continue;
    if (i < s &&
        receivers[i]->config().tx_power_dbm == src.config().tx_power_dbm) {
      // Distance, path loss and delay are symmetric bit for bit, so at
      // equal transmit power the entry s -> i mirrors list i's entry for
      // s, and is culled exactly when that one is.
      auto& mirror = lists_[i];
      const auto it = slot_of(mirror, s);
      if (holds(mirror, it, s)) {
        list_.push_back({i, it->rx_power_dbm, it->propagation});
      }
      continue;
    }
    const auto delivery = make_delivery(config, src, *receivers[i]);
    if (delivery.rx_power_dbm >= floor) list_.push_back(delivery);
  }
  lists_[s].assign(list_.begin(), list_.end());
}

Medium::Medium(sim::Simulation& simulation, MediumConfig config,
               ErrorModel error_model)
    : sim_(simulation), config_(config), error_model_(error_model) {}

void Medium::attach(Phy& phy) {
  // attached_ is true exactly while receivers_[key_] holds `phy`.
  HYDRA_ASSERT_MSG(!phy.attached_, "phy attached twice");
  phy.key_ = static_cast<std::uint32_t>(receivers_.size());
  receivers_.push_back(&phy);
  phy.attached_ = true;
  if (!backend_dirty_ &&
      backend_.attach_incremental(phy, receivers_, config_)) {
    ++incremental_attaches_;
    return;
  }
  backend_dirty_ = true;
}

bool Medium::detach(Phy& phy) {
  if (!phy.attached_) return false;
  release_key(phy);
  phy.abort_receptions();
  phy.attached_ = false;
  ++detaches_;
  if (!backend_dirty_) {
    backend_.detach_incremental(phy);
    ++incremental_detaches_;
  }
  return true;
}

void Medium::move_node(Phy& phy, Position position) {
  const Position old = phy.config_.position;
  phy.config_.position = position;
  if (!phy.attached_) return;  // takes effect when the PHY re-attaches
  ++moves_;
  if (!backend_dirty_ &&
      backend_.move_incremental(phy, old, receivers_, config_)) {
    ++incremental_moves_;
    return;
  }
  backend_dirty_ = true;
}

void Medium::release_key(const Phy& phy) {
  HYDRA_ASSERT_MSG(
      phy.key_ < receivers_.size() && receivers_[phy.key_] == &phy,
      "phy attached to another medium");
  receivers_[phy.key_] = nullptr;
}

void Medium::on_phy_destroyed(Phy& phy) {
  // Already detach()ed explicitly: the key was cleared then, and a
  // detached PHY holds no other.
  if (!phy.attached_) return;
  release_key(phy);
  phy.attached_ = false;
  backend_dirty_ = true;
}

const DeliveryBackend& Medium::backend() {
  ensure_backend();
  return backend_;
}

void Medium::ensure_backend() {
  if (backend_dirty_) {
    backend_.rebuild(receivers_, config_);
    backend_dirty_ = false;
    ++rebuilds_;
  }
}

double Medium::rx_power_dbm(const Phy& src, const Phy& dst) const {
  const double d =
      distance_m(src.config().position, dst.config().position);
  return src.config().tx_power_dbm - path_loss_db(config_, d);
}

double Medium::snr_db(const Phy& src, const Phy& dst) const {
  return rx_power_dbm(src, dst) - config_.noise_floor_dbm;
}

void Medium::start_transmission(Phy& src, PhyFrame frame,
                                FrameTiming timing) {
  // A detached radio still burns airtime — the MAC's timing machinery
  // keeps running — but reaches nobody.
  if (!src.attached_) return;
  ensure_backend();
  const std::uint64_t id = next_tx_id_++;
  const auto& deliveries = backend_.deliveries(src);
  deliveries_scheduled_ += deliveries.size();
  if (deliveries.empty()) return;
  // Pooled: a Transmission and its control block recycle together when
  // the run that delivers it ends.
  auto tx = util::make_pooled<Transmission>();
  tx->id = id;
  tx->frame = std::move(frame);
  tx->timing = std::move(timing);

  // The run's order is ascending (time, event number) over the key-sorted
  // list: the order, under the same contiguous sequence numbers, that one
  // schedule_at per event, arrival and departure alternating in list
  // order, would give. Each departure trails its arrival by the same
  // airtime, so the departures come in the arrivals' order: one sort of
  // the arrivals, then a merge.
  const auto now = sim_.now();
  const auto earlier = [](const Arrival& a, const Arrival& b) {
    return a.at != b.at ? a.at < b.at : a.event < b.event;
  };
  const auto count = static_cast<std::uint32_t>(deliveries.size());
  tx->receptions.reserve(count);
  arrivals_.clear();
  arrivals_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const Delivery& delivery = deliveries[i];
    tx->receptions.push_back({delivery.key, delivery.rx_power_dbm});
    arrivals_.push_back({now + delivery.propagation, 2 * i});
  }
  std::sort(arrivals_.begin(), arrivals_.end(), earlier);
  tx->events.reserve(2 * count);
  times_.clear();
  times_.reserve(2 * count);
  const auto emit = [&](const Arrival& event) {
    tx->events.push_back(event.event);
    times_.push_back(event.at);
  };
  std::uint32_t next_arrival = 0;
  for (const Arrival& arrival : arrivals_) {
    const Arrival departure{arrival.at + tx->timing.total, arrival.event + 1};
    while (next_arrival < count &&
           earlier(arrivals_[next_arrival], departure)) {
      emit(arrivals_[next_arrival++]);
    }
    emit(departure);
  }
  sim_.scheduler().schedule_run(times_.data(), times_.size(),
                                [this, tx = std::move(tx)] { deliver(*tx); });
}

void Medium::deliver(Transmission& tx) {
  const std::uint32_t event = tx.events[tx.next++];
  const bool arrival = event % 2 == 0;
  const auto& reception = tx.receptions[event / 2];
  // Below the CCA threshold a reception can neither assert CCA, collide
  // nor decode: its arrival only counts, and its departure does nothing.
  const bool audible = reception.rx_power_dbm >= config_.cca_threshold_dbm;
  if (!audible && !arrival) return;
  // A receiver that has detached or died since holds no key here.
  Phy* dst = receivers_[reception.key];
  if (dst == nullptr) return;
  if (!audible) {
    ++dst->rx_starts_;
  } else if (arrival) {
    dst->rx_start(tx);
  } else {
    dst->rx_end(tx, reception.rx_power_dbm);
  }
}

}  // namespace hydra::phy
