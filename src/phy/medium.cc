#include "phy/medium.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <unordered_map>

#include "phy/phy.h"
#include "util/assert.h"
#include "util/pool.h"

namespace hydra::phy {

const char* to_string(DeliveryPolicy policy) {
  switch (policy) {
    case DeliveryPolicy::kFullMesh: return "full-mesh";
    case DeliveryPolicy::kCulled: return "culled";
  }
  HYDRA_UNREACHABLE("bad delivery policy");
}

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

Delivery make_delivery(const MediumConfig& config, Phy& src, Phy& dst) {
  const double d =
      distance_m(src.config().position, dst.config().position);
  return Delivery{&dst, src.config().tx_power_dbm - path_loss_db(config, d),
                  propagation_delay(config, d)};
}

// Shared bookkeeping for backends that precompute one delivery list per
// source, keyed by attach order.
class PrecomputedBackend : public DeliveryBackend {
 public:
  const std::vector<Delivery>& deliveries(const Phy& src) const override {
    return lists_[index_.at(&src)];
  }

 protected:
  // Starts a rebuild: empty per-source lists + the attach-order index.
  void reset(const std::vector<Phy*>& phys) {
    lists_.clear();
    lists_.resize(phys.size());
    index_.clear();
    for (std::size_t s = 0; s < phys.size(); ++s) index_[phys[s]] = s;
  }

  // Registers a newly attached PHY (the next attach index) with an
  // empty list; returns its index.
  std::size_t register_attached(Phy& phy) {
    const std::size_t s = lists_.size();
    lists_.emplace_back();
    index_[&phy] = s;
    return s;
  }

  // Mirror of register_attached for a detach: drops `phy`'s own list,
  // renumbers the attach indices above it down by one, and strips it
  // from every remaining list. Relative attach order is untouched, so
  // the surviving lists stay canonically ordered without recomputation.
  // `phys` is the medium's attach-order vector with `phy` already
  // erased. Returns the index `phy` held.
  std::size_t unregister_detached(Phy& phy, const std::vector<Phy*>& phys) {
    const auto it = index_.find(&phy);
    HYDRA_ASSERT_MSG(it != index_.end(), "detach of an unknown phy");
    const std::size_t s = it->second;
    index_.erase(it);
    lists_.erase(lists_.begin() + static_cast<std::ptrdiff_t>(s));
    // Renumber by walking the attach-order vector, not the hash map:
    // phys[i] for i >= s are exactly the survivors whose index shifted
    // down by one, and a deterministic traversal keeps this path out of
    // hydra-lint's unordered-iter rule by construction (the old
    // map-order walk was value-equivalent but order-nondeterministic).
    for (std::size_t i = s; i < phys.size(); ++i) index_[phys[i]] = i;
    for (auto& list : lists_) {
      std::erase_if(list,
                    [&](const Delivery& d) { return d.destination == &phy; });
    }
    return s;
  }

  std::vector<std::vector<Delivery>> lists_;
  // Pointer-hashed: the per-transmission src -> attach-index lookup is
  // on the hot path this layer exists to keep O(1).
  std::unordered_map<const Phy*, std::size_t> index_;  // hydra-lint: allow(unordered-member) — at/find/erase lookups plus the attach-order renumber walk above; never iterated in hash order

};

// Exact paper behaviour: every attached PHY hears every transmission.
// Still caches the per-pair receive power and propagation delay so the
// per-frame path does no trigonometry or log10.
class FullMeshBackend final : public PrecomputedBackend {
 public:
  const char* name() const override { return "full-mesh"; }

  void rebuild(const std::vector<Phy*>& phys,
               const MediumConfig& config) override {
    reset(phys);
    for (std::size_t s = 0; s < phys.size(); ++s) {
      lists_[s].reserve(phys.size() - 1);
      for (Phy* dst : phys) {
        if (dst == phys[s]) continue;
        lists_[s].push_back(make_delivery(config, *phys[s], *dst));
      }
    }
  }

  bool attach_incremental(Phy& phy, const std::vector<Phy*>& phys,
                          const MediumConfig& config) override {
    // The newcomer holds the highest attach index, so appending it to
    // every existing list keeps them attach-ordered.
    const std::size_t s = register_attached(phy);
    auto& list = lists_[s];
    list.reserve(phys.size() - 1);
    for (std::size_t i = 0; i + 1 < phys.size(); ++i) {
      list.push_back(make_delivery(config, phy, *phys[i]));
      lists_[i].push_back(make_delivery(config, *phys[i], phy));
    }
    return true;
  }

  bool detach_incremental(Phy& phy, const std::vector<Phy*>& phys,
                          const MediumConfig&) override {
    unregister_detached(phy, phys);
    return true;
  }

  bool move_incremental(Phy& phy, Position, const std::vector<Phy*>& phys,
                        const MediumConfig& config) override {
    const std::size_t s = index_.at(&phy);
    auto& own = lists_[s];
    own.clear();
    for (std::size_t i = 0; i < phys.size(); ++i) {
      if (i == s) continue;
      own.push_back(make_delivery(config, phy, *phys[i]));
      // A full-mesh list holds every other PHY in attach order, so the
      // mover's reverse entry sits at a computable offset — rewrite it
      // in place instead of searching.
      auto& entry = lists_[i][s < i ? s : s - 1];
      HYDRA_ASSERT(entry.destination == &phy);
      entry = make_delivery(config, *phys[i], phy);
    }
    return true;
  }
};

// Reachability-culled delivery: receivers below the cull floor are
// skipped, and candidates come from the spatial index instead of an
// O(N) scan per source.
class CulledBackend final : public PrecomputedBackend {
 public:
  const char* name() const override { return "culled"; }

  // Builds a grid whose cells span the widest reach among the attached
  // transmitters, so every possible receiver sits in the 3×3
  // neighborhood of its source's cell, then computes every list.
  void rebuild(const std::vector<Phy*>& phys,
               const MediumConfig& config) override {
    reset(phys);
    std::vector<Position> positions;
    positions.reserve(phys.size());
    double reach = 1.0;
    for (const Phy* phy : phys) {
      positions.push_back(phy->config().position);
      reach = std::max(reach,
                       reach_radius_m(config, phy->config().tx_power_dbm));
    }
    grid_.build(positions, reach);
    for (std::size_t s = 0; s < phys.size(); ++s) {
      compute_list(s, phys, config);
    }
  }

  bool attach_incremental(Phy& phy, const std::vector<Phy*>& phys,
                          const MediumConfig& config) override {
    // Local only when the newcomer sits inside the built grid and its
    // own reach fits one cell (so the 3×3 query stays sufficient in
    // both directions); anything else rebuilds from scratch.
    const Position p = phy.config().position;
    if (!grid_.contains(p)) return false;
    if (reach_radius_m(config, phy.config().tx_power_dbm) > grid_.cell_m()) {
      return false;
    }
    const auto s = static_cast<std::uint32_t>(register_attached(phy));
    grid_.insert(p, s);
    compute_list(s, phys, config);
    // Reverse direction: every in-reach existing source gains the
    // newcomer. It holds the highest attach index, so push_back keeps
    // each list attach-ordered; the power filter is the same exact cull
    // a full rebuild would apply.
    const double floor = cull_floor_dbm(config);
    grid_.neighborhood(p, [&](std::uint32_t i) {
      if (i == s) return;
      const auto delivery = make_delivery(config, *phys[i], phy);
      if (delivery.rx_power_dbm >= floor) lists_[i].push_back(delivery);
    });
    return true;
  }

  bool detach_incremental(Phy& phy, const std::vector<Phy*>& phys,
                          const MediumConfig&) override {
    // Always local: removing a node can only shrink candidate sets, and
    // erase_and_renumber keeps the grid aligned with the compacted
    // attach index space (the over-wide bounding box and cell width stay
    // valid — fewer nodes never need a larger reach).
    grid_.erase_and_renumber(static_cast<std::uint32_t>(index_.at(&phy)));
    unregister_detached(phy, phys);
    return true;
  }

  bool move_incremental(Phy& phy, Position old_position,
                        const std::vector<Phy*>& phys,
                        const MediumConfig& config) override {
    // Local only inside the built bounding box: neighborhood()'s 3×3
    // superset guarantee holds for clamped queries near the box but NOT
    // for far-out positions (the clamp would silently hand back a
    // boundary cell's neighbors), so those force a rebuild, which
    // re-derives the box. Reach must still fit one cell, as for attach.
    const Position p = phy.config().position;
    if (!grid_.contains(p)) return false;
    if (reach_radius_m(config, phy.config().tx_power_dbm) > grid_.cell_m()) {
      return false;
    }
    const auto s = static_cast<std::uint32_t>(index_.at(&phy));
    grid_.erase(old_position, s);
    grid_.insert(p, s);
    lists_[s].clear();
    compute_list(s, phys, config);
    // Any other list can differ from a rebuild only in its entry for the
    // mover. Cell adjacency is symmetric, so the sources whose 3×3
    // candidate set holds the mover are exactly the new position's grid
    // neighborhood. Each gets the entry a rebuild would compute: the
    // same make_delivery from *its* transmit power (reach need not be
    // symmetric) under the same cull test.
    const double floor = cull_floor_dbm(config);
    grid_.neighborhood(p, [&](std::uint32_t i) {
      if (i == s) return;
      auto& list = lists_[i];
      const auto it = find_entry(list, phy);
      const auto delivery = make_delivery(config, *phys[i], phy);
      if (delivery.rx_power_dbm < floor) {
        if (it != list.end()) list.erase(it);
      } else if (it != list.end()) {
        *it = delivery;
      } else {
        // Lists are receiver-attach-ordered; index_ places the mover.
        list.insert(std::partition_point(list.begin(), list.end(),
                                         [&](const Delivery& d) {
                                           return index_.at(d.destination) < s;
                                         }),
                    delivery);
      }
    });
    // Sources whose neighborhood held the old cell but not the new one
    // lost the mover as a candidate (none unless it changed cell).
    grid_.neighborhood_outside(old_position, p, [&](std::uint32_t i) {
      auto& list = lists_[i];
      const auto it = find_entry(list, phy);
      if (it != list.end()) list.erase(it);
    });
    return true;
  }

 private:
  // Computes source s's delivery list: grid candidates, sorted to
  // attach order (scheduling — and therefore RNG draw — order must
  // match the full-mesh backend exactly), culled against the floor.
  void compute_list(std::size_t s, const std::vector<Phy*>& phys,
                    const MediumConfig& config) {
    scratch_.clear();
    grid_.neighborhood(phys[s]->config().position,
                       [&](std::uint32_t i) { scratch_.push_back(i); });
    std::sort(scratch_.begin(), scratch_.end());
    const double floor = cull_floor_dbm(config);
    for (const std::uint32_t i : scratch_) {
      if (i == s) continue;
      const auto delivery = make_delivery(config, *phys[s], *phys[i]);
      if (delivery.rx_power_dbm >= floor) lists_[s].push_back(delivery);
    }
  }

  static std::vector<Delivery>::iterator find_entry(
      std::vector<Delivery>& list, const Phy& phy) {
    return std::find_if(list.begin(), list.end(), [&](const Delivery& d) {
      return d.destination == &phy;
    });
  }

  SpatialGrid grid_;
  // Candidate buffer for compute_list, reused so a patch allocates
  // nothing once it has grown.
  std::vector<std::uint32_t> scratch_;
};

}  // namespace

std::unique_ptr<DeliveryBackend> make_delivery_backend(DeliveryPolicy policy) {
  switch (policy) {
    case DeliveryPolicy::kFullMesh:
      return std::make_unique<FullMeshBackend>();
    case DeliveryPolicy::kCulled:
      return std::make_unique<CulledBackend>();
  }
  HYDRA_UNREACHABLE("bad delivery policy");
}

Medium::Medium(sim::Simulation& simulation, MediumConfig config,
               ErrorModel error_model)
    : sim_(simulation), config_(config), error_model_(error_model) {}

void Medium::attach(Phy& phy) {
  // attached_ is true exactly while `phy` sits in phys_.
  HYDRA_ASSERT_MSG(!phy.attached_, "phy attached twice");
  phys_.push_back(&phy);
  phy.attached_ = true;
  if (backend_ && !backend_dirty_ &&
      backend_->attach_incremental(phy, phys_, config_)) {
    ++incremental_attaches_;
    return;
  }
  backend_dirty_ = true;
}

bool Medium::detach(Phy& phy) {
  const auto it = std::find(phys_.begin(), phys_.end(), &phy);
  if (it == phys_.end()) return false;
  cancel_pending_rx(phy);
  phy.abort_receptions();
  phy.attached_ = false;
  phys_.erase(it);
  ++detaches_;
  if (backend_ && !backend_dirty_ &&
      backend_->detach_incremental(phy, phys_, config_)) {
    ++incremental_detaches_;
  } else {
    backend_dirty_ = true;
  }
  return true;
}

void Medium::move_node(Phy& phy, Position position) {
  const Position old = phy.config_.position;
  phy.config_.position = position;
  if (!phy.attached_) return;  // takes effect when the PHY re-attaches
  ++moves_;
  if (backend_ && !backend_dirty_ &&
      backend_->move_incremental(phy, old, phys_, config_)) {
    ++incremental_moves_;
    return;
  }
  backend_dirty_ = true;
}

void Medium::cancel_pending_rx(Phy& phy) {
  for (const auto id : phy.pending_rx_events_) sim_.scheduler().cancel(id);
  phy.pending_rx_events_.clear();
}

void Medium::on_phy_destroyed(Phy& phy) {
  const auto it = std::find(phys_.begin(), phys_.end(), &phy);
  // Already detach()ed explicitly: the pending events were cancelled
  // then, and a detached PHY accrues no new ones.
  if (it == phys_.end()) return;
  cancel_pending_rx(phy);
  phys_.erase(it);
  backend_dirty_ = true;
}

const DeliveryBackend& Medium::backend() {
  ensure_backend();
  return *backend_;
}

void Medium::ensure_backend() {
  if (!backend_) backend_ = make_delivery_backend(config_.delivery);
  if (backend_dirty_) {
    backend_->rebuild(phys_, config_);
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

sim::Duration Medium::start_transmission(Phy& src, PhyFrame frame) {
  const auto timing =
      frame_timing(frame.broadcast, frame.unicast, src.config().timings);
  // A detached radio still burns airtime — the MAC's timing machinery
  // keeps running — but reaches nobody.
  if (!src.attached_) return timing.total;
  ensure_backend();
  // Pooled: a Transmission and its control block recycle together when
  // the last delivery drops its ref.
  auto tx = util::make_pooled<Transmission>();
  tx->id = next_tx_id_++;
  tx->source = &src;
  tx->frame = std::move(frame);
  tx->timing = timing;
  tx->start = sim_.now();

  const auto& deliveries = backend_->deliveries(src);
  deliveries_scheduled_ += deliveries.size();
  // The whole fan-out commits as one batch: rx_start/rx_end pairs in
  // delivery-list (canonical attach) order, exactly the sequence — and
  // sequence numbers — that per-delivery schedule_in calls would have
  // produced.
  const auto now = sim_.now();
  batch_.clear();
  batch_.reserve(2 * deliveries.size());
  for (const Delivery& delivery : deliveries) {
    Phy* dst = delivery.destination;
    const double power = delivery.rx_power_dbm;
    batch_.push_back({now + delivery.propagation,
                      [dst, tx, power] { dst->rx_start(tx, power); }});
    batch_.push_back({now + delivery.propagation + timing.total,
                      [dst, tx, power] { dst->rx_end(tx, power); }});
  }
  batch_ids_.clear();
  sim_.scheduler().schedule_batch(batch_, &batch_ids_);
  // Hand each receiver the ids of its rx pair so detach() can cancel
  // in-flight deliveries. Ids whose events already ran are compacted
  // out first, keeping each vector at the live in-flight count instead
  // of growing with history.
  auto& scheduler = sim_.scheduler();
  for (std::size_t i = 0; i < deliveries.size(); ++i) {
    auto& pend = deliveries[i].destination->pending_rx_events_;
    std::erase_if(pend,
                  [&](sim::EventId id) { return !scheduler.pending(id); });
    pend.push_back(batch_ids_[2 * i]);
    pend.push_back(batch_ids_[2 * i + 1]);
  }
  return timing.total;
}

}  // namespace hydra::phy
