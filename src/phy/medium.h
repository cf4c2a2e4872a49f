// The shared wireless medium: path loss, propagation, frame delivery.
//
// Log-distance path loss calibrated to the paper's operating point:
// 7.7 mW transmit power and 2.5 m node spacing give 25 dB SNR over
// a 1 MHz channel.
//
// One delivery path. A transmission fans out to the attached PHYs whose
// receive power clears the cull floor (noise floor − cull_margin_db,
// never above the CCA threshold). Receivers below the CCA threshold are
// behaviourally inert — they cannot assert CCA, collide, or decode — so
// skipping them is bit-identical to delivering to every PHY, while event
// traffic drops to the O(k) reachable neighbors. Candidates come from a
// reach-sized spatial grid: each source scans its 3×3 cell neighborhood,
// not every PHY. Every paper topology fits inside one reach radius, so
// there every PHY hears every transmission. An infinite cull_margin_db
// puts the floor at −∞ and the whole world in one grid cell: that
// full-mesh configuration is the reference the parity tests compare
// against.
//
// The DeliveryBackend precomputes the per-source delivery lists (receive
// power and propagation delay per pair) once per topology, so the
// per-frame hot path does no log10 at all, and a whole transmission's
// fan-out commits as one Scheduler::schedule_run: one callback that
// hands each arrival and departure, in time order, to its receiver.
// The culled lists still carry the deliveries between the cull floor
// and the CCA threshold; each such arrival only counts in its
// receiver's rx_starts(), and its departure does nothing, so a PHY sees
// only audible receptions and compares no power against the CCA
// threshold itself. Positions are not frozen at build time: attach(),
// detach() and move_node() patch the lists incrementally for the
// touched node alone whenever the update is provably local (inside the
// grid's bounding box, reach within one cell); otherwise they fall back
// to a full rebuild. The determinism contract extends to motion — after
// any incremental patch the lists are bit-identical to a from-scratch
// rebuild at the current positions, pinned by the mobility determinism
// suite (`ctest -L mobility`).
// One index names every PHY: the key attach() hands out, fresh at every
// call and never reused. The delivery lists, the grid and every delivery
// are indexed by it, and a delivery reaches its receiver through it, not
// a pointer: detaching (or destroying) a PHY clears its key, so a
// delivery still in flight lands nowhere, and no scheduled event ever
// touches a PHY the medium no longer knows. Keys grow in attach-call
// order, so among attached PHYs key order is attach order.
// Everything here runs on the simulation's one thread.
#pragma once

#include <cstdint>
#include <vector>

#include "phy/error_model.h"
#include "phy/frame.h"
#include "phy/spatial_index.h"
#include "sim/simulation.h"
#include "util/pool.h"

namespace hydra::phy {

class Phy;

struct MediumConfig {
  double path_loss_at_1m_db = 73.0;
  double path_loss_exponent = 3.0;
  // Thermal noise floor over the 1 MHz channel.
  double noise_floor_dbm = -101.0;
  // Energy-detect threshold for clear channel assessment. Low enough
  // that every node in the paper's topologies (max 7.5 m apart) hears
  // every transmission.
  double cca_threshold_dbm = -95.0;
  double propagation_speed_mps = 3.0e8;

  // Receivers more than this margin below the noise floor are skipped.
  // The effective floor is additionally clamped to the CCA threshold
  // (see cull_floor_dbm), which is what keeps culled delivery
  // bit-identical to delivering everywhere. +∞ delivers to every
  // attached PHY.
  double cull_margin_db = 10.0;
};

// Path loss over `distance` under `config`'s log-distance model; the
// model stops being meaningful below 1 m, so distance clamps there.
double path_loss_db(const MediumConfig& config, double distance);

// Propagation delay over `distance`, rounded to the nearest nanosecond
// and clamped to the same 1 m floor as the path-loss model.
sim::Duration propagation_delay(const MediumConfig& config, double distance);

// The receive-power floor below which the medium skips delivery: noise
// floor − cull margin, but never above the CCA threshold.
double cull_floor_dbm(const MediumConfig& config);

// The largest distance at which a transmitter at `tx_power_dbm` still
// clears the cull floor (≥ 1 m; the path-loss clamp applies to both
// branches — a cull floor barely under the tx power must not yield a
// sub-metre reach).
double reach_radius_m(const MediumConfig& config, double tx_power_dbm);

// One in-flight transmission and its fan-out. The scheduler run that
// delivers it holds the only reference, so it lives until its last
// departure, and every receiver's rx_start/rx_end reads it in place.
struct Transmission {
  // One receiver, copied from the source's delivery list.
  struct Reception {
    std::uint32_t key;  // the receiver's Phy::key()
    double rx_power_dbm;
  };

  std::uint64_t id = 0;
  PhyFrame frame;
  FrameTiming timing;
  // The receivers in delivery-list (key) order.
  util::PooledVector<Reception> receptions;
  // The run's events in time order: 2i is receptions[i]'s arrival and
  // 2i + 1 its departure. `next` indexes the event that runs next.
  util::PooledVector<std::uint32_t> events;
  std::uint32_t next = 0;
};

// One precomputed receiver of a given source PHY.
struct Delivery {
  std::uint32_t key = 0;  // the receiver's Phy::key()
  double rx_power_dbm = 0.0;
  sim::Duration propagation;
};

// The per-source delivery lists and the spatial grid their candidates
// come from, both indexed by attachment key (Phy::key). Each list is
// sorted by receiver key — scheduling order at equal timestamps decides
// RNG draw order. The methods that take `receivers` expect a key table:
// receivers[k] is the PHY attached under key k, or null once that PHY
// has detached or died. Medium keeps one; tests and benches build
// standalone ones as from-scratch references.
class DeliveryBackend {
 public:
  // Recomputes every list from `receivers` at their current positions
  // (called lazily after a membership or position change that could not
  // be absorbed incrementally).
  void rebuild(const std::vector<Phy*>& receivers, const MediumConfig& config);

  // Extends the lists for `phy`, just attached under the newest key
  // (receivers.back()), without touching any other pair. Returns false,
  // changing nothing, when the update is not provably local: `phy` lies
  // outside the grid's bounding box or its reach exceeds one cell. The
  // caller then rebuilds. Only meaningful after a rebuild().
  bool attach_incremental(Phy& phy, const std::vector<Phy*>& receivers,
                          const MediumConfig& config);

  // Removes `phy`, whose key the caller has just cleared, from both
  // delivery directions: its own list empties and its entry leaves every
  // list in its grid neighborhood (the only ones that can hold it),
  // without recomputing any surviving pair. Always local: fewer nodes
  // never need a larger reach, and no other key changes.
  void detach_incremental(const Phy& phy);

  // Repositions `phy` (its config already holds the new position;
  // `old_position` is where the lists last saw it) and patches both
  // directions — the node's own list and its entry in every list that
  // can observe the move — so the result is bit-identical to a rebuild
  // at the new positions. Same refusal contract as attach_incremental:
  // outside the bounding box the 3×3 superset guarantee no longer holds.
  bool move_incremental(Phy& phy, Position old_position,
                        const std::vector<Phy*>& receivers,
                        const MediumConfig& config);

  // The receivers a transmission from the attached PHY `src` fans out to.
  const std::vector<Delivery>& deliveries(const Phy& src) const;

 private:
  // Computes source s's list: grid candidates, sorted by key, culled
  // against `floor`, stored at its exact size. Requires every candidate
  // i < s to hold its current entry for s (or none, if culled): an
  // equal-power pair is read from there, not recomputed.
  void compute_list(std::uint32_t s, const std::vector<Phy*>& receivers,
                    const MediumConfig& config, double floor);

  std::vector<std::vector<Delivery>> lists_;
  SpatialGrid grid_;
  // Reused by every rebuild and patch, so they allocate nothing once
  // grown: the attached positions the grid is laid over, compute_list's
  // candidates, and the list it builds before copying it out at its
  // exact size.
  std::vector<Position> positions_;
  std::vector<std::uint32_t> candidates_;
  std::vector<Delivery> list_;
};

class Medium {
 public:
  Medium(sim::Simulation& simulation, MediumConfig config = {},
         ErrorModel error_model = ErrorModel{});

  Medium(const Medium&) = delete;
  Medium& operator=(const Medium&) = delete;

  // Registers a PHY under a key this medium has never handed out before.
  // A PHY that is destroyed while attached detaches itself (clearing its
  // key, so its in-flight deliveries land nowhere) in O(1), so outliving
  // the medium's events is no longer the caller's problem, and PHYs may
  // die in any order.
  void attach(Phy& phy);

  // Unregisters `phy`: clears its key, so its queued rx_start/rx_end
  // events land nowhere, aborts its in-progress receptions, and removes
  // it from both delivery-list directions — in place, unless the lists
  // already await a rebuild. Idempotent; returns false when `phy` was not
  // attached. A detached PHY may keep transmitting (the MAC's timing
  // machinery keeps running) but reaches nobody until re-attach()ed, and
  // the re-attach's fresh key keeps the old deliveries away from it.
  bool detach(Phy& phy);

  // Repositions `phy` and patches the delivery lists in place when the
  // move is provably local, via a deferred full rebuild otherwise. Works
  // on detached PHYs too (the position just updates for a later
  // re-attach).
  void move_node(Phy& phy, Position position);

  // Begins delivering `frame`, whose airtime is `timing` (its
  // frame_timing under `src`'s timings), from `src` to every receiver on
  // its delivery list.
  void start_transmission(Phy& src, PhyFrame frame, FrameTiming timing);

  double rx_power_dbm(const Phy& src, const Phy& dst) const;
  double snr_db(const Phy& src, const Phy& dst) const;

  const MediumConfig& config() const { return config_; }
  const ErrorModel& error_model() const { return error_model_; }
  sim::Simulation& simulation() { return sim_; }

  // The delivery lists, current.
  const DeliveryBackend& backend();

  // Counter reads for result collection.
  std::uint64_t transmissions_started() const { return next_tx_id_ - 1; }
  // Receiver deliveries scheduled so far (each is one arrival and one
  // departure event); deliveries ÷ transmissions is the per-frame fan-out
  // the scale bench charts.
  std::uint64_t deliveries_scheduled() const { return deliveries_scheduled_; }

  // Delivery-list accounting: full rebuilds performed; attaches, detaches
  // and moves absorbed incrementally instead of rebuilding;
  // and total detach()/move_node() calls on attached PHYs.
  std::uint64_t rebuilds() const { return rebuilds_; }
  std::uint64_t incremental_attaches() const { return incremental_attaches_; }
  std::uint64_t detaches() const { return detaches_; }
  std::uint64_t moves() const { return moves_; }
  std::uint64_t incremental_detaches() const { return incremental_detaches_; }
  std::uint64_t incremental_moves() const { return incremental_moves_; }

 private:
  friend class Phy;

  void ensure_backend();
  // Runs `tx`'s next event: an arrival or departure at its receiver, if
  // that receiver's key is still attached.
  void deliver(Transmission& tx);
  // Asserts `phy` holds its key here, then clears the key: from now on
  // its queued deliveries land nowhere.
  void release_key(const Phy& phy);
  // Destructor-path detach: release the key and mark the lists stale,
  // O(1) in any teardown order. It skips the incremental patch (teardown
  // destroys nodes one by one, and nobody reads the lists in between)
  // and the CCA callback (the owning node is mid-destruction).
  void on_phy_destroyed(Phy& phy);

  sim::Simulation& sim_;
  MediumConfig config_;
  ErrorModel error_model_;
  // The key table: every attachment's PHY, by key. attach() appends a
  // fresh entry, and detach() and on_phy_destroyed() null it. Grow-only,
  // so no key is ever reused — neither by a re-attach nor by a new PHY
  // the allocator places at a freed one's address — and a delivery
  // captures its key, not its receiver.
  std::vector<Phy*> receivers_;
  DeliveryBackend backend_;
  bool backend_dirty_ = true;
  // Transmission-path state: one global sequence shared by every node.
  std::uint64_t next_tx_id_ = 1;
  std::uint64_t deliveries_scheduled_ = 0;
  // Topology bookkeeping, mutated through attach/detach/move_node.
  std::uint64_t rebuilds_ = 0;
  std::uint64_t incremental_attaches_ = 0;
  std::uint64_t detaches_ = 0;
  std::uint64_t moves_ = 0;
  std::uint64_t incremental_detaches_ = 0;
  std::uint64_t incremental_moves_ = 0;
  // Reused per transmission to order its fan-out: each arrival's time
  // and event number, then every event's time, which schedule_run copies.
  struct Arrival {
    sim::TimePoint at;
    std::uint32_t event;
  };
  std::vector<Arrival> arrivals_;
  std::vector<sim::TimePoint> times_;
};

}  // namespace hydra::phy
