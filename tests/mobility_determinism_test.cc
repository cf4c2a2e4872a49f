// The mobility determinism suite: the medium's incremental detach/move
// maintenance must be indistinguishable from rebuilding, and trace
// digests must stay bit-identical to the full-mesh reference (an
// infinite cull margin) while nodes move, teleport and churn.
//
// Two layers of differential testing:
//
//   1. List-level: a Medium driven through a randomized schedule —
//      moves (in-box and far-out), detaches and re-attaches on a small
//      lattice; sub-metre steps and cross-world jumps on a wider one
//      with mixed transmit powers — must, after EVERY step, hold
//      delivery lists equal — receiver key, bit-exact receive power,
//      delay — to a from-scratch rebuild over the same attached set,
//      and to a geometry-free list built from every attached pair.
//   2. Scenario-level: flood traffic over waypoint / distance-step /
//      churn mobility models must produce the same trace digest and
//      byte-identical stats tables at the default cull margin and at
//      an infinite one, across a seed sweep.
//
// Both layers compare the medium with references indexed by the same
// attachment keys, so a delivery order they all share is pinned once
// more against recorded values: the churn world's digests and a receive
// order across deaths and re-attaches.
//
// Registered under the `mobility` ctest label.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "app/flood.h"
#include "phy/medium.h"
#include "phy/phy.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "topo/mobility.h"
#include "topo/scenario.h"
#include "util/crc32.h"

namespace hydra {
namespace {

// The full-mesh reference: an infinite cull margin delivers to every
// attached PHY (pinned by MediumMath.InfiniteMarginIsTheFullMeshReference).
constexpr double kFullMeshMargin = std::numeric_limits<double>::infinity();
constexpr double kDefaultMargin = phy::MediumConfig{}.cull_margin_db;

// ---------------------------------------------------------------------
// List-level: incremental patches == from-scratch rebuild, every step
// ---------------------------------------------------------------------

void expect_same_list(const std::vector<phy::Delivery>& got,
                      const std::vector<phy::Delivery>& want,
                      const std::string& ctx) {
  ASSERT_EQ(got.size(), want.size()) << ctx << ": list length diverged";
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key) << ctx << " entry " << i;
    // Bit-exact, not approximately: the patched entry must have come
    // through the same arithmetic as a rebuild's.
    EXPECT_EQ(got[i].rx_power_dbm, want[i].rx_power_dbm)
        << ctx << " entry " << i;
    EXPECT_EQ(got[i].propagation.ns(), want[i].propagation.ns())
        << ctx << " entry " << i;
  }
}

// The key table of `phys`' attached members, from the PHYs themselves:
// entry k is the PHY attached under key k, null where none is.
std::vector<phy::Phy*> key_table(
    const std::vector<std::unique_ptr<phy::Phy>>& phys) {
  std::vector<phy::Phy*> table;
  for (const auto& phy : phys) {
    if (!phy->attached()) continue;
    if (phy->key() >= table.size()) table.resize(phy->key() + 1);
    table[phy->key()] = phy.get();
  }
  return table;
}

// The list the medium's definition gives `src`, with no spatial index:
// every other attached PHY in key order whose receive power clears the
// cull floor.
std::vector<phy::Delivery> brute_force_list(
    const phy::Phy& src, const std::vector<phy::Phy*>& receivers,
    const phy::MediumConfig& config) {
  std::vector<phy::Delivery> list;
  for (const phy::Phy* dst : receivers) {
    if (dst == nullptr || dst == &src) continue;
    const double d =
        phy::distance_m(src.config().position, dst->config().position);
    const double power =
        src.config().tx_power_dbm - phy::path_loss_db(config, d);
    if (power >= phy::cull_floor_dbm(config)) {
      list.push_back({dst->key(), power, phy::propagation_delay(config, d)});
    }
  }
  return list;
}

void expect_lists_match_rebuild(
    phy::Medium& medium, const std::vector<std::unique_ptr<phy::Phy>>& phys,
    const std::string& ctx) {
  const auto receivers = key_table(phys);
  const auto& live = medium.backend();
  phy::DeliveryBackend reference;
  reference.rebuild(receivers, medium.config());
  for (const phy::Phy* src : receivers) {
    if (src == nullptr) continue;
    const std::string where = ctx + ": source " + std::to_string(src->id());
    expect_same_list(live.deliveries(*src), reference.deliveries(*src),
                     where + " vs rebuild");
    expect_same_list(live.deliveries(*src),
                     brute_force_list(*src, receivers, medium.config()),
                     where + " vs brute force");
  }
}

// A lattice of PHYs and the op schedule the list-level check drives
// over it.
struct ListWorld {
  std::string name;
  std::uint32_t cols = 0;
  std::uint32_t rows = 0;
  double spacing_m = 0.0;
  // Every third PHY transmits at 2 dBm (reach ~21.5 m against ~36.5 m),
  // so "i hears s" and "s hears i" differ: a patch must decide each
  // reverse entry from that source's own power.
  bool mixed_power = false;
  // true: in-box and far-out moves, detaches and re-attaches.
  // false: moves only, half sub-metre steps and half jumps anywhere in
  // the box, so every move stays on the incremental path.
  bool churn = false;
  int ops = 0;
  std::vector<double> cull_margins_db;
};

// True when some source reaches a receiver that cannot reach it back.
bool has_one_way_link(phy::Medium& medium,
                      const std::vector<std::unique_ptr<phy::Phy>>& phys) {
  const auto receivers = key_table(phys);
  const auto& backend = medium.backend();
  const auto hears = [&](const phy::Phy& src, std::uint32_t dst) {
    const auto& list = backend.deliveries(src);
    return std::any_of(list.begin(), list.end(), [&](const phy::Delivery& d) {
      return d.key == dst;
    });
  };
  for (const phy::Phy* src : receivers) {
    if (src == nullptr) continue;
    for (const phy::Delivery& d : backend.deliveries(*src)) {
      if (!hears(*receivers[d.key], src->key())) return true;
    }
  }
  return false;
}

TEST(MobilityDeterminism, EveryStepMatchesAFromScratchRebuild) {
  const std::vector<ListWorld> worlds = {
      // 6×4 at 8 m: spans two reach-radius cells, so culled moves cross
      // cell boundaries and the lists genuinely differ by cell.
      {.name = "6x4",
       .cols = 6,
       .rows = 4,
       .spacing_m = 8.0,
       .churn = true,
       .ops = 60,
       .cull_margins_db = {kDefaultMargin, kFullMeshMargin}},
      // 12×12 at 10 m: 4×4 reach-radius cells, asymmetric reach.
      {.name = "12x12 mixed power",
       .cols = 12,
       .rows = 12,
       .spacing_m = 10.0,
       .mixed_power = true,
       .ops = 134,  // per seed: ~400 moves
       .cull_margins_db = {kDefaultMargin}},
      // The same lattice under churn: a detach strips the leaver from
      // its grid neighbourhood's lists only, which must hold when "i
      // hears s" and "s hears i" differ.
      {.name = "12x12 mixed power churn",
       .cols = 12,
       .rows = 12,
       .spacing_m = 10.0,
       .mixed_power = true,
       .churn = true,
       .ops = 60,
       .cull_margins_db = {kDefaultMargin}},
  };
  for (const auto& world : worlds) {
    const std::uint32_t n = world.cols * world.rows;
    const double width = world.spacing_m * (world.cols - 1);
    const double height = world.spacing_m * (world.rows - 1);
    for (const double margin : world.cull_margins_db) {
      for (const std::uint64_t seed : {1, 2, 3}) {
        sim::Simulation s(seed);
        phy::MediumConfig config;
        config.cull_margin_db = margin;
        phy::Medium medium(s, config);

        std::vector<std::unique_ptr<phy::Phy>> phys;
        for (std::uint32_t i = 0; i < n; ++i) {
          phy::PhyConfig pc{.position = {world.spacing_m * (i % world.cols),
                                         world.spacing_m * (i / world.cols)}};
          if (world.mixed_power && i % 3 == 0) pc.tx_power_dbm = 2.0;
          phys.push_back(std::make_unique<phy::Phy>(s, medium, pc, i));
        }
        expect_lists_match_rebuild(medium, phys,
                                   world.name + " initial build");
        if (world.mixed_power) {
          ASSERT_TRUE(has_one_way_link(medium, phys)) << world.name;
        }

        sim::Rng rng(seed * 977 + 13);
        for (int op = 0; op < world.ops; ++op) {
          const std::string ctx = world.name + " margin " +
                                  std::to_string(margin) + " seed " +
                                  std::to_string(seed) + " op " +
                                  std::to_string(op);
          phy::Phy& target =
              *phys[static_cast<std::size_t>(rng.uniform() * n) % n];
          const double r = rng.uniform();
          if (!world.churn && r < 0.5) {
            // Sub-metre step, clamped into the box.
            const phy::Position at = target.config().position;
            medium.move_node(
                target,
                {std::clamp(at.x_m + rng.uniform() - 0.5, 0.0, width),
                 std::clamp(at.y_m + rng.uniform() - 0.5, 0.0, height)});
          } else if (!world.churn || r < 0.45) {
            // A jump anywhere in the box (the incremental path at every
            // margin).
            medium.move_node(target,
                             {rng.uniform() * width, rng.uniform() * height});
          } else if (r < 0.6) {
            // Far out of the bounding box: must fall back to a rebuild.
            medium.move_node(target, {200.0 + rng.uniform() * 50.0, 0.0});
          } else if (r < 0.8) {
            medium.detach(target);  // no-op when already detached
          } else {
            if (!target.attached()) medium.attach(target);
          }
          expect_lists_match_rebuild(medium, phys, ctx);
        }
        EXPECT_GT(medium.moves(), 0u);
        if (world.churn) {
          // The schedule must have exercised both maintenance paths.
          EXPECT_GT(medium.detaches(), 0u);
          EXPECT_GT(medium.incremental_detaches(), 0u);
        }
        if (world.churn) {
          EXPECT_GT(medium.incremental_moves(), 0u);
          EXPECT_LT(medium.incremental_moves(), medium.moves())
              << "far-out moves should have forced rebuilds";
        } else {
          EXPECT_EQ(medium.incremental_moves(), medium.moves())
              << world.name << ": every move stays in the box";
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Scenario-level: digests bit-identical to full mesh under motion
// ---------------------------------------------------------------------

struct RunFingerprint {
  std::uint32_t digest = 0;
  std::string stats;
  std::uint64_t transmissions = 0;
  std::uint64_t detaches = 0;
  std::uint64_t moves = 0;
  std::uint64_t incremental_moves = 0;
  std::uint64_t rebuilds = 0;
};

RunFingerprint run_mobile(topo::ScenarioSpec spec, double cull_margin_db,
                          std::uint64_t seed) {
  spec.medium.cull_margin_db = cull_margin_db;
  auto s = topo::Scenario::build(spec, seed);
  s.capture_traces();

  std::vector<std::unique_ptr<app::FloodApp>> flooders;
  for (std::size_t i = 0; i < s.size(); ++i) {
    app::FloodConfig fc;
    fc.interval = sim::Duration::millis(400);
    fc.initial_offset = sim::Duration::millis(17) * (i + 1);
    flooders.push_back(std::make_unique<app::FloodApp>(s.sim(), s.node(i), fc));
    flooders.back()->start();
  }
  s.run_for(sim::Duration::seconds(3));

  EXPECT_FALSE(s.trace().empty()) << spec.label();
  RunFingerprint fp;
  fp.digest = s.trace_digest();
  fp.stats = s.metrics_summary();
  fp.transmissions = s.medium().transmissions_started();
  fp.detaches = s.medium().detaches();
  fp.moves = s.medium().moves();
  fp.incremental_moves = s.medium().incremental_moves();
  fp.rebuilds = s.medium().rebuilds();
  return fp;
}

// Runs `spec` at the default cull margin and at the full-mesh one and
// asserts the determinism-under-motion contract; returns the culled
// fingerprint for extra model-specific assertions.
RunFingerprint assert_full_mesh_agrees_in_motion(const topo::ScenarioSpec& spec,
                                                 std::uint64_t seed) {
  const auto reference = run_mobile(spec, kDefaultMargin, seed);

  const auto full_mesh = run_mobile(spec, kFullMeshMargin, seed);
  EXPECT_EQ(full_mesh.digest, reference.digest)
      << spec.label() << " seed " << seed << ": full-mesh digest diverged";
  EXPECT_EQ(full_mesh.stats, reference.stats)
      << spec.label() << " seed " << seed << ": full-mesh stats diverged";
  EXPECT_EQ(full_mesh.transmissions, reference.transmissions);
  // The motion schedule itself must not depend on the margin.
  EXPECT_EQ(full_mesh.detaches, reference.detaches);
  EXPECT_EQ(full_mesh.moves, reference.moves);
  return reference;
}

topo::ScenarioSpec mobile_grid(topo::MobilityKind kind) {
  auto spec = topo::ScenarioSpec::grid(4, 4);
  spec.spacing_m = 7.0;  // 21 m wide: several nodes per reach, real culling
  spec.mobility.kind = kind;
  spec.mobility.update_interval = sim::Duration::millis(250);
  spec.mobility.stop_after = sim::Duration::seconds(2);
  return spec;
}

TEST(MobilityDeterminism, WaypointWalksAreBackendInvariant) {
  for (const std::uint64_t seed : {3, 7}) {
    const auto culled = assert_full_mesh_agrees_in_motion(
        mobile_grid(topo::MobilityKind::kWaypoint), seed);
    EXPECT_GT(culled.moves, 0u);
    // Waypoint walks stay inside the world bounds, so the medium
    // absorbs every move without rebuilding.
    EXPECT_EQ(culled.incremental_moves, culled.moves);
    EXPECT_EQ(culled.rebuilds, 1u);
  }
}

TEST(MobilityDeterminism, DistanceStepsForceRebuildsIdentically) {
  auto spec = mobile_grid(topo::MobilityKind::kDistanceStep);
  spec.mobility.step_m = 4.0;
  spec.mobility.steps_out = 3;
  for (const std::uint64_t seed : {3, 7}) {
    const auto culled = assert_full_mesh_agrees_in_motion(spec, seed);
    EXPECT_GT(culled.moves, 0u);
    // The excursion leaves the bounding box, so some ticks rebuild.
    EXPECT_GT(culled.rebuilds, 1u);
  }
}

TEST(MobilityDeterminism, ChurnIsBackendInvariant) {
  auto spec = mobile_grid(topo::MobilityKind::kChurn);
  spec.mobility.down_time = sim::Duration::millis(300);
  for (const std::uint64_t seed : {3, 7}) {
    const auto culled = assert_full_mesh_agrees_in_motion(spec, seed);
    EXPECT_GT(culled.detaches, 0u);
  }
}

// ---------------------------------------------------------------------
// Recorded values: the rebuild, brute-force and full-mesh references
// above all follow the medium's key order, so a reordering they share
// shows only against numbers recorded from an earlier build
// ---------------------------------------------------------------------

TEST(MobilityDeterminism, ChurnMatchesRecordedValues) {
  auto spec = mobile_grid(topo::MobilityKind::kChurn);
  spec.mobility.down_time = sim::Duration::millis(300);
  struct Recorded {
    std::uint64_t seed;
    std::uint32_t digest;
    std::uint32_t stats_crc;
  };
  for (const Recorded& want : {Recorded{3, 495672347u, 2050939008u},
                               Recorded{7, 1473156884u, 4043059924u}}) {
    const auto run = run_mobile(spec, kDefaultMargin, want.seed);
    const std::uint32_t stats_crc = crc32(
        {reinterpret_cast<const std::uint8_t*>(run.stats.data()),
         run.stats.size()});
    EXPECT_EQ(run.digest, want.digest) << "seed " << want.seed;
    EXPECT_EQ(stats_crc, want.stats_crc) << "seed " << want.seed << "\n"
                                         << run.stats;
  }
}

TEST(MobilityDeterminism, ReceiveOrderAcrossDestroyAndReattachIsRecorded) {
  // Every receiver sits exactly 5 m from the transmitter, so each frame
  // reaches them all at one instant and the delivery-list order alone
  // decides who hears it first (and who consumes the first error draws).
  // PHYs die, join and re-attach between frames; the expected orders
  // are those attach order gives: survivors first, re-attached PHYs at
  // the back.
  const phy::Position ring[] = {{5, 0},  {4, 3},   {3, 4},   {0, 5},
                                {-3, 4}, {-4, 3},  {-5, 0},  {-4, -3},
                                {-3, -4}, {0, -5}, {3, -4}, {4, -3}};
  for (const double margin : {kDefaultMargin, kFullMeshMargin}) {
    sim::Simulation s(1);
    phy::MediumConfig config;
    config.cull_margin_db = margin;
    phy::Medium medium(s, config);
    phy::Phy tx(s, medium, {.position = {0, 0}}, 100);
    std::vector<std::uint32_t> heard;
    std::vector<std::unique_ptr<phy::Phy>> rx(12);
    const auto join = [&](std::uint32_t id, std::size_t at) {
      rx[id] = std::make_unique<phy::Phy>(
          s, medium, phy::PhyConfig{.position = ring[at]}, id);
      rx[id]->on_rx = [&heard, id](const phy::RxReport&) {
        heard.push_back(id);
      };
    };
    const auto send = [&] {
      phy::PhyFrame frame;
      frame.unicast.mode = proto::base_mode();
      frame.unicast.subframe_bytes = {200, 200};
      frame.payload = std::make_shared<phy::Payload>();
      heard.clear();
      tx.transmit(std::move(frame));
      s.run();
      return heard;
    };
    const std::string ctx = "margin " + std::to_string(margin);

    for (std::uint32_t id = 0; id < 6; ++id) join(id, id);
    EXPECT_EQ(send(), (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5})) << ctx;

    rx[1].reset();
    rx[3].reset();
    join(6, 6);
    join(7, 1);  // where 1 stood
    EXPECT_EQ(send(), (std::vector<std::uint32_t>{0, 2, 4, 5, 6, 7})) << ctx;

    medium.detach(*rx[2]);
    medium.detach(*rx[0]);
    medium.attach(*rx[0]);
    medium.attach(*rx[2]);
    EXPECT_EQ(send(), (std::vector<std::uint32_t>{4, 5, 6, 7, 0, 2})) << ctx;

    rx[5].reset();
    join(8, 3);  // where 3 stood
    medium.detach(*rx[6]);
    EXPECT_EQ(send(), (std::vector<std::uint32_t>{4, 7, 0, 2, 8})) << ctx;
    // Deaths force rebuilds; the in-box detaches and re-attaches patch.
    EXPECT_EQ(medium.rebuilds(), 3u) << ctx;
    EXPECT_EQ(medium.incremental_detaches(), 2u) << ctx;
    EXPECT_EQ(medium.incremental_attaches(), 2u) << ctx;
  }
}

TEST(MobilityDeterminism, WideWorldWaypointCrossesCells) {
  // A world wider than one reach-radius cell, so nodes move across cell
  // boundaries and the culled patches add and drop list entries.
  auto spec = topo::ScenarioSpec::grid(3, 10);
  spec.spacing_m = 7.0;  // 63 m wide
  spec.mobility.kind = topo::MobilityKind::kWaypoint;
  spec.mobility.speed_mps = 20.0;  // cell-crossing steps per tick
  spec.mobility.stop_after = sim::Duration::seconds(2);
  const auto culled = assert_full_mesh_agrees_in_motion(spec, 9);
  EXPECT_GT(culled.moves, 0u);
  EXPECT_EQ(culled.incremental_moves, culled.moves);
}

// ---------------------------------------------------------------------
// Mobility spec plumbing
// ---------------------------------------------------------------------

TEST(MobilityDeterminism, SpecPlumbsThroughScenario) {
  auto spec = mobile_grid(topo::MobilityKind::kWaypoint);
  auto s = topo::Scenario::build(spec, 1);
  ASSERT_NE(s.mobility(), nullptr);
  s.run_for(sim::Duration::seconds(3));
  EXPECT_GT(s.mobility()->ticks(), 0u);
  EXPECT_GT(s.medium().moves(), 0u);

  auto static_spec = topo::ScenarioSpec::grid(4, 4);
  auto st = topo::Scenario::build(static_spec, 1);
  EXPECT_EQ(st.mobility(), nullptr);
  EXPECT_EQ(topo::to_string(topo::MobilityKind::kChurn),
            std::string("churn"));
}

}  // namespace
}  // namespace hydra
