// The differential determinism harness: the pinned contract for every
// parallel delivery backend. Each scenario family — the four paper
// specs plus chain/star/grid/ring/random, including wide worlds that
// actually span multiple spatial-grid stripes — runs under kFullMesh,
// kCulled and kSharded at 1/2/4 threads, and every run must produce
//
//   - the same trace digest (CRC-32 over the network-event trace),
//   - the same per-node MAC stats table, byte for byte, and
//   - (culled vs sharded) the same scheduled-delivery count.
//
// A future backend that reorders deliveries, races a list write, or
// lets thread count leak into arithmetic fails here before it can skew
// a paper figure. Registered under the `shard` ctest label so gcc,
// clang and the TSan job all run it.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "app/flood.h"
#include "app/udp_cbr.h"
#include "app/udp_sink.h"
#include "topo/scenario.h"

namespace hydra {
namespace {

struct RunFingerprint {
  std::uint32_t digest = 0;
  std::string stats;
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;
  std::size_t shards = 1;
};

enum class Workload {
  kCbr,   // UDP CBR over the spec's first session (exercises routing)
  kFlood  // every node broadcasts (exercises pure fan-out)
};

RunFingerprint run_scenario(topo::ScenarioSpec spec,
                            topo::MediumPolicy policy, std::size_t threads,
                            std::uint64_t seed, Workload workload) {
  spec.medium.policy = policy;
  spec.medium.shard_threads = threads;
  auto s = topo::Scenario::build(spec, seed);
  s.capture_traces();

  std::unique_ptr<app::UdpSinkApp> sink;
  std::unique_ptr<app::UdpCbrApp> cbr;
  std::vector<std::unique_ptr<app::FloodApp>> flooders;
  if (workload == Workload::kCbr) {
    const auto sender = spec.sessions.front().sender;
    const auto receiver = spec.sessions.front().receiver;
    sink = std::make_unique<app::UdpSinkApp>(s.sim(), s.node(receiver), 9001);
    app::UdpCbrConfig cbr_cfg;
    cbr_cfg.destination = {proto::Ipv4Address::for_node(receiver), 9001};
    cbr_cfg.packets_per_tick = 3;
    cbr_cfg.stop = sim::TimePoint::at(sim::Duration::seconds(2));
    cbr = std::make_unique<app::UdpCbrApp>(s.sim(), s.node(sender), cbr_cfg);
    cbr->start();
  } else {
    for (std::size_t i = 0; i < s.size(); ++i) {
      app::FloodConfig fc;
      fc.interval = sim::Duration::millis(400);
      fc.initial_offset = sim::Duration::millis(17) * (i + 1);
      flooders.push_back(
          std::make_unique<app::FloodApp>(s.sim(), s.node(i), fc));
      flooders.back()->start();
    }
  }
  s.run_for(sim::Duration::seconds(3));

  EXPECT_FALSE(s.trace().empty()) << spec.label();
  if (workload == Workload::kCbr) {
    EXPECT_GT(sink->packets(), 0u) << spec.label();
  }
  RunFingerprint fp;
  fp.digest = s.trace_digest();
  fp.stats = s.metrics_summary();
  fp.transmissions = s.medium().transmissions_started();
  fp.deliveries = s.medium().deliveries_scheduled();
  fp.shards = s.medium().shards();
  return fp;
}

// Runs `spec` under every backend × thread-count combination and
// asserts the contract. Returns the sharded 4-thread fingerprint so
// callers can make extra assertions (e.g. that multiple stripes were
// actually in play).
RunFingerprint assert_backends_agree(const topo::ScenarioSpec& spec,
                                     std::uint64_t seed, Workload workload) {
  const auto reference =
      run_scenario(spec, topo::MediumPolicy::kCulled, 0, seed, workload);

  const auto full_mesh =
      run_scenario(spec, topo::MediumPolicy::kFullMesh, 0, seed, workload);
  EXPECT_EQ(full_mesh.digest, reference.digest)
      << spec.label() << " seed " << seed << ": full-mesh digest diverged";
  EXPECT_EQ(full_mesh.stats, reference.stats)
      << spec.label() << " seed " << seed << ": full-mesh stats diverged";
  EXPECT_EQ(full_mesh.transmissions, reference.transmissions);

  RunFingerprint last;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    last = run_scenario(spec, topo::MediumPolicy::kSharded, threads, seed,
                        workload);
    EXPECT_EQ(last.digest, reference.digest)
        << spec.label() << " seed " << seed << ": sharded@" << threads
        << " digest diverged";
    EXPECT_EQ(last.stats, reference.stats)
        << spec.label() << " seed " << seed << ": sharded@" << threads
        << " stats diverged";
    // Sharded must select exactly the culled receiver sets — not just
    // behave the same, schedule the same.
    EXPECT_EQ(last.deliveries, reference.deliveries)
        << spec.label() << " seed " << seed << ": sharded@" << threads;
    EXPECT_EQ(last.transmissions, reference.transmissions);
  }
  return last;
}

// ---------------------------------------------------------------------
// Paper topologies: the figures themselves must be backend-invariant.
// ---------------------------------------------------------------------

TEST(ShardDeterminism, PaperSpecs) {
  for (const auto& spec :
       {topo::ScenarioSpec::one_hop(), topo::ScenarioSpec::two_hop(),
        topo::ScenarioSpec::three_hop(), topo::ScenarioSpec::fig6_star()}) {
    for (const std::uint64_t seed : {3, 7}) {
      assert_backends_agree(spec, seed, Workload::kCbr);
    }
  }
}

// ---------------------------------------------------------------------
// One test per open-ended family (ctest runs them in parallel).
// ---------------------------------------------------------------------

TEST(ShardDeterminism, ChainFamily) {
  assert_backends_agree(topo::ScenarioSpec::chain(6), 5, Workload::kCbr);
}

TEST(ShardDeterminism, StarFamily) {
  assert_backends_agree(topo::ScenarioSpec::star(4), 5, Workload::kCbr);
}

TEST(ShardDeterminism, GridFamily) {
  assert_backends_agree(topo::ScenarioSpec::grid(3, 3), 5, Workload::kCbr);
}

TEST(ShardDeterminism, RingFamily) {
  assert_backends_agree(topo::ScenarioSpec::ring(7), 5, Workload::kCbr);
}

TEST(ShardDeterminism, RandomFamilySeedSweep) {
  for (const std::uint64_t placement : {1, 2}) {
    for (const std::uint64_t seed : {5, 11}) {
      assert_backends_agree(topo::ScenarioSpec::random(10, placement), seed,
                            Workload::kCbr);
    }
  }
}

// ---------------------------------------------------------------------
// Wide worlds: the paper topologies fit inside one spatial-grid cell,
// where sharding degenerates to a single stripe. These span several
// reach radii, so the 4-thread runs genuinely exercise the multi-stripe
// partition and the canonical merge.
// ---------------------------------------------------------------------

TEST(ShardDeterminism, WideChainUsesMultipleStripes) {
  auto spec = topo::ScenarioSpec::chain(16);
  spec.spacing_m = 7.0;  // 105 m span ≈ 3 reach-radius cells
  const auto sharded = assert_backends_agree(spec, 9, Workload::kFlood);
  EXPECT_GE(sharded.shards, 2u);
}

TEST(ShardDeterminism, WideGridUsesMultipleStripes) {
  auto spec = topo::ScenarioSpec::grid(3, 10);
  spec.spacing_m = 7.0;  // 63 m wide
  const auto sharded = assert_backends_agree(spec, 9, Workload::kFlood);
  EXPECT_GE(sharded.shards, 2u);
}

TEST(ShardDeterminism, WideRandomPlacement) {
  auto spec = topo::ScenarioSpec::random(20, 4);
  spec.spacing_m = 10.0;  // ~50 m extent; links stay <= range_m (3.5 m)
  assert_backends_agree(spec, 9, Workload::kFlood);
}

// ---------------------------------------------------------------------
// The sharded policy plumbs through the scenario layer like any other.
// ---------------------------------------------------------------------

TEST(ShardDeterminism, PolicyResolution) {
  auto spec = topo::ScenarioSpec::grid(8, 8);
  spec.medium.policy = topo::MediumPolicy::kSharded;
  EXPECT_EQ(spec.medium_config().delivery, phy::DeliveryPolicy::kSharded);
  spec.medium.shard_threads = 3;
  EXPECT_EQ(spec.medium_config().shard_threads, 3u);
  EXPECT_EQ(topo::to_string(topo::MediumPolicy::kSharded),
            std::string("sharded"));
  EXPECT_EQ(phy::to_string(phy::DeliveryPolicy::kSharded),
            std::string("sharded"));
}

}  // namespace
}  // namespace hydra
