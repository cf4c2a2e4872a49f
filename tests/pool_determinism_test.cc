// Pooled vs heap differential determinism: recycling memory through
// util::BufferPool must be invisible to the simulation. Every paper
// spec runs twice — pooling on and pooling off — under every medium
// backend (full mesh, culled, sharded at 1/2/4 threads), and each pair
// must agree on
//
//   - the trace digest (CRC-32 over the network-event trace),
//   - the per-node MAC stats table, byte for byte, and
//   - the medium's transmission / scheduled-delivery counts.
//
// A pool bug that leaked recycled-block contents into frame payloads,
// or an allocation path whose availability changed event order, fails
// here before it can skew a figure. Registered under the `pool` ctest
// label; the TSan CI job runs it so the cross-thread free path (shard
// workers freeing blocks their lease does not own) is exercised under
// the race detector.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "app/flood.h"
#include "app/udp_cbr.h"
#include "app/udp_sink.h"
#include "topo/scenario.h"
#include "util/pool.h"

namespace hydra {
namespace {

struct RunFingerprint {
  std::uint32_t digest = 0;
  std::string stats;
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;
};

// Restores the pool toggle even when an assertion fails mid-test, so
// one failing case cannot leave the rest of the binary running with
// pooling off and mask (or fake) further differences.
class ScopedPooling {
 public:
  explicit ScopedPooling(bool on) : previous_(util::pooling_enabled()) {
    util::set_pooling_enabled(on);
  }
  ~ScopedPooling() { util::set_pooling_enabled(previous_); }

 private:
  bool previous_;
};

struct Backend {
  const char* label;
  topo::MediumPolicy policy;
  std::size_t shard_threads;
};

constexpr Backend kBackends[] = {
    {"full-mesh", topo::MediumPolicy::kFullMesh, 0},
    {"culled", topo::MediumPolicy::kCulled, 0},
    {"sharded@1", topo::MediumPolicy::kSharded, 1},
    {"sharded@2", topo::MediumPolicy::kSharded, 2},
    {"sharded@4", topo::MediumPolicy::kSharded, 4},
};

RunFingerprint run_flood(topo::ScenarioSpec spec, const Backend& backend,
                         bool pooled) {
  const ScopedPooling pooling(pooled);
  spec.medium.policy = backend.policy;
  spec.medium.shard_threads = backend.shard_threads;
  auto s = topo::Scenario::build(spec, /*seed=*/7);
  s.capture_traces();

  std::vector<std::unique_ptr<app::FloodApp>> flooders;
  for (std::size_t i = 0; i < s.size(); ++i) {
    app::FloodConfig fc;
    fc.interval = sim::Duration::millis(400);
    fc.initial_offset = sim::Duration::millis(17) * (i + 1);
    flooders.push_back(
        std::make_unique<app::FloodApp>(s.sim(), s.node(i), fc));
    flooders.back()->start();
  }
  s.run_for(sim::Duration::seconds(2));

  EXPECT_FALSE(s.trace().empty()) << spec.label();
  RunFingerprint fp;
  fp.digest = s.trace_digest();
  fp.stats = s.metrics_summary();
  fp.transmissions = s.medium().transmissions_started();
  fp.deliveries = s.medium().deliveries_scheduled();
  return fp;
}

void assert_pooling_invisible(const topo::ScenarioSpec& spec) {
  for (const auto& backend : kBackends) {
    const auto pooled = run_flood(spec, backend, /*pooled=*/true);
    const auto heap = run_flood(spec, backend, /*pooled=*/false);
    const std::string where = std::string(spec.label()) + " / " + backend.label;
    EXPECT_EQ(pooled.digest, heap.digest)
        << where << ": pooled vs heap trace digest diverged";
    EXPECT_EQ(pooled.stats, heap.stats)
        << where << ": pooled vs heap MAC stats diverged";
    EXPECT_EQ(pooled.transmissions, heap.transmissions) << where;
    EXPECT_EQ(pooled.deliveries, heap.deliveries) << where;
  }
}

TEST(PoolDeterminism, OneHop) {
  assert_pooling_invisible(topo::ScenarioSpec::one_hop());
}

TEST(PoolDeterminism, TwoHop) {
  assert_pooling_invisible(topo::ScenarioSpec::two_hop());
}

TEST(PoolDeterminism, ThreeHop) {
  assert_pooling_invisible(topo::ScenarioSpec::three_hop());
}

TEST(PoolDeterminism, Fig6Star) {
  assert_pooling_invisible(topo::ScenarioSpec::fig6_star());
}

// A wider world than the paper specs: multiple spatial-grid stripes
// under the sharded backend, so recycled blocks actually cross worker
// threads (the remote-free path) while digests are being pinned.
TEST(PoolDeterminism, WideGrid) {
  auto spec = topo::ScenarioSpec::grid(4, 4);
  spec.sessions = {{0, 15}};
  assert_pooling_invisible(spec);
}

// TCP over UDP-style routing exercises a different packet mix (acks,
// retransmissions, per-hop forwarding of unicast subframes) than the
// flood workload above.
TEST(PoolDeterminism, CbrChainPooledVsHeap) {
  auto spec = topo::ScenarioSpec::chain(4);
  const auto run_cbr = [&](bool pooled) {
    const ScopedPooling pooling(pooled);
    auto s = topo::Scenario::build(spec, /*seed=*/11);
    s.capture_traces();
    app::UdpSinkApp sink(s.sim(), s.node(3), 9001);
    app::UdpCbrConfig cfg;
    cfg.destination = {proto::Ipv4Address::for_node(3), 9001};
    cfg.packets_per_tick = 3;
    cfg.stop = sim::TimePoint::at(sim::Duration::seconds(2));
    app::UdpCbrApp cbr(s.sim(), s.node(0), cfg);
    cbr.start();
    s.run_for(sim::Duration::seconds(3));
    EXPECT_GT(sink.packets(), 0u);
    return std::pair{s.trace_digest(), s.metrics_summary()};
  };
  const auto pooled = run_cbr(true);
  const auto heap = run_cbr(false);
  EXPECT_EQ(pooled.first, heap.first) << "chain-4 CBR digest diverged";
  EXPECT_EQ(pooled.second, heap.second) << "chain-4 CBR stats diverged";
}

}  // namespace
}  // namespace hydra
